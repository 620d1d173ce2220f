"""Self-test of the benchmark harness at toy sizes (a few seconds).

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import TOY, OpFailed, Run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_workload_runs_clean_and_reports_every_end_to_end_metric(name, tmp_path):
    record = run.run_workload(name, TOY, 1, 0.0, False, tmp_path / "work")
    assert record["problems"] == []
    assert record["failed"] == 0 and record["attempted"] >= 1
    assert len(record["reps"]) == TOY.min_reps
    assert len(record["setup_times_s"]) == TOY.setups
    assert record["digests"] and all(len(d) == 64 for d in record["digests"].values())

    metrics = run.end_to_end(record, run.row(record, import_s=0.0))
    assert set(metrics) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for m in BENCHMARK["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0.0


def test_traced_run_reports_every_per_layer_metric_and_restores_the_program(tmp_path):
    from cps_sentinel import cli, pipeline
    from cps_sentinel.forecaster import layers

    originals = (cli.main, pipeline.train, layers.Conv1DLayer.forward)
    record = run.run_workload("optimize", TOY, 1, 0.0, True, tmp_path / "work")
    assert (cli.main, pipeline.train, layers.Conv1DLayer.forward) == originals
    assert record["problems"] == [] and len(record["untraced"]) == 1

    metrics, lines = run.trace_report(record)
    assert list(metrics) == [m["name"] for m in BENCHMARK["per_layer"]]
    for m in BENCHMARK["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        if m["unit"] == "s":
            assert metrics[m["name"]]["value"] > 0.0, m["name"]
    assert metrics["gaopt.evolve.distinct"]["value"] >= 1
    assert any(line.startswith("tracing overhead") for line in lines)

    spans = record["tracer"].spans
    ids = {s.id for s in spans}
    assert all(s.parent is None or s.parent in ids for s in spans)
    roots = {s.name for s in spans if s.parent is None}
    assert roots <= set(tracing.PHASES)


def test_self_time_subtracts_the_union_of_overlapping_children():
    tracer = tracing.Tracer()
    parent = tracing.Span(1, None, "phase.rep", 0, 0.0, 10.0)
    kids = [
        tracing.Span(2, 1, "a", 1, 1.0, 4.0),
        tracing.Span(3, 1, "b", 2, 2.0, 5.0),
        tracing.Span(4, 1, "c", 1, 7.0, 8.0),
    ]
    tracer.spans = [parent, *kids]
    assert tracing._covered(parent, kids) == pytest.approx(5.0)
    table = tracer.summary()
    assert table["a"]["self_s"] == pytest.approx(3.0)
    assert set(table) == {"a", "b", "c"}


def test_failed_operations_are_counted_not_raised_through(tmp_path):
    r = Run()
    with pytest.raises(OpFailed):
        r.cli("train", "--config", tmp_path / "missing.ini")
    with pytest.raises(OpFailed):
        r.call(int, "not a number")
    assert (r.attempted, r.failed) == (2, 2)


def test_plant_config_places_attacks_inside_the_trace(tmp_path):
    from cps_sentinel import plantsim

    path = workloads.plant_config(tmp_path / "p.ini", 3, 10, 1000, 4, 400, 50)
    plant, attacks = plantsim.load_plant_config(path)
    assert plant.inflows == plant.outflows == (8.0, 8.0) and plant.noise_sigma == 0.1
    assert [(a.start, a.end) for a in attacks] == [(200, 250), (600, 650)]
    assert all(a.manipulation == ("offset", -6.0) and len(a.targets) == 4 for a in attacks)


def test_benchmark_file_matches_the_harness():
    assert BENCHMARK["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        tuple(m) for m in tracing.PER_LAYER
    ]
    assert max(m["bound"] for m in BENCHMARK["end_to_end"]) == next(
        m["bound"] for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"
    )


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
