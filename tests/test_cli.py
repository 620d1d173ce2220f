import configparser
import json
import shutil
import subprocess
import warnings
from dataclasses import fields

import numpy as np
import pytest

from cps_sentinel import cli
from cps_sentinel.cli import infer_schema, main
from cps_sentinel.dataio import DataFormatError
from cps_sentinel.detectors import KMEANS
from cps_sentinel.forecaster import TrainConfig
from cps_sentinel.gaopt import GaConfig
from cps_sentinel.pipeline import PipelineSettings

PLANT_INI = """\
[plant]
stages = 1
capacity = 1000
inflow = 2.0
outflow = 1.6
noise_sigma = 0.1
seed = 3

[simulate]
normal_steps = 400
test_steps = 200
test_seed = 4

[attack.1]
category = SSSP
start = 60
duration = 30
targets = 0:level
manipulation = offset:50

[attack.2]
category = SSSP
start = 140
duration = 20
targets = 0:flow
manipulation = offset:40
"""


def train_ini(data_dir, tmp_path, detector="threshold", epochs=2):
    return f"""\
[paths]
train_csv = {data_dir}/normal.csv
artifact = {tmp_path}/model.npz
history_csv = {tmp_path}/history.csv

[forecaster]
window = 8
conv1 = 8
conv2 = 8
dense1 = 8
dense2 = 8
dropout = 0.0
learning_rate = 0.01
epochs = {epochs}
batch_size = 32
patience = 2

[detector]
kind = {detector}
beta = 1.2

[seeds]
pipeline = 7
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """simulate + train once; the artifacts feed several tests."""
    tmp_path = tmp_path_factory.mktemp("cli")
    plant_cfg = tmp_path / "plant.ini"
    plant_cfg.write_text(PLANT_INI)
    data_dir = tmp_path / "data"
    assert main(["simulate", "--config", str(plant_cfg), "--out", str(data_dir)]) == 0

    train_cfg = tmp_path / "train.ini"
    train_cfg.write_text(train_ini(data_dir, tmp_path))
    assert main(["train", "--config", str(train_cfg)]) == 0
    return tmp_path


def test_usage_errors_exit_1(capsys):
    assert main(["frobnicate"]) == 1
    assert main(["detect", "--model", "m.npz"]) == 1  # missing required args
    err = capsys.readouterr().err
    assert err.startswith("cps-sentinel: ")


def test_missing_config_exits_2(capsys):
    assert main(["train", "--config", "/nonexistent/train.ini"]) == 2
    assert "cps-sentinel: " in capsys.readouterr().err


def test_config_without_paths_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bare.ini"
    cfg.write_text("[forecaster]\nwindow = 8\n")
    assert main(["train", "--config", str(cfg)]) == 2
    assert "[paths]" in capsys.readouterr().err


def test_simulate_writes_both_frames(workspace):
    normal = (workspace / "data" / "normal.csv").read_text().splitlines()
    test = (workspace / "data" / "test.csv").read_text().splitlines()
    assert len(normal) == 401 and len(test) == 201
    assert normal[0] == "Timestamp,S1_LEVEL,S1_FLOW,S1_VALVE,S1_PUMP,Normal/Attack"
    assert all(line.endswith(",Normal") for line in normal[1:])
    attacked = [line for line in test[1:] if line.endswith(",Attack")]
    assert len(attacked) == 50


def test_train_writes_artifact_and_history(workspace):
    assert (workspace / "model.npz").exists()
    history = (workspace / "history.csv").read_text().splitlines()
    assert history[0] == "epoch,train_mae,val_mae"
    assert len(history) >= 2


def test_detect_then_evaluate_round_trip(workspace, capsys):
    out = workspace / "verdicts"
    code = main([
        "detect", "--model", str(workspace / "model.npz"),
        "--data", str(workspace / "data" / "test.csv"), "--out", str(out),
    ])
    assert code == 0
    verdicts = (out / "verdicts.csv").read_text().splitlines()
    assert verdicts[0] == "index,flag,score"
    assert len(verdicts) == 1 + (200 - 8)
    errors = (out / "errors.csv").read_text().splitlines()
    assert errors[0] == "index,error" and len(errors) == len(verdicts)
    capsys.readouterr()

    code = main([
        "evaluate", "--verdicts", str(out / "verdicts.csv"),
        "--labels", str(workspace / "data" / "test.csv"),
    ])
    assert code == 0
    report = capsys.readouterr().out
    lines = dict(line.split(" ") for line in report.strip().splitlines())
    assert set(lines) == {"tp", "fp", "tn", "fn", "accuracy", "precision", "recall", "f1"}
    assert int(lines["tp"]) + int(lines["fp"]) + int(lines["tn"]) + int(lines["fn"]) == 192


def test_detect_is_byte_deterministic(workspace):
    out_a = workspace / "rerun_a"
    out_b = workspace / "rerun_b"
    for out in (out_a, out_b):
        assert main([
            "detect", "--model", str(workspace / "model.npz"),
            "--data", str(workspace / "data" / "test.csv"), "--out", str(out),
        ]) == 0
    assert (out_a / "verdicts.csv").read_bytes() == (out_b / "verdicts.csv").read_bytes()
    assert (out_a / "errors.csv").read_bytes() == (out_b / "errors.csv").read_bytes()


def test_detect_rejects_mismatched_schema(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("Timestamp,X1,Normal/Attack\n0,1.0,Normal\n")
    code = main([
        "detect", "--model", str(workspace / "model.npz"),
        "--data", str(bad), "--out", str(tmp_path / "out"),
    ])
    assert code == 2
    assert "header" in capsys.readouterr().err


def _drop(mapping, key):
    del mapping[key]


def _as_v2(meta, arrays):
    """The settings as format version 2 stored them."""
    settings = meta["settings"]
    settings["conv_filters"] = [settings.pop("conv1"), settings.pop("conv2")]
    settings["kernel_size"] = settings.pop("kernel")
    settings["dense_units"] = [settings.pop("dense1"), settings.pop("dense2")]
    meta["format_version"] = 2


# name -> (edit of the artifact's metadata and arrays, expected message fragment)
BROKEN_ARTIFACTS = {
    "missing settings key": (
        lambda meta, arrays: _drop(meta["settings"], "window"), "settings.window is missing"
    ),
    "missing parameter array": (
        lambda meta, arrays: _drop(arrays, "model.params"), "model.params must be"
    ),
    "(1,1,1) array for the parameters": (
        lambda meta, arrays: arrays.update({"model.params": np.zeros((1, 1, 1))}), "of shape"
    ),
    "flat vector of the wrong length": (
        lambda meta, arrays: arrays.update({"model.adam_v": arrays["model.adam_v"][:-1]}),
        "model.adam_v must be",
    ),
    "unknown detector kind": (
        lambda meta, arrays: meta["settings"].update(detector="oracle"), "unknown detector"
    ),
    "v1 artifact": (
        lambda meta, arrays: meta.update(format_version=1), "unsupported artifact format version 1"
    ),
    "v2 artifact": (_as_v2, "unsupported artifact format version 2"),
    "pool-3 max-pool layer": (
        lambda meta, arrays: meta["model"]["layer_specs"][1].update(pool=3), "pool 2 only"
    ),
}


@pytest.mark.parametrize("case", sorted(BROKEN_ARTIFACTS))
def test_detect_rejects_a_broken_artifact_in_one_line(workspace, tmp_path, capsys, case):
    edit, message = BROKEN_ARTIFACTS[case]
    with np.load(workspace / "model.npz") as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(bytes(arrays.pop("meta")))
    edit(meta, arrays)
    broken = tmp_path / "broken.npz"
    np.savez(broken, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)
    code = main([
        "detect", "--model", str(broken),
        "--data", str(workspace / "data" / "test.csv"), "--out", str(tmp_path / "out"),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("cps-sentinel: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("content", [b"", b"not an artifact\n", b"PK\x03\x04truncated"])
def test_detect_rejects_a_file_that_is_not_an_artifact(workspace, tmp_path, capsys, content):
    bad = tmp_path / "bad.npz"
    bad.write_bytes(content)
    code = main([
        "detect", "--model", str(bad),
        "--data", str(workspace / "data" / "test.csv"), "--out", str(tmp_path / "out"),
    ])
    assert code == 2
    assert "not an artifact" in capsys.readouterr().err


def test_evaluate_verdicts_against_themselves(tmp_path, capsys):
    path = tmp_path / "v.csv"
    path.write_text("index,flag,score\n0,0,0.1\n1,1,2.0\n2,1,3.0\n3,0,0.2\n")
    assert main(["evaluate", "--verdicts", str(path), "--labels", str(path)]) == 0
    lines = dict(line.split(" ") for line in capsys.readouterr().out.strip().splitlines())
    assert lines["f1"] == "1.0" and lines["accuracy"] == "1.0"
    assert lines["tp"] == "2" and lines["tn"] == "2"


def test_evaluate_missing_label_index_exits_2(tmp_path, capsys):
    verdicts = tmp_path / "v.csv"
    verdicts.write_text("index,flag,score\n999,1,1.0\n")
    labels = tmp_path / "l.csv"
    labels.write_text("index,flag,score\n0,1,1.0\n")
    assert main(["evaluate", "--verdicts", str(verdicts), "--labels", str(labels)]) == 2
    assert "no entry for index 999" in capsys.readouterr().err


def test_evaluate_rejects_non_verdict_file(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    assert main(["evaluate", "--verdicts", str(bad), "--labels", str(bad)]) == 2
    assert "not a verdict file" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["true", "2", " 1", ""])
def test_evaluate_rejects_a_flag_other_than_0_or_1(tmp_path, capsys, token):
    verdicts = tmp_path / "v.csv"
    verdicts.write_text(f"index,flag,score\n0,0,0.1\n1,{token},2.0\n")
    labels = tmp_path / "l.csv"
    labels.write_text("Timestamp,A,Normal/Attack\n0,1.0,Normal\n1,1.0,Attack\n")
    assert main(["evaluate", "--verdicts", str(verdicts), "--labels", str(labels)]) == 2
    err = capsys.readouterr().err
    assert err == f"cps-sentinel: {verdicts}: malformed row 2: flag is not 0 or 1: {token!r}\n"


GOOD_VERDICTS = "index,flag,score\n0,0,0.1\n1,0,0.2\n"
LABELS_HEADER = "Timestamp,A,Normal/Attack\n0,1.0,Normal\n"

# name -> (command, file it reads, that file's bytes with a fault in data row 2,
#          expected fragment of the message)
MALFORMED_CSVS = {
    "timestamp past int64": (
        "evaluate", "labels", (LABELS_HEADER + "99999999999999999999,1.0,Normal\n").encode(),
        "Python int too large",
    ),
    "field over the csv field limit": (
        "evaluate", "labels", (LABELS_HEADER + "1," + "9" * 131073 + ",Normal\n").encode(),
        "field larger than field limit",
    ),
    "byte that is not UTF-8": (
        "evaluate", "labels", LABELS_HEADER.encode() + b"1,1.0\xff,Normal\n",
        "can't decode byte 0xff",
    ),
    "nan reading": (
        "evaluate", "labels", (LABELS_HEADER + "1,nan,Normal\n").encode(), "non-finite value",
    ),
    "nan error": ("report", "errors", b"index,error\n0,0.5\n1,nan\n2,0.25\n", "non-finite error nan"),
    "score that is not a number": (
        "evaluate", "verdicts", b"index,flag,score\n0,0,0.1\n1,1,abc\n",
        "could not convert string to float: 'abc'",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CSVS))
def test_a_malformed_csv_exits_2_naming_file_and_row(tmp_path, capsys, case):
    command, role, content, reason = MALFORMED_CSVS[case]
    bad = tmp_path / "bad.csv"
    bad.write_bytes(content)
    good = tmp_path / "verdicts.csv"
    good.write_text(GOOD_VERDICTS)
    files = {"verdicts": good, "labels": good, "errors": bad, role: bad}
    if command == "evaluate":
        argv = ["evaluate", "--verdicts", str(files["verdicts"]), "--labels", str(files["labels"])]
    else:
        argv = ["report", "--errors", str(bad), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith(f"cps-sentinel: {bad}: ") and err.count("\n") == 1
    assert "row 2" in err and reason in err


def test_report_round_trips_error_series(workspace):
    detect_out = workspace / "verdicts"
    report_out = workspace / "report"
    code = main([
        "report", "--errors", str(detect_out / "errors.csv"),
        "--lag", "2", "--out", str(report_out),
    ])
    assert code == 0
    # The echoed series is byte-identical to the input: repr round-trips.
    assert (report_out / "error_series.csv").read_bytes() == (
        detect_out / "errors.csv"
    ).read_bytes()
    embedding = (report_out / "embedding.csv").read_text().splitlines()
    assert embedding[0] == "index,e_t,e_lag,weight,synthetic"
    assert len(embedding) == 1 + (192 - 2)


def test_report_rejects_malformed_errors(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("index,error\n0,1.0\noops\n")
    assert main(["report", "--errors", str(bad), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert "malformed row 2: 1 fields, expected 2: ['oops']" in err


def test_report_rejects_errors_whose_std_overflows(tmp_path, capsys):
    huge = tmp_path / "huge.csv"
    huge.write_text("index,error\n0,1e200\n1,2e200\n2,3e200\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["report", "--errors", str(huge), "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"cps-sentinel: {huge}: error statistics are not finite: delta 3e+200, sigma inf\n"


def test_optimize_micro_run(workspace, tmp_path, capsys):
    cfg = tmp_path / "ga.ini"
    cfg.write_text(f"""\
[paths]
train_csv = {workspace}/data/normal.csv
validation_csv = {workspace}/data/test.csv
artifact = {tmp_path}/best.npz
evolution_log = {tmp_path}/evolution.log
ga_history_csv = {tmp_path}/ga_history.csv

[forecaster]
epochs = 2
batch_size = 32
patience = 2

[ga]
population_size = 3
generations = 1
tournament_size = 2
crossover_rate = 0.5
mutation_rate = 0.2
elitism_count = 1
seed = 2
budget_epochs = 1
threads = 1
""")
    assert main(["optimize", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "best genome " in out and "fitness" in out
    assert (tmp_path / "best.npz").exists()
    log_lines = (tmp_path / "evolution.log").read_text().strip().splitlines()
    assert len(log_lines) == 2 * 3  # (generations + 1) * population
    history = (tmp_path / "ga_history.csv").read_text().splitlines()
    assert history[0] == "generation,best,mean" and len(history) == 3


EVERY_KEY_INI = """\
[forecaster]
window = 16
conv1 = 16
conv2 = 16
kernel = 5
dense1 = 128
dense2 = 16
dropout = 0.1
learning_rate = 0.01
epochs = 7
batch_size = 9
patience = 4
validation_fraction = 0.25

[detector]
kind = kmeans
beta = 2.5
lag = 3
nu = 0.1
gamma = 10.0
augment_fraction = 0.4

[ga]
population_size = 5
generations = 2
tournament_size = 2
crossover_rate = 0.5
mutation_rate = 0.3
elitism_count = 2
seed = 9
threads = 2
budget_epochs = 3
"""


def _optimize_inputs(workspace, tmp_path, monkeypatch, ini):
    """What `optimize` hands the GA for a config of `[paths]` plus `ini`."""
    cfg = tmp_path / "ga.ini"
    cfg.write_text(f"""\
[paths]
train_csv = {workspace}/data/normal.csv
validation_csv = {workspace}/data/test.csv
artifact = {tmp_path}/best.npz

{ini}""")
    seen = {}

    def make_evaluator(train_frame, validation_frame, budget, seed):
        seen["budget"], seen["seed"] = budget, seed

    def evolve(config, evaluator, threads):
        seen["ga"], seen["threads"] = config, threads
        raise ValueError("stopped before evolving")

    monkeypatch.setattr(cli, "make_evaluator", make_evaluator)
    monkeypatch.setattr(cli, "evolve", evolve)
    assert main(["optimize", "--config", str(cfg)]) == 2
    return seen


def test_every_config_key_sets_its_field(workspace, tmp_path, monkeypatch):
    config = configparser.ConfigParser()
    config.read_string(EVERY_KEY_INI)
    settings = cli._settings_from_config(config)
    assert settings == PipelineSettings(
        window=16, beta=2.5, lag=3, conv1=16, conv2=16, kernel=5, dense1=128, dense2=16,
        dropout=0.1, learning_rate=0.01, detector=KMEANS, nu=0.1, gamma=10.0,
        augment_fraction=0.4,
    )
    budget = cli._budget_from_config(config)
    assert budget == TrainConfig(epochs=7, batch_size=9, early_stop_patience=4,
                                 validation_fraction=0.25)
    seen = _optimize_inputs(workspace, tmp_path, monkeypatch, EVERY_KEY_INI)
    assert seen["ga"] == GaConfig(population_size=5, generations=2, tournament_size=2,
                                  crossover_rate=0.5, mutation_rate=0.3, elitism_count=2,
                                  seed=9)
    assert seen["threads"] == 2 and seen["seed"] == 9
    assert seen["budget"] == TrainConfig(epochs=3, batch_size=9, early_stop_patience=3,
                                         validation_fraction=0.25)
    # Every field read from the config was moved off its default.
    for value, default in ((settings, PipelineSettings()), (seen["ga"], GaConfig())):
        for f in fields(default):
            assert getattr(value, f.name) != getattr(default, f.name), f.name


def test_an_empty_config_gives_the_defaults(workspace, tmp_path, monkeypatch):
    empty = configparser.ConfigParser()
    assert cli._settings_from_config(empty) == PipelineSettings()
    assert cli._budget_from_config(empty) == TrainConfig()
    seen = _optimize_inputs(workspace, tmp_path, monkeypatch, "")
    assert seen["ga"] == GaConfig() and seen["threads"] is None
    assert seen["budget"] == TrainConfig(epochs=20)


def test_infer_schema_reads_header(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("Timestamp,A,B,Normal/Attack\n0,1,2,Normal\n")
    schema = infer_schema(str(path))
    assert schema.names == ("A", "B")
    assert all(kind == "sensor" for kind in schema.kinds)
    unlabeled = tmp_path / "u.csv"
    unlabeled.write_text("Timestamp,A\n0,1\n")
    assert infer_schema(str(unlabeled)).names == ("A",)
    bad = tmp_path / "bad.csv"
    bad.write_text("Time,A\n0,1\n")
    with pytest.raises(DataFormatError, match="header"):
        infer_schema(str(bad))


def test_console_script_is_installed():
    exe = shutil.which("cps-sentinel")
    assert exe, "console script missing; install with pip install -e ."
    proc = subprocess.run([exe], capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("cps-sentinel: ")
