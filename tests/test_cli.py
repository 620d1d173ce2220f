import io
import json
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from cps_sentinel import cli, dataio, gaopt, plantsim
from cps_sentinel.cli import infer_schema, main
from cps_sentinel.dataio import DataFormatError
from cps_sentinel.detectors import KMEANS
from cps_sentinel.forecaster import TrainConfig
from cps_sentinel.gaopt import GaConfig
from cps_sentinel.pipeline import PipelineSettings

ROOT = Path(__file__).resolve().parent.parent

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


# name -> (config text that does not parse, expected fragment of the message)
UNPARSABLE_CONFIGS = {
    "no section header": ("window = 8\n", "File contains no section headers."),
    "duplicate section": (
        "[plant]\nseed = 1\n[plant]\nseed = 2\n", "section 'plant' already exists"
    ),
}


@pytest.mark.parametrize("command", ["train", "simulate", "optimize"])
@pytest.mark.parametrize("case", sorted(UNPARSABLE_CONFIGS))
def test_a_config_that_does_not_parse_exits_2_in_one_line(tmp_path, capsys, command, case):
    text, reason = UNPARSABLE_CONFIGS[case]
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    argv = [command, "--config", str(cfg)]
    if command == "simulate":
        argv += ["--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cps-sentinel: {cfg}: ") and err.count("\n") == 1
    assert reason in err


def test_config_values_are_not_interpolated(tmp_path, capsys):
    cfg = tmp_path / "plant.ini"
    cfg.write_text("[plant]\nnoise_sigma = 5%\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "cps-sentinel: [plant] noise_sigma: could not convert string to float: '5%'\n"
    )


# name -> (command, config text after a [paths] or [plant] header, the
# message's `[section] key` or section and reason)
MALFORMED_CONFIGS = {
    "misspelled detector key": (
        "train", "[detector]\ntype = ocsvm\n", "[detector] type: unknown key"
    ),
    "misspelled plant key": ("simulate", "noise_sgima = 0.0\n", "[plant] noise_sgima: unknown key"),
    "word for an int": (
        "train", "[forecaster]\nwindow = twelve\n",
        "[forecaster] window: invalid literal for int() with base 10: 'twelve'",
    ),
    "section named like an attack": (
        "simulate", "[attacker_notes]\nstart = 1\n", "[attacker_notes]: unknown section"
    ),
    "unknown train section": ("train", "[forcaster]\nwindow = 8\n", "[forcaster]: unknown section"),
    "misspelled ga key": ("optimize", "[ga]\npopulaton_size = 5\n", "[ga] populaton_size: unknown"),
    "misspelled paths key": ("train", "history = h.csv\n", "[paths] history: unknown key"),
    "empty path": ("train", "history_csv =\n", "[paths] history_csv: path is empty"),
    "misspelled seeds key": ("train", "[seeds]\npipline = 3\n", "[seeds] pipline: unknown key"),
    "word for the thread count": ("optimize", "[ga]\nthreads = all\n", "[ga] threads: invalid"),
    "negative thread count": (
        "optimize", "[ga]\nthreads = -1\n", "[ga] threads: threads must be non-negative"
    ),
    "misspelled simulate key": (
        "simulate", "[simulate]\nnormal_step = 9\n", "[simulate] normal_step: unknown key"
    ),
    "misspelled attack key": (
        "simulate",
        "[attack.1]\nstart = 1\nduration = 2\ntargets = 0:level\nmanipluation = freeze\n",
        "[attack.1] manipluation: unknown key",
    ),
    "bad attack target": (
        "simulate", "[attack.1]\nstart = 1\nduration = 2\ntargets = first:level\n",
        "[attack.1] targets: invalid literal for int() with base 10: 'first'",
    ),
    "train default section": ("train", "[DEFAULT]\nseed = 1\n", "[DEFAULT]: not supported"),
    "simulate default section": ("simulate", "[DEFAULT]\nseed = 1\n", "[DEFAULT]: not supported"),
    # A value that parses but fails its dataclass check still names its key.
    "nan capacity": (
        "simulate", "capacity = nan\n", "[plant] capacity: capacities must be finite, not (nan, nan)"
    ),
    "zero patience": (
        "train", "[forecaster]\npatience = 0\n",
        "[forecaster] patience: early_stop_patience must be positive",
    ),
    "tournament past the population": (
        "optimize", "[ga]\ntournament_size = 21\n",
        "[ga] tournament_size, [ga] population_size: "
        "tournament_size must lie in [1, population_size]",
    ),
    "unknown detector kind": ("train", "[detector]\nkind = svm\n", "[detector] kind: unknown detector"),
    "mutation rate past 1": (
        "optimize", "[ga]\nmutation_rate = 2\n", "[ga] mutation_rate: rates must lie in [0, 1]"
    ),
    # A gene that only the forecaster, the training or a detector fit would check.
    "zero learning rate": (
        "train", "[forecaster]\nlearning_rate = 0\n",
        "[forecaster] learning_rate: learning_rate must be positive",
    ),
    "dropout of 1": (
        "train", "[forecaster]\ndropout = 1.0\n", "[forecaster] dropout: dropout must lie in [0, 1)"
    ),
    "zero conv1 filters": (
        "train", "[forecaster]\nconv1 = 0\n", "[forecaster] conv1: conv1 must be positive"
    ),
    "window the pools cannot halve": (
        "train", "[forecaster]\nwindow = 10\n",
        "[forecaster] window: the two pools of 2 need a window divisible by 4, not 10",
    ),
    "zero beta": ("train", "[detector]\nbeta = 0\n", "[detector] beta: beta must be positive"),
    "zero nu": ("optimize", "[detector]\nnu = 0\n", "[detector] nu: nu must lie in (0, 1]"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CONFIGS))
def test_a_malformed_config_exits_2_naming_the_key_before_reading_data(
    tmp_path, capsys, monkeypatch, case
):
    command, text, message = MALFORMED_CONFIGS[case]
    opened = []
    monkeypatch.setattr(cli, "load_csv", lambda path, schema: opened.append(path))
    monkeypatch.setattr(cli, "infer_schema", opened.append)
    header = "[plant]\n" if command == "simulate" else f"""\
[paths]
train_csv = {tmp_path}/normal.csv
validation_csv = {tmp_path}/test.csv
artifact = {tmp_path}/model.npz
"""
    cfg = tmp_path / "bad.ini"
    cfg.write_text(header + text)
    argv = [command, "--config", str(cfg)]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cps-sentinel: {message}") and err.count("\n") == 1
    assert opened == []
    assert not (tmp_path / "model.npz").exists() and not (tmp_path / "out").exists()


# name -> (command, the [paths] lines after train_csv, the keys the message names)
COLLIDING_PATHS = {
    "history over the artifact": (
        "train", "artifact = {out}/model.npz\nhistory_csv = {out}/model.npz\n",
        "[paths] artifact, [paths] history_csv",
    ),
    "fitness history over the log": (
        "optimize",
        "validation_csv = {data}/test.csv\nartifact = {out}/best.npz\n"
        "evolution_log = {out}/ga.log\nga_history_csv = {out}/ga.log\n",
        "[paths] evolution_log, [paths] ga_history_csv",
    ),
    "artifact over the training data": (
        "train", "artifact = {data}/./normal.csv\n", "[paths] train_csv, [paths] artifact"
    ),
}


@pytest.mark.parametrize("case", sorted(COLLIDING_PATHS))
def test_two_paths_that_name_one_file_exit_2_before_reading_data(
    workspace, tmp_path, capsys, monkeypatch, case
):
    command, lines, keys = COLLIDING_PATHS[case]
    data, out = tmp_path / "data", tmp_path / "out"
    shutil.copytree(workspace / "data", data)
    out.mkdir()
    before = {path: path.read_bytes() for path in data.iterdir()}
    opened = []
    monkeypatch.setattr(cli, "infer_schema", opened.append)
    cfg = tmp_path / "paths.ini"
    cfg.write_text(f"[paths]\ntrain_csv = {data}/normal.csv\n"
                   + lines.format(data=data, out=out))
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == f"cps-sentinel: {keys}: paths must name different files\n"
    assert opened == [] and list(out.iterdir()) == []
    assert {path: path.read_bytes() for path in data.iterdir()} == before


def test_train_with_only_the_epochs_set_runs_every_epoch(workspace, tmp_path, capsys):
    # The default patience, 5, exceeds the epochs: training cannot stop early.
    cfg = tmp_path / "train.ini"
    cfg.write_text(f"""\
[paths]
train_csv = {workspace}/data/normal.csv
artifact = {tmp_path}/model.npz
history_csv = {tmp_path}/history.csv

[forecaster]
epochs = 3
""")
    assert main(["train", "--config", str(cfg)]) == 0
    assert "stopped after epoch 3," in capsys.readouterr().out
    rows = (tmp_path / "history.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows] == ["epoch", "1", "2", "3"]


# Each size needs hundreds of petabytes, more than any address space, so the
# first allocation fails at once whatever the overcommit policy.
@pytest.mark.parametrize("ini, message", [
    ("[plant]\n[simulate]\nnormal_steps = 10000000000000000\n", "Unable to allocate"),
    ("[plant]\nstages = 100000000000000000\n", "MemoryError"),
])
def test_a_size_too_large_to_allocate_exits_2_in_one_line(tmp_path, capsys, ini, message):
    cfg = tmp_path / "plant.ini"
    cfg.write_text(ini)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cps-sentinel: {message}") and err.count("\n") == 1


def _known(command: str, ini: str, tmp_path, capsys) -> list[str]:
    """The names listed after "known ...: " in the error `ini` gives."""
    cfg = tmp_path / "probe.ini"
    cfg.write_text(ini)
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    assert main(argv if command == "simulate" else argv[:3]) == 2
    return capsys.readouterr().err.strip().split(": ")[-1].split(", ")


def test_the_readme_key_table_lists_every_section_and_key_the_reader_accepts(tmp_path, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("| section | key | field | default |")[1].split("\n\n")[0]
    documented = {}
    for row in table.splitlines()[2:]:
        section_cell, key_cell = row.split("|")[1:3]
        if section_cell.strip():
            section = section_cell.strip().strip("`[]")
        documented.setdefault(section, set()).update(re.findall(r"`(\w+)`", key_cell))

    sections = _known("train", "[not_a_section]\n", tmp_path, capsys)
    assert sections[-1] == "attack.<name>"
    assert set(documented) == {*sections[:-1], "attack.*"}
    paths = "[paths]\ntrain_csv = t.csv\nartifact = m.npz\n"
    for section in documented:
        if section in ("plant", "simulate", "attack.*"):
            name = section.replace("*", "1")
            ini = ("" if section == "plant" else "[plant]\n") + f"[{name}]\nnot_a_key = 1\n"
            accepted = _known("simulate", ini, tmp_path, capsys)
        else:
            ini = ("" if section == "paths" else paths) + f"[{section}]\nnot_a_key = 1\n"
            accepted = _known("train", ini, tmp_path, capsys)
        assert set(accepted) == documented[section], section


@pytest.mark.parametrize("key", ["start", "duration", "targets"])
def test_simulate_rejects_an_attack_without_a_required_key(tmp_path, capsys, key):
    lines = [line for line in PLANT_INI.splitlines() if not line.startswith(f"{key} =")]
    cfg = tmp_path / "plant.ini"
    cfg.write_text("\n".join(lines) + "\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"cps-sentinel: [attack.1] is missing {key}\n"


@pytest.mark.parametrize("line, bad, message", [
    ("duration = 30", "duration = 0", "[attack.1] duration: attack duration must be >= 1 second"),
    ("manipulation = offset:50", "manipulation = force:1",
     "[attack.1] manipulation, [attack.1] targets: force manipulation targets actuator"),
    ("normal_steps = 400", "normal_steps = 0", "[simulate] normal_steps: duration must be >= 1"),
    ("test_steps = 200", "test_steps = 0", "[simulate] test_steps: duration must be >= 1"),
    ("start = 60", "start = -5",
     "[attack.1] start: attack interval [-5, 25) outside frame [0, 200)"),
    ("targets = 0:flow", "targets = 1:flow",
     "[attack.2] targets: target stage 1 out of range for 1 stages"),
])
def test_simulate_names_the_key_and_writes_nothing(tmp_path, capsys, line, bad, message):
    cfg = tmp_path / "plant.ini"
    cfg.write_text(PLANT_INI.replace(line, bad, 1))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cps-sentinel: {message}") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_simulate_checks_the_attacks_before_simulating(tmp_path, capsys):
    cfg = tmp_path / "plant.ini"
    cfg.write_text(PLANT_INI.replace("normal_steps = 400", f"normal_steps = {10**12}")
                   .replace("start = 140", "start = 190"))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == ("cps-sentinel: [attack.2] start: "
                   "attack interval [190, 210) outside frame [0, 200)\n")


def test_simulate_parses_its_config_once(tmp_path, monkeypatch):
    cfg = tmp_path / "plant.ini"
    cfg.write_text(PLANT_INI)
    read_config, parsed = dataio.read_config, []

    def counted(path):
        parsed.append(path)
        return read_config(path)

    for module in (dataio, plantsim):
        monkeypatch.setattr(module, "read_config", counted)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert parsed == [str(cfg)]


@pytest.mark.parametrize("key, field", [
    ("capacity", "capacities"), ("inflow", "inflows"), ("outflow", "outflows"),
    ("noise_sigma", "noise_sigma"),
])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_simulate_rejects_a_non_finite_plant_float(tmp_path, capsys, key, field, value):
    cfg = tmp_path / "plant.ini"
    cfg.write_text(f"[plant]\nstages = 1\n{key} = {value}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    shown = float(value) if field == "noise_sigma" else (float(value),)
    assert err == f"cps-sentinel: [plant] {key}: {field} must be finite, not {shown!r}\n"
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", ["beta", "learning_rate"])
def test_train_rejects_a_non_finite_float_before_writing(workspace, tmp_path, capsys, key, value):
    line = {"beta": "beta = 1.2", "learning_rate": "learning_rate = 0.01"}[key]
    cfg = tmp_path / "train.ini"
    cfg.write_text(train_ini(workspace / "data", tmp_path).replace(line, f"{key} = {value}"))
    code = main(["train", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 2
    section = {"beta": "detector", "learning_rate": "forecaster"}[key]
    assert err == f"cps-sentinel: [{section}] {key}: {key} must be finite, not {float(value)!r}\n"
    assert not (tmp_path / "model.npz").exists()


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


def _as_v5(meta, arrays):
    """The model as format version 5 stored it: Adam's state besides the parameters."""
    meta["model"] = {"adam_t": 3}
    arrays["model.adam_m"] = arrays["model.adam_v"] = np.zeros_like(arrays["model.params"])
    meta["format_version"] = 5


def _as_v4(meta, arrays):
    """The schema as format version 4 stored it: a kind per channel besides its name."""
    _as_v5(meta, arrays)
    meta["schema"]["kinds"] = ["sensor"] * len(meta["schema"]["names"])
    meta["format_version"] = 4


def _as_v3(meta, arrays):
    """The model as format version 3 stored it: its architecture besides the settings."""
    _as_v5(meta, arrays)
    meta["model"]["input_shape"] = [meta["settings"]["window"], 4]
    meta["model"]["layer_specs"] = [{"kind": "maxpool1d", "pool": 2}]
    meta["format_version"] = 3


def _ocsvm_with_another_gamma(meta, arrays):
    """An OC-SVM detector whose gamma is twice the settings' copy."""
    meta["settings"]["detector"] = "ocsvm"
    meta["detector"] = {"gamma": 2 * meta["settings"]["gamma"], "rho": 0.5}
    arrays["detector.support_vectors"] = np.zeros((1, 2))
    arrays["detector.alphas"] = np.ones(1)


def _shrink_scaler(meta, arrays):
    for key in ("scaler.mins", "scaler.maxs"):
        arrays[key] = arrays[key][:-1]


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
        lambda meta, arrays: arrays.update({"model.params": arrays["model.params"][:-1]}),
        "model.params must be",
    ),
    "unknown detector kind": (
        lambda meta, arrays: meta["settings"].update(detector="oracle"), "unknown detector"
    ),
    "v1 artifact": (
        lambda meta, arrays: meta.update(format_version=1), "unsupported artifact format version 1"
    ),
    "v2 artifact": (_as_v2, "unsupported artifact format version 2"),
    "v3 artifact": (_as_v3, "unsupported artifact format version 3"),
    "v4 artifact": (_as_v4, "unsupported artifact format version 4"),
    "v5 artifact": (_as_v5, "unsupported artifact format version 5"),
    "conv1 that disagrees with the stored parameters": (
        lambda meta, arrays: meta["settings"].update(conv1=9), "model.params must be"
    ),
    "OC-SVM gamma that disagrees with the settings": (
        _ocsvm_with_another_gamma, "artifact fields disagree: settings.gamma 1.0, detector.gamma 2.0"
    ),
    "threshold delta that disagrees with train_delta": (
        lambda meta, arrays: (meta.update(train_delta=1.0), meta["detector"].update(delta=2.0)),
        "artifact fields disagree: train_delta 1.0, detector.delta 2.0",
    ),
    "scaler with the wrong channel count": (
        _shrink_scaler, "artifact parts disagree: 4 channels, 3 scaler entries"
    ),
    "nan threshold base": (
        lambda meta, arrays: meta["detector"].update(delta=float("nan")),
        "detector.delta is missing or malformed: nan",
    ),
    "float gene past the float range": (
        lambda meta, arrays: meta["settings"].update(beta=10**400), "settings.beta is missing"
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


def npz_bytes(**arrays) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


@pytest.mark.parametrize("content", [
    b"", b"not an artifact\n", b"PK\x03\x04truncated",
    pytest.param(npz_bytes(params=np.zeros(3)), id="no meta member"),
])
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


@pytest.mark.parametrize("repeated", ["verdicts", "labels"])
def test_evaluate_rejects_a_repeated_index(tmp_path, capsys, repeated):
    """Verdicts 5, 5, 6 against labels 5, 6, 5 would count the repeated verdict
    twice and keep the last label of 5; the first file that repeats is named."""
    files = {"verdicts": tmp_path / "v.csv", "labels": tmp_path / "l.csv"}
    files["verdicts"].write_text("index,flag,score\n5,1,1.0\n5,1,1.0\n6,0,0.1\n"
                                 if repeated == "verdicts" else "index,flag,score\n5,1,1.0\n")
    files["labels"].write_text("index,flag,score\n5,1,1.0\n6,1,1.0\n5,0,0.1\n")
    assert main(["evaluate", "--verdicts", str(files["verdicts"]),
                 "--labels", str(files["labels"])]) == 2
    assert capsys.readouterr().err == f"cps-sentinel: {files[repeated]}: index 5 repeats\n"


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
    assert embedding[0] == "index,e_t,e_lag,synthetic"
    assert len(embedding) == 1 + (192 - 2)


def test_report_rejects_malformed_errors(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("index,error\n0,1.0\noops\n")
    assert main(["report", "--errors", str(bad), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert "malformed row 2: 1 fields, expected 2: ['oops']" in err


def test_report_rejects_errors_whose_indices_skip_steps(tmp_path, capsys):
    """Step 5's lag-1 partner is step 4, which the file does not hold; it
    must not be paired with step 1's error."""
    gapped = tmp_path / "errors.csv"
    gapped.write_text("index,error\n0,0.5\n1,0.2\n5,0.5\n6,0.2\n")
    out = tmp_path / "r"
    assert main(["report", "--errors", str(gapped), "--lag", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "cps-sentinel: error series indices must be consecutive: 1 is followed by 5\n"
    assert not out.exists()


def test_report_rejects_errors_whose_std_overflows(tmp_path, capsys):
    huge = tmp_path / "huge.csv"
    huge.write_text("index,error\n0,1e200\n1,2e200\n2,3e200\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["report", "--errors", str(huge), "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"cps-sentinel: {huge}: error statistics are not finite: delta 3e+200, sigma inf\n"


def micro_ga_ini(workspace, out, artifact_dir):
    """A three-genome, one-generation GA on the workspace's data, writing into `out`."""
    return f"""\
[paths]
train_csv = {workspace}/data/normal.csv
validation_csv = {workspace}/data/test.csv
artifact = {artifact_dir}/best.npz
evolution_log = {out}/evolution.log
ga_history_csv = {out}/ga_history.csv

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
"""


def test_optimize_micro_run(workspace, tmp_path, capsys):
    cfg = tmp_path / "ga.ini"
    cfg.write_text(micro_ga_ini(workspace, tmp_path, tmp_path))
    assert main(["optimize", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "best genome " in out and "fitness" in out and out.endswith("; 0 genomes failed\n")
    assert (tmp_path / "best.npz").exists()
    log_lines = (tmp_path / "evolution.log").read_text().strip().splitlines()
    assert len(log_lines) == 2 * 3  # (generations + 1) * population
    history = (tmp_path / "ga_history.csv").read_text().splitlines()
    assert history[0] == "generation,best,mean" and len(history) == 3


def test_optimize_ends_its_ga_workers_before_training_the_winner(workspace, tmp_path,
                                                                  monkeypatch):
    cfg = tmp_path / "ga.ini"
    cfg.write_text(micro_ga_ini(workspace, tmp_path, tmp_path))
    before, fit_pipeline, seen = len(multiprocessing.active_children()), cli.fit_pipeline, []

    def counted_fit(*args, **kwargs):
        seen.append(len(multiprocessing.active_children()))
        return fit_pipeline(*args, **kwargs)

    monkeypatch.setattr(cli, "fit_pipeline", counted_fit)
    assert main(["optimize", "--config", str(cfg)]) == 0
    assert seen == [before]
    assert len(multiprocessing.active_children()) == before


def test_optimize_with_a_dead_ga_worker_exits_2_with_one_line(workspace, tmp_path, monkeypatch,
                                                             capsys):
    cfg = tmp_path / "ga.ini"
    cfg.write_text(micro_ga_ini(workspace, tmp_path / "out", tmp_path / "out"))
    (tmp_path / "out").mkdir()

    def killed(genome, *args):
        os._exit(3)

    monkeypatch.setattr(gaopt, "_evaluate_raising", killed)
    before = len(multiprocessing.active_children())
    assert main(["optimize", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cps-sentinel: a GA worker process died: ") and err.count("\n") == 1
    assert list((tmp_path / "out").iterdir()) == []
    assert len(multiprocessing.active_children()) == before


def test_optimize_that_cannot_save_its_artifact_leaves_no_output(workspace, tmp_path, capsys):
    cfg = tmp_path / "ga.ini"
    cfg.write_text(micro_ga_ini(workspace, tmp_path / "out", tmp_path / "missing"))
    (tmp_path / "out").mkdir()
    assert main(["optimize", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.count("\n") == 1
    assert list((tmp_path / "out").iterdir()) == []


def test_train_that_cannot_write_its_history_leaves_no_output(workspace, tmp_path, capsys):
    cfg = tmp_path / "train.ini"
    ini = train_ini(workspace / "data", tmp_path / "out")
    cfg.write_text(ini.replace(f"{tmp_path}/out/history.csv", f"{tmp_path}/missing/history.csv"))
    (tmp_path / "out").mkdir()
    assert main(["train", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.count("\n") == 1
    assert list((tmp_path / "out").iterdir()) == []


def test_an_interrupted_write_removes_the_outputs_already_written(
    workspace, tmp_path, monkeypatch
):
    cfg = tmp_path / "train.ini"
    cfg.write_text(train_ini(workspace / "data", tmp_path / "out"))
    (tmp_path / "out").mkdir()

    def interrupt(history):
        raise KeyboardInterrupt

    # The history is train's second output, after the artifact.
    monkeypatch.setattr(cli, "_history_text", interrupt)
    with pytest.raises(KeyboardInterrupt):
        main(["train", "--config", str(cfg)])
    assert list((tmp_path / "out").iterdir()) == []


def test_optimize_with_a_failed_genome_prints_one_stderr_line(workspace, tmp_path):
    """Python's last-resort handler would print the failed genome's warning,
    which pytest's log capture hides in process, so the run is a subprocess."""
    cfg = tmp_path / "ga.ini"
    cfg.write_text(micro_ga_ini(workspace, tmp_path, tmp_path / "missing"))
    script = f"""\
import sys
from cps_sentinel import cli, gaopt

evaluate, calls = gaopt._evaluate_raising, []

def first_genome_overflows(genome, *args):
    calls.append(genome)
    if len(calls) == 1:
        raise FloatingPointError("overflow")
    return evaluate(genome, *args)

gaopt._evaluate_raising = first_genome_overflows
sys.exit(cli.main(["optimize", "--config", {str(cfg)!r}]))
"""
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": pythonpath})
    assert proc.returncode == 2
    assert proc.stderr.startswith("cps-sentinel: ") and proc.stderr.count("\n") == 1, proc.stderr


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

    def evolve(config, evaluator, default_genome, threads):
        seen["ga"], seen["threads"] = config, threads
        seen["default_genome"] = default_genome
        raise ValueError("stopped before evolving")

    monkeypatch.setattr(cli, "make_evaluator", make_evaluator)
    monkeypatch.setattr(cli, "evolve", evolve)
    assert main(["optimize", "--config", str(cfg)]) == 2
    return seen


def _read_run_config(tmp_path, ini):
    cfg = tmp_path / "run.ini"
    cfg.write_text(ini)
    return cli._run_config(str(cfg), ())


def test_every_config_key_sets_its_field(workspace, tmp_path, monkeypatch):
    run = _read_run_config(tmp_path, EVERY_KEY_INI)
    settings = run.settings
    assert settings == PipelineSettings(
        window=16, beta=2.5, lag=3, conv1=16, conv2=16, kernel=5, dense1=128, dense2=16,
        dropout=0.1, learning_rate=0.01, detector=KMEANS, nu=0.1, gamma=10.0,
        augment_fraction=0.4,
    )
    assert run.budget == TrainConfig(epochs=7, batch_size=9, early_stop_patience=4,
                                     validation_fraction=0.25)
    seen = _optimize_inputs(workspace, tmp_path, monkeypatch, EVERY_KEY_INI)
    assert seen["ga"] == GaConfig(population_size=5, generations=2, tournament_size=2,
                                  crossover_rate=0.5, mutation_rate=0.3, elitism_count=2,
                                  seed=9)
    assert seen["threads"] == 2 and seen["seed"] == 9
    assert seen["default_genome"] == settings
    assert seen["budget"] == TrainConfig(epochs=3, batch_size=9, early_stop_patience=4,
                                         validation_fraction=0.25)
    # Every field read from the config was moved off its default.
    for value, default in ((settings, PipelineSettings()), (seen["ga"], GaConfig())):
        for f in fields(default):
            assert getattr(value, f.name) != getattr(default, f.name), f.name


def test_an_empty_config_gives_the_defaults(workspace, tmp_path, monkeypatch):
    empty = _read_run_config(tmp_path, "")
    assert empty.settings == PipelineSettings()
    assert empty.budget == TrainConfig()
    seen = _optimize_inputs(workspace, tmp_path, monkeypatch, "")
    assert seen["ga"] == GaConfig() and seen["threads"] is None
    assert seen["default_genome"] == PipelineSettings()
    assert seen["budget"] == TrainConfig(epochs=20)


def test_infer_schema_reads_header(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("Timestamp,A,B,Normal/Attack\n0,1,2,Normal\n")
    schema = infer_schema(str(path))
    assert schema.names == ("A", "B")
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
