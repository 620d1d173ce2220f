"""Fuzz tests of the command line, end to end.

Each example damages one input of one subcommand (a config, a data CSV or an
artifact member) and runs the subcommand on it. The run must exit 0, or exit 2
with one stderr line and no output file written. Numpy warnings are raised as
errors, since a printed warning is a second stderr line.
"""

import io
import tempfile
import warnings
import zipfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cps_sentinel.detectors import DETECTOR_KINDS

from conftest import SETTINGS, run_cli, with_member_bytes

PLANT_INI = """\
[plant]
stages = 1
capacity = 200
inflow = 2.0
outflow = 1.6
noise_sigma = 0.1
seed = 3

[simulate]
normal_steps = 80
test_steps = 60
test_seed = 4

[attack.1]
category = SSSP
start = 20
duration = 10
targets = 0:level
manipulation = offset:50
"""

# Small sizes, so that one changed value still runs in milliseconds.
TRAIN_INI = """\
[paths]
train_csv = {d}/normal.csv
artifact = {out}/model.npz
history_csv = {out}/history.csv

[forecaster]
window = 4
conv1 = 2
conv2 = 2
dense1 = 2
dense2 = 2
dropout = 0.0
learning_rate = 0.01
epochs = 2
batch_size = 32
patience = 1

[detector]
kind = kmeans
beta = 1.2
lag = 1
nu = 0.5
gamma = 1.0
augment_fraction = 0.3

[seeds]
pipeline = 7
"""

# The default genome takes the smallest sizes in the GA's gene domains, so
# the default genome trains quickly.
OPTIMIZE_INI = """\
[paths]
train_csv = {d}/normal.csv
validation_csv = {d}/test.csv
artifact = {out}/best.npz
evolution_log = {out}/evolution.log
ga_history_csv = {out}/ga_history.csv

[forecaster]
window = 8
conv1 = 16
conv2 = 16
dense1 = 16
dense2 = 16
epochs = 1
batch_size = 32
patience = 1

[ga]
population_size = 2
generations = 1
tournament_size = 2
crossover_rate = 0.5
mutation_rate = 0.2
elitism_count = 1
seed = 2
budget_epochs = 1
threads = 1
"""

CONFIGS = {"simulate": PLANT_INI, "train": TRAIN_INI, "optimize": OPTIMIZE_INI}

# (subcommand, the CSV it reads)
CSV_INPUTS = [
    ("train", "normal.csv"),
    ("detect", "test.csv"),
    ("evaluate", "verdicts.csv"),
    ("evaluate", "test.csv"),
    ("report", "errors.csv"),
    ("optimize", "test.csv"),
]

# Values a user might mistype: small numbers only, so no run grows large.
TOKENS = st.sampled_from([
    "-1", "0", "1", "2", "3", "8", "0.5", "1.5", "-0.5", "1e300", "nan", "inf", "", "x",
    "1,2", "0:level", "1:valve", "freeze", "SSSP", "ocsvm", "threshold", "Attack", "Normal",
])


def argv(command: str, d: Path, out: Path) -> list[str]:
    """The arguments of `command` on the inputs in `d`, writing into `out`."""
    if command in ("train", "optimize"):
        return [command, "--config", str(d / f"{command}.ini")]
    if command == "simulate":
        return [command, "--config", str(d / "simulate.ini"), "--out", str(out)]
    if command == "detect":
        return [command, "--model", str(d / "model.npz"), "--data", str(d / "test.csv"),
                "--out", str(out)]
    if command == "evaluate":
        return [command, "--verdicts", str(d / "verdicts.csv"), "--labels", str(d / "test.csv")]
    return [command, "--errors", str(d / "errors.csv"), "--out", str(out)]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The bytes of every input file but the configs: the plant's two CSVs,
    a detect run's verdicts and errors, and one artifact per detector kind."""
    d = tmp_path_factory.mktemp("inputs")
    write_configs(d, d)
    assert run_cli(["simulate", "--config", str(d / "simulate.ini"), "--out", str(d)])[0] == 0
    artifacts = {}
    for kind in DETECTOR_KINDS:
        config = d / "train.ini"
        config.write_text(TRAIN_INI.format(d=d, out=d).replace("kmeans", kind))
        assert run_cli(["train", "--config", str(config)])[0] == 0
        artifacts[kind] = (d / "model.npz").read_bytes()
    assert run_cli(argv("detect", d, d))[0] == 0
    files = {name: (d / name).read_bytes()
             for name in ("normal.csv", "test.csv", "verdicts.csv", "errors.csv")}
    return files, artifacts


def write_configs(d: Path, out: Path) -> None:
    for command, text in CONFIGS.items():
        (d / f"{command}.ini").write_text(text.format(d=d, out=out))


def lay_out(inputs, kind: str, d: Path, out: Path) -> None:
    """Every input of every command in `d`, the configs writing into `out`."""
    files, artifacts = inputs
    out.mkdir()
    write_configs(d, out)
    for file, content in {**files, "model.npz": artifacts[kind]}.items():
        (d / file).write_bytes(content)


def run_damaged(inputs, kind: str, command: str, name: str, damage) -> None:
    """Run `command` on fresh inputs whose file `name` went through `damage`;
    it exits 0, or exits 2 in one line having written nothing."""
    with tempfile.TemporaryDirectory() as tmp:
        d, out = Path(tmp), Path(tmp) / "out"
        lay_out(inputs, kind, d, out)
        (d / name).write_bytes(damage((d / name).read_bytes()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = run_cli(argv(command, d, out))
        assert code in (0, 2), err
        if code == 2:
            assert err.startswith("cps-sentinel: ") and err.count("\n") == 1, err
            assert sorted(p.name for p in out.iterdir()) == []


def damaged_config(data, text: bytes) -> bytes:
    """One key line outside [paths] dropped, repeated or given another value."""
    lines = text.decode().splitlines(keepends=True)
    section, keys = None, []
    for i, line in enumerate(lines):
        if line.startswith("["):
            section = line
        elif " = " in line and section != "[paths]\n":
            keys.append(i)
    i = data.draw(st.sampled_from(keys))
    edit = data.draw(st.sampled_from(["drop", "repeat", "value"]))
    if edit == "drop":
        del lines[i]
    elif edit == "repeat":
        lines.insert(i, lines[i])
    else:
        lines[i] = f"{lines[i].split(' = ')[0]} = {data.draw(TOKENS)}\n"
    return "".join(lines).encode()


def damaged_csv(data, raw: bytes) -> bytes:
    """One row dropped, repeated or swapped with the next, one field given
    another value, or one byte set."""
    edit = data.draw(st.sampled_from(["drop", "repeat", "swap", "field", "byte"]))
    if edit == "byte":
        out = bytearray(raw)
        out[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
        return bytes(out)
    lines = raw.decode().split("\n")
    i = data.draw(st.integers(0, len(lines) - 2))
    if edit == "drop":
        del lines[i]
    elif edit == "repeat":
        lines.insert(i, lines[i])
    elif edit == "swap":
        lines[i : i + 2] = lines[i + 1], lines[i]
    else:
        fields = lines[i].split(",")
        fields[data.draw(st.integers(0, len(fields) - 1))] = data.draw(TOKENS)
        lines[i] = ",".join(fields)
    return "\n".join(lines).encode()


def damaged_npy(data, npy: bytes) -> bytes:
    """A .npy member with its magic, a header byte or a data byte changed,
    or cut short."""
    header_end = 10 + int.from_bytes(npy[8:10], "little")
    edit = data.draw(st.sampled_from(["magic", "header", "data", "cut"]))
    out = bytearray(npy)
    if edit == "magic":
        out[0] = ord("X")
    elif edit == "header":
        at = data.draw(st.integers(10, header_end - 1))
        out[at] = data.draw(st.sampled_from(b"(){}[]',:0 x"))
    elif edit == "data" and header_end < len(npy):
        out[data.draw(st.integers(header_end, len(npy) - 1))] = data.draw(st.integers(0, 255))
    else:
        del out[data.draw(st.integers(0, len(npy) - 1)):]
    return bytes(out)


KINDS = st.sampled_from(DETECTOR_KINDS)


@SETTINGS
@given(KINDS, st.sampled_from(sorted(CONFIGS)), st.data())
def test_a_damaged_config_exits_0_or_2_in_one_line(inputs, kind, command, data):
    run_damaged(inputs, kind, command, f"{command}.ini", lambda raw: damaged_config(data, raw))


@SETTINGS
@given(KINDS, st.sampled_from(CSV_INPUTS), st.data())
def test_a_damaged_csv_exits_0_or_2_in_one_line(inputs, kind, case, data):
    command, name = case
    run_damaged(inputs, kind, command, name, lambda raw: damaged_csv(data, raw))


@SETTINGS
@given(KINDS, st.data())
def test_a_damaged_artifact_member_exits_0_or_2_in_one_line(inputs, kind, data):
    with zipfile.ZipFile(io.BytesIO(inputs[1][kind])) as z:
        member = data.draw(st.sampled_from(sorted(z.namelist())))
    run_damaged(inputs, kind, "detect", "model.npz",
                lambda raw: with_member_bytes(raw, member, lambda npy: damaged_npy(data, npy)))


# Every output of each command that writes, in the order it writes them.
OUTPUTS = {
    "simulate": ("normal.csv", "test.csv"),
    "train": ("model.npz", "history.csv"),
    "detect": ("verdicts.csv", "errors.csv"),
    "optimize": ("evolution.log", "ga_history.csv", "best.npz"),
    "report": ("error_series.csv", "embedding.csv"),
}


@pytest.mark.parametrize("command,name", [(c, n) for c in OUTPUTS for n in OUTPUTS[c]])
def test_an_output_that_cannot_be_written_leaves_no_output(inputs, tmp_path, command, name):
    """With one output's path taken by a directory, the command exits 2 in
    one line and removes whatever it wrote before that output."""
    out = tmp_path / "out"
    lay_out(inputs, "threshold", tmp_path, out)
    (out / name).mkdir()
    code, err = run_cli(argv(command, tmp_path, out))
    assert code == 2 and err.startswith("cps-sentinel: ") and err.count("\n") == 1, err
    assert [p.name for p in out.iterdir()] == [name]


def test_an_artifact_path_without_a_suffix_is_written_as_named(inputs, tmp_path):
    out = tmp_path / "out"
    lay_out(inputs, "threshold", tmp_path, out)
    config = tmp_path / "train.ini"
    config.write_text(config.read_text().replace("/model.npz", "/model"))
    assert run_cli(["train", "--config", str(config)]) == (0, "")
    assert sorted(p.name for p in out.iterdir()) == ["history.csv", "model"]
    assert (out / "model").read_bytes() == inputs[1]["kmeans"]  # TRAIN_INI's detector
    detect = ["detect", "--model", str(out / "model"), "--data", str(tmp_path / "test.csv"),
              "--out", str(tmp_path / "detected")]
    assert run_cli(detect) == (0, "")
