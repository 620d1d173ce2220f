"""Fuzz tests of the artifact codec.

Whatever is done to a saved artifact (its JSON metadata, its arrays or its raw
bytes), `detect` either runs and exits 0 or exits 2 with one stderr line.
Fuzzed integers stay within +-256, so no fuzzed gene builds a large model;
a huge gene has its own test at the end.
"""

import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cps_sentinel.artifact import save_pipeline
from cps_sentinel.dataio import save_csv
from cps_sentinel.detectors import DETECTOR_KINDS, read_verdicts
from cps_sentinel.forecaster import TrainConfig
from cps_sentinel.pipeline import PipelineSettings, fit_pipeline

from conftest import SETTINGS, random_frame, run_cli, with_member_bytes


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A CSV to detect on, and per detector kind a saved artifact's
    metadata, arrays and bytes."""
    d = tmp_path_factory.mktemp("artifacts")
    save_csv(random_frame(40, 2, seed=61), d / "data.csv")
    train = random_frame(120, 2, seed=60)
    budget = TrainConfig(epochs=1, batch_size=32, early_stop_patience=1)
    artifacts = {}
    for kind in DETECTOR_KINDS:
        settings = PipelineSettings(
            window=8, conv1=4, conv2=4, dense1=4, dense2=4, dropout=0.0, detector=kind
        )
        path = d / f"{kind}.npz"
        save_pipeline(path, fit_pipeline(train, settings, budget, seed=5))
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(bytes(arrays.pop("meta")))
        artifacts[kind] = (meta, arrays, path.read_bytes())
    return d / "data.csv", artifacts


def detect_exits_0_or_2_in_one_line(data_csv: Path, artifact: bytes) -> None:
    with tempfile.TemporaryDirectory() as d:
        model = Path(d) / "model.npz"
        model.write_bytes(artifact)
        argv = ["detect", "--model", str(model), "--data", str(data_csv), "--out", d]
        with np.errstate(all="ignore"):
            code, err = run_cli(argv)
        assert code in (0, 2), err
        if code == 2:
            assert err.startswith("cps-sentinel: ") and err.count("\n") == 1, err
        else:
            assert np.all(np.isfinite(read_verdicts(Path(d) / "verdicts.csv").scores))


def artifact_bytes(meta, arrays: dict) -> bytes:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "a.npz"
        np.savez(path, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)
        return path.read_bytes()


def json_paths(node, prefix=()):
    """The key path of every entry below `node` in a JSON tree."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(
        node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from json_paths(value, prefix + (key,))


SMALL_INTS = st.integers(min_value=-256, max_value=256)
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), SMALL_INTS, st.floats(), st.text(max_size=4)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=2)
    ),
    max_leaves=4,
)


def flipped(value):
    """A value of the same JSON type that differs from `value`."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return -value if value else 1
    if isinstance(value, float):
        return -value if value else 0.5
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, list):
        return value[:-1] if value else [0]
    return {}


@SETTINGS
@given(st.sampled_from(DETECTOR_KINDS), st.data())
def test_fuzzed_metadata_exits_0_or_2_in_one_line(saved, kind, data):
    data_csv, artifacts = saved
    meta, arrays, _ = artifacts[kind]
    meta = json.loads(json.dumps(meta))
    *parents, key = data.draw(st.sampled_from(list(json_paths(meta))))
    node = meta
    for parent in parents:
        node = node[parent]
    edit = data.draw(st.sampled_from(["drop", "replace", "flip"]))
    if edit == "drop":
        del node[key]
    elif edit == "replace":
        node[key] = data.draw(JSON_VALUES)
    else:
        node[key] = flipped(node[key])
    detect_exits_0_or_2_in_one_line(data_csv, artifact_bytes(meta, arrays))


ARRAY_EDITS = st.sampled_from(
    ["drop", "float32", "int64", "bool", "2-D", "one short", "one long", "empty", "nan", "inf"]
)


def edited_array(value: np.ndarray, edit: str, at: int) -> np.ndarray:
    if edit in ("float32", "int64", "bool"):
        return value.astype(edit)
    if edit == "2-D":
        return value.reshape(1, -1)
    if edit == "one short":
        return value[:-1]
    if edit == "one long":
        return np.append(value, 0.5)
    if edit == "empty":
        return value[:0]
    out = value.copy()
    out.flat[at % out.size] = np.nan if edit == "nan" else np.inf
    return out


@SETTINGS
@given(st.sampled_from(DETECTOR_KINDS), st.data())
def test_fuzzed_arrays_exit_0_or_2_in_one_line(saved, kind, data):
    data_csv, artifacts = saved
    meta, arrays, _ = artifacts[kind]
    arrays = dict(arrays)
    key = data.draw(st.sampled_from(sorted(arrays)))
    edit = data.draw(ARRAY_EDITS)
    if edit == "drop":
        del arrays[key]
    else:
        arrays[key] = edited_array(arrays[key], edit, data.draw(st.integers(min_value=0)))
    detect_exits_0_or_2_in_one_line(data_csv, artifact_bytes(meta, arrays))


@SETTINGS
@given(st.sampled_from(DETECTOR_KINDS), st.data())
def test_fuzzed_bytes_exit_0_or_2_in_one_line(saved, kind, data):
    data_csv, artifacts = saved
    raw = bytearray(artifacts[kind][2])
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        at = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
        edit = data.draw(st.sampled_from(["set", "insert", "delete", "truncate"]))
        if edit == "set":
            raw[at] = data.draw(st.integers(min_value=0, max_value=255))
        elif edit == "insert":
            raw[at:at] = data.draw(st.binary(min_size=1, max_size=8))
        elif edit == "delete":
            del raw[at : at + data.draw(st.integers(min_value=1, max_value=8))]
        else:
            del raw[at:]
        if not raw:
            break
    detect_exits_0_or_2_in_one_line(data_csv, bytes(raw))


def with_member_header(raw: bytes, edits: dict) -> bytes:
    """`raw` with bytes of its first member's central-directory header set:
    `edits` maps an offset into that header to a byte value; offset "data"
    names the member's first data byte."""
    out = bytearray(raw)
    central = raw.find(b"PK\x01\x02")
    local = int.from_bytes(raw[central + 42 : central + 46], "little")
    name_and_extra = int.from_bytes(raw[local + 26 : local + 28], "little") + int.from_bytes(
        raw[local + 28 : local + 30], "little")
    for offset, value in edits.items():
        out[local + 30 + name_and_extra if offset == "data" else central + offset] = value
    return bytes(out)


# name -> edits of the first member's header (flag bits at 8, method at 10)
UNREADABLE_MEMBERS = {
    "encrypted member": {8: 1},
    "unknown compression method": {10: 99},
    "bzip2 method over stored bytes": {10: 12},
    "deflate method over stored bytes": {10: 8, "data": 0xFF},
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_MEMBERS))
def test_a_member_the_reader_cannot_decode_exits_2_in_one_line(saved, tmp_path, case):
    data_csv, artifacts = saved
    model = tmp_path / "model.npz"
    model.write_bytes(with_member_header(artifacts["ocsvm"][2], UNREADABLE_MEMBERS[case]))
    argv = ["detect", "--model", str(model), "--data", str(data_csv), "--out", str(tmp_path)]
    code, err = run_cli(argv)
    assert code == 2
    assert err.startswith(f"cps-sentinel: {model}: not an artifact (") and err.count("\n") == 1


# name -> (edit of the model.params member's .npy bytes, start of the message
# after "cps-sentinel: ")
DAMAGED_MEMBERS = {
    # numpy tokenizes the header dict as Python source: an unclosed bracket.
    "header that does not tokenize": (
        lambda npy: npy.replace(b"'<f8'", b"(<f8'", 1), "{model}: not an artifact ("
    ),
    # numpy hands a member without the .npy magic back as raw bytes.
    "no .npy magic": (
        lambda npy: b"X" + npy[1:],
        "artifact array model.params must be float64 of shape (146,), "
        "found a member that is not a .npy array",
    ),
}


@pytest.mark.parametrize("case", sorted(DAMAGED_MEMBERS))
def test_a_damaged_npy_member_in_a_valid_zip_exits_2_in_one_line(saved, tmp_path, case):
    data_csv, artifacts = saved
    edit, message = DAMAGED_MEMBERS[case]
    model = tmp_path / "model.npz"
    model.write_bytes(with_member_bytes(artifacts["ocsvm"][2], "model.params.npy", edit))
    argv = ["detect", "--model", str(model), "--data", str(data_csv), "--out", str(tmp_path)]
    code, err = run_cli(argv)
    assert code == 2
    assert err.startswith("cps-sentinel: " + message.format(model=model)), err
    assert err.count("\n") == 1
    assert not (tmp_path / "verdicts.csv").exists()


def test_deeply_nested_metadata_is_not_an_artifact(saved, tmp_path):
    """JSON nested past the interpreter's recursion limit cannot be decoded."""
    data_csv, artifacts = saved
    nested = b"[" * 200_000 + b"]" * 200_000
    model = tmp_path / "model.npz"
    np.savez(model, meta=np.frombuffer(nested, dtype=np.uint8), **artifacts["threshold"][1])
    argv = ["detect", "--model", str(model), "--data", str(data_csv), "--out", str(tmp_path)]
    code, err = run_cli(argv)
    assert code == 2
    assert err.startswith(f"cps-sentinel: {model}: not an artifact (") and err.count("\n") == 1


def test_a_huge_gene_is_rejected_before_the_model_is_allocated(saved, tmp_path):
    """dense1 = 10**8 asks for a ~6 GiB model; the stored vectors' length
    disagrees with it, and loading says so without allocating it."""
    data_csv, artifacts = saved
    meta, arrays, _ = artifacts["ocsvm"]
    meta = json.loads(json.dumps(meta))
    meta["settings"]["dense1"] = 10**8
    model = tmp_path / "model.npz"
    model.write_bytes(artifact_bytes(meta, arrays))
    argv = ["detect", "--model", str(model), "--data", str(data_csv), "--out", str(tmp_path)]
    tracemalloc.start()
    try:
        code, err = run_cli(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert err.startswith("cps-sentinel: artifact array model.params must be") and err.count(
        "\n") == 1, err
    assert peak < 10 * 2**20
