"""Property and fuzz tests of the CSV codec.

Every table the package writes reads back bit-exactly, and no text, however
malformed, makes a reader raise anything but DataFormatError or makes the
CLI exit with anything but 0 or 2 and, on 2, one stderr line.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from cps_sentinel import dataio
from cps_sentinel.cli import main
from cps_sentinel.dataio import DataFormatError, load_csv, read_header, save_csv
from cps_sentinel.detectors import VerdictSeries, read_verdicts, verdict_csv
from cps_sentinel.errorspace import ErrorSeries, error_series_csv, read_error_series

from conftest import make_frame

# Deterministic, bounded, and leaves no example database behind.
SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60)

# Hypothesis caches what it learns from the source under its home directory,
# ./.hypothesis by default, while collecting; keep that out of the working tree.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory()
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
FLOATS = st.floats(allow_nan=False, allow_infinity=False)


def bits(array: np.ndarray) -> np.ndarray:
    """Float64 values as their bit patterns, so -0.0 != 0.0."""
    return np.asarray(array, dtype=np.float64).view(np.uint64)


@contextlib.contextmanager
def scratch_file(data: bytes):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "table.csv"
        path.write_bytes(data)
        yield path


@SETTINGS
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda channels: st.lists(
            st.tuples(st.lists(FLOATS, min_size=channels, max_size=channels), st.booleans()),
            max_size=20,
        ).map(lambda rows: (channels, rows))
    ),
    st.integers(min_value=-(2**62), max_value=2**62),
)
def test_frames_round_trip_bit_exactly(table, start):
    channels, rows = table
    values = np.array([r[0] for r in rows], dtype=np.float64).reshape(len(rows), channels)
    frame = make_frame(values, labels=[r[1] for r in rows], start=start)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "frame.csv"
        save_csv(frame, path)
        back = load_csv(path, frame.schema)
    np.testing.assert_array_equal(back.timestamps, frame.timestamps)
    np.testing.assert_array_equal(bits(back.values), bits(frame.values))
    np.testing.assert_array_equal(back.labels, frame.labels)


@SETTINGS
@given(st.lists(st.tuples(INT64, st.booleans(), FLOATS), max_size=30))
def test_verdicts_round_trip_bit_exactly(rows):
    verdicts = VerdictSeries(
        indices=[r[0] for r in rows], flags=[r[1] for r in rows], scores=[r[2] for r in rows]
    )
    with scratch_file(verdict_csv(verdicts).encode()) as path:
        back = read_verdicts(path)
    np.testing.assert_array_equal(back.indices, verdicts.indices)
    np.testing.assert_array_equal(back.flags, verdicts.flags)
    np.testing.assert_array_equal(bits(back.scores), bits(verdicts.scores))


@SETTINGS
@given(st.lists(st.tuples(INT64, FLOATS), min_size=1, max_size=30))
def test_error_series_round_trip_bit_exactly(rows):
    series = ErrorSeries(
        errors=[r[1] for r in rows], target_indices=[r[0] for r in rows], delta=0.0, sigma=0.0
    )
    with np.errstate(over="ignore"):
        sigma = np.std(series.errors)
    with scratch_file(error_series_csv(series).encode()) as path:
        if not np.isfinite(sigma):
            # Errors this large overflow the std; the reader rejects them.
            with pytest.raises(DataFormatError, match="statistics are not finite"):
                read_error_series(path)
            return
        back = read_error_series(path)
    np.testing.assert_array_equal(back.target_indices, series.target_indices)
    np.testing.assert_array_equal(bits(back.errors), bits(series.errors))
    assert back.delta == np.max(series.errors) and back.sigma == np.std(series.errors)


HEADERS = [
    "Timestamp,A,Normal/Attack",
    "Timestamp,A",
    "index,flag,score",
    "index,error",
    "\ufeffindex,error",
    "Timestamp,A,A",
    "Timestamp,,Normal/Attack",
    "a,b",
    "",
]
TOKENS = st.one_of(
    st.sampled_from([
        "0", "1", "-1", "2", "0.5", "-0.0", "1e308", "1e999", "nan", "NaN", "inf", "-inf",
        "Normal", "Attack", "true", "", " ", '"', '""', '"0,1"', "2015-12-28 10:00:00",
        "99999999999999999999", "1_000", "\ufeff", "\x00",
    ]),
    st.text(max_size=6),
)
ROW = st.lists(TOKENS, min_size=0, max_size=4).map(",".join)
LINE_END = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def csv_texts(draw) -> bytes:
    """CSV-like bytes: a BOM, CRLF, ragged rows, stray quotes, odd tokens, bad bytes."""
    end = draw(LINE_END)
    lines = [draw(st.sampled_from(HEADERS)), *draw(st.lists(ROW, max_size=6))]
    text = end.join(lines) + draw(st.sampled_from([end, ""]))
    data = text.encode("utf-8")
    if draw(st.booleans()):
        data = draw(st.sampled_from([b"", b"\xef\xbb\xbf"])) + data
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        cut = draw(st.integers(min_value=0, max_value=len(data)))
        data = data[:cut] + draw(st.binary(min_size=1, max_size=3)) + data[cut:]
    return data


def only_data_format_errors(read, path):
    try:
        with np.errstate(over="ignore"):
            read(path)
    except DataFormatError as exc:
        message = str(exc)
        assert message.startswith(f"{path}: ") and "\n" not in message


@SETTINGS
@given(csv_texts())
def test_readers_raise_only_data_format_errors(data):
    schema = dataio.ChannelSchema(names=("A",), kinds=("sensor",))
    with scratch_file(data) as path:
        only_data_format_errors(lambda p: load_csv(p, schema), path)
        only_data_format_errors(read_verdicts, path)
        only_data_format_errors(read_error_series, path)
        only_data_format_errors(read_header, path)


def run_cli(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@SETTINGS
@given(csv_texts())
def test_cli_exits_0_or_2_in_one_line(data):
    with scratch_file(data) as path, tempfile.TemporaryDirectory() as out:
        good = Path(out) / "verdicts.csv"
        good.write_text("index,flag,score\n0,0,0.1\n1,1,0.2\n")
        for argv in (
            ["evaluate", "--verdicts", str(path), "--labels", str(path)],
            ["evaluate", "--verdicts", str(good), "--labels", str(path)],
            ["report", "--errors", str(path), "--lag", "1", "--out", str(Path(out) / "r")],
        ):
            code, err = run_cli(argv)
            assert code in (0, 2), (argv, err)
            if code == 2:
                assert err.startswith("cps-sentinel: ") and err.count("\n") == 1, err
