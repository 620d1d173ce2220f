"""Property and fuzz tests of the CSV codec.

Every table the package writes reads back bit-exactly, and no text, however
malformed, makes a reader raise anything but DataFormatError or makes the
CLI exit with anything but 0 or 2 and, on 2, one stderr line. The reader's
numpy pass and the writer's joined rows give exactly what the `csv.reader`
and `csv.writer` code in `oracles` gives.
"""

import contextlib
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from cps_sentinel import dataio
from cps_sentinel.dataio import DataFormatError, csv_text, load_csv, read_csv, read_header, save_csv
from cps_sentinel.detectors import VERDICT_HEADER, VerdictSeries, read_verdicts, verdict_csv
from cps_sentinel.errorspace import (
    ERROR_SERIES_HEADER,
    ErrorSeries,
    error_series_csv,
    read_error_series,
)

from conftest import SETTINGS
from conftest import make_frame, run_cli


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
        if len(np.unique(verdicts.indices)) < len(rows):
            # Verdicts name each index once; the reader rejects a repeat.
            with pytest.raises(DataFormatError, match="repeats"):
                read_verdicts(path)
            return
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
    schema = dataio.ChannelSchema(names=("A",))
    with scratch_file(data) as path:
        only_data_format_errors(lambda p: load_csv(p, schema), path)
        only_data_format_errors(read_verdicts, path)
        only_data_format_errors(read_error_series, path)
        only_data_format_errors(read_header, path)


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


# --- the reader's numpy pass and the writer's joined rows against the oracle --

# read_csv's cells; INT64 above is a strategy.
INT_CELL, FLOAT_CELL, TOKEN_CELL = dataio.INT64, dataio.FLOAT64, dataio.TOKEN
TIME_CELL = dataio.TIMESTAMP
DATA_CELLS = (TIME_CELL, FLOAT_CELL, FLOAT_CELL)
LAYOUTS = {
    ("Timestamp", "A", "B"): DATA_CELLS,
    ("Timestamp", "A", "B", "Normal/Attack"): (*DATA_CELLS, TOKEN_CELL),
    VERDICT_HEADER: (INT_CELL, TOKEN_CELL, FLOAT_CELL),
    ERROR_SERIES_HEADER: (INT_CELL, FLOAT_CELL),
}
# The fields each cell's writer writes, and fields that parse or fail oddly.
WRITTEN = {
    INT_CELL: INT64.map(str),
    TIME_CELL: INT64.map(str),
    FLOAT_CELL: st.floats().map(repr),
    TOKEN_CELL: st.sampled_from(["Normal", "Attack", "0", "1"]),
}
ODD = {
    INT_CELL: st.sampled_from(["+5", " 5", "5 ", "-0", "0005", "9223372036854775808",
                               "-9223372036854775809", "5.0", "1e3", "0x10", "", "x"]),
    FLOAT_CELL: st.sampled_from(["-0.0", "5e-324", "1e309", " 1.5", "1.5 ", "nan", "-inf",
                                 "infinity", "+.5", "1e", ".", "", "0x10",
                                 "1.7976931348623157e308"]),
    TOKEN_CELL: st.sampled_from(["Attackers", " 1", "a#b", "", "true", " Attack"]),
}
ODD[TIME_CELL] = ODD[INT_CELL]


def outcome(read, path):
    """The columns `read` gives as (dtype, bytes) pairs, or its error's text."""
    try:
        return [(column.dtype.str, column.tobytes()) for column in read(path, "a table", LAYOUTS)]
    except DataFormatError as exc:
        return str(exc)


@st.composite
def tables(draw, min_rows=0):
    """A header of LAYOUTS and rows of fields; odd fields in some tables."""
    header = draw(st.sampled_from(list(LAYOUTS)))
    cells = LAYOUTS[header]
    odd = draw(st.booleans())
    field = {cell: st.one_of(WRITTEN[cell], ODD[cell]) if odd else WRITTEN[cell] for cell in cells}
    rows = draw(st.lists(st.tuples(*(field[cell] for cell in cells)).map(list),
                         min_size=min_rows, max_size=12))
    return [list(header), *rows]


def csv_bytes(lines, end="\n", trailing=True) -> bytes:
    return (end.join(map(",".join, lines)) + (end if trailing else "")).encode("utf-8")


def assert_reads_as_the_oracle(data: bytes):
    with scratch_file(data) as path, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        expected = outcome(oracles.read_csv, path)
        assert outcome(read_csv, path) == expected
    assert not caught, [str(w.message) for w in caught]


@SETTINGS
@given(tables(), st.booleans())
def test_plain_files_read_as_the_oracle_reads_them(lines, trailing):
    assert_reads_as_the_oracle(csv_bytes(lines, trailing=trailing))


def _put(lines, draw, token, cells=lambda cell: True):
    """Set one data field whose cell satisfies `cells` to `token`."""
    row = draw(st.integers(min_value=1, max_value=len(lines) - 1))
    header = tuple(lines[0])
    columns = [i for i, cell in enumerate(LAYOUTS[header]) if cells(cell)]
    if columns:
        lines[row][draw(st.sampled_from(columns))] = token
    return csv_bytes(lines)


def _insert_line(lines, draw, line):
    at = draw(st.integers(min_value=1, max_value=len(lines)))
    return csv_bytes([*lines[:at], [line], *lines[at:]])


def _quote(lines, draw):
    row = draw(st.integers(min_value=1, max_value=len(lines) - 1))
    column = draw(st.integers(min_value=0, max_value=len(lines[row]) - 1))
    lines[row][column] = f'"{lines[row][column]}"'
    return csv_bytes(lines)


def _numeric(cell):
    return cell in (INT_CELL, TIME_CELL, FLOAT_CELL)


def _integer(cell):
    return cell in (INT_CELL, TIME_CELL)


def _token(cell):
    return cell == TOKEN_CELL


# Each input the numpy pass must hand to csv.reader, or must parse as it does.
FALLBACKS = {
    "quoted field": _quote,
    "CRLF": lambda lines, draw: csv_bytes(lines, end="\r\n"),
    "bare CR": lambda lines, draw: csv_bytes(lines, end="\r"),
    "NUL": lambda lines, draw: _put(lines, draw, "1\0"),
    "blank line": lambda lines, draw: _insert_line(lines, draw, ""),
    "whitespace-only line": lambda lines, draw: _insert_line(lines, draw, " "),
    "only blank lines": lambda lines, draw: csv_bytes([lines[0], [""], [""]]),
    "131,073-character field": lambda lines, draw: _put(lines, draw, "0" * 131_073),
    "BOM": lambda lines, draw: b"\xef\xbb\xbf" + csv_bytes(lines),
    "ISO timestamp": lambda lines, draw: _put(lines, draw, "2015-12-28T10:00:00",
                                              lambda cell: cell == TIME_CELL),
    "1_0": lambda lines, draw: _put(lines, draw, "1_0", _numeric),
    "Arabic-Indic digits": lambda lines, draw: _put(lines, draw, "١٢", _numeric),
    "' 1.5'": lambda lines, draw: _put(lines, draw, " 1.5", lambda cell: cell == FLOAT_CELL),
    "+5": lambda lines, draw: _put(lines, draw, "+5", _numeric),
    "5.0 in an int column": lambda lines, draw: _put(lines, draw, "5.0", _integer),
    "# in a token": lambda lines, draw: _put(lines, draw, "At#tack", _token),
    "Attackers": lambda lines, draw: _put(lines, draw, "Attackers", _token),
    "' 1' flag": lambda lines, draw: _put(lines, draw, " 1", _token),
    "unit separator": lambda lines, draw: _put(lines, draw, "\x1c5", _numeric),
    "non-BMP character": lambda lines, draw: _put(lines, draw, "\U0009c4005", _numeric),
}


@pytest.mark.parametrize("fallback", list(FALLBACKS))
@SETTINGS
@given(data=st.data())
def test_files_that_fall_back_read_as_the_oracle_reads_them(fallback, data):
    lines = data.draw(tables(min_rows=1))
    assert_reads_as_the_oracle(FALLBACKS[fallback](lines, data.draw))


FLOAT_CELLS = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 0.1 + 0.2, 1 / 3, 2.0**-1074, 1.7976931348623157e308, 1e16,
                     1e-5, 123456789.12345679]),
)
# Text that csv.writer does not quote; `test_writer_rejects_a_cell_that_needs_quotes`
# covers the rest.
TEXT_CELLS = st.text(min_size=1, max_size=4).filter(set(',"\r\n').isdisjoint)
COLUMNS = st.one_of(
    st.lists(FLOAT_CELLS, min_size=3, max_size=3),
    st.lists(INT64, min_size=3, max_size=3),
    st.lists(st.booleans(), min_size=3, max_size=3).map(np.array),
    st.lists(st.sampled_from(["Normal", "Attack"]), min_size=3, max_size=3).map(np.array),
    st.lists(TEXT_CELLS, min_size=3, max_size=3).map(np.array),
)


@SETTINGS
@given(st.lists(COLUMNS, max_size=4), st.integers(min_value=0, max_value=3))
@example([[-0.0, 5e-324, 0.30000000000000004], np.array(["", "a", "é"])], 3)
def test_writer_writes_the_oracles_bytes(columns, rows):
    columns = [column[:rows] for column in columns]
    header = [f"c{i}" for i in range(len(columns))]
    assert csv_text(header, columns) == oracles.csv_text(header, columns)


@pytest.mark.parametrize("cell", [",", '"', "\n", "\r", "a,b"])
def test_writer_rejects_a_cell_that_needs_quotes(cell):
    with pytest.raises(ValueError, match="a comma, a quote or a line break"):
        csv_text(["c0", "c1"], [[0.5, 1.5], np.array(["a", cell])])


def test_writer_quotes_the_header_and_rejects_a_column_of_objects():
    assert csv_text(["a,b", "c"], [[1], [0.5]]) == '"a,b",c\n1,0.5\n'
    with pytest.raises(ValueError, match="column of object"):
        csv_text(["c"], [np.array([None, 1])])


def test_the_package_reads_its_own_tables_in_one_numpy_pass(monkeypatch, tmp_path):
    awkward = [-0.0, 5e-324, 0.1 + 0.2, 1e16, 1e-5, -1.7976931348623157e308, 0.5, 2.0]
    frame = make_frame(np.reshape(awkward, (4, 2)), labels=[0, 1, 1, 0], start=-2)
    verdicts = VerdictSeries(indices=range(5, 13), flags=np.greater(awkward, 0.4), scores=awkward)
    series = ErrorSeries(errors=awkward[:5], target_indices=range(5), delta=0.0, sigma=0.0)
    save_csv(frame, tmp_path / "data.csv")
    (tmp_path / "verdicts.csv").write_text(verdict_csv(verdicts))
    (tmp_path / "errors.csv").write_text(error_series_csv(series))

    def general_path(path, data):
        raise AssertionError(f"{path} was read by csv.reader")

    monkeypatch.setattr(dataio, "_csv_rows", general_path)
    back = load_csv(tmp_path / "data.csv", frame.schema)
    np.testing.assert_array_equal(back.timestamps, frame.timestamps)
    np.testing.assert_array_equal(bits(back.values), bits(frame.values))
    np.testing.assert_array_equal(back.labels, frame.labels)
    back = read_verdicts(tmp_path / "verdicts.csv")
    np.testing.assert_array_equal(back.indices, verdicts.indices)
    np.testing.assert_array_equal(back.flags, verdicts.flags)
    np.testing.assert_array_equal(bits(back.scores), bits(verdicts.scores))
    back = read_error_series(tmp_path / "errors.csv")
    np.testing.assert_array_equal(back.target_indices, series.target_indices)
    np.testing.assert_array_equal(bits(back.errors), bits(series.errors))


# --- the plain reader at its block boundaries ---------------------------------

BLOCK = dataio.ROW_BLOCK
LABELLED = ("Timestamp", "A", "B", "Normal/Attack")


def block_lines(rows):
    """The header of LABELLED and `rows` data rows the writer could write."""
    return [list(LABELLED), *([str(i), repr(i / 3), repr(-i * 0.1), ("Normal", "Attack")[i % 7 == 0]]
                              for i in range(rows))]


def read_by_numpy(monkeypatch, path):
    """`outcome` of read_csv, failing if it hands the file to csv.reader."""
    def general_path(path, data):
        raise AssertionError(f"{path} was read by csv.reader")

    with monkeypatch.context() as patch:
        patch.setattr(dataio, "_csv_rows", general_path)
        return outcome(read_csv, path)


@pytest.mark.parametrize("rows", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
@pytest.mark.parametrize("trailing", [True, False])
def test_plain_files_of_one_block_and_around_it_read_in_numpy(monkeypatch, rows, trailing):
    with scratch_file(csv_bytes(block_lines(rows), trailing=trailing)) as path:
        assert read_by_numpy(monkeypatch, path) == outcome(oracles.read_csv, path)


def test_a_longer_token_in_a_later_block_widens_the_column(monkeypatch):
    """The token column takes the width of its longest token, wherever it is."""
    lines = block_lines(BLOCK + 2)
    lines[BLOCK + 2][3] = "Attackers"
    with scratch_file(csv_bytes(lines)) as path:
        got = read_by_numpy(monkeypatch, path)
        assert got == outcome(oracles.read_csv, path)
    assert got[3][0] == np.dtype("U9").str


def _in_row(lines, column, token):
    """The file with data row BLOCK + 1, the second block's first, holding
    `token` in `column`."""
    lines[BLOCK + 1][column] = token
    return csv_bytes(lines)


# Faults placed in the second block's first row: each must fall back to
# csv.reader, which names the absolute row.
SECOND_BLOCK_FAULTS = {
    "bad field": lambda lines: _in_row(lines, 1, "x"),
    "blank line": lambda lines: csv_bytes([*lines[:BLOCK + 1], [""], *lines[BLOCK + 1:]]),
    "non-ASCII character": lambda lines: _in_row(lines, 2, "1.5\xe9"),
    "invalid UTF-8": lambda lines: csv_bytes(lines[:BLOCK + 1]) + b"\xff"
                                   + csv_bytes(lines[BLOCK + 1:]),
}


@pytest.mark.parametrize("fault", list(SECOND_BLOCK_FAULTS))
def test_a_fault_in_the_second_block_names_its_absolute_row(fault):
    with scratch_file(SECOND_BLOCK_FAULTS[fault](block_lines(2 * BLOCK))) as path:
        got = outcome(read_csv, path)
        assert got == outcome(oracles.read_csv, path)
    assert isinstance(got, str) and f": malformed row {BLOCK + 1}: " in got
