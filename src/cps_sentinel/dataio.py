"""The CSV codec, the config reader, and loading, validation, normalization
and windowing of frames.

Every CSV table the package writes or reads goes through `csv_text` and
`read_csv`, and every INI config through `read_config` and `read_section`;
the modules that own a table or a section define its header or its keys.
A plain file (printable ASCII without quotes) is parsed by numpy, one block
of `ROW_BLOCK` rows at a time into preallocated columns, and any other file
by `csv.reader`, whole, with the same values and messages. Rows have one
write path: their cells are joined, `ROW_BLOCK` rows at a time, with the
bytes `csv.writer` would write, and a text cell that it would quote raises.

Every record hands out read-only arrays, stored by `freeze_arrays`; a
`WindowBatch` holds zero-copy views into its frame.

Wire format: `Timestamp` column first (integer seconds, or ISO-8601 which is
converted to epoch seconds), one decimal column per channel, and an optional
trailing `Normal/Attack` column holding the tokens ``Normal`` or ``Attack``.
UTF-8, comma separated, header row required, one row per second.
"""

import configparser
import contextlib
import csv
import io
import itertools
import warnings
from dataclasses import dataclass, fields
from datetime import datetime, timezone

import numpy as np

LABEL_COLUMN = "Normal/Attack"
TIMESTAMP_COLUMN = "Timestamp"
NORMAL_TOKEN = "Normal"
ATTACK_TOKEN = "Attack"

# The sections a config may hold, besides one `attack.<name>` per attack.
CONFIG_SECTIONS = ("paths", "forecaster", "detector", "ga", "seeds", "plant", "simulate")
ATTACK_SECTION = "attack."

ROW_BLOCK = 1024  # rows the plain reader parses, and `csv_text` renders, at a time
_SCAN_BYTES = 1 << 16  # bytes per read of the plain reader's byte check


class DataFormatError(ValueError):
    """Malformed input data; message carries the offending row when known."""


class FieldError(ValueError):
    """A dataclass check that failed on the values of `fields`."""

    def __init__(self, message: str, *fields: str):
        super().__init__(message)
        self.fields = fields


@dataclass(frozen=True)
class ChannelSchema:
    """Ordered channel names: the columns a data file must have, in order."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(self.names) < 1:
            raise ValueError("schema needs at least one channel")
        if len(set(self.names)) != len(self.names):
            raise ValueError("channel names must be unique")
        if any(not n for n in self.names):
            raise ValueError("channel names must be non-empty")

    @property
    def channel_count(self) -> int:
        return len(self.names)


def freeze_arrays(record, **dtypes) -> None:
    """Store each field of dataclass `record` annotated `np.ndarray` as a
    read-only, C-ordered array of its dtype: float64 unless `dtypes` names
    another. A 0-d value raises ValueError. The record takes ownership of an
    array that needs no conversion, without a copy: the caller's array
    becomes read-only."""
    for field in fields(record):
        if field.type is np.ndarray:
            dtype = dtypes.get(field.name, np.float64)
            array = np.asarray(getattr(record, field.name), dtype=dtype, order="C")
            if array.ndim == 0:
                raise ValueError(f"{field.name} must be an array, not the scalar {array}")
            array.flags.writeable = False
            object.__setattr__(record, field.name, array)


@dataclass(frozen=True, eq=False)
class TimeSeriesFrame:
    """Timestamped multichannel readings with per-row normal/attack labels.

    values has one row per timestep and one column per channel; timestamps
    are strictly increasing integer seconds with unit step (1 Hz); labels[i]
    is True for attack rows.
    """

    schema: ChannelSchema
    timestamps: np.ndarray
    values: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        freeze_arrays(self, timestamps=np.int64, labels=bool)
        ts, vals = self.timestamps, self.values
        if vals.ndim != 2 or vals.shape[1] != self.schema.channel_count:
            raise ValueError(
                f"values shape {vals.shape} does not match "
                f"{self.schema.channel_count} channels"
            )
        if not (len(ts) == len(vals) == len(self.labels)):
            raise ValueError("timestamps, values and labels lengths differ")
        if len(ts) > 1:
            # Compared, not subtracted: a step past the int64 range would wrap.
            backwards = ts[1:] <= ts[:-1]
            if np.any(backwards):
                row = int(np.argmax(backwards)) + 2
                raise ValueError(f"non-monotonic timestamp at row {row}")
            steps = np.diff(ts)
            if np.any(steps != 1):
                row = int(np.argmax(steps != 1)) + 2
                raise ValueError(f"non-contiguous timestamp at row {row}")
        finite = np.all(np.isfinite(vals), axis=1)
        if not np.all(finite):
            raise ValueError(f"non-finite value at row {int(np.argmin(finite)) + 1}")

    def __len__(self) -> int:
        return len(self.timestamps)

    def labels_at(self, indices: np.ndarray) -> np.ndarray:
        """Labels at absolute timesteps; a ValueError names the first index outside the frame."""
        first, last = (int(self.timestamps[0]), int(self.timestamps[-1])) if len(self) else (0, -1)
        indices = np.asarray(indices, dtype=np.int64)
        outside = (indices < first) | (indices > last)
        if np.any(outside):
            raise ValueError(f"index {indices[np.argmax(outside)]} outside frame timesteps "
                             f"[{first}, {last + 1})")
        return self.labels[indices - first]


@dataclass(frozen=True, eq=False)
class MinMaxScaler:
    """Per-channel extremes observed on a fitting frame."""

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        freeze_arrays(self)
        if self.mins.shape != self.maxs.shape or self.mins.ndim != 1:
            raise ValueError("mins and maxs must be matching 1-D arrays")
        if np.any(self.maxs < self.mins):
            raise ValueError("max < min for some channel")


@dataclass(frozen=True, eq=False)
class WindowBatch:
    """Stride-1 sliding windows paired with the next-step reading."""

    inputs: np.ndarray
    targets: np.ndarray
    target_indices: np.ndarray

    def __len__(self) -> int:
        return len(self.targets)


def csv_text(header, columns) -> str:
    """CSV text: the header row, then one row per position of equal-length columns.

    Each row ends in a bare newline. The header goes through `csv.writer`,
    which quotes a name where CSV needs it; the rows are `csv_lines`, rendered
    ROW_BLOCK at a time, so one block's cells are held at once.
    """
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(header)
    text = buf.getvalue()
    arrays = list(map(_column, columns))
    for lo in range(0, min(map(len, arrays), default=0), ROW_BLOCK):
        # CPython appends in place to a str that only this name refers to,
        # so the text grows by a block without a copy of what it holds.
        text += "\n".join(_rows(a[lo : lo + ROW_BLOCK] for a in arrays))
        text += "\n"
    return text


def csv_lines(columns) -> list[str]:
    """One CSV row, without its line end, per position of equal-length columns.

    Each column is a sequence or a 1-D array of numbers or of text, and its
    cells are what `csv.writer` writes: floats as their repr, the shortest
    text that reads back to the same bits, and every other value as its
    str. A text cell holding a comma, a quote or a line break raises
    ValueError, as `csv.writer` would quote it.
    """
    return list(_rows(map(_column, columns)))


def _rows(arrays):
    """The joined rows of `_column` arrays."""
    return map(",".join, zip(*map(_cells, arrays)))


# The text `csv.writer` would quote: a comma, a quote and the line breaks.
_QUOTED = np.array([ord(c) for c in ',"\r\n'], dtype=np.uint32)


def _column(column) -> np.ndarray:
    """`column` as an array of numbers or of text none of whose cells CSV quotes."""
    array = np.asarray(column)
    if array.dtype.kind not in "fbiuU":
        raise ValueError(f"cannot write a column of {array.dtype} as CSV")
    if array.dtype.kind == "U" and np.isin(np.ascontiguousarray(array).view(np.uint32),
                                           _QUOTED).any():
        raise ValueError("a text cell holds a comma, a quote or a line break")
    return array


def _cells(array: np.ndarray) -> list[str]:
    """Each value of a `_column` array as one unquoted CSV cell."""
    kind, values = array.dtype.kind, array.tolist()
    if kind == "f":
        return list(map(repr, values))
    if kind in "biu":
        return list(map(str, values))
    return values


def _csv_rows(path, data: bytes) -> list[list[str]]:
    """The CSV rows of UTF-8 `data`; row 0 is the header."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        row = data.count(b"\n", 0, exc.start)  # lines before the bad byte
        raise DataFormatError(f"{path}: malformed row {row}: {exc}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise DataFormatError(f"{path}: malformed row {reader.line_num - 1}: {exc}") from None
    if not rows or not rows[0]:
        raise DataFormatError(f"{path}: missing header row")
    return rows


def read_config(path) -> configparser.ConfigParser:
    """The INI file at `path`, whose values are taken literally (no `%`
    interpolation). A file that does not parse, a non-empty `[DEFAULT]`
    (configparser would copy its keys into every section) and a section not
    in `CONFIG_SECTIONS` or named `attack.<name>` raise ValueError."""
    config = configparser.ConfigParser(interpolation=None)
    try:
        if not config.read(path):
            raise FileNotFoundError(f"config file not found: {path}")
    except configparser.Error as exc:
        raise ValueError(f"{path}: {str(exc).splitlines()[0]}") from None
    if config.defaults():
        raise ValueError(f"[{config.default_section}]: not supported; set each key in its section")
    for section in config.sections():
        if section not in CONFIG_SECTIONS and not section.startswith(ATTACK_SECTION):
            known = ", ".join((*CONFIG_SECTIONS, ATTACK_SECTION + "<name>"))
            raise ValueError(f"[{section}]: unknown section; known sections: {known}")
    return config


def read_section(config, section: str, defaults: dict, parsers=None) -> dict:
    """The value of each key of `defaults` in `[section]` of `config`: its
    default when unset, else parsed by `parsers[key]` or as the type of its
    default. An unknown key or a value that does not parse raises ValueError
    "[section] key: reason"."""
    values = dict(defaults)
    parsers = parsers or {}
    for key, text in config[section].items() if section in config else ():
        if key not in defaults:
            raise ValueError(f"[{section}] {key}: unknown key; known keys: {', '.join(defaults)}")
        try:
            values[key] = parsers.get(key, type(defaults[key]))(text)
        except ValueError as exc:
            raise ValueError(f"[{section}] {key}: {exc}") from None
    return values


@contextlib.contextmanager
def naming_keys(keys: dict):
    """Re-raise a FieldError from the block as ValueError "[section] key: reason",
    naming each of its fields by `keys[field]`, its "[section] key"."""
    try:
        yield
    except FieldError as exc:
        raise ValueError(f"{', '.join(keys[name] for name in exc.fields)}: {exc}") from None


def read_header(path) -> list[str]:
    """The header row of the CSV file at `path`, read without the rest."""
    with open(path, "rb") as fh:
        return _csv_rows(path, fh.readline())[0]


def _parse_timestamp(token: str) -> int:
    """Integer seconds, or an ISO-8601 time (UTC unless it names a zone)."""
    try:
        return int(token)
    except ValueError:
        dt = datetime.fromisoformat(token.strip())
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


# Cells of `read_csv`: a column of integers, of floats, of tokens kept as
# text, or of timestamps.
INT64 = (int, np.int64)
FLOAT64 = (float, np.float64)
TOKEN = (str, str)
TIMESTAMP = (_parse_timestamp, np.int64)

# The np.loadtxt type of each cell. On printable ASCII, numpy's integer parser
# accepts a subset of what `int` accepts, and its float parser calls
# PyOS_string_to_double as `float` does (without `float`'s underscores); on
# what they accept, both give the parser's value. A timestamp that is not an
# integer fails the i8 parse.
_LOADTXT_TYPES = {INT64: "i8", TIMESTAMP: "i8", FLOAT64: "f8", TOKEN: "O"}
# The bytes of a plain file: newlines and printable ASCII but the quote.
_PLAIN_BYTES = bytes([ord("\n"), *range(0x20, 0x7F)]).replace(b'"', b"")


def read_csv(path, what: str, layouts: dict) -> list[np.ndarray]:
    """One array per column of the CSV file at `path`.

    `layouts` maps each accepted header, as a tuple of column names, to one
    `(parser, dtype)` cell per column, such as `INT64`: the parser turns a
    field into a value and raises ValueError on a bad one, and the column's
    values become an array of that dtype. Any other header is "not {what}".
    Every fault is a DataFormatError "{path}: malformed row N: reason",
    counting data rows from 1; the header is row 0.
    """
    columns = _read_plain(path, layouts)
    if columns is not None:
        return columns
    with open(path, "rb") as fh:
        data = fh.read()
    header, *body = _csv_rows(path, data)
    cells = layouts.get(tuple(header))
    if cells is None:
        raise DataFormatError(f"{path}: not {what} (header {header!r})")
    width = len(cells)
    for row_no, row in enumerate(body, start=1):
        if len(row) != width:
            raise DataFormatError(
                f"{path}: malformed row {row_no}: {len(row)} fields, expected {width}: {row!r}"
            )
    columns = list(zip(*body)) if body else [()] * width
    try:
        return [
            np.asarray(list(map(parse, tokens)), dtype=dtype)
            for (parse, dtype), tokens in zip(cells, columns)
        ]
    except (ValueError, OverflowError):
        # Name the first bad field in reading order.
        for row_no, row in enumerate(body, start=1):
            for (parse, dtype), token in zip(cells, row):
                try:
                    np.asarray(parse(token), dtype=dtype)
                except (ValueError, OverflowError) as exc:
                    raise DataFormatError(f"{path}: malformed row {row_no}: {exc}") from None
        raise


def _read_plain(path, layouts: dict) -> list[np.ndarray] | None:
    """The columns `read_csv` gives for the file at `path`, parsed by
    np.loadtxt, or None unless that is certain to give them.

    It is certain for a file of printable ASCII without quotes (csv.reader
    then splits each line at its commas and nothing else), with a header in
    `layouts`, no line past csv's field size limit, a loadtxt type for every
    cell, and loadtxt succeeding without a warning on one record per line
    (it would skip a blank line, which csv.reader rejects). A first pass
    checks the bytes and counts the rows; the second parses ROW_BLOCK rows
    per loadtxt call into columns of that count, so no more of the file is
    held at once.
    """
    with open(path, "rb") as fh:
        lines, end = 0, b"\n"
        for chunk in iter(lambda: fh.read(_SCAN_BYTES), b""):
            if chunk.translate(None, _PLAIN_BYTES):
                return None
            lines, end = lines + chunk.count(b"\n"), chunk[-1:]
        rows = lines + (end != b"\n") - 1  # the last line may lack its line end
        if rows < 1:
            return None
        fh.seek(0)
        header = fh.readline()
        cells = layouts.get(tuple(header.decode("ascii").rstrip("\n").split(",")))
        limit = csv.field_size_limit()
        if (cells is None or not all(cell in _LOADTXT_TYPES for cell in cells)
                or len(header) > limit):
            return None
        types = np.dtype([(f"f{i}", _LOADTXT_TYPES[cell]) for i, cell in enumerate(cells)])
        columns = [np.empty(rows, dtype) for _, dtype in cells]
        for lo in range(0, rows, ROW_BLOCK):
            block = list(itertools.islice(fh, ROW_BLOCK))
            # Counting line ends, this is stricter than the field size limit,
            # which only sends a file at the limit to csv.reader.
            if max(map(len, block)) > limit:
                return None
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    records = np.loadtxt(block, dtype=types, delimiter=",",
                                         comments=None, quotechar=None, ndmin=1)
            except (ValueError, Warning):
                return None
            if len(records) != len(block):
                return None
            for i, (name, (_, dtype)) in enumerate(zip(types.names, cells)):
                values = records[name].astype(dtype)
                if values.itemsize > columns[i].itemsize:  # a token longer than those before
                    wider = np.empty(rows, values.dtype)
                    wider[:lo] = columns[i][:lo]
                    columns[i] = wider
                columns[i][lo : lo + len(values)] = values
    return columns


def reject_rows(path, bad: np.ndarray, column: np.ndarray, reason: str) -> None:
    """DataFormatError naming the first row where `bad` holds and its value."""
    if np.any(bad):
        row = int(np.argmax(bad))
        raise DataFormatError(
            f"{path}: malformed row {row + 1}: {reason} {column[row].item()!r}"
        )


def load_csv(path, schema: ChannelSchema) -> TimeSeriesFrame:
    """Read a frame in the wire format, validating against the schema.

    A missing label column yields all-normal labels. Every fault names the
    file and its 1-based data row: a malformed field, a channel-count
    mismatch, an unknown label token, a repeated or skipped timestamp and a
    non-finite reading.
    """
    columns = (TIMESTAMP_COLUMN, *schema.names)
    cells = [TIMESTAMP] + [FLOAT64] * schema.channel_count
    timestamps, *values = read_csv(
        path,
        f"a data file with columns {list(columns)} and an optional {LABEL_COLUMN!r}",
        {columns: cells, (*columns, LABEL_COLUMN): [*cells, TOKEN]},
    )
    labels = np.zeros(len(timestamps), dtype=bool)
    if len(values) > schema.channel_count:
        tokens = values.pop()
        labels = tokens == ATTACK_TOKEN
        reject_rows(path, ~labels & (tokens != NORMAL_TOKEN), tokens, "unknown label token")
        del tokens
    # Rebinding drops the columns as soon as they are stacked, so at most
    # twice the frame's values is ever held.
    values = np.column_stack(values)
    try:
        return TimeSeriesFrame(schema, timestamps, values, labels)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def save_csv(frame: TimeSeriesFrame, path) -> None:
    """Write a frame in the wire format; floats use shortest round-trip repr."""
    header = [TIMESTAMP_COLUMN, *frame.schema.names, LABEL_COLUMN]
    tokens = np.where(frame.labels, ATTACK_TOKEN, NORMAL_TOKEN)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(csv_text(header, [frame.timestamps, *frame.values.T, tokens]))


def fit_minmax(frame: TimeSeriesFrame) -> MinMaxScaler:
    """Per-channel min/max over all rows of the frame."""
    if len(frame) == 0:
        raise ValueError("cannot fit scaler on an empty frame")
    return MinMaxScaler(mins=frame.values.min(axis=0), maxs=frame.values.max(axis=0))


def apply_minmax(scaler: MinMaxScaler, frame: TimeSeriesFrame) -> TimeSeriesFrame:
    """Map each value to (x - min)/(max - min), clipped to [0, 1].

    Constant channels (max == min) map to 0.5; values outside the fitted
    range (e.g. a test frame under a train scaler) are clipped.
    """
    if len(scaler.mins) != frame.schema.channel_count:
        raise ValueError("scaler does not match frame schema")
    span = scaler.maxs - scaler.mins
    degenerate = span == 0
    safe_span = np.where(degenerate, 1.0, span)
    scaled = (frame.values - scaler.mins) / safe_span
    scaled = np.where(degenerate, 0.5, scaled)
    scaled = np.clip(scaled, 0.0, 1.0)
    return TimeSeriesFrame(
        schema=frame.schema,
        timestamps=frame.timestamps,
        values=scaled,
        labels=frame.labels,
    )


def make_windows(frame: TimeSeriesFrame, w: int) -> WindowBatch:
    """All stride-1 windows of length w, each paired with the next reading.

    Window i covers rows [i, i+w) and targets row i+w; count = rows - w.
    Inputs are a zero-copy read-only view into the frame values.
    """
    if w < 1:
        raise ValueError("window length must be positive")
    if len(frame) < w + 1:
        raise ValueError(f"frame has {len(frame)} rows; needs at least {w + 1}")
    inputs = np.lib.stride_tricks.sliding_window_view(frame.values, w, axis=0)
    # sliding_window_view puts the window axis last; reorder to (N, w, C)
    inputs = inputs.transpose(0, 2, 1)[:-1]
    targets = frame.values[w:]
    start = int(frame.timestamps[0])
    target_indices = np.arange(w, len(frame), dtype=np.int64) + start
    target_indices.flags.writeable = False
    return WindowBatch(inputs=inputs, targets=targets, target_indices=target_indices)
