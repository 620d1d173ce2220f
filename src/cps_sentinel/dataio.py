"""The CSV codec, and loading, validation, normalization and windowing of frames.

Every CSV table the package writes or reads goes through `csv_text` and
`read_csv`; the modules that own a table define its header.

Wire format: `Timestamp` column first (integer seconds, or ISO-8601 which is
converted to epoch seconds), one decimal column per channel, and an optional
trailing `Normal/Attack` column holding the tokens ``Normal`` or ``Attack``.
UTF-8, comma separated, header row required, one row per second.
"""

import csv
import io
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

LABEL_COLUMN = "Normal/Attack"
TIMESTAMP_COLUMN = "Timestamp"
NORMAL_TOKEN = "Normal"
ATTACK_TOKEN = "Attack"


class DataFormatError(ValueError):
    """Malformed input data; message carries the offending row when known."""


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


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


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
        ts = np.ascontiguousarray(self.timestamps, dtype=np.int64)
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        labs = np.ascontiguousarray(self.labels, dtype=bool)
        if vals.ndim != 2 or vals.shape[1] != self.schema.channel_count:
            raise ValueError(
                f"values shape {vals.shape} does not match "
                f"{self.schema.channel_count} channels"
            )
        if not (len(ts) == len(vals) == len(labs)):
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
        object.__setattr__(self, "timestamps", _freeze(ts))
        object.__setattr__(self, "values", _freeze(vals))
        object.__setattr__(self, "labels", _freeze(labs))

    def __len__(self) -> int:
        return len(self.timestamps)

    def labels_at(self, indices: np.ndarray) -> np.ndarray:
        """Labels for absolute timesteps (positions relative to first row)."""
        rows = np.asarray(indices, dtype=np.int64) - int(self.timestamps[0])
        if np.any(rows < 0) or np.any(rows >= len(self)):
            raise ValueError("index outside frame")
        return self.labels[rows]


@dataclass(frozen=True, eq=False)
class MinMaxScaler:
    """Per-channel extremes observed on a fitting frame."""

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        mins = np.ascontiguousarray(self.mins, dtype=np.float64)
        maxs = np.ascontiguousarray(self.maxs, dtype=np.float64)
        if mins.shape != maxs.shape or mins.ndim != 1:
            raise ValueError("mins and maxs must be matching 1-D arrays")
        if np.any(maxs < mins):
            raise ValueError("max < min for some channel")
        object.__setattr__(self, "mins", _freeze(mins))
        object.__setattr__(self, "maxs", _freeze(maxs))


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

    Each column is a sequence or a 1-D array. Floats are written as their
    repr, the shortest text that reads back to the same bits, and every row
    ends in a bare newline.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*(np.asarray(column).tolist() for column in columns)))
    return buf.getvalue()


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


def read_header(path) -> list[str]:
    """The header row of the CSV file at `path`, read without the rest."""
    with open(path, "rb") as fh:
        return _csv_rows(path, fh.readline())[0]


# Cells of `read_csv`: a column of integers, of floats, or of tokens kept as text.
INT64 = (int, np.int64)
FLOAT64 = (float, np.float64)
TOKEN = (str, str)


def read_csv(path, what: str, layouts: dict) -> list[np.ndarray]:
    """One array per column of the CSV file at `path`.

    `layouts` maps each accepted header, as a tuple of column names, to one
    `(parser, dtype)` cell per column, such as `INT64`: the parser turns a
    field into a value and raises ValueError on a bad one, and the column's
    values become an array of that dtype. Any other header is "not {what}".
    Every fault is a DataFormatError "{path}: malformed row N: reason",
    counting data rows from 1; the header is row 0.
    """
    with open(path, "rb") as fh:
        header, *body = _csv_rows(path, fh.read())
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


def reject_rows(path, bad: np.ndarray, column: np.ndarray, reason: str) -> None:
    """DataFormatError naming the first row where `bad` holds and its value."""
    if np.any(bad):
        row = int(np.argmax(bad))
        raise DataFormatError(
            f"{path}: malformed row {row + 1}: {reason} {column[row].item()!r}"
        )


def _parse_timestamp(token: str) -> int:
    """Integer seconds, or an ISO-8601 time (UTC unless it names a zone)."""
    try:
        return int(token)
    except ValueError:
        dt = datetime.fromisoformat(token.strip())
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def load_csv(path, schema: ChannelSchema) -> TimeSeriesFrame:
    """Read a frame in the wire format, validating against the schema.

    A missing label column yields all-normal labels. Every fault names the
    file and its 1-based data row: a malformed field, a channel-count
    mismatch, an unknown label token, a repeated or skipped timestamp and a
    non-finite reading.
    """
    columns = (TIMESTAMP_COLUMN, *schema.names)
    cells = [(_parse_timestamp, np.int64)] + [FLOAT64] * schema.channel_count
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
    try:
        return TimeSeriesFrame(schema, timestamps, np.column_stack(values), labels)
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
    return WindowBatch(
        inputs=inputs,
        targets=targets,
        target_indices=_freeze(target_indices),
    )
