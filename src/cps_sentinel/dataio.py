"""Loading, validation, normalization and windowing of labeled sensor CSVs.

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

SENSOR = "sensor"
ACTUATOR = "actuator"


class DataFormatError(ValueError):
    """Malformed input data; message carries the offending row when known."""


@dataclass(frozen=True)
class ChannelSchema:
    """Ordered channel names plus a continuous/discrete tag per channel."""

    names: tuple[str, ...]
    kinds: tuple[str, ...]

    def __post_init__(self):
        if len(self.names) < 1:
            raise ValueError("schema needs at least one channel")
        if len(self.names) != len(self.kinds):
            raise ValueError("names and kinds length mismatch")
        if len(set(self.names)) != len(self.names):
            raise ValueError("channel names must be unique")
        if any(not n for n in self.names):
            raise ValueError("channel names must be non-empty")
        bad = [k for k in self.kinds if k not in (SENSOR, ACTUATOR)]
        if bad:
            raise ValueError(f"unknown channel kind(s): {bad}")

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
            steps = np.diff(ts)
            if np.any(steps <= 0):
                row = int(np.argmax(steps <= 0)) + 2
                raise ValueError(f"non-monotonic timestamp at row {row}")
            if np.any(steps != 1):
                row = int(np.argmax(steps != 1)) + 2
                raise ValueError(f"non-contiguous timestamp at row {row}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values contain non-finite entries")
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

    window_length: int
    inputs: np.ndarray
    targets: np.ndarray
    target_indices: np.ndarray

    def __len__(self) -> int:
        return len(self.targets)


def _parse_timestamp(token: str, row: int) -> int:
    token = token.strip()
    try:
        return int(token)
    except ValueError:
        pass
    try:
        dt = datetime.fromisoformat(token)
    except ValueError:
        raise DataFormatError(f"malformed timestamp {token!r} at row {row}") from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def load_csv(path, schema: ChannelSchema) -> TimeSeriesFrame:
    """Read a frame in the wire format, validating against the schema.

    A missing label column yields all-normal labels.  Malformed rows,
    non-monotonic timestamps, unknown label tokens and channel-count
    mismatches are reported with their 1-based data row number.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError("empty file: missing header row") from None
        expected = [TIMESTAMP_COLUMN, *schema.names]
        has_labels = header == expected + [LABEL_COLUMN]
        if not has_labels and header != expected:
            raise DataFormatError(
                f"header {header!r} does not match schema "
                f"(expected {expected} with optional trailing {LABEL_COLUMN!r})"
            )
        width = len(expected) + (1 if has_labels else 0)

        timestamps, rows, labels = [], [], []
        prev_ts = None
        for row_no, row in enumerate(reader, start=1):
            if len(row) != width:
                raise DataFormatError(
                    f"channel-count mismatch at row {row_no}: "
                    f"got {len(row)} fields, expected {width}"
                )
            ts = _parse_timestamp(row[0], row_no)
            if prev_ts is not None and ts <= prev_ts:
                raise DataFormatError(f"non-monotonic timestamp at row {row_no}")
            if prev_ts is not None and ts != prev_ts + 1:
                raise DataFormatError(f"non-contiguous timestamp at row {row_no}")
            prev_ts = ts
            try:
                vals = [float(tok) for tok in row[1 : 1 + schema.channel_count]]
            except ValueError:
                raise DataFormatError(f"malformed row {row_no}: non-numeric value") from None
            if has_labels:
                token = row[-1]
                if token not in (NORMAL_TOKEN, ATTACK_TOKEN):
                    raise DataFormatError(f"unknown label token {token!r} at row {row_no}")
                labels.append(token == ATTACK_TOKEN)
            timestamps.append(ts)
            rows.append(vals)

    n = len(timestamps)
    return TimeSeriesFrame(
        schema=schema,
        timestamps=np.asarray(timestamps, dtype=np.int64),
        values=np.asarray(rows, dtype=np.float64).reshape(n, schema.channel_count),
        labels=np.asarray(labels if has_labels else [False] * n, dtype=bool),
    )


def save_csv(frame: TimeSeriesFrame, path) -> None:
    """Write a frame in the wire format; floats use shortest round-trip repr."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([TIMESTAMP_COLUMN, *frame.schema.names, LABEL_COLUMN])
    for i in range(len(frame)):
        writer.writerow(
            [int(frame.timestamps[i])]
            + [repr(float(v)) for v in frame.values[i]]
            + [ATTACK_TOKEN if frame.labels[i] else NORMAL_TOKEN]
        )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())


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
        window_length=w,
        inputs=inputs,
        targets=targets,
        target_indices=_freeze(target_indices),
    )
