import re
import sys
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from cps_sentinel.dataio import (
    ROW_BLOCK,
    ChannelSchema,
    DataFormatError,
    MinMaxScaler,
    TimeSeriesFrame,
    apply_minmax,
    csv_text,
    fit_minmax,
    load_csv,
    make_windows,
    save_csv,
)
from cps_sentinel.detectors import align_to_series, kmeans_fit, ocsvm_detect, ocsvm_fit
from cps_sentinel.errorspace import augment, compute_errors, embed
from cps_sentinel.plantsim import PlantConfig, simulate_normal
from cps_sentinel.rng import Rng

from conftest import make_frame, random_frame

TWO_CH = ChannelSchema(names=("A", "B"))


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_csv_echoes_labels(tmp_path):
    path = write(
        tmp_path,
        "Timestamp,A,B,Normal/Attack\n"
        "0,1.0,2.0,Normal\n"
        "1,1.5,2.5,Normal\n"
        "2,2.0,3.0,Attack\n",
    )
    frame = load_csv(path, TWO_CH)
    assert frame.labels.tolist() == [False, False, True]
    np.testing.assert_array_equal(frame.timestamps, [0, 1, 2])
    np.testing.assert_array_equal(frame.values, [[1.0, 2.0], [1.5, 2.5], [2.0, 3.0]])


def test_load_csv_without_label_column_is_all_normal(tmp_path):
    path = write(tmp_path, "Timestamp,A,B\n0,1,2\n1,3,4\n")
    frame = load_csv(path, TWO_CH)
    assert not frame.labels.any()


def test_load_csv_repeated_timestamp(tmp_path):
    path = write(tmp_path, "Timestamp,A,B\n0,1,2\n0,3,4\n")
    with pytest.raises(DataFormatError, match="non-monotonic timestamp at row 2"):
        load_csv(path, TWO_CH)


def test_load_csv_timestamp_that_wraps_int64(tmp_path):
    path = write(tmp_path, f"Timestamp,A,B\n{2**63 - 1},1,2\n{-2**63},3,4\n")
    with pytest.raises(DataFormatError, match="non-monotonic timestamp at row 2"):
        load_csv(path, TWO_CH)


def test_load_csv_gap_timestamp(tmp_path):
    path = write(tmp_path, "Timestamp,A,B\n0,1,2\n2,3,4\n")
    with pytest.raises(DataFormatError, match="non-contiguous timestamp at row 2"):
        load_csv(path, TWO_CH)


def test_load_csv_header_mismatch(tmp_path):
    path = write(tmp_path, "Timestamp,A,C\n0,1,2\n")
    with pytest.raises(DataFormatError, match="header"):
        load_csv(path, TWO_CH)


def test_load_csv_field_count_mismatch(tmp_path):
    path = write(tmp_path, "Timestamp,A,B\n0,1,2\n1,3\n")
    with pytest.raises(DataFormatError, match="row 2"):
        load_csv(path, TWO_CH)


def test_load_csv_unknown_label_token(tmp_path):
    path = write(tmp_path, "Timestamp,A,B,Normal/Attack\n0,1,2,Maybe\n")
    with pytest.raises(DataFormatError, match="malformed row 1: unknown label token 'Maybe'"):
        load_csv(path, TWO_CH)


def test_load_csv_non_numeric_value(tmp_path):
    path = write(tmp_path, "Timestamp,A,B\n0,1,x\n")
    with pytest.raises(DataFormatError, match="malformed row 1"):
        load_csv(path, TWO_CH)


def test_load_csv_empty_file(tmp_path):
    path = write(tmp_path, "")
    with pytest.raises(DataFormatError, match="missing header"):
        load_csv(path, TWO_CH)


def test_load_csv_iso_timestamps(tmp_path):
    path = write(
        tmp_path,
        "Timestamp,A,B\n"
        "2015-12-28 10:00:00,1,2\n"
        "2015-12-28 10:00:01,3,4\n",
    )
    frame = load_csv(path, TWO_CH)
    assert frame.timestamps[1] - frame.timestamps[0] == 1


def test_save_load_round_trip_bit_identical(tmp_path):
    rng = Rng(17)
    values = rng.uniform_array(1000 * 3).reshape(1000, 3) * 1000.0
    labels = rng.uniform_array(1000) < 0.1
    frame = make_frame(values, labels=labels)
    path = tmp_path / "round.csv"
    save_csv(frame, path)
    schema = frame.schema
    back = load_csv(path, schema)
    np.testing.assert_array_equal(back.values, frame.values)
    np.testing.assert_array_equal(back.timestamps, frame.timestamps)
    np.testing.assert_array_equal(back.labels, frame.labels)
    # Second save is byte-identical.
    path2 = tmp_path / "round2.csv"
    save_csv(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_save_empty_frame_is_header_only(tmp_path):
    frame = make_frame(np.empty((0, 2)))
    path = tmp_path / "empty.csv"
    save_csv(frame, path)
    assert path.read_text() == "Timestamp,C0,C1,Normal/Attack\n"


def test_frame_rejects_bad_shapes():
    with pytest.raises(ValueError, match="channels"):
        TimeSeriesFrame(
            schema=TWO_CH,
            timestamps=np.arange(2),
            values=np.zeros((2, 3)),
            labels=np.zeros(2, dtype=bool),
        )
    with pytest.raises(ValueError, match="non-finite"):
        make_frame([[np.nan, 1.0]])
    with pytest.raises(ValueError, match="lengths differ"):
        TimeSeriesFrame(
            schema=TWO_CH,
            timestamps=np.arange(2),
            values=np.zeros((2, 2)),
            labels=np.zeros(3, dtype=bool),
        )


def test_labels_at_maps_absolute_timesteps():
    frame = make_frame(np.zeros((4, 1)), labels=[0, 1, 0, 1], start=100)
    np.testing.assert_array_equal(
        frame.labels_at(np.array([101, 103])), [True, True]
    )
    # The first index outside is named, with the frame's span.
    with pytest.raises(ValueError, match=re.escape("index 99 outside frame timesteps [100, 104)")):
        frame.labels_at(np.array([101, 99, 104]))
    with pytest.raises(ValueError, match=re.escape("index 104 outside frame timesteps [100, 104)")):
        frame.labels_at(np.array([104, 99]))
    with pytest.raises(ValueError, match=re.escape("index 3 outside frame timesteps [0, 0)")):
        make_frame(np.empty((0, 1))).labels_at(np.array([3]))


def test_fit_minmax_simple_and_constant():
    frame = make_frame([[0.0, 4.0], [5.0, 4.0], [10.0, 4.0]])
    scaler = fit_minmax(frame)
    np.testing.assert_array_equal(scaler.mins, [0.0, 4.0])
    np.testing.assert_array_equal(scaler.maxs, [10.0, 4.0])
    with pytest.raises(ValueError, match="empty frame"):
        fit_minmax(make_frame(np.empty((0, 2))))


def test_fit_minmax_matches_brute_force():
    frame = random_frame(100, 5, seed=3)
    scaler = fit_minmax(frame)
    for c in range(5):
        lo = min(frame.values[r, c] for r in range(100))
        hi = max(frame.values[r, c] for r in range(100))
        assert scaler.mins[c] == lo and scaler.maxs[c] == hi


def test_apply_minmax_values():
    frame = make_frame([[0.0, 4.0], [5.0, 4.0], [10.0, 4.0]])
    scaled = apply_minmax(fit_minmax(frame), frame)
    np.testing.assert_allclose(scaled.values[:, 0], [0.0, 0.5, 1.0])
    # Constant channel maps to the midpoint.
    np.testing.assert_array_equal(scaled.values[:, 1], [0.5, 0.5, 0.5])


def test_apply_minmax_clips_out_of_range():
    train = make_frame([[0.0], [10.0]])
    scaler = fit_minmax(train)
    test = make_frame([[12.0], [-3.0]])
    scaled = apply_minmax(scaler, test)
    np.testing.assert_array_equal(scaled.values[:, 0], [1.0, 0.0])


def test_apply_minmax_output_always_in_unit_interval():
    scaler = fit_minmax(random_frame(50, 3, seed=1))
    other = random_frame(50, 3, seed=2)
    scaled = apply_minmax(scaler, other)
    assert np.all(scaled.values >= 0.0) and np.all(scaled.values <= 1.0)


def test_apply_minmax_extremes_map_to_zero_and_one():
    frame = random_frame(64, 4, seed=9)
    scaled = apply_minmax(fit_minmax(frame), frame)
    for c in range(4):
        assert scaled.values[:, c].min() == 0.0
        assert scaled.values[:, c].max() == 1.0


def test_apply_minmax_schema_mismatch():
    scaler = MinMaxScaler(mins=np.zeros(3), maxs=np.ones(3))
    with pytest.raises(ValueError, match="schema"):
        apply_minmax(scaler, random_frame(5, 2))


def test_make_windows_counts_and_indices():
    frame = random_frame(5, 2)
    batch = make_windows(frame, 2)
    assert len(batch) == 3
    np.testing.assert_array_equal(batch.target_indices, [2, 3, 4])


def test_make_windows_boundary_single_window():
    batch = make_windows(random_frame(13, 2), 12)
    assert len(batch) == 1


def test_make_windows_matches_slice_oracle():
    frame = random_frame(30, 3, seed=8)
    w = 7
    batch = make_windows(frame, w)
    for i in range(len(batch)):
        np.testing.assert_array_equal(batch.inputs[i], frame.values[i : i + w])
        np.testing.assert_array_equal(batch.targets[i], frame.values[i + w])
        assert batch.target_indices[i] == i + w


def test_make_windows_covers_every_target_once():
    frame = random_frame(25, 1)
    batch = make_windows(frame, 4)
    assert batch.target_indices.tolist() == list(range(4, 25))


def test_make_windows_too_short():
    with pytest.raises(ValueError, match="at least"):
        make_windows(random_frame(5, 1), 5)
    with pytest.raises(ValueError, match="window length must be positive"):
        make_windows(random_frame(5, 1), 0)


# The dtype of each record array field that is not float64.
FIELD_DTYPES = {"timestamps": np.int64, "labels": bool, "target_indices": np.int64,
                "point_indices": np.int64, "synthetic_flags": bool, "indices": np.int64,
                "flags": bool}


@pytest.fixture(scope="module")
def records():
    """One record of each class that holds arrays, built by the package."""
    raw = simulate_normal(PlantConfig(seed=1), 200)
    scaler = fit_minmax(raw)
    frame = apply_minmax(scaler, raw)
    windows = make_windows(frame, 4)
    series = compute_errors(windows.inputs[:, -1, :], windows.targets, windows.target_indices)
    embedding = augment(embed(series), series.delta, series.sigma)
    ocsvm = ocsvm_fit(embedding, nu=0.1, gamma=10.0)
    verdicts = align_to_series(ocsvm_detect(ocsvm, embed(series, lag=2)), series)
    return [raw, scaler, series, embedding, verdicts, ocsvm, kmeans_fit(embedding)]


def test_records_hold_read_only_c_ordered_arrays_of_their_dtype(records):
    assert len({type(record) for record in records}) == 7
    for record in records:
        for field in fields(record):
            if field.type is not np.ndarray:
                continue
            array = getattr(record, field.name)
            where = f"{type(record).__name__}.{field.name}"
            assert not array.flags.writeable and array.flags.c_contiguous, where
            assert array.dtype == FIELD_DTYPES.get(field.name, np.float64), where
            with pytest.raises(ValueError, match=f"{field.name} must be an array"):
                replace(record, **{field.name: array.flat[0]})


def test_a_record_takes_ownership_of_an_array_it_is_given():
    """No defensive copy: a float64, C-ordered input becomes the record's
    field itself, so the caller's array turns read-only."""
    a = np.zeros(3)
    scaler = MinMaxScaler(mins=a, maxs=a + 1)
    assert scaler.mins is a and not a.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        a[0] = 1.0
    # An input that needs a conversion is copied, and the caller's stays writable.
    b = np.zeros(3, dtype=np.float32)
    MinMaxScaler(mins=b, maxs=b + 1)
    b[0] = 1.0


def test_make_windows_are_read_only_views_of_the_frame():
    frame = random_frame(20, 3)
    batch = make_windows(frame, 4)
    for array in (batch.inputs, batch.targets):
        assert np.shares_memory(array, frame.values) and not array.flags.writeable
    assert not batch.target_indices.flags.writeable


def test_schema_validation():
    with pytest.raises(ValueError, match="unique"):
        ChannelSchema(names=("A", "A"))
    with pytest.raises(ValueError, match="at least one"):
        ChannelSchema(names=())
    with pytest.raises(ValueError, match="non-empty"):
        ChannelSchema(names=("A", ""))


# --- memory: the reader and the writer hold one block of rows at a time ------

MEMORY_ROWS = 40_000


def traced_peak(fn, *args):
    """What fn(*args) returns, and the peak of the memory tracemalloc traced
    while it ran. A first, untraced call keeps one-time costs out of it."""
    fn(*args)
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def labelled_trace(rows):
    """A trace of 8 channels whose every 400 rows end in 50 attack rows."""
    values = Rng(3).uniform_array(rows * 8).reshape(rows, 8)
    return make_frame(values, labels=np.arange(rows) % 400 >= 350)


def test_load_csv_holds_twice_its_frame_and_one_block(tmp_path):
    """load_csv's peak is at most twice the frame it returns, plus the peak
    of loading a file of one block's rows."""
    whole, block = labelled_trace(MEMORY_ROWS), labelled_trace(ROW_BLOCK)
    save_csv(whole, tmp_path / "whole.csv")
    save_csv(block, tmp_path / "block.csv")
    _, block_peak = traced_peak(load_csv, tmp_path / "block.csv", block.schema)
    frame, peak = traced_peak(load_csv, tmp_path / "whole.csv", whole.schema)
    returned = frame.timestamps.nbytes + frame.values.nbytes + frame.labels.nbytes
    assert peak <= 2 * returned + block_peak


def test_csv_text_holds_its_text_and_one_block():
    """csv_text's peak is at most the text it returns, plus the peak of
    rendering one block's rows. (Under a trace function, as coverage tools
    set, CPython copies the text at each block instead of growing it.)"""
    def columns(frame):
        return [frame.timestamps, *frame.values.T, np.where(frame.labels, "Attack", "Normal")]

    header = [f"c{i}" for i in range(10)]
    _, block_peak = traced_peak(csv_text, header, columns(labelled_trace(ROW_BLOCK)))
    text, peak = traced_peak(csv_text, header, columns(labelled_trace(MEMORY_ROWS)))
    assert peak <= sys.getsizeof(text) + block_peak
