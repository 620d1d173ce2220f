import numpy as np
import pytest

from cps_sentinel.dataio import (
    ChannelSchema,
    DataFormatError,
    MinMaxScaler,
    TimeSeriesFrame,
    apply_minmax,
    fit_minmax,
    load_csv,
    make_windows,
    save_csv,
)
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


def test_labels_at_maps_absolute_timesteps():
    frame = make_frame(np.zeros((4, 1)), labels=[0, 1, 0, 1], start=100)
    np.testing.assert_array_equal(
        frame.labels_at(np.array([101, 103])), [True, True]
    )
    with pytest.raises(ValueError, match="outside"):
        frame.labels_at(np.array([99]))


def test_fit_minmax_simple_and_constant():
    frame = make_frame([[0.0, 4.0], [5.0, 4.0], [10.0, 4.0]])
    scaler = fit_minmax(frame)
    np.testing.assert_array_equal(scaler.mins, [0.0, 4.0])
    np.testing.assert_array_equal(scaler.maxs, [10.0, 4.0])


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


def test_schema_validation():
    with pytest.raises(ValueError, match="unique"):
        ChannelSchema(names=("A", "A"))
    with pytest.raises(ValueError, match="at least one"):
        ChannelSchema(names=())
    with pytest.raises(ValueError, match="non-empty"):
        ChannelSchema(names=("A", ""))
