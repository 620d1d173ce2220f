import numpy as np
import pytest

from cps_sentinel.errorspace import (
    ErrorEmbedding,
    ErrorSeries,
    augment,
    compute_errors,
    embed,
    embedding_csv,
    error_series_csv,
)
from cps_sentinel.rng import Rng


def series_from(errors, start=0):
    e = np.asarray(errors, dtype=np.float64)
    return ErrorSeries(
        errors=e,
        target_indices=np.arange(start, start + len(e)),
        delta=float(e.max()),
        sigma=float(e.std()),
    )


def test_compute_errors_hand_example():
    preds = np.array([[1.0, 2.0], [0.0, 0.0]])
    targets = np.array([[2.0, 4.0], [1.0, 3.0]])
    series = compute_errors(preds, targets, [5, 6])
    np.testing.assert_array_equal(series.errors, [1.5, 2.0])
    assert series.delta == 2.0
    np.testing.assert_array_equal(series.target_indices, [5, 6])


def test_compute_errors_matches_loop_oracle():
    rng = Rng(12)
    preds = rng.uniform_array(60).reshape(20, 3)
    targets = rng.uniform_array(60).reshape(20, 3)
    series = compute_errors(preds, targets, np.arange(20))
    for i in range(20):
        expected = sum(abs(preds[i, c] - targets[i, c]) for c in range(3)) / 3
        assert abs(series.errors[i] - expected) < 1e-12
    assert abs(series.delta - max(series.errors)) < 1e-12
    mean = sum(series.errors) / 20
    var = sum((e - mean) ** 2 for e in series.errors) / 20  # population form
    assert abs(series.sigma - var**0.5) < 1e-12


def test_compute_errors_validation():
    with pytest.raises(ValueError, match="match"):
        compute_errors(np.zeros((3, 2)), np.zeros((3, 3)), [0, 1, 2])
    with pytest.raises(ValueError, match="length"):
        compute_errors(np.zeros((3, 2)), np.zeros((3, 2)), [0, 1])


def test_embed_lag_one_hand_example():
    series = series_from([1.0, 2.0, 3.0])
    emb = embed(series, lag=1)
    np.testing.assert_array_equal(emb.points, [[2.0, 1.0], [3.0, 2.0]])
    np.testing.assert_array_equal(emb.point_indices, [1, 2])
    assert not emb.synthetic_flags.any()


def test_embed_maximum_lag_leaves_one_point():
    series = series_from([1.0, 2.0, 3.0, 4.0])
    emb = embed(series, lag=3)
    np.testing.assert_array_equal(emb.points, [[4.0, 1.0]])


def test_embed_lag_zero_is_diagonal():
    series = series_from([1.0, 2.0, 3.0])
    emb = embed(series, lag=0)
    np.testing.assert_array_equal(emb.points[:, 0], emb.points[:, 1])
    assert len(emb) == 3


def test_embed_constant_series_lies_on_diagonal():
    series = series_from([0.7] * 10)
    emb = embed(series, lag=2)
    np.testing.assert_array_equal(emb.points[:, 0], emb.points[:, 1])


def test_embed_indices_reconstruct_source():
    series = series_from([3.0, 1.0, 4.0, 1.0, 5.0], start=12)
    emb = embed(series, lag=2)
    # point_indices name the timestep of the first coordinate e_t.
    for k, idx in enumerate(emb.point_indices):
        src = idx - 12
        assert emb.points[k, 0] == series.errors[src]
        assert emb.points[k, 1] == series.errors[src - 2]


def test_embed_rejects_short_series():
    with pytest.raises(ValueError, match="too short"):
        embed(series_from([1.0, 2.0]), lag=2)


def test_embed_rejects_a_negative_lag():
    with pytest.raises(ValueError, match="lag must be non-negative"):
        embed(series_from([1.0, 2.0, 3.0]), lag=-1)


def test_augment_count_rounds_half_up():
    emb = embed(series_from(np.linspace(0.0, 1.0, 11)), lag=1)  # 10 points
    assert len(augment(emb, delta=1.0, sigma_train=0.0, fraction=0.25)) == 10 + 3
    # 494990 * 0.3 = 148497 exactly
    assert int(np.floor(0.3 * 494990 + 0.5)) == 148497
    assert len(augment(emb, delta=1.0, sigma_train=0.0, fraction=0.3)) == 13


def test_augment_zero_sigma_pins_points_at_twice_delta():
    emb = embed(series_from([0.1, 0.2, 0.3, 0.4]), lag=1)
    out = augment(emb, delta=0.4, sigma_train=0.0, fraction=1.0)
    synth = out.points[out.synthetic_flags]
    np.testing.assert_array_equal(synth, np.full((3, 2), 0.8))
    np.testing.assert_array_equal(out.point_indices[out.synthetic_flags], -1)


def test_augment_preserves_originals_in_order():
    emb = embed(series_from([0.5, 0.1, 0.9, 0.2, 0.7]), lag=1)
    out = augment(emb, delta=0.9, sigma_train=0.04, fraction=0.5, seed=3)
    n = len(emb)
    np.testing.assert_array_equal(out.points[:n], emb.points)
    np.testing.assert_array_equal(out.point_indices[:n], emb.point_indices)
    assert not out.synthetic_flags[:n].any()
    assert out.synthetic_flags[n:].all()


def test_augment_statistics_match_target_distribution():
    # 10000 synthetic points: sample mean within 4 standard errors of 2*delta,
    # per-axis variance within 10% of sigma_train.
    emb = embed(series_from(np.linspace(0.1, 1.0, 10001)), lag=1)
    delta, sigma_train = 1.0, 0.25
    out = augment(emb, delta=delta, sigma_train=sigma_train, fraction=1.0, seed=0)
    synth = out.points[out.synthetic_flags]
    assert len(synth) == 10000
    se = np.sqrt(sigma_train / 10000)
    for axis in range(2):
        assert abs(synth[:, axis].mean() - 2.0 * delta) < 4.0 * se
        assert abs(synth[:, axis].var() - sigma_train) < 0.1 * sigma_train


def test_augment_clamps_negative_draws():
    emb = embed(series_from([0.01, 0.02, 0.03]), lag=1)
    # Tiny delta with huge spread forces many negative raw draws.
    out = augment(emb, delta=0.01, sigma_train=4.0, fraction=100.0, seed=1)
    synth = out.points[out.synthetic_flags]
    assert synth.min() == 0.0
    assert (synth == 0.0).sum() > 0


def test_augment_is_seed_deterministic():
    emb = embed(series_from([0.2, 0.4, 0.6, 0.8]), lag=1)
    a = augment(emb, delta=0.8, sigma_train=0.1, fraction=1.0, seed=9)
    b = augment(emb, delta=0.8, sigma_train=0.1, fraction=1.0, seed=9)
    c = augment(emb, delta=0.8, sigma_train=0.1, fraction=1.0, seed=10)
    np.testing.assert_array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)


def test_augment_validation():
    emb = embed(series_from([0.1, 0.2, 0.3]), lag=1)
    with pytest.raises(ValueError, match="fraction"):
        augment(emb, delta=0.3, sigma_train=0.1, fraction=0.0)
    with pytest.raises(ValueError, match="sigma_train"):
        augment(emb, delta=0.3, sigma_train=-0.1)


def test_error_series_validation():
    with pytest.raises(ValueError, match="equal-length"):
        ErrorSeries(errors=np.ones(3), target_indices=np.arange(2), delta=1.0, sigma=0.0)
    with pytest.raises(ValueError, match="empty"):
        ErrorSeries(errors=np.ones(0), target_indices=np.arange(0), delta=0.0, sigma=0.0)


def test_embedding_validation():
    ok = dict(
        points=np.ones((2, 2)),
        point_indices=np.arange(2),
        synthetic_flags=np.zeros(2, dtype=bool),
    )
    with pytest.raises(ValueError, match=r"\(N, 2\)"):
        ErrorEmbedding(**{**ok, "points": np.ones((2, 3))})
    with pytest.raises(ValueError, match="one length"):
        ErrorEmbedding(**{**ok, "synthetic_flags": np.zeros(3, dtype=bool)})


def test_error_series_csv_format():
    series = series_from([0.5, 0.25], start=7)
    assert error_series_csv(series) == "index,error\n7,0.5\n8,0.25\n"


def test_embedding_csv_format():
    emb = embed(series_from([1.0, 2.0, 3.0]), lag=1)
    out = augment(emb, delta=3.0, sigma_train=0.0, fraction=0.5)
    text = embedding_csv(out)
    lines = text.splitlines()
    assert lines[0] == "index,e_t,e_lag,synthetic"
    assert lines[1] == "1,2.0,1.0,0"
    assert lines[2] == "2,3.0,2.0,0"
    assert lines[3] == "-1,6.0,6.0,1"


def test_csv_floats_round_trip_exactly():
    rng = Rng(4)
    series = series_from(rng.uniform_array(5))
    lines = error_series_csv(series).splitlines()[1:]
    for line, err in zip(lines, series.errors):
        assert float(line.split(",")[1]) == err
