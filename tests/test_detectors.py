import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import cps_sentinel.detectors as detectors
from cps_sentinel.artifact import _decode, _encode
from cps_sentinel.detectors import (
    KKT_TOL,
    KmeansModel,
    NonConvergence,
    OcsvmModel,
    ThresholdModel,
    VerdictSeries,
    align_to_series,
    default_weights,
    kmeans_detect,
    kmeans_fit,
    ocsvm_decision,
    ocsvm_detect,
    ocsvm_fit,
    rbf_kernel,
    threshold_detect,
    threshold_fit,
    verdict_csv,
)
from cps_sentinel.errorspace import ErrorEmbedding, ErrorSeries
from cps_sentinel.rng import Rng

from oracles import solve_ocsvm_qp


def series_from(errors, start=0):
    e = np.asarray(errors, dtype=np.float64)
    return ErrorSeries(
        errors=e,
        target_indices=np.arange(start, start + len(e)),
        delta=float(e.max()),
        sigma=float(e.std()),
    )


def embedding_from(points, synthetic=None, start=0):
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    if synthetic is None:
        synthetic = np.zeros(n, dtype=bool)
    indices = np.where(synthetic, -1, np.arange(start, start + n))
    return ErrorEmbedding(
        points=points,
        point_indices=indices,
        synthetic_flags=np.asarray(synthetic, dtype=bool),
    )


def blob(rng, center, sigma, n):
    z = rng.gauss_array(2 * n).reshape(n, 2)
    return np.asarray(center) + sigma * z


# --- fixed threshold ---------------------------------------------------------


def test_threshold_alpha_is_beta_times_delta():
    series = series_from([0.5, 2.0, 1.0])
    model = threshold_fit(series, beta=1.5)
    assert model.delta == 2.0
    assert model.alpha == 3.0


def test_threshold_detect_is_strictly_greater():
    model = ThresholdModel(delta=2.0, beta=1.5)
    verdicts = threshold_detect(model, series_from([1.0, 3.0, 3.0000001, 4.0]))
    assert verdicts.flags.tolist() == [False, False, True, True]
    np.testing.assert_array_equal(verdicts.scores, [1.0, 3.0, 3.0000001, 4.0])


def test_threshold_beta_one_never_flags_training_data():
    rng = Rng(6)
    for trial in range(20):
        series = series_from(rng.uniform_array(50))
        model = threshold_fit(series, beta=1.0)
        assert not threshold_detect(model, series).flags.any()


def test_threshold_flag_count_monotone_in_beta():
    series = series_from(Rng(7).uniform_array(200))
    counts = []
    for beta in [0.2, 0.5, 0.8, 1.0, 1.5]:
        model = ThresholdModel(delta=series.delta, beta=beta)
        counts.append(int(threshold_detect(model, series).flags.sum()))
    assert counts == sorted(counts, reverse=True)


def test_threshold_validation():
    with pytest.raises(ValueError, match="beta"):
        ThresholdModel(delta=1.0, beta=0.0)


# --- one-class SVM -----------------------------------------------------------


def test_rbf_kernel_hand_values():
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    k = rbf_kernel(a, a, gamma=0.5)
    np.testing.assert_allclose(np.diag(k), 1.0)
    assert k[0, 1] == pytest.approx(np.exp(-0.5))
    np.testing.assert_allclose(k, k.T)


def test_rbf_kernel_matches_loop_oracle():
    rng = Rng(10)
    a = rng.uniform_array(12).reshape(6, 2)
    b = rng.uniform_array(8).reshape(4, 2)
    k = rbf_kernel(a, b, gamma=2.5)
    for i in range(6):
        for j in range(4):
            d2 = sum((a[i, c] - b[j, c]) ** 2 for c in range(2))
            assert k[i, j] == pytest.approx(np.exp(-2.5 * d2), rel=1e-12)


def one_shot_rbf_kernel(a, b, gamma):
    """The kernel in one pass over all rows: the blocked kernel's oracle."""
    sq = np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :] - 2.0 * (a @ b.T)
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-gamma * sq)


B_ROWS = 300
BLOCK = detectors.KERNEL_BLOCK_ENTRIES // B_ROWS


@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_rbf_kernel_is_byte_equal_to_the_one_shot_formula(n):
    rng = Rng(n)
    a = rng.gauss_array(2 * n).reshape(n, 2) * 0.3
    b = rng.gauss_array(2 * B_ROWS).reshape(B_ROWS, 2) * 0.3
    for gamma in (0.5, 7.0):
        assert rbf_kernel(a, b, gamma).tobytes() == one_shot_rbf_kernel(a, b, gamma).tobytes()


def fit_points(n):
    rng = Rng(n)
    return np.abs(blob(rng, (0.05, 0.05), 0.03, n))


def test_ocsvm_fit_kernel_is_exactly_symmetric(monkeypatch):
    """The solver reads kernel rows where the dual needs columns."""
    kernels = []

    def recording_kernel(a, b, gamma):
        kernels.append(rbf_kernel(a, b, gamma))
        return kernels[-1]

    monkeypatch.setattr(detectors, "rbf_kernel", recording_kernel)
    ocsvm_fit(embedding_from(fit_points(1500)), nu=0.1, gamma=3.0)
    (kernel,) = kernels
    assert kernel.shape == (1500, 1500)
    assert np.array_equal(kernel, kernel.T)


def test_ocsvm_fit_peak_memory_is_the_kernel_plus_small_blocks():
    n = 3000
    emb = embedding_from(fit_points(n))
    tracemalloc.start()
    try:
        ocsvm_fit(emb, nu=0.1, gamma=3.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kernel_bytes = 8 * n * n
    assert peak < 1.5 * kernel_bytes, f"peak {peak / kernel_bytes:.2f}x the kernel"


def test_default_weights_are_error_proportional_with_unit_mean():
    emb = embedding_from([[1.0, 9.0], [2.0, 9.0], [3.0, 9.0]])
    w = default_weights(emb)
    assert np.mean(w) == pytest.approx(1.0, rel=1e-12)
    # Ratios follow the first coordinate (the current error), not the lagged one.
    assert w[1] / w[0] == pytest.approx((2.0 + 1e-6) / (1.0 + 1e-6), rel=1e-9)


def fit_and_objective(points, nu, gamma, weights):
    emb = embedding_from(points)
    model = ocsvm_fit(emb, nu=nu, gamma=gamma, sample_weights=weights)
    # Reassemble the full alpha vector from the kept support vectors.
    kernel = rbf_kernel(model.support_vectors, model.support_vectors, gamma)
    objective = 0.5 * float(model.alphas @ kernel @ model.alphas)
    return model, objective


@pytest.mark.parametrize("weighting", ["unit", "error"])
def test_ocsvm_matches_projected_gradient_oracle(weighting):
    rng = Rng(3)
    points = np.abs(blob(rng, (0.5, 0.5), 0.2, 30))
    emb = embedding_from(points)
    weights = np.ones(30) if weighting == "unit" else default_weights(emb)
    model, objective = fit_and_objective(points, nu=0.3, gamma=1.0, weights=weights)

    upper = weights / (0.3 * 30 * np.mean(weights))
    kernel = rbf_kernel(points, points, 1.0)
    _, ref_objective = solve_ocsvm_qp(kernel, upper)
    assert objective == pytest.approx(ref_objective, abs=1e-6)
    # A correct minimizer cannot beat the oracle by more than its tolerance.
    assert objective >= ref_objective - 1e-8


def test_ocsvm_alpha_constraints():
    rng = Rng(4)
    points = np.abs(blob(rng, (0.4, 0.4), 0.15, 120))
    emb = embedding_from(points)
    model = ocsvm_fit(emb, nu=0.1, gamma=2.0)
    assert model.alphas.sum() == pytest.approx(1.0, abs=1e-9)
    weights = default_weights(emb)
    upper = weights / (0.1 * 120 * np.mean(weights))
    assert np.all(model.alphas > 0)
    # Kept alphas obey their own caps (support vectors keep original order).
    assert len(model.alphas) <= 120
    assert np.all(model.alphas <= upper.max() + 1e-12)


def test_ocsvm_free_support_vectors_sit_on_margin():
    rng = Rng(5)
    points = np.abs(blob(rng, (0.5, 0.5), 0.2, 150))
    emb = embedding_from(points)
    model = ocsvm_fit(emb, nu=0.2, gamma=1.0, sample_weights=np.ones(150))
    upper = 1.0 / (0.2 * 150)
    free = (model.alphas > 1e-10) & (model.alphas < upper - 1e-10)
    assert free.any()
    margins = ocsvm_decision(model, model.support_vectors[free])
    assert np.max(np.abs(margins)) <= 2 * KKT_TOL


@pytest.mark.parametrize("nu", [0.05, 0.1, 0.2])
def test_ocsvm_nu_bounds_training_outlier_fraction(nu):
    rng = Rng(8)
    points = np.abs(blob(rng, (1.0, 1.0), 0.3, 400))
    emb = embedding_from(points)
    model = ocsvm_fit(emb, nu=nu, gamma=1.0, sample_weights=np.ones(400))
    outliers = float(np.mean(ocsvm_decision(model, points) < 0.0))
    assert outliers <= nu + 0.02


def test_ocsvm_identical_points_degenerate_case():
    # With an all-ones kernel every feasible alpha is optimal with rho = 1,
    # so the decision value at the shared point is exactly 0: the training
    # point sits on the boundary, and anything far away is negative.
    points = np.full((100, 2), 0.5)
    emb = embedding_from(points)
    model = ocsvm_fit(emb, nu=0.5, gamma=1.0, sample_weights=np.ones(100))
    at_point = float(ocsvm_decision(model, np.array([[0.5, 0.5]]))[0])
    far = float(ocsvm_decision(model, np.array([[50.0, 50.0]]))[0])
    assert at_point >= -1e-9
    assert far < 0.0
    assert at_point > far


def test_ocsvm_nu_one_fills_every_box():
    points = np.abs(blob(Rng(9), (0.5, 0.5), 0.2, 40))
    emb = embedding_from(points)
    model = ocsvm_fit(emb, nu=1.0, gamma=1.0, sample_weights=np.ones(40))
    np.testing.assert_allclose(model.alphas, 1.0 / 40, rtol=1e-12)
    assert len(model.alphas) == 40


def test_ocsvm_solution_does_not_depend_on_point_order():
    rng = Rng(11)
    points = np.abs(blob(rng, (0.6, 0.6), 0.2, 80))
    perm = np.arange(80)
    Rng(12).shuffle(perm)
    _, obj_a = fit_and_objective(points, 0.2, 1.5, np.ones(80))
    _, obj_b = fit_and_objective(points[perm], 0.2, 1.5, np.ones(80))
    assert obj_a == pytest.approx(obj_b, abs=1e-6)
    model_a = ocsvm_fit(embedding_from(points), 0.2, 1.5, np.ones(80))
    model_b = ocsvm_fit(embedding_from(points[perm]), 0.2, 1.5, np.ones(80))
    probes = np.array([[0.6, 0.6], [10.0, 10.0]])
    decisions_a = ocsvm_decision(model_a, probes)
    decisions_b = ocsvm_decision(model_b, probes)
    assert decisions_a[0] > 0 and decisions_b[0] > 0
    assert decisions_a[1] < 0 and decisions_b[1] < 0


def test_ocsvm_detect_flags_negative_decisions():
    rng = Rng(13)
    train = np.abs(blob(rng, (0.5, 0.5), 0.1, 100))
    model = ocsvm_fit(embedding_from(train), nu=0.1, gamma=5.0)
    probe = embedding_from(np.array([[0.5, 0.5], [5.0, 5.0]]))
    verdicts = ocsvm_detect(model, probe)
    assert verdicts.flags.tolist() == [False, True]
    assert verdicts.scores[0] > 0 > verdicts.scores[1]
    np.testing.assert_array_equal(verdicts.indices, probe.point_indices)


def test_ocsvm_hits_iteration_cap_when_tolerance_unreachable(monkeypatch):
    monkeypatch.setattr(detectors, "KKT_TOL", -1.0)
    points = np.abs(blob(Rng(14), (0.5, 0.5), 0.2, 30))
    with pytest.raises(NonConvergence, match="KKT violation"):
        ocsvm_fit(embedding_from(points), nu=0.3, gamma=1.0)


def test_ocsvm_validation():
    emb = embedding_from([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
    with pytest.raises(ValueError, match="nu"):
        ocsvm_fit(emb, nu=0.0, gamma=1.0)
    with pytest.raises(ValueError, match="nu"):
        ocsvm_fit(emb, nu=1.5, gamma=1.0)
    with pytest.raises(ValueError, match="gamma"):
        ocsvm_fit(emb, nu=0.5, gamma=0.0)
    with pytest.raises(ValueError, match="at least 2"):
        ocsvm_fit(embedding_from([[0.1, 0.2]]), nu=0.5, gamma=1.0)
    with pytest.raises(ValueError, match="non-negative"):
        ocsvm_fit(emb, nu=0.5, gamma=1.0, sample_weights=np.array([1.0, -1.0, 1.0]))
    with pytest.raises(ValueError, match="not all zero"):
        ocsvm_fit(emb, nu=0.5, gamma=1.0, sample_weights=np.zeros(3))
    with pytest.raises(ValueError, match="n non-negative"):
        ocsvm_fit(emb, nu=0.5, gamma=1.0, sample_weights=np.ones(2))


# --- k-means -----------------------------------------------------------------


def mixed_blob_embedding(seed, n_real=60, n_synth=30, normal=(0.1, 0.1), attack=(1.0, 1.0), sigma=0.05):
    rng = Rng(seed)
    points = np.vstack([
        blob(rng, normal, sigma, n_real),
        blob(rng, attack, sigma, n_synth),
    ])
    synthetic = np.zeros(n_real + n_synth, dtype=bool)
    synthetic[n_real:] = True
    return embedding_from(points, synthetic=synthetic)


def test_kmeans_recovers_separated_blobs():
    emb = mixed_blob_embedding(seed=0)
    model = kmeans_fit(emb, seed=0)
    sums = model.centroids.sum(axis=1)
    attack_centroid = model.centroids[model.attack_centroid_index]
    normal_centroid = model.centroids[1 - model.attack_centroid_index]
    assert np.linalg.norm(attack_centroid - [1.0, 1.0]) < 0.1
    assert np.linalg.norm(normal_centroid - [0.1, 0.1]) < 0.1
    assert model.attack_centroid_index == int(np.argmax(sums))


def test_kmeans_hand_example_converges_to_column_means():
    points = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
    emb = embedding_from(points, synthetic=[False, False, True, True])
    model = kmeans_fit(emb, seed=0)
    got = sorted(map(tuple, model.centroids))
    assert got == [(0.0, 0.5), (10.0, 0.5)]
    assert model.inertia == pytest.approx(4 * 0.25)
    attack_centroid = model.centroids[model.attack_centroid_index]
    np.testing.assert_array_equal(attack_centroid, [10.0, 0.5])


def test_kmeans_inertia_trace_non_increasing():
    for seed in range(5):
        emb = mixed_blob_embedding(seed=seed, sigma=0.4)
        model = kmeans_fit(emb, seed=seed)
        trace = model.inertia_trace
        assert len(trace) == model.n_iter
        assert np.all(np.diff(trace) <= 1e-9)
        assert trace[-1] == pytest.approx(model.inertia)


def test_kmeans_centroid_set_is_stable_across_seeds():
    emb = mixed_blob_embedding(seed=3)
    reference = sorted(map(tuple, kmeans_fit(emb, seed=0).centroids))
    for seed in range(1, 6):
        got = sorted(map(tuple, kmeans_fit(emb, seed=seed).centroids))
        np.testing.assert_allclose(got, reference, atol=1e-12)


def test_kmeans_detect_matches_nearest_centroid_oracle():
    emb = mixed_blob_embedding(seed=4, sigma=0.3)
    model = kmeans_fit(emb, seed=1)
    verdicts = kmeans_detect(model, emb)
    attack_c = model.centroids[model.attack_centroid_index]
    normal_c = model.centroids[1 - model.attack_centroid_index]
    for k in range(len(emb)):
        d_attack = np.sqrt(((emb.points[k] - attack_c) ** 2).sum())
        d_normal = np.sqrt(((emb.points[k] - normal_c) ** 2).sum())
        assert verdicts.flags[k] == (d_normal - d_attack > 0)
        assert verdicts.scores[k] == pytest.approx(d_normal - d_attack, abs=1e-12)


def test_kmeans_detect_tie_is_normal():
    model = KmeansModel(
        centroids=np.array([[0.0, 0.0], [2.0, 2.0]]),
        attack_centroid_index=1,
        inertia=0.0,
        n_iter=1,
    )
    emb = embedding_from([[1.0, 1.0], [1.1, 1.1], [0.9, 0.9]])
    verdicts = kmeans_detect(model, emb)
    assert verdicts.flags.tolist() == [False, True, False]
    assert verdicts.scores[0] == 0.0


def test_kmeans_requires_mixed_real_and_synthetic():
    real_only = embedding_from(np.random.default_rng(0).random((10, 2)))
    with pytest.raises(ValueError, match="augment first"):
        kmeans_fit(real_only, seed=0)
    all_synth = embedding_from(
        np.random.default_rng(0).random((10, 2)), synthetic=np.ones(10, dtype=bool)
    )
    with pytest.raises(ValueError, match="all-synthetic"):
        kmeans_fit(all_synth, seed=0)


def test_kmeans_rejects_identical_points():
    emb = embedding_from(np.full((10, 2), 0.3), synthetic=[False] * 5 + [True] * 5)
    with pytest.raises(ValueError, match="identical"):
        kmeans_fit(emb, seed=0)


def test_kmeans_empty_cluster_reassignment():
    # Heavily imbalanced data: one far singleton, many near-duplicates. Any
    # init that lands both centroids in the big clump empties a cluster; the
    # fit must still finish with two distinct centroids.
    points = np.vstack([np.full((30, 2), 0.1) + np.arange(30)[:, None] * 1e-4,
                        [[5.0, 5.0]]])
    emb = embedding_from(points, synthetic=[False] * 30 + [True])
    for seed in range(10):
        model = kmeans_fit(emb, seed=seed)
        assert not np.array_equal(model.centroids[0], model.centroids[1])
        assert np.all(np.isfinite(model.inertia_trace))


# --- shared helpers ----------------------------------------------------------


def test_align_to_series_pads_missing_timesteps():
    series = series_from([0.1, 0.2, 0.3, 0.4], start=10)
    verdicts = VerdictSeries(
        indices=np.array([12, 13]),
        flags=np.array([True, False]),
        scores=np.array([1.5, -0.5]),
    )
    aligned = align_to_series(verdicts, series)
    np.testing.assert_array_equal(aligned.indices, [10, 11, 12, 13])
    assert aligned.flags.tolist() == [False, False, True, False]
    np.testing.assert_array_equal(aligned.scores, [0.0, 0.0, 1.5, -0.5])


def test_verdict_csv_format():
    verdicts = VerdictSeries(
        indices=np.array([3, 4]),
        flags=np.array([False, True]),
        scores=np.array([0.25, -1.5]),
    )
    assert verdict_csv(verdicts) == "index,flag,score\n3,0,0.25\n4,1,-1.5\n"


def round_trip(model):
    """`model` through the artifact's field codec and a JSON text."""
    arrays = {}
    meta = json.loads(json.dumps(_encode(model, "detector", arrays)))
    return _decode(type(model), meta, "detector", arrays)


def test_detector_state_round_trips():
    threshold = ThresholdModel(delta=0.7, beta=1.3)
    back = round_trip(threshold)
    assert back == threshold

    rng = Rng(15)
    points = np.abs(blob(rng, (0.5, 0.5), 0.2, 50))
    svm = ocsvm_fit(embedding_from(points), nu=0.2, gamma=1.0)
    back = round_trip(svm)
    assert back.gamma == svm.gamma and back.rho == svm.rho
    np.testing.assert_array_equal(back.support_vectors, svm.support_vectors)
    np.testing.assert_array_equal(back.alphas, svm.alphas)

    kmeans = kmeans_fit(mixed_blob_embedding(seed=7), seed=0)
    back = round_trip(kmeans)
    np.testing.assert_array_equal(back.centroids, kmeans.centroids)
    assert back.attack_centroid_index == kmeans.attack_centroid_index
    assert (back.inertia, back.n_iter) == (kmeans.inertia, kmeans.n_iter)
    np.testing.assert_array_equal(back.inertia_trace, kmeans.inertia_trace)
    assert round_trip(replace(kmeans, inertia_trace=None)).inertia_trace is None


def test_fitted_models_reject_malformed_arrays():
    svm = ocsvm_fit(embedding_from(np.abs(blob(Rng(15), (0.5, 0.5), 0.2, 20))), 0.2, 1.0)
    with pytest.raises(ValueError, match="support vectors"):
        replace(svm, alphas=svm.alphas[:-1])
    with pytest.raises(ValueError, match="support vectors"):
        replace(svm, support_vectors=svm.support_vectors[:, :1])
    with pytest.raises(ValueError, match="gamma"):
        replace(svm, gamma=-1.0)
    kmeans = kmeans_fit(mixed_blob_embedding(seed=7), seed=0)
    with pytest.raises(ValueError, match="centroids"):
        replace(kmeans, centroids=kmeans.centroids[:1])
    with pytest.raises(ValueError, match="attack index"):
        replace(kmeans, attack_centroid_index=2)
