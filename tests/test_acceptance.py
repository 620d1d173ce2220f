"""Acceptance checklist for the full pipeline, one numbered criterion per test.

Every test prints a single line directly to the terminal (bypassing pytest
capture) so a plain ``pytest tests/test_acceptance.py`` run shows the
checklist inline:

    [criterion 01] PASS gradient check: ...

Tolerances and bounds are pinned inside the assertions. Reference values
measured on the development machine appear in comments next to the looser
bounds so regressions are easy to spot.
"""

import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from cps_sentinel.detectors import (
    ThresholdModel,
    align_to_series,
    kmeans_detect,
    kmeans_fit,
    ocsvm_detect,
    ocsvm_fit,
    rbf_kernel,
    threshold_detect,
    threshold_fit,
)
from cps_sentinel.errorspace import ErrorEmbedding, ErrorSeries, augment, embed
from cps_sentinel.forecaster import (
    ADAM_EPS,
    ShapeError,
    TrainConfig,
    adam_step,
    build_model,
    default_stack,
)
from cps_sentinel.gaopt import GaConfig, GeneSpec, evolve
from cps_sentinel.metrics import ConfusionCounts, report_from_counts, score
from cps_sentinel.pipeline import (
    PipelineSettings,
    detect_frame,
    evaluate_frame,
    fit_pipeline,
)
from cps_sentinel.plantsim import AttackSpec, PlantConfig, inject_attacks, simulate_normal
from cps_sentinel.rng import Rng, derive_seed

from oracles import solve_ocsvm_qp
from test_forecaster import finite_difference_check
from test_gaopt import toy_fitness

SWAT_TRAIN_ENV = "CPS_SENTINEL_SWAT_TRAIN"
SWAT_TEST_ENV = "CPS_SENTINEL_SWAT_TEST"


def announce(capsys, number, name, ok, detail):
    """Print one checklist line on the real terminal, then assert."""
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[criterion {number:02d}] {verdict} {name}: {detail}")
    assert ok, f"criterion {number:02d} {name}: {detail}"


def series_from(errors, start=0):
    errors = np.asarray(errors, dtype=np.float64)
    return ErrorSeries(
        errors=errors,
        target_indices=np.arange(start, start + len(errors), dtype=np.int64),
        delta=float(np.max(errors)),
        sigma=float(np.std(errors)),
    )


def embedding_from(points, synthetic=None):
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    return ErrorEmbedding(
        points=points,
        point_indices=np.arange(n, dtype=np.int64),
        synthetic_flags=(
            np.zeros(n, dtype=bool) if synthetic is None else np.asarray(synthetic, dtype=bool)
        ),
    )


def blob(rng, center, sigma, n):
    z = rng.gauss_array(2 * n).reshape(n, 2)
    return np.asarray(center) + sigma * z


# --- 01: analytic gradients vs central finite differences --------------------


def test_criterion_01_gradient_check(capsys):
    """Every parameter gradient of the full layer stack matches central
    finite differences (step 1e-5) within relative error 1e-4, in under 30 s.

    The stack covers Conv1D, MaxPool1D, Flatten and Dense in one model,
    shrunk to window 4 and 2 channels so the exhaustive parameter sweep
    stays fast. Dropout is off: finite differences need a deterministic loss.
    """
    t0 = time.monotonic()
    for model_seed, data_seed in ((3, 7), (11, 13)):
        model = build_model(4, 2, default_stack(2, dropout=0.0), seed=model_seed)
        rng = Rng(data_seed)
        x = rng.uniform_array(3 * 4 * 2).reshape(3, 4, 2)
        y = rng.uniform_array(3 * 2).reshape(3, 2)
        finite_difference_check(model, x, y, step=1e-5, tol=1e-4)
    elapsed = time.monotonic() - t0
    param_count = sum(p.size for p in model.params)
    ok = elapsed < 30.0
    announce(
        capsys, 1, "gradient check", ok,
        f"2 models x {param_count} params, rel err < 1e-4, {elapsed:.1f}s (< 30s)",
    )


# --- 02: architecture arithmetic ---------------------------------------------


def test_criterion_02_architecture_arithmetic(capsys):
    """The two conv/pool blocks need the window twice divisible by 2, so the
    stack builds exactly for multiples of 4 and the flattened width is
    64 * w / 4; w = 12 gives 192."""
    flat_widths = {}
    for w in (4, 8, 12, 16, 20):
        model = build_model(w, 51, default_stack(51), seed=0)
        first_dense_w = next(p for p in model.params if p.ndim == 2)
        flat_widths[w] = first_dense_w.shape[0]
        assert flat_widths[w] == 64 * w // 4

    rejected = []
    for w in (5, 6, 7, 9, 10, 11, 13, 15):
        with pytest.raises(ShapeError):
            build_model(w, 51, default_stack(51), seed=0)
        rejected.append(w)

    ok = flat_widths[12] == 192
    announce(
        capsys, 2, "architecture arithmetic", ok,
        f"flatten widths {flat_widths} (w=12 -> 192), non-multiples {rejected} rejected",
    )


# --- 03: Adam first step ------------------------------------------------------


def test_criterion_03_adam_first_step(capsys):
    """With gradient 1 everywhere and lr 0.1, the bias-corrected first Adam
    step moves every parameter by 0.1 * 1 / (sqrt(1) + 1e-8), within 1e-9."""
    assert ADAM_EPS == 1e-8
    model = build_model(4, 2, default_stack(2, dropout=0.0), seed=5)
    before = model.copy_params()
    grads = [np.ones_like(p) for p in model.params]
    adam_step(model, grads, learning_rate=0.1)
    expected = 0.1 * (1.0 / (math.sqrt(1.0) + ADAM_EPS))
    worst = max(
        float(np.max(np.abs((b - p) - expected)))
        for b, p in zip(before, model.params)
    )
    ok = worst <= 1e-9
    announce(
        capsys, 3, "adam first step", ok,
        f"max |step - {expected:.10f}| = {worst:.2e} (<= 1e-9)",
    )


# --- 04: threshold at beta = 1 never flags its own training data -------------


def test_criterion_04_beta_one_self_consistency(capsys):
    """alpha = beta * delta with delta = max training error and a strictly
    greater comparison, so beta = 1 can never flag the series it was fitted
    on. Checked on 100 random error series."""
    rng = np.random.default_rng(2024)
    flagged = 0
    for _ in range(100):
        errors = rng.uniform(0.0, 1.0, size=300)
        series = series_from(errors, start=12)
        model = threshold_fit(series, beta=1.0)
        verdicts = threshold_detect(model, series)
        flagged += int(np.sum(verdicts.flags))
    ok = flagged == 0
    announce(
        capsys, 4, "beta=1 self consistency", ok,
        f"{flagged} flags over 100 series x 300 points (expected 0)",
    )


# --- 05: weighted one-class SVM vs projected-gradient QP oracle --------------


def test_criterion_05_ocsvm_dual_vs_oracle(capsys):
    """On a 200-point unit-weight instance the coordinate-descent dual
    objective matches an independent projected-gradient QP solve within 1e-5,
    and the trained-data outlier fraction stays within 0.02 of nu."""
    rng = Rng(11)
    points = np.abs(blob(rng, (0.6, 0.6), 0.18, 200))
    emb = embedding_from(points)
    kernel = rbf_kernel(points, points, 1.2)

    details = []
    ok = True
    for nu in (0.05, 0.1, 0.2):
        model = ocsvm_fit(emb, nu=nu, gamma=1.2, sample_weights=np.ones(200))
        sv_kernel = rbf_kernel(model.support_vectors, model.support_vectors, 1.2)
        objective = 0.5 * float(model.alphas @ sv_kernel @ model.alphas)
        _, ref_objective = solve_ocsvm_qp(kernel, np.full(200, 1.0 / (nu * 200)))
        gap = abs(objective - ref_objective)

        outlier_fraction = float(np.mean(ocsvm_detect(model, emb).flags))
        ok = ok and gap <= 1e-5 and outlier_fraction <= nu + 0.02
        details.append(f"nu={nu}: gap={gap:.1e}, outliers={outlier_fraction:.3f}")
    announce(capsys, 5, "ocsvm dual vs oracle", ok, "; ".join(details))


# --- 06: k-means inertia monotonicity and blob recovery ----------------------


def test_criterion_06_kmeans_inertia_and_blobs(capsys):
    """Lloyd's objective never increases between iterations, and on two
    Gaussian blobs whose centers sit 10 blob-sigma apart the fitted centroids
    land within 2 blob-sigma of the true means, for 20 seeds."""
    sigma = 0.05
    offset = 10.0 * sigma / math.sqrt(2.0)
    c_normal = np.array([0.1, 0.1])
    c_attack = c_normal + offset

    worst_dist = 0.0
    for seed in range(20):
        rng = Rng(derive_seed(1000, seed))
        pts = np.concatenate(
            [blob(rng, c_normal, sigma, 150), blob(rng, c_attack, sigma, 150)]
        )
        flags = np.arange(300) >= 150
        model = kmeans_fit(embedding_from(pts, synthetic=flags), seed=seed)

        trace = model.inertia_trace
        assert trace is not None and len(trace) == model.n_iter
        assert np.all(np.diff(trace) <= trace[0] * 1e-12)

        for true_center in (c_normal, c_attack):
            dist = float(np.min(np.linalg.norm(model.centroids - true_center, axis=1)))
            worst_dist = max(worst_dist, dist)
        # The two centroids must split the blobs, not share one.
        gap = float(np.linalg.norm(model.centroids[0] - model.centroids[1]))
        assert gap > 5.0 * sigma

    ok = worst_dist <= 2.0 * sigma
    announce(
        capsys, 6, "kmeans inertia and blobs", ok,
        f"20 seeds, inertia non-increasing, worst centroid error "
        f"{worst_dist:.4f} (<= {2.0 * sigma})",
    )


# --- 07: augmentation statistics and count rule -------------------------------


def test_criterion_07_augmentation_statistics(capsys):
    """Synthetic points are drawn from N((2d, 2d), diag(s, s)). With 10000
    samples the per-axis mean lands within 4*sqrt(s/10000) of 2d and the
    per-axis variance within 10% of s; the count is fraction * n rounded
    half up."""
    delta, sigma_train = 2.0, 0.25
    series = series_from(np.random.default_rng(77).uniform(0.05, 0.95, 33334))
    emb = embed(series, lag=1)  # 33333 points; 0.3 * 33333 rounds to 10000
    aug = augment(emb, delta=delta, sigma_train=sigma_train, fraction=0.3, seed=21)
    synth = aug.points[aug.synthetic_flags]

    count_ok = len(synth) == round(0.3 * len(emb)) == 10000
    mean_tol = 4.0 * math.sqrt(sigma_train / 10000.0)
    mean_err = float(np.max(np.abs(np.mean(synth, axis=0) - 2.0 * delta)))
    variances = np.var(synth, axis=0)
    var_ok = bool(np.all(np.abs(variances - sigma_train) <= 0.1 * sigma_train))

    counts_match = all(
        int(np.sum(
            augment(
                embed(series_from(np.linspace(0.1, 0.9, n + 1)), lag=1),
                delta=1.0, sigma_train=0.1, fraction=0.3, seed=3,
            ).synthetic_flags
        )) == round(0.3 * n)
        for n in (10, 100, 1234, 4999)
    )

    ok = count_ok and mean_err <= mean_tol and var_ok and counts_match
    announce(
        capsys, 7, "augmentation statistics", ok,
        f"count=10000, mean err {mean_err:.4f} (<= {mean_tol:.4f}), "
        f"vars {np.round(variances, 4).tolist()} (target {sigma_train} +/- 10%), "
        f"count rule holds for n in (10, 100, 1234, 4999)",
    )


# --- 08: GA monotonicity, determinism, parallel equivalence -------------------


def test_criterion_08_ga_properties(capsys):
    """With elitism 1 the best fitness never decreases across generations;
    identical seeds give identical logs; a 4-thread run reproduces the serial
    run exactly."""
    config = GaConfig(
        population_size=10,
        generations=10,
        tournament_size=3,
        crossover_rate=0.9,
        mutation_rate=0.3,
        elitism_count=1,
        seed=42,
    )
    serial = evolve(config, toy_fitness, threads=1)
    repeat = evolve(config, toy_fitness, threads=1)
    parallel = evolve(config, toy_fitness, threads=4)

    monotone = bool(np.all(np.diff(serial.best_history) >= 0.0))
    deterministic = repeat.log_lines == serial.log_lines
    thread_safe = parallel.log_lines == serial.log_lines

    ok = monotone and deterministic and thread_safe
    announce(
        capsys, 8, "ga properties", ok,
        f"best {serial.best_history[0]:.4f} -> {serial.best_history[-1]:.4f} "
        f"non-decreasing={monotone}, rerun identical={deterministic}, "
        f"4 threads identical={thread_safe}",
    )


# --- 09: end-to-end benchmark on the simulated plant --------------------------

# A balanced two-stage plant (inflow == outflow) keeps every level constant,
# so all four sensor channels are pure read noise and the forecaster's best
# move is to predict each channel's mean. Offsetting all four sensors by
# -6.0 (60x the 0.1 noise sigma; readings clip at the scaler floor) then
# produces a persistent prediction error no forecaster tracking the normal
# regime can absorb.

BENCH_PLANT = PlantConfig(
    stage_count=2,
    capacities=(1000.0, 1000.0),
    inflows=(8.0, 8.0),
    outflows=(8.0, 8.0),
    noise_sigma=0.1,
    seed=0,
)
ALL_SENSORS = ((0, "level"), (0, "flow"), (1, "level"), (1, "flow"))


def sensor_offset_attacks(spans):
    return [
        AttackSpec(
            "MSMP",
            start=start,
            duration=duration,
            targets=ALL_SENSORS,
            manipulation=("offset", -6.0),
        )
        for start, duration in spans
    ]


def test_criterion_09_end_to_end_benchmark(capsys):
    """Train on 5000 normal steps, tune beta on a labeled validation trace
    with the GA, then score a 1000-step test trace holding 5 injected
    attacks: threshold F1 >= 0.85 and k-means-on-augmented-embedding
    F1 >= 0.80, all inside 10 minutes.

    Reference run: threshold F1 = 1.0000, k-means F1 = 0.9903, ~15 s.
    """
    t0 = time.monotonic()

    train = simulate_normal(BENCH_PLANT, 5000)
    val = inject_attacks(
        simulate_normal(replace(BENCH_PLANT, seed=1), 1000),
        sensor_offset_attacks([(80, 55), (250, 45), (430, 50), (610, 45), (820, 55)]),
    )
    test = inject_attacks(
        simulate_normal(replace(BENCH_PLANT, seed=2), 1000),
        sensor_offset_attacks([(60, 60), (220, 50), (400, 45), (580, 55), (800, 50)]),
    )
    assert int(np.sum(test.labels)) > 0 and int(np.sum(val.labels)) > 0

    # Window-12 conv stack per the reference architecture. Dropout stays off:
    # inverted dropout on the sigmoid output layer would scale inference
    # predictions by 0.8 and inflate every error. The default learning rate
    # is tuned for long budgets; 0.01 converges this plant in ~40 epochs.
    settings = PipelineSettings(dropout=0.0, learning_rate=0.01)
    budget = TrainConfig(
        epochs=150,
        batch_size=64,
        learning_rate=0.01,
        early_stop_patience=15,
        validation_fraction=0.1,
    )
    fitted = fit_pipeline(train, settings, budget, seed=0)

    _, val_errors = detect_frame(fitted, val)
    val_labels = val.labels_at(val_errors.target_indices)
    _, test_errors = detect_frame(fitted, test)
    test_labels = test.labels_at(test_errors.target_indices)

    def beta_fitness(genome):
        model = ThresholdModel(delta=fitted.train_delta, beta=genome.beta)
        _, report = score(threshold_detect(model, val_errors), val_labels)
        return report.f1

    ga = GaConfig(
        population_size=12,
        generations=10,
        tournament_size=3,
        crossover_rate=0.9,
        mutation_rate=0.3,
        elitism_count=1,
        seed=0,
    )
    result = evolve(ga, beta_fitness, domains={"beta": GeneSpec(low=1.0, high=3.0)})
    best_beta = result.best.genome.beta

    tuned = ThresholdModel(delta=fitted.train_delta, beta=best_beta)
    _, thr_report = score(threshold_detect(tuned, test_errors), test_labels)

    _, train_errors = detect_frame(fitted, train)
    train_embedding = embed(train_errors, fitted.settings.lag)
    augmented = augment(
        train_embedding,
        delta=fitted.train_delta,
        sigma_train=fitted.train_sigma,
        fraction=fitted.settings.augment_fraction,
        seed=derive_seed(0, 0x03),
    )
    km = kmeans_fit(augmented, seed=derive_seed(0, 0x04))
    km_verdicts = align_to_series(
        kmeans_detect(km, embed(test_errors, fitted.settings.lag)), test_errors
    )
    _, km_report = score(km_verdicts, test_labels)

    elapsed = time.monotonic() - t0
    ok = thr_report.f1 >= 0.85 and km_report.f1 >= 0.80 and elapsed <= 600.0
    announce(
        capsys, 9, "end-to-end benchmark", ok,
        f"threshold F1={thr_report.f1:.4f} (>= 0.85, beta={best_beta:.3f}), "
        f"kmeans F1={km_report.f1:.4f} (>= 0.80), {elapsed:.0f}s (<= 600s)",
    )


# --- 10: F1 harmonic-mean identity --------------------------------------------


def test_criterion_10_f1_identity(capsys):
    """f1 == 2PR / (P + R) to 1e-12 on 1000 random confusion matrices.

    Published detector evaluations sometimes report precision/recall/F1
    triples that do not satisfy this identity (for example precision 94.54
    and recall 83.38 alongside F1 87.89, where the harmonic mean is 88.58),
    so externally reported triples are not usable as numeric oracles here;
    the scorer must satisfy the exact identity instead.
    """
    rng = np.random.default_rng(123)
    worst = 0.0
    nonzero = 0
    for _ in range(1000):
        tp, fp, tn, fn = (int(v) for v in rng.integers(0, 400, size=4))
        report = report_from_counts(ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn))
        denom = report.precision + report.recall
        if denom > 0:
            nonzero += 1
            expected = 2.0 * report.precision * report.recall / denom
            worst = max(worst, abs(report.f1 - expected))
        else:
            assert report.f1 == 0.0
    ok = worst <= 1e-12
    announce(
        capsys, 10, "f1 identity", ok,
        f"1000 matrices ({nonzero} with P+R > 0), max |f1 - 2PR/(P+R)| = {worst:.1e}",
    )


# --- 11: external dataset compatibility ---------------------------------------


def test_criterion_11_external_dataset(capsys):
    """Runs the pipeline against externally supplied plant recordings when
    the environment points at them, and skips cleanly otherwise.

    Set CPS_SENTINEL_SWAT_TRAIN to an all-normal wire-format CSV and
    CPS_SENTINEL_SWAT_TEST to a labeled one (timestamp column first,
    optional trailing label column). A short training budget exercises the
    full load/scale/train/detect/score path; the assertion is structural,
    not a score bound.
    """
    train_path = os.environ.get(SWAT_TRAIN_ENV, "")
    test_path = os.environ.get(SWAT_TEST_ENV, "")
    if not train_path or not test_path:
        with capsys.disabled():
            print(
                f"[criterion 11] SKIP external dataset: set {SWAT_TRAIN_ENV} "
                f"and {SWAT_TEST_ENV} to run"
            )
        pytest.skip(f"{SWAT_TRAIN_ENV}/{SWAT_TEST_ENV} not set")

    from cps_sentinel.cli import infer_schema
    from cps_sentinel.dataio import load_csv

    schema = infer_schema(train_path)
    train = load_csv(train_path, schema)
    test = load_csv(test_path, schema)

    settings = PipelineSettings(dropout=0.0)
    budget = TrainConfig(epochs=3, batch_size=256, early_stop_patience=3)
    fitted = fit_pipeline(train, settings, budget, seed=0)
    counts, report, _, _ = evaluate_frame(fitted, test)

    ok = (
        counts.total == len(test) - fitted.settings.window
        and math.isfinite(report.f1)
        and 0.0 <= report.f1 <= 1.0
    )
    announce(
        capsys, 11, "external dataset", ok,
        f"{len(train)} train rows, {len(test)} test rows, "
        f"P={report.precision:.4f} R={report.recall:.4f} F1={report.f1:.4f}",
    )
