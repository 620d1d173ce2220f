import json
from dataclasses import replace

import numpy as np
import pytest

from cps_sentinel.artifact import _decode, _encode, load_pipeline, save_pipeline
from cps_sentinel.detectors import KMEANS, OCSVM, THRESHOLD, KmeansModel, OcsvmModel
from cps_sentinel.forecaster import Conv1DSpec, DenseSpec, TrainConfig
from cps_sentinel.pipeline import (
    PipelineSettings,
    detect_frame,
    evaluate_frame,
    fit_pipeline,
)
from cps_sentinel.plantsim import AttackSpec, PlantConfig, inject_attacks, simulate_normal

from conftest import make_frame, random_frame

TINY_BUDGET = TrainConfig(epochs=2, batch_size=32, early_stop_patience=2, seed=77)
SMALL = dict(window=8, conv1=8, conv2=8, dense1=8, dense2=8, dropout=0.0,
             learning_rate=0.01)


def small_settings(**overrides):
    return PipelineSettings(**{**SMALL, **overrides})


def test_settings_validation():
    with pytest.raises(ValueError, match="detector"):
        PipelineSettings(detector="nearest")
    with pytest.raises(ValueError, match="window"):
        PipelineSettings(window=0)
    with pytest.raises(ValueError, match="lag"):
        PipelineSettings(lag=-1)


def test_fit_pipeline_rejects_attack_rows():
    frame = make_frame(random_frame(50, 2).values, labels=[True] + [False] * 49)
    with pytest.raises(ValueError, match="attack-labeled"):
        fit_pipeline(frame, small_settings(), budget=TINY_BUDGET)


def test_fit_pipeline_builds_the_stack_from_the_genes():
    settings = small_settings(window=16, conv1=4, conv2=6, kernel=5, dense1=7, dense2=3,
                              dropout=0.1)
    fitted = fit_pipeline(random_frame(80, 2, seed=43), settings, budget=TINY_BUDGET)
    assert fitted.model.input_shape == (16, 2)
    specs = [layer.spec for layer in fitted.model.layers]
    convs = [s for s in specs if isinstance(s, Conv1DSpec)]
    dense = [s for s in specs if isinstance(s, DenseSpec)]
    assert [(s.filters, s.kernel_size) for s in convs] == [(4, 5), (6, 5)]
    assert [s.units for s in dense] == [7, 3, 2]
    assert [s.dropout for s in dense[:2]] == [0.1, 0.1]


def test_threshold_pipeline_never_flags_its_training_frame_at_beta_one():
    train = random_frame(120, 3, seed=40)
    fitted = fit_pipeline(train, small_settings(beta=1.0), budget=TINY_BUDGET)
    verdicts, errors = detect_frame(fitted, train)
    assert not verdicts.flags.any()
    assert errors.delta <= fitted.train_delta + 1e-15
    assert fitted.train_delta > 0 and fitted.train_sigma >= 0
    assert fitted.history is not None and fitted.history.val_loss


def test_detect_frame_covers_every_window_target():
    train = random_frame(100, 2, seed=41)
    fitted = fit_pipeline(train, small_settings(), budget=TINY_BUDGET)
    test = random_frame(60, 2, seed=42)
    verdicts, errors = detect_frame(fitted, test)
    np.testing.assert_array_equal(verdicts.indices, np.arange(8, 60))
    np.testing.assert_array_equal(errors.target_indices, verdicts.indices)


def test_fit_pipeline_is_seed_deterministic():
    train = random_frame(90, 2, seed=43)
    a = fit_pipeline(train, small_settings(), budget=TINY_BUDGET, seed=5)
    b = fit_pipeline(train, small_settings(), budget=TINY_BUDGET, seed=5)
    c = fit_pipeline(train, small_settings(), budget=TINY_BUDGET, seed=6)
    for pa, pb in zip(a.model.params, b.model.params):
        np.testing.assert_array_equal(pa, pb)
    assert a.detector == b.detector
    assert any(not np.array_equal(pa, pc) for pa, pc in zip(a.model.params, c.model.params))


def test_budget_learning_rate_and_seed_are_overridden():
    train = random_frame(90, 2, seed=44)
    settings = small_settings()
    budget_a = TrainConfig(epochs=2, batch_size=32, early_stop_patience=2,
                           learning_rate=0.5, seed=1)
    budget_b = TrainConfig(epochs=2, batch_size=32, early_stop_patience=2,
                           learning_rate=1e-5, seed=999)
    a = fit_pipeline(train, settings, budget=budget_a, seed=5)
    b = fit_pipeline(train, settings, budget=budget_b, seed=5)
    for pa, pb in zip(a.model.params, b.model.params):
        np.testing.assert_array_equal(pa, pb)


def test_evaluate_frame_scores_against_frame_labels():
    plant = PlantConfig(stage_count=1, capacities=(1000.0,), inflows=(2.0,),
                        outflows=(1.6,), noise_sigma=0.2, seed=1)
    train = simulate_normal(plant, 300)
    test = inject_attacks(
        simulate_normal(PlantConfig(**{**plant.__dict__, "seed": 2}), 200),
        [AttackSpec("SSSP", start=100, duration=30, targets=((0, "level"),),
                    manipulation=("offset", 100.0))],
    )
    fitted = fit_pipeline(train, small_settings(beta=1.2), budget=TINY_BUDGET)
    counts, report, verdicts, _ = evaluate_frame(fitted, test)
    assert counts.total == len(verdicts) == 200 - 8
    manual_labels = test.labels[8:]
    assert counts.tp + counts.fn == int(manual_labels.sum())
    assert 0.0 <= report.f1 <= 1.0


@pytest.mark.parametrize("kind,fitted_type", [(OCSVM, OcsvmModel), (KMEANS, KmeansModel)])
def test_embedding_detector_paths(kind, fitted_type):
    train = random_frame(100, 2, seed=45)
    settings = small_settings(detector=kind, lag=2, nu=0.1, gamma=1.0)
    fitted = fit_pipeline(train, settings, budget=TINY_BUDGET)
    assert isinstance(fitted.detector, fitted_type)
    test = random_frame(50, 2, seed=46)
    verdicts, _ = detect_frame(fitted, test)
    # Alignment pads the first `lag` timesteps with normal verdicts.
    np.testing.assert_array_equal(verdicts.indices, np.arange(8, 50))
    assert not verdicts.flags[:2].any()
    assert verdicts.scores[0] == 0.0 and verdicts.scores[1] == 0.0


def test_kmeans_detector_records_inertia_trace():
    train = random_frame(80, 2, seed=47)
    fitted = fit_pipeline(train, small_settings(detector=KMEANS), budget=TINY_BUDGET)
    trace = fitted.detector.inertia_trace
    assert trace is not None and len(trace) >= 1
    assert np.all(np.diff(trace) <= 1e-9)


@pytest.mark.parametrize("kind", [THRESHOLD, OCSVM, KMEANS])
def test_artifact_round_trip_reproduces_verdicts(tmp_path, kind):
    train = random_frame(90, 2, seed=48)
    settings = small_settings(detector=kind, nu=0.2, gamma=1.0)
    fitted = fit_pipeline(train, settings, budget=TINY_BUDGET)
    test = random_frame(40, 2, seed=49)
    before, errors_before = detect_frame(fitted, test)

    path = tmp_path / "pipeline.npz"
    save_pipeline(path, fitted)
    detector_arrays = {
        THRESHOLD: set(),
        OCSVM: {"detector.support_vectors", "detector.alphas"},
        KMEANS: {"detector.centroids", "detector.inertia_trace"},
    }
    detector_meta = {
        THRESHOLD: {"delta", "beta"},
        OCSVM: {"gamma", "rho"},
        KMEANS: {"attack_centroid_index", "inertia", "n_iter"},
    }
    with np.load(path) as data:
        assert set(data.files) == {
            "meta", "scaler.mins", "scaler.maxs", "model.params", "model.adam_m", "model.adam_v",
        } | detector_arrays[kind]
        meta = json.loads(bytes(data["meta"]))
    # The settings are the only record of the forecaster's architecture.
    assert meta["format_version"] == 5 and meta["model"] == {"adam_t": fitted.model.adam_t}
    assert meta["schema"] == {"names": ["C0", "C1"]}
    assert set(meta["detector"]) == detector_meta[kind]
    loaded = load_pipeline(path)
    assert loaded.settings == fitted.settings
    assert loaded.schema == fitted.schema
    assert loaded.train_delta == fitted.train_delta
    assert loaded.train_sigma == fitted.train_sigma
    np.testing.assert_array_equal(loaded.scaler.mins, fitted.scaler.mins)
    for pa, pb in zip(fitted.model.params, loaded.model.params):
        np.testing.assert_array_equal(pa, pb)

    after, errors_after = detect_frame(loaded, test)
    np.testing.assert_array_equal(before.flags, after.flags)
    np.testing.assert_array_equal(before.scores, after.scores)
    np.testing.assert_array_equal(errors_before.errors, errors_after.errors)


def test_settings_round_trip_through_dict():
    settings = small_settings(detector=OCSVM, beta=2.25, lag=3, nu=0.1,
                              gamma=10.0, augment_fraction=0.4)
    assert _decode(PipelineSettings, _encode(settings, "settings", {}), "settings", {}) == settings
    # The dict is JSON-safe.
    meta = json.loads(json.dumps(_encode(settings, "settings", {})))
    assert _decode(PipelineSettings, meta, "settings", {}) == settings


def test_save_pipeline_rejects_a_detector_of_another_kind(tmp_path):
    fitted = fit_pipeline(random_frame(60, 2, seed=50), small_settings(), budget=TINY_BUDGET)
    mixed = replace(fitted, settings=replace(fitted.settings, detector=KMEANS))
    with pytest.raises(ValueError, match="kmeans pipeline holds a ThresholdModel"):
        save_pipeline(tmp_path / "mixed.npz", mixed)


def test_load_pipeline_rejects_other_format_versions(tmp_path):
    train = random_frame(60, 2, seed=50)
    fitted = fit_pipeline(train, small_settings(), budget=TINY_BUDGET)
    path = tmp_path / "pipeline.npz"
    save_pipeline(path, fitted)
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]))
        arrays = {k: data[k] for k in data.files if k != "meta"}
    meta["format_version"] = 99
    bad = tmp_path / "bad.npz"
    np.savez(bad, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)
    with pytest.raises(ValueError, match="format version"):
        load_pipeline(bad)
