import json

import numpy as np
import pytest

from cps_sentinel.artifact import _decode_model, _encode_model
from cps_sentinel.forecaster import (
    Conv1DSpec,
    DenseSpec,
    EarlyStopper,
    FlattenSpec,
    MaxPool1DSpec,
    ShapeError,
    TrainConfig,
    adam_step,
    build_model,
    default_stack,
    glorot_uniform,
    predict_series,
    train,
)
from cps_sentinel.forecaster.layers import (
    Conv1DLayer,
    DenseLayer,
    FlattenLayer,
    MaxPool1DLayer,
)
from cps_sentinel.dataio import make_windows
from cps_sentinel.pipeline import PipelineSettings, build_forecaster
from cps_sentinel.rng import Rng

from conftest import random_frame

SMALL_STACK = [
    Conv1DSpec(filters=3, kernel_size=3),
    MaxPool1DSpec(),
    FlattenSpec(),
    DenseSpec(units=4, activation="tanh", dropout=0.0),
    DenseSpec(units=2, activation="sigmoid", dropout=0.0),
]


def batch_loss(model, x, y):
    return float(np.mean(np.abs(model.forward(x, training=False) - y)))


def finite_difference_check(model, x, y, step=1e-5, tol=1e-4):
    """Compare analytic gradients against central differences, entry by entry."""
    _, grads = model.loss_and_grads(x, y, training=False)
    worst = 0.0
    for p, g in zip(model.params, grads):
        for i in range(p.size):
            orig = p.flat[i]
            p.flat[i] = orig + step
            hi = batch_loss(model, x, y)
            p.flat[i] = orig - step
            lo = batch_loss(model, x, y)
            p.flat[i] = orig
            numeric = (hi - lo) / (2.0 * step)
            err = abs(numeric - g.flat[i]) / max(abs(numeric), abs(g.flat[i]), 1e-6)
            worst = max(worst, err)
    assert worst < tol, f"worst relative gradient error {worst}"


def test_gradients_match_finite_differences():
    model = build_model(4, 2, SMALL_STACK, seed=3)
    rng = Rng(7)
    x = rng.uniform_array(3 * 4 * 2).reshape(3, 4, 2)
    y = rng.uniform_array(3 * 2).reshape(3, 2)
    finite_difference_check(model, x, y)


def test_dense_gradient_with_relu():
    specs = [
        FlattenSpec(),
        DenseSpec(units=6, activation="relu", dropout=0.0),
        DenseSpec(units=2, activation="sigmoid", dropout=0.0),
    ]
    model = build_model(4, 2, specs, seed=11)
    rng = Rng(5)
    x = rng.uniform_array(2 * 4 * 2).reshape(2, 4, 2)
    y = rng.uniform_array(2 * 2).reshape(2, 2)
    finite_difference_check(model, x, y)


def naive_conv_relu(x, weights, bias):
    k, in_ch, f = weights.shape
    pad_left = (k - 1) // 2
    xp = np.pad(x, ((pad_left, k - 1 - pad_left), (0, 0)))
    out = np.empty((x.shape[0], f))
    for t in range(x.shape[0]):
        for j in range(f):
            s = bias[j]
            for tap in range(k):
                s += float(xp[t + tap] @ weights[tap, :, j])
            out[t, j] = s
    return np.maximum(out, 0.0)


def test_conv_matches_naive_oracle():
    layer = Conv1DLayer(Conv1DSpec(filters=2, kernel_size=3), in_len=4, in_ch=1, rng=Rng(1))
    layer.weights[...] = np.arange(6, dtype=np.float64).reshape(3, 1, 2) - 2.0
    layer.bias[...] = [0.5, -0.5]
    x = np.array([[1.0], [2.0], [-1.0], [3.0]])
    y, _ = layer.forward(x[None])
    np.testing.assert_allclose(y[0], naive_conv_relu(x, layer.weights, layer.bias))


def test_conv_hand_example():
    # Identity-ish kernel: center tap 1 on a single channel copies the input.
    layer = Conv1DLayer(Conv1DSpec(filters=1, kernel_size=3), in_len=4, in_ch=1, rng=Rng(1))
    layer.weights[...] = 0.0
    layer.weights[1, 0, 0] = 1.0
    layer.bias[...] = 0.0
    x = np.array([[1.0], [2.0], [-1.0], [3.0]])
    y, _ = layer.forward(x[None])
    np.testing.assert_array_equal(y[0], [[1.0], [2.0], [0.0], [3.0]])


def test_maxpool_forward_and_gradient_routing():
    layer = MaxPool1DLayer(MaxPool1DSpec(), in_len=4, in_ch=1)
    x = np.array([[[1.0], [5.0], [3.0], [2.0]]])
    y, cache = layer.forward(x)
    np.testing.assert_array_equal(y, [[[5.0], [3.0]]])
    dx, _ = layer.backward(np.array([[[10.0], [20.0]]]), cache)
    np.testing.assert_array_equal(dx, [[[0.0], [10.0], [20.0], [0.0]]])


def test_maxpool_rejects_indivisible_length():
    with pytest.raises(ShapeError, match="does not divide"):
        MaxPool1DLayer(MaxPool1DSpec(), in_len=5, in_ch=1)


def reference_maxpool(x, dy, pool):
    """The general argmax pool: value, winner index and routed gradient."""
    b, length, ch = x.shape
    xr = x.reshape(b, length // pool, pool, ch)
    idx = np.argmax(xr, axis=2)
    y = np.max(xr, axis=2)
    dxr = np.zeros((b, length // pool, pool, ch))
    np.put_along_axis(dxr, idx[:, :, None, :], dy[:, :, None, :], axis=2)
    return y, idx, dxr.reshape(b, length, ch)


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("activation", ["relu", "tanh", "none"])
def test_maxpool_matches_the_argmax_reference_bit_for_bit(activation):
    """Ties and signed zeros included: the first of two equal inputs wins."""
    values = np.array([-1.0, -0.0, 0.0, 0.5, 1.0])
    draw = np.random.default_rng(17)
    layer = MaxPool1DLayer(MaxPool1DSpec(), in_len=8, in_ch=3)
    for _ in range(20):
        z = draw.choice(values, size=(16, 8, 3))
        x = {"relu": np.maximum(z, 0.0), "tanh": np.tanh(z), "none": z}[activation]
        dy = draw.choice(values, size=(16, 4, 3)) * draw.uniform(0.5, 2.0, size=(16, 4, 3))
        want_y, idx, want_dx = reference_maxpool(x, dy, 2)
        y, first = layer.forward(x)
        dx, grads = layer.backward(dy, first)
        np.testing.assert_array_equal(bits(y), bits(want_y))
        np.testing.assert_array_equal(first, idx == 0)
        np.testing.assert_array_equal(bits(dx), bits(want_dx))
        assert grads == []


def test_flatten_round_trip():
    layer = FlattenLayer(FlattenSpec(), in_len=3, in_ch=2)
    x = np.arange(12.0).reshape(2, 3, 2)
    y, cache = layer.forward(x)
    assert y.shape == (2, 6)
    dx, _ = layer.backward(y, cache)
    np.testing.assert_array_equal(dx, x)


def test_glorot_bounds():
    w = glorot_uniform(Rng(0), (50, 40), fan_in=50, fan_out=40)
    limit = np.sqrt(6.0 / 90.0)
    assert np.all(np.abs(w) <= limit)
    assert w.std() > 0


def test_zero_parameters_predict_one_half():
    model = build_model(4, 2, SMALL_STACK, seed=0)
    for p in model.params:
        p[...] = 0.0
    out = model.forward(np.ones((4, 2)))
    np.testing.assert_array_equal(out, [0.5, 0.5])


def test_dropout_scales_kept_units():
    layer = DenseLayer(DenseSpec(units=8, activation="tanh", dropout=0.5), 2, Rng(0))
    layer.weights[...] = 0.0
    layer.bias[...] = 1.0
    x = np.zeros((1, 2))
    out, _ = layer.forward(x, training=True, rng=Rng(42))
    kept = np.tanh(1.0) / 0.5
    assert set(np.unique(out)) <= {0.0, kept}
    # Inference applies no mask and no rescaling.
    out_eval, _ = layer.forward(x, training=False)
    np.testing.assert_array_equal(out_eval, np.full((1, 8), np.tanh(1.0)))


def test_adam_first_step_closed_form():
    model = build_model(4, 2, SMALL_STACK, seed=1)
    before = model.copy_params()
    grads = [np.ones_like(p) for p in model.params]
    adam_step(model, grads, learning_rate=0.1)
    expected = 0.1 * (1.0 / (np.sqrt(1.0) + 1e-8))
    for b, p in zip(before, model.params):
        np.testing.assert_allclose(b - p, expected, atol=1e-12)
    assert model.adam_t == 1


def test_adam_zero_gradient_keeps_params():
    model = build_model(4, 2, SMALL_STACK, seed=1)
    before = model.copy_params()
    adam_step(model, [np.zeros_like(p) for p in model.params], learning_rate=0.1)
    for b, p in zip(before, model.params):
        np.testing.assert_array_equal(b, p)
    assert model.adam_t == 1


def test_adam_twin_models_stay_identical():
    a = build_model(4, 2, SMALL_STACK, seed=9)
    b = build_model(4, 2, SMALL_STACK, seed=9)
    rng = Rng(3)
    for _ in range(5):
        grads = [rng.uniform_array(p.size).reshape(p.shape) - 0.5 for p in a.params]
        adam_step(a, grads, 0.01)
        adam_step(b, grads, 0.01)
    for pa, pb in zip(a.params, b.params):
        np.testing.assert_array_equal(pa, pb)


def test_adam_step_matches_the_per_tensor_update():
    """The flat update equals Adam written tensor by tensor, bit for bit."""
    model = build_model(4, 2, SMALL_STACK, seed=9)
    params = model.copy_params()
    ms = [np.zeros_like(p) for p in params]
    vs = [np.zeros_like(p) for p in params]
    rng = Rng(4)
    for t in range(1, 6):
        grads = [rng.uniform_array(p.size).reshape(p.shape) - 0.5 for p in params]
        adam_step(model, grads, 0.01)
        for p, g, m, v in zip(params, grads, ms, vs):
            m[...] = 0.9 * m + (1.0 - 0.9) * g
            v[...] = 0.999 * v + (1.0 - 0.999) * g * g
            m_hat = m / (1.0 - 0.9**t)
            v_hat = v / (1.0 - 0.999**t)
            p -= 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
    for got, want in zip((model.params, model.adam_m, model.adam_v), (params, ms, vs)):
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)


def test_adam_step_from_non_zero_moments_matches_a_copying_update():
    """Several steps from non-zero m, v and t: each moment update reads the
    gradient and the previous moment, never a value updated earlier in the
    same step."""
    model = build_model(4, 2, SMALL_STACK, seed=12)
    rng = Rng(8)
    size = model.flat_params.size
    model.flat_adam_m[...] = rng.uniform_array(size) - 0.5
    model.flat_adam_v[...] = rng.uniform_array(size) * 0.01
    model.adam_t = 7
    p, m, v = (x.copy() for x in (model.flat_params, model.flat_adam_m, model.flat_adam_v))
    for t in range(8, 12):
        grads = [rng.uniform_array(q.size).reshape(q.shape) - 0.5 for q in model.params]
        adam_step(model, grads, 0.003)
        g = np.concatenate([x.ravel() for x in grads])
        m = 0.9 * m + (1.0 - 0.9) * g
        v = 0.999 * v + (1.0 - 0.999) * g * g
        p = p - 0.003 * (m / (1.0 - 0.9**t)) / (np.sqrt(v / (1.0 - 0.999**t)) + 1e-8)
    assert model.adam_t == 11
    np.testing.assert_array_equal(model.flat_adam_m, m)
    np.testing.assert_array_equal(model.flat_adam_v, v)
    np.testing.assert_array_equal(model.flat_params, p)


def test_parameters_are_views_of_one_flat_vector():
    model = build_model(4, 2, SMALL_STACK, seed=3)
    sizes = [p.size for p in model.params]
    assert model.flat_params.shape == model.flat_adam_m.shape == (sum(sizes),)
    np.testing.assert_array_equal(
        model.flat_params, np.concatenate([p.ravel() for p in model.params])
    )
    conv = model.layers[0]
    assert conv.weights is model.params[0] and conv.bias is model.params[1]
    model.flat_params[0] = 42.0
    assert conv.weights.flat[0] == 42.0
    model.adam_v[-1][...] = 7.0
    assert model.flat_adam_v[-1] == 7.0


def test_adam_rejects_mismatched_gradients():
    model = build_model(4, 2, SMALL_STACK, seed=1)
    grads = [np.zeros_like(p) for p in model.params]
    with pytest.raises(ValueError, match="gradient list"):
        adam_step(model, grads[:-1], 0.1)
    grads[0] = np.zeros(1)
    with pytest.raises(ValueError, match="gradient list"):
        adam_step(model, grads, 0.1)
    assert model.adam_t == 0


def test_adam_rejects_non_finite_gradients():
    model = build_model(4, 2, SMALL_STACK, seed=1)
    grads = [np.zeros_like(p) for p in model.params]
    grads[0][0] = np.nan
    with pytest.raises(FloatingPointError):
        adam_step(model, grads, 0.1)


def test_default_stack_arithmetic():
    model = build_model(12, 6, default_stack(6), seed=0)
    flatten = [l for l in model.layers if isinstance(l, FlattenLayer)]
    assert flatten[0].out_shape == (192,)
    assert model.forward(np.zeros((12, 6))).shape == (6,)


@pytest.mark.parametrize("w", [10, 11])
def test_default_stack_needs_window_divisible_by_four(w):
    with pytest.raises(ShapeError, match="pool"):
        build_model(w, 3, default_stack(3), seed=0)


def test_build_model_is_seed_deterministic():
    a = build_model(8, 2, default_stack(2), seed=5)
    b = build_model(8, 2, default_stack(2), seed=5)
    c = build_model(8, 2, default_stack(2), seed=6)
    for pa, pb in zip(a.params, b.params):
        np.testing.assert_array_equal(pa, pb)
    assert any(not np.array_equal(pa, pc) for pa, pc in zip(a.params, c.params))


def test_build_model_reports_offending_layer():
    with pytest.raises(ShapeError, match=r"layer 0 \(DenseSpec\): expects flattened"):
        build_model(4, 2, [DenseSpec(units=2, activation="sigmoid")], seed=0)
    with pytest.raises(ShapeError, match="final layer"):
        build_model(4, 2, [FlattenSpec(), DenseSpec(units=3, activation="sigmoid")], seed=0)
    with pytest.raises(ShapeError, match="sigmoid"):
        build_model(4, 2, [FlattenSpec(), DenseSpec(units=2, activation="tanh")], seed=0)


def test_forward_rejects_wrong_window_shape():
    model = build_model(4, 2, SMALL_STACK, seed=0)
    with pytest.raises(ValueError, match="does not match model input"):
        model.forward(np.zeros((5, 2)))


def test_forward_flags_non_finite_parameters():
    model = build_model(4, 2, SMALL_STACK, seed=0)
    model.params[0][...] = np.nan
    with pytest.raises(FloatingPointError):
        model.forward(np.zeros((4, 2)))


def test_early_stopper_arithmetic():
    stopper = EarlyStopper(patience=3)
    improved = [stopper.update(loss) for loss in [5.0, 4.0, 3.0, 4.0, 3.5, 3.0]]
    assert improved == [True, True, True, False, False, False]
    assert stopper.should_stop
    assert stopper.best == 3.0


def test_early_stopper_reset_on_improvement():
    stopper = EarlyStopper(patience=2)
    for loss in [5.0, 6.0, 4.0, 5.0]:
        stopper.update(loss)
    assert not stopper.should_stop
    stopper.update(4.5)
    assert stopper.should_stop


def test_train_config_validation():
    with pytest.raises(ValueError, match="positive"):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError, match="learning_rate"):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError, match="patience"):
        TrainConfig(epochs=3, early_stop_patience=4)
    with pytest.raises(ValueError, match="validation_fraction"):
        TrainConfig(validation_fraction=1.0)


def test_train_reduces_loss_and_is_deterministic():
    frame = random_frame(80, 2, seed=21)
    batch = make_windows(frame, 4)
    config = TrainConfig(epochs=15, batch_size=16, learning_rate=0.01,
                         early_stop_patience=15, seed=2)
    model_a = build_model(4, 2, SMALL_STACK, seed=4)
    start_loss = batch_loss(model_a, batch.inputs, batch.targets)
    hist_a = train(model_a, batch, config)
    assert batch_loss(model_a, batch.inputs, batch.targets) < start_loss
    assert hist_a.train_loss and len(hist_a.val_loss) == len(hist_a.train_loss)
    assert hist_a.best_val_loss == min(hist_a.val_loss)

    model_b = build_model(4, 2, SMALL_STACK, seed=4)
    hist_b = train(model_b, batch, config)
    assert hist_b.val_loss == hist_a.val_loss
    for pa, pb in zip(model_a.params, model_b.params):
        np.testing.assert_array_equal(pa, pb)


def test_train_restores_best_epoch_params():
    frame = random_frame(60, 2, seed=13)
    batch = make_windows(frame, 4)
    config = TrainConfig(epochs=12, batch_size=8, learning_rate=0.05,
                         early_stop_patience=3, seed=0)
    model = build_model(4, 2, SMALL_STACK, seed=8)
    history = train(model, batch, config)
    best = history.best_val_loss
    # Restored parameters must reproduce the best recorded validation MAE.
    n = len(batch)
    val_n = max(1, round(0.1 * n))
    val_loss = batch_loss(model, batch.inputs[n - val_n:], batch.targets[n - val_n:])
    assert val_loss == pytest.approx(best, abs=1e-12)


def test_train_rejects_degenerate_split():
    frame = random_frame(6, 1, seed=1)
    batch = make_windows(frame, 4)  # 2 windows
    config = TrainConfig(validation_fraction=0.9, epochs=2, batch_size=2,
                         early_stop_patience=1)
    with pytest.raises(ValueError, match="validation split"):
        train(build_model(4, 1, [
            FlattenSpec(), DenseSpec(units=1, activation="sigmoid"),
        ], seed=0), batch, config)


def test_predict_series_matches_per_window_forward():
    frame = random_frame(40, 2, seed=17)
    model = build_model(4, 2, SMALL_STACK, seed=2)
    preds, batch = predict_series(model, frame)
    np.testing.assert_array_equal(batch.target_indices, np.arange(4, 40))
    np.testing.assert_array_equal(batch.targets, frame.values[4:])
    np.testing.assert_array_equal(preds, model.forward(batch.inputs))
    # Per-window forward uses a different BLAS reduction order; agreement is
    # to the last couple of ulps, not bit-exact.
    for i in range(len(batch)):
        np.testing.assert_allclose(
            preds[i], model.forward(batch.inputs[i]), rtol=1e-13, atol=1e-15
        )


def test_predict_series_chunking_is_transparent(monkeypatch):
    import cps_sentinel.forecaster.model as fm

    frame = random_frame(30, 2, seed=5)
    model = build_model(4, 2, SMALL_STACK, seed=2)
    whole, _ = predict_series(model, frame)
    monkeypatch.setattr(fm, "PREDICT_CHUNK", 4)
    chunked, _ = predict_series(model, frame)
    np.testing.assert_array_equal(whole, chunked)


def test_save_load_round_trip_bit_exact(tmp_path):
    frame = random_frame(50, 2, seed=30)
    batch = make_windows(frame, 4)
    settings = PipelineSettings(window=4, conv1=3, conv2=2, dense1=4, dense2=3, dropout=0.0)
    model = build_forecaster(settings, 2, seed=6)
    train(model, batch, TrainConfig(epochs=3, batch_size=8, early_stop_patience=3))
    path = tmp_path / "model.npz"
    arrays = {}
    meta = _encode_model(model, arrays)
    np.savez(path, **arrays)
    with np.load(path) as data:
        loaded = _decode_model(settings, 2, json.loads(json.dumps(meta)), dict(data))
    assert [layer.spec for layer in loaded.layers] == [layer.spec for layer in model.layers]
    assert loaded.adam_t == model.adam_t
    for a, b in zip(model.params, loaded.params):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(model.adam_m, loaded.adam_m):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(model.adam_v, loaded.adam_v):
        np.testing.assert_array_equal(a, b)
    x = batch.inputs[:5]
    np.testing.assert_array_equal(model.forward(x), loaded.forward(x))
