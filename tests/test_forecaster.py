import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cps_sentinel import gaopt
from cps_sentinel.artifact import _decode_model
from cps_sentinel.forecaster import (
    TANH,
    ForecasterStack,
    ShapeError,
    TrainConfig,
    adam_step,
    build_model,
    default_stack,
    glorot_uniform,
    parameter_count,
    predict_series,
    train,
)
from cps_sentinel.forecaster.layers import (
    SIGMOID,
    Conv1DLayer,
    DenseLayer,
    MaxPool1DLayer,
    _activate_in_place,
)
from cps_sentinel.forecaster.model import FORWARD_BLOCK, PREDICT_CHUNK, _forward_chunks
from cps_sentinel.dataio import WindowBatch, make_windows
from cps_sentinel.pipeline import PipelineSettings, build_forecaster
from cps_sentinel.rng import Rng

import oracles
from conftest import SETTINGS, make_frame, random_frame

SMALL_STACK = default_stack(2, conv_filters=(3, 2), dense_units=(4, 3), dropout=0.0)


def batch_loss(model, x, y):
    return float(np.mean(np.abs(model.forward(x) - y)))


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
    layer = Conv1DLayer(in_ch=1, filters=2, kernel_size=3, rng=Rng(1))
    layer.weights[...] = np.arange(6, dtype=np.float64).reshape(3, 1, 2) - 2.0
    layer.bias[...] = [0.5, -0.5]
    x = np.array([[1.0], [2.0], [-1.0], [3.0]])
    y, _ = layer.forward(x[None])
    np.testing.assert_allclose(y[0], naive_conv_relu(x, layer.weights, layer.bias))


def test_conv_hand_example():
    # Identity-ish kernel: center tap 1 on a single channel copies the input.
    layer = Conv1DLayer(in_ch=1, filters=1, kernel_size=3, rng=Rng(1))
    layer.weights[...] = 0.0
    layer.weights[1, 0, 0] = 1.0
    layer.bias[...] = 0.0
    x = np.array([[1.0], [2.0], [-1.0], [3.0]])
    y, _ = layer.forward(x[None])
    np.testing.assert_array_equal(y[0], [[1.0], [2.0], [0.0], [3.0]])


def test_maxpool_forward_and_gradient_routing():
    layer = MaxPool1DLayer(in_len=4, in_ch=1)
    x = np.array([[[1.0], [5.0], [3.0], [2.0]]])
    y, cache = layer.forward(x)
    np.testing.assert_array_equal(y, [[[5.0], [3.0]]])
    dx, _ = layer.backward(np.array([[[10.0], [20.0]]]), cache)
    np.testing.assert_array_equal(dx, [[[0.0], [10.0], [20.0], [0.0]]])


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
    layer = MaxPool1DLayer(in_len=8, in_ch=3)
    for _ in range(20):
        z = draw.choice(values, size=(16, 8, 3))
        x = {"relu": np.maximum(z, 0.0), "tanh": np.tanh(z), "none": z}[activation]
        dy = draw.choice(values, size=(16, 4, 3)) * draw.uniform(0.5, 2.0, size=(16, 4, 3))
        want_y, _, want_dx = reference_maxpool(x, dy, 2)
        y, cache = layer.forward(x)
        dx, grads = layer.backward(dy, cache)
        np.testing.assert_array_equal(bits(y), bits(want_y))
        np.testing.assert_array_equal(bits(dx), bits(want_dx))
        assert grads == []


# Signed zeros and exact ties included, so that every sign of zero the
# oracle produces is compared.
SIGNED_VALUES = np.array([-1.5, -1.0, -0.0, 0.0, 0.25, 1.0, 2.0])


def signed_draw(draw, shape):
    return draw.choice(SIGNED_VALUES, size=shape) * draw.uniform(0.5, 2.0, size=shape)


@SETTINGS
@given(
    b=st.sampled_from([1, 2, 3, 64]),
    length=st.integers(min_value=1, max_value=24),
    ch=st.integers(min_value=1, max_value=8),
    filters=st.integers(min_value=1, max_value=8),
    k=st.sampled_from([1, 2, 3, 4, 5, 7]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_conv_matches_the_padded_oracle_bit_for_bit(b, length, ch, filters, k, seed):
    """Even k pads unevenly and k > L leaves taps with no overlap: the
    im2col view, the output and every gradient keep the oracle's bytes."""
    draw = np.random.default_rng(seed)
    layer = Conv1DLayer(ch, filters, k, Rng(seed))
    layer.weights[...] = signed_draw(draw, layer.weights.shape)
    layer.bias[...] = signed_draw(draw, layer.bias.shape)
    x = signed_draw(draw, (b, length, ch))
    dy = signed_draw(draw, (b, length, filters))

    y, cache = layer.forward(x)
    want_y, want_cache = oracles.conv_forward(layer, x)
    # The same memory layout; the stride of a length-1 axis is never used.
    assert cache[0].shape == want_cache[0].shape
    assert [s for n, s in zip(cache[0].shape, cache[0].strides) if n > 1] == [
        s for n, s in zip(want_cache[0].shape, want_cache[0].strides) if n > 1
    ]
    assert bits(cache[0]).tobytes() == bits(want_cache[0]).tobytes()
    assert bits(y).tobytes() == bits(want_y).tobytes()

    dx, (dw, db) = layer.backward(dy, cache)
    want_dx, (want_dw, want_db) = oracles.conv_backward(layer, dy, want_cache)
    for got, want in ((dx, want_dx), (dw, want_dw), (db, want_db)):
        assert got.shape == want.shape
        assert bits(got).tobytes() == bits(want).tobytes()

    none, (dw, db) = layer.backward(dy, cache, input_grad=False)
    assert none is None
    assert bits(dw).tobytes() == bits(want_dw).tobytes()
    assert bits(db).tobytes() == bits(want_db).tobytes()


# Every forecaster starts with a conv layer, whose input gradient is skipped:
# one stack with an even kernel and dropout, one with an odd kernel and none.
ORACLE_STACKS = {
    "conv first": default_stack(2, (3, 4), 2, (5, 3), dropout=0.3),
    "odd kernel, no dropout": default_stack(2, (4, 3), 3, (6, 4), dropout=0.0),
}


@pytest.mark.parametrize("training", [False, True])
@pytest.mark.parametrize("stack", sorted(ORACLE_STACKS))
def test_loss_and_grads_match_the_full_backward_oracle(stack, training):
    """Skipping the first layer's input gradient leaves every parameter
    gradient with the bytes of a backward pass that forms all of them."""
    model = build_model(8, 2, ORACLE_STACKS[stack], seed=4)
    draw = np.random.default_rng(8)
    for b in (1, 3, 64):
        x = signed_draw(draw, (b, 8, 2))
        y = draw.uniform(size=(b, 2))
        loss, grads = model.loss_and_grads(x, y, training=training, rng=Rng(b))
        want_loss, want_grads = oracles.loss_and_grads(model, x, y, training=training, rng=Rng(b))
        assert loss == want_loss
        assert len(grads) == len(want_grads) == len(model.params)
        for got, want in zip(grads, want_grads):
            assert bits(got).tobytes() == bits(want).tobytes()


def test_in_place_activations_have_the_bits_of_the_textbook_formulas():
    """Signed zeros, subnormal-scale values, saturation and exp overflow."""
    special = np.array([0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0, 800.0, -800.0])
    draw = np.random.default_rng(11)
    for z in (special, np.concatenate([special, draw.normal(scale=5.0, size=1021)]),
              signed_draw(draw, (37, 13))):
        with np.errstate(over="ignore"):
            want = {TANH: np.tanh(z), SIGMOID: 1.0 / (1.0 + np.exp(-z))}
            for name in (TANH, SIGMOID):
                a = z.copy()
                assert _activate_in_place(name, a) is a
                np.testing.assert_array_equal(bits(a), bits(want[name]))


def test_conv_backward_from_the_relu_output_equals_backward_from_z():
    """The cache holds y = max(z, 0); y > 0 is z > 0 for every value, NaN
    and the infinities included, so every gradient keeps its bytes."""
    z = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0])
    np.testing.assert_array_equal(np.maximum(z, 0.0) > 0.0, z > 0.0)
    draw = np.random.default_rng(12)
    for k, ch, filters in ((3, 2, 4), (5, 8, 16), (2, 3, 1)):
        layer = Conv1DLayer(ch, filters, k, Rng(k))
        layer.weights[...] = signed_draw(draw, layer.weights.shape)
        layer.bias[...] = signed_draw(draw, layer.bias.shape)
        x = signed_draw(draw, (6, 12, ch))
        # An all-zero window makes z the bias, which holds a 0.0 and a -0.0.
        x[0] = 0.0
        layer.bias[0], layer.bias[-1] = 0.0, -0.0
        y, (cols, relu) = layer.forward(x)
        pre_relu = cols @ layer.weights.reshape(k * ch, filters) + layer.bias
        assert relu is y and np.any(pre_relu < 0.0) and np.any(pre_relu == 0.0)
        dy = signed_draw(draw, y.shape)
        got_dx, got = layer.backward(dy, (cols, relu))
        want_dx, want = layer.backward(dy, (cols, pre_relu))
        for g, w in zip([got_dx, *got], [want_dx, *want]):
            assert bits(g).tobytes() == bits(w).tobytes()


def test_dense_reads_a_sequence_as_its_flattened_reshape():
    """A (B, L, C) input gives the bits of its (B, L*C) reshape, read as a
    view, and the input gradient comes back in the input's shape."""
    layer = DenseLayer(6, 4, TANH, dropout=0.0, rng=Rng(2))
    draw = np.random.default_rng(3)
    x = signed_draw(draw, (5, 3, 2))
    y, cache = layer.forward(x)
    flat_y, flat_cache = layer.forward(x.reshape(5, 6))
    assert bits(y).tobytes() == bits(flat_y).tobytes()
    assert np.shares_memory(cache[0], x)
    dy = signed_draw(draw, (5, 4))
    dx, grads = layer.backward(dy, cache)
    flat_dx, flat_grads = layer.backward(dy, flat_cache)
    assert dx.shape == (5, 3, 2) and flat_dx.shape == (5, 6)
    assert bits(dx).tobytes() == bits(flat_dx).tobytes()
    for got, want in zip(grads, flat_grads):
        assert bits(got).tobytes() == bits(want).tobytes()


def test_glorot_bounds():
    w = glorot_uniform(Rng(0), (50, 40), fan_in=50, fan_out=40)
    limit = np.sqrt(6.0 / 90.0)
    assert np.all(np.abs(w) <= limit)
    assert w.std() > 0


def test_zero_parameters_predict_one_half():
    model = build_model(4, 2, SMALL_STACK, seed=0)
    for p in model.params:
        p[...] = 0.0
    out = model.forward(np.ones((1, 4, 2)))
    np.testing.assert_array_equal(out, [[0.5, 0.5]])


def test_dropout_scales_kept_units():
    layer = DenseLayer(2, 8, TANH, 0.5, Rng(0))
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
    flat = (model.flat_params, model.flat_adam_m, model.flat_adam_v)
    for got, want in zip(flat, (params, ms, vs)):
        np.testing.assert_array_equal(got, np.concatenate([x.ravel() for x in want]))


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
    assert model.forward(np.zeros((1, 12, 6))).shape == (1, 6)


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


def test_build_model_rejects_an_input_the_stack_does_not_fit():
    with pytest.raises(ShapeError, match="stack emits 3 channels, input has 2"):
        build_model(4, 2, default_stack(3), seed=0)
    with pytest.raises(ShapeError, match="input shape must be positive"):
        build_model(0, 2, default_stack(2), seed=0)
    with pytest.raises(ShapeError, match="input shape must be positive"):
        parameter_count(4, 0, default_stack(2))


@pytest.mark.parametrize("sizes, message", [
    (dict(channels=0), "sizes must be positive"),
    (dict(conv_filters=(3, 0)), "sizes must be positive"),
    (dict(kernel_size=0), "sizes must be positive"),
    (dict(dense_units=(0, 2)), "sizes must be positive"),
    (dict(conv_filters=(3, 4, 5)), "two sizes each"),
    (dict(dense_units=(4,)), "two sizes each"),
    (dict(dropout=1.0), "dropout"),
    (dict(dropout=-0.1), "dropout"),
])
def test_forecaster_stack_rejects_a_size_out_of_range(sizes, message):
    with pytest.raises(ValueError, match=message):
        default_stack(**{"channels": 2, **sizes})


@SETTINGS
@given(
    quarter=st.integers(min_value=1, max_value=6),
    channels=st.integers(min_value=1, max_value=5),
    conv_filters=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    kernel_size=st.integers(min_value=1, max_value=7),
    dense_units=st.tuples(st.integers(1, 6), st.integers(1, 6)),
)
def test_parameter_count_is_the_size_build_model_allocates(
    quarter, channels, conv_filters, kernel_size, dense_units
):
    stack = ForecasterStack(channels, conv_filters, kernel_size, dense_units, 0.0)
    w = 4 * quarter
    assert parameter_count(w, channels, stack) == build_model(w, channels, stack).flat_params.size


def test_forward_rejects_wrong_window_shape():
    model = build_model(4, 2, SMALL_STACK, seed=0)
    with pytest.raises(ValueError, match=r"window shape \(5, 2\) does not match model input"):
        model.forward(np.zeros((1, 5, 2)))
    # One window is a batch of one; a bare (w, C) window is a shape error.
    with pytest.raises(ValueError, match=r"window shape \(2,\) does not match model input"):
        model.forward(np.zeros((4, 2)))


def test_forward_flags_non_finite_parameters():
    model = build_model(4, 2, SMALL_STACK, seed=0)
    model.params[0][...] = np.nan
    with pytest.raises(FloatingPointError):
        model.forward(np.zeros((1, 4, 2)))


def train_on_scripted_losses(monkeypatch, losses, patience):
    """Train with the validation MAE replaced by `losses`, one per epoch.

    Returns the model, its history and the parameters seen at each epoch's
    validation, so a test can tell which epoch train restored.
    """
    import cps_sentinel.forecaster.model as fm

    scripted = iter(losses)
    seen = []

    def validation_loss(model, inputs, targets):
        seen.append(model.flat_params.copy())
        return next(scripted)

    monkeypatch.setattr(fm, "_batched_mae", validation_loss)
    model = build_model(4, 2, SMALL_STACK, seed=0)
    config = TrainConfig(epochs=len(losses), batch_size=8, learning_rate=0.01,
                         early_stop_patience=patience)
    history = train(model, make_windows(random_frame(40, 2, seed=1), 4), config)
    return model, history, seen


def test_early_stopper_arithmetic(monkeypatch):
    # Three improvements, then three stale epochs (the last one a tie).
    model, history, seen = train_on_scripted_losses(
        monkeypatch, [5.0, 4.0, 3.0, 4.0, 3.5, 3.0, 1.0, 1.0], patience=3)
    assert history.val_loss == [5.0, 4.0, 3.0, 4.0, 3.5, 3.0]
    assert model.flat_params.tobytes() == seen[2].tobytes()


def test_early_stopper_reset_on_improvement(monkeypatch):
    # The improvement at epoch 3 resets the stale count that epoch 2 started,
    # so patience 2 runs a fifth epoch and stops only after it.
    model, history, seen = train_on_scripted_losses(
        monkeypatch, [5.0, 6.0, 4.0, 5.0, 4.5, 1.0, 1.0], patience=2)
    assert history.val_loss == [5.0, 6.0, 4.0, 5.0, 4.5]
    assert model.flat_params.tobytes() == seen[2].tobytes()


def test_train_stops_after_patience_stale_epochs_and_restores_the_best(monkeypatch):
    # Epoch 3 improves and resets the count that epoch 2 started; the tie at
    # epoch 4 is stale, as are epochs 5 and 6, so patience 3 stops after 6.
    model, history, seen = train_on_scripted_losses(
        monkeypatch, [0.5, 0.6, 0.4, 0.4, 0.45, 0.4, 0.1, 0.1, 0.1], patience=3)
    assert history.val_loss == [0.5, 0.6, 0.4, 0.4, 0.45, 0.4]
    assert not np.array_equal(seen[2], seen[3])  # the tie's parameters differ
    assert model.flat_params.tobytes() == seen[2].tobytes()


@pytest.mark.parametrize("epochs", [1, 2, 3, 6])
def test_a_patience_past_the_epochs_trains_as_a_patience_of_the_epochs(epochs):
    # Epoch 1 always improves on an infinite best loss, so at most epochs - 1
    # epochs can be stale and no patience of at least `epochs` is reached.
    batch = make_windows(random_frame(60, 2, seed=13), 4)
    runs = []
    for patience in (epochs, epochs + 1, epochs + 40):
        model = build_model(4, 2, SMALL_STACK, seed=8)
        config = TrainConfig(epochs=epochs, batch_size=8, learning_rate=0.05,
                             early_stop_patience=patience)
        history = train(model, batch, config)
        runs.append((history.train_loss, history.val_loss, model.flat_params.tobytes()))
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_train_config_validation():
    with pytest.raises(ValueError, match="positive"):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError, match="learning_rate"):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError, match="validation_fraction"):
        TrainConfig(validation_fraction=1.0)
    with pytest.raises(ValueError, match="learning_rate must be finite, not nan"):
        TrainConfig(learning_rate=float("nan"))


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
    best = min(history.val_loss)
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
        train(build_model(4, 1, default_stack(1, (2, 2), 3, (2, 2)), seed=0), batch, config)
    empty = WindowBatch(batch.inputs[:0], batch.targets[:0], batch.target_indices[:0])
    with pytest.raises(ValueError, match="empty window batch"):
        train(build_model(4, 1, default_stack(1, (2, 2), 3, (2, 2)), seed=0), empty, config)


def test_train_raises_on_a_non_finite_validation_loss():
    """The last target of both channels is 1e308: the validation MAE's sum
    overflows, while no window reads that row as input."""
    values = random_frame(40, 2, seed=1).values.copy()
    values[-1] = 1e308
    batch = make_windows(make_frame(values), 4)
    config = TrainConfig(epochs=2, batch_size=8, early_stop_patience=2)
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError,
                                                   match="non-finite validation loss"):
        train(build_model(4, 2, SMALL_STACK, seed=0), batch, config)


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
            preds[i], model.forward(batch.inputs[i : i + 1])[0], rtol=1e-13, atol=1e-15
        )


def test_predict_series_chunking_is_transparent(monkeypatch):
    import cps_sentinel.forecaster.model as fm

    frame = random_frame(30, 2, seed=5)
    model = build_model(4, 2, SMALL_STACK, seed=2)
    whole, _ = predict_series(model, frame)
    monkeypatch.setattr(fm, "PREDICT_CHUNK", 4)
    chunked, _ = predict_series(model, frame)
    np.testing.assert_array_equal(whole, chunked)


# GA-shaped stacks: window, channels, filters, kernel, dense units.
GA_STACKS = {
    "w8 c3 k3": (8, 3, (16, 32), 3, (32, 16)),
    "w12 c8 k5": (12, 8, (32, 64), 5, (16, 128)),
    "w24 c5 k7": (24, 5, (64, 16), 7, (128, 64)),
}
# For an output layer of 3 or fewer units, OpenBLAS gives some rows of a
# 2-, 3- or 5-row product other last bits than in a taller one; chunk sizes
# that are multiples of 4 keep them. Other BLAS builds may not differ.
TINY_CHUNK_DIFFERS = pytest.mark.xfail(
    raises=AssertionError, reason="3 output units: a 2-window chunk changes last bits")


@pytest.mark.parametrize("stack, chunk", [
    *[(name, chunk) for name in GA_STACKS for chunk in ("default", "n - 1")],
    pytest.param("w8 c3 k3", "2", marks=TINY_CHUNK_DIFFERS),
    ("w12 c8 k5", "2"),
    ("w24 c5 k7", "2"),
])
def test_a_forecast_has_the_same_bits_in_every_chunk(monkeypatch, stack, chunk):
    """predict_series equals one whole-frame forward bit for bit: a single
    leftover window joins the chunk before it instead of taking BLAS's
    one-row path, which n - 1 windows a chunk would leave it."""
    import cps_sentinel.forecaster.model as fm

    w, channels, filters, kernel, dense = GA_STACKS[stack]
    n = 2 * fm.PREDICT_CHUNK + 1
    frame = random_frame(n + w, channels, seed=w)
    model = build_model(w, channels, default_stack(channels, filters, kernel, dense), seed=w)
    whole = model.forward(make_windows(frame, w).inputs)
    size = {"default": fm.PREDICT_CHUNK, "n - 1": n - 1, "2": 2}[chunk]
    monkeypatch.setattr(fm, "PREDICT_CHUNK", size)
    np.testing.assert_array_equal(predict_series(model, frame)[0], whole)


def use_cpus(monkeypatch, cpus):
    """Make `_forward_chunks` see `cpus` CPUs, through `os.sched_getaffinity`
    or, for `cpus` given as ("cpu_count", n), through its fallback."""
    if isinstance(cpus, tuple):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus[1])
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def serial_blocks(inputs):
    """The blocks `_forward_chunks` forwards: FORWARD_BLOCK windows at a time
    of each PREDICT_CHUNK chunk, a lone leftover window joining the last
    block of the last chunk."""
    chunks = np.split(inputs, range(PREDICT_CHUNK, len(inputs) - 1, PREDICT_CHUNK))
    return [block for chunk in chunks
            for block in np.split(chunk, range(FORWARD_BLOCK, len(chunk) - 1, FORWARD_BLOCK))]


@pytest.mark.parametrize("cpus", [1, 2, 3, ("cpu_count", 2), ("cpu_count", None)])
@pytest.mark.parametrize("n, chunks", [
    (1, 1),
    (PREDICT_CHUNK + 1, 1),
    (2 * PREDICT_CHUNK + 1, 2),
    (4 * PREDICT_CHUNK + 3 * FORWARD_BLOCK + 136, 5),
])
def test_forward_chunks_has_the_bits_of_a_serial_chunk_forward(monkeypatch, cpus, n, chunks):
    """PREDICT_CHUNK + 1 windows make one chunk (the lone window joins). The
    caller and min(chunks, CPUs) - 1 helpers each forward chunks, block by
    block, so one chunk starts no thread."""
    model = build_model(4, 2, SMALL_STACK, seed=3)
    inputs = Rng(n).uniform_array(n * 8).reshape(n, 4, 2)
    blocks = serial_blocks(inputs)
    expected = np.concatenate([model.forward(block) for block in blocks])
    use_cpus(monkeypatch, cpus)
    step = min(chunks, (cpus[1] or 1) if isinstance(cpus, tuple) else cpus)
    # Each thread's first forward waits until every thread has taken a chunk,
    # so no thread can take all the chunks before the others start.
    forward, threads, sizes = model.forward, set(), []
    barrier = threading.Barrier(step, timeout=10)

    def recorded_forward(x):
        sizes.append(len(x))
        if threading.get_ident() not in threads:
            threads.add(threading.get_ident())
            barrier.wait()
        return forward(x)

    monkeypatch.setattr(model, "forward", recorded_forward)
    threads_before = threading.active_count()
    got = _forward_chunks(model, inputs)
    assert got.tobytes() == expected.tobytes()
    assert sorted(sizes) == sorted(map(len, blocks))
    assert len(threads) == step
    assert threading.get_ident() in threads
    assert threading.active_count() == threads_before


@pytest.mark.parametrize("n, sizes", [
    (FORWARD_BLOCK + 1, [FORWARD_BLOCK + 1]),
    (2 * FORWARD_BLOCK + 2, [FORWARD_BLOCK, FORWARD_BLOCK, 2]),
    (PREDICT_CHUNK + 1, [FORWARD_BLOCK] * (PREDICT_CHUNK // FORWARD_BLOCK - 1) + [FORWARD_BLOCK + 1]),
])
def test_a_lone_leftover_window_joins_the_last_block(monkeypatch, n, sizes):
    """FORWARD_BLOCK + 1 windows forward as one block, not as FORWARD_BLOCK
    and 1, which BLAS's one-row path could give other bits."""
    model = build_model(4, 2, SMALL_STACK, seed=3)
    inputs = Rng(n).uniform_array(n * 8).reshape(n, 4, 2)
    expected = np.concatenate([model.forward(block) for block in serial_blocks(inputs)])
    forward, calls = model.forward, []
    monkeypatch.setattr(model, "forward", lambda x: calls.append(len(x)) or forward(x))
    use_cpus(monkeypatch, 1)
    assert _forward_chunks(model, inputs).tobytes() == expected.tobytes()
    assert calls == sizes


def test_forward_chunks_forwards_each_chunk_once_under_thread_switches(monkeypatch):
    """Eight threads on fewer cores, switching every microsecond, share the
    chunk indices: a chunk handed out twice adds a call, one skipped breaks
    the join."""
    import cps_sentinel.forecaster.model as fm

    model = build_model(4, 2, SMALL_STACK, seed=3)
    inputs = Rng(7).uniform_array(200 * 8).reshape(200, 4, 2)
    expected = np.concatenate([model.forward(inputs[i : i + 4]) for i in range(0, 200, 4)])
    monkeypatch.setattr(fm, "PREDICT_CHUNK", 4)  # 50 chunks
    use_cpus(monkeypatch, 8)
    forward, calls = model.forward, []
    monkeypatch.setattr(model, "forward", lambda x: calls.append(len(x)) or forward(x))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            assert _forward_chunks(model, inputs).tobytes() == expected.tobytes()
    finally:
        sys.setswitchinterval(interval)
    assert calls == [4] * 50 * 20


@pytest.mark.parametrize(
    "fault", ["last-layer bias", "the last window", "the caller's chunk", "a helper's chunk"])
def test_no_helper_thread_outlives_a_raising_chunk(monkeypatch, fault):
    """20 chunks on 2 CPUs. A NaN bias raises in every block, so each thread
    forwards one; a NaN last window raises after every block of all 20 chunks.
    When one thread's block raises, the other's forwards wait until the
    raising thread has left its loop: the other may then finish the blocks of
    the chunk it holds, and take no more chunks."""
    import cps_sentinel.forecaster.model as fm

    model = build_model(4, 2, SMALL_STACK, seed=3)
    inputs = Rng(1).uniform_array(20 * PREDICT_CHUNK * 8).reshape(-1, 4, 2)
    raiser = {"the caller's chunk": "caller", "a helper's chunk": "helper"}.get(fault)
    if fault == "last-layer bias":
        model.layers[-1].bias[:] = np.nan
    elif fault == "the last window":
        inputs[-1] = np.nan
    left = {"caller": threading.Event(), "helper": threading.Event()}

    class Pool(fm.ThreadPoolExecutor):
        """Marks each side's leaving its loop: the caller's before the join."""

        def submit(self, run):
            def run_then_mark():
                try:
                    run()
                finally:
                    left["helper"].set()

            return super().submit(run_then_mark)

        def __exit__(self, *exc):
            left["caller"].set()
            return super().__exit__(*exc)

    forward, calls = model.forward, []

    def recorded_forward(x):
        side = "caller" if threading.current_thread() is threading.main_thread() else "helper"
        calls.append(side)
        if side == raiser:
            raise FloatingPointError("non-finite forecaster output: in a test")
        if raiser:
            assert left[raiser].wait(10)
        return forward(x)

    monkeypatch.setattr(fm, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(model, "forward", recorded_forward)
    use_cpus(monkeypatch, 2)
    threads_before = threading.active_count()
    with pytest.raises(FloatingPointError, match="non-finite forecaster output"):
        _forward_chunks(model, inputs)
    assert threading.active_count() == threads_before
    blocks_per_chunk = PREDICT_CHUNK // FORWARD_BLOCK
    if fault == "the last window":
        assert len(calls) == 20 * blocks_per_chunk
    elif raiser is None:
        assert len(calls) <= 2
    else:
        assert calls.count(raiser) == 1
        assert len(calls) - 1 <= blocks_per_chunk


def test_the_ga_forks_after_every_helper_of_a_prediction_ended(monkeypatch):
    """make_evaluator forks no GA worker; the first call forks one. That
    fork, from the main thread before any pool thread runs, sees the main
    thread alone."""
    train_frame = random_frame(3000, 2, seed=1)
    labels = np.zeros(60, dtype=bool)
    labels[30:40] = True
    validation = make_frame(random_frame(60, 2, seed=2).values, labels=labels)
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(gaopt, "_evaluate_raising", lambda genome, *inputs: 0.5)
    predict_series(build_model(4, 2, SMALL_STACK, seed=3), train_frame)  # three chunks
    at_fork = []
    # A fork hook cannot be unregistered: it records nothing once at_fork is None.
    os.register_at_fork(
        before=lambda: at_fork is not None and at_fork.append(threading.enumerate()))
    evaluator = gaopt.make_evaluator(train_frame, validation)
    assert at_fork == []
    assert evaluator(PipelineSettings()) == 0.5
    forks, at_fork = at_fork, None
    evaluator.close()
    assert forks == [[threading.main_thread()]]


def test_a_ga_worker_forwards_a_multi_chunk_frame_on_its_own_thread(monkeypatch):
    """A GA worker shares the CPUs with one sibling per CPU, so fit_pipeline
    forwards its 3,000-window training frame there without a helper: a helper
    pool raises here, and from the worker through the evaluator."""
    import cps_sentinel.forecaster.model as fm

    def no_pool(helpers):
        raise AssertionError(f"{helpers} helper thread(s) asked for")

    train_frame = random_frame(3000, 2, seed=1)
    labels = np.zeros(60, dtype=bool)
    labels[30:40] = True
    validation = make_frame(random_frame(60, 2, seed=2).values, labels=labels)
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(fm, "ThreadPoolExecutor", no_pool)
    with pytest.raises(AssertionError, match="1 helper thread"):  # as the caller would
        predict_series(build_model(4, 2, SMALL_STACK, seed=3), train_frame)
    evaluator = gaopt.make_evaluator(train_frame, validation, TrainConfig(epochs=1))
    try:
        assert 0.0 <= evaluator(PipelineSettings()) <= 1.0
        assert evaluator.failures == []
    finally:
        evaluator.close()


def layout(model):
    """Each layer's class, sizes and options: every attribute but its arrays."""
    return [
        (type(layer), {k: v for k, v in vars(layer).items() if not isinstance(v, np.ndarray)})
        for layer in model.layers
    ]


def test_save_load_round_trip_bit_exact(tmp_path):
    frame = random_frame(50, 2, seed=30)
    batch = make_windows(frame, 4)
    settings = PipelineSettings(window=4, conv1=3, conv2=2, dense1=4, dense2=3, dropout=0.0)
    model = build_forecaster(settings, 2, seed=6)
    train(model, batch, TrainConfig(epochs=3, batch_size=8, early_stop_patience=3))
    path = tmp_path / "model.npz"
    np.savez(path, **{"model.params": model.flat_params})
    with np.load(path) as data:
        loaded = _decode_model(settings, 2, dict(data))
    assert layout(loaded) == layout(model)
    for a, b in zip(model.params, loaded.params):
        np.testing.assert_array_equal(a, b)
    x = batch.inputs[:5]
    np.testing.assert_array_equal(model.forward(x), loaded.forward(x))
