"""Batched forward/backward passes for the layers of the 1-D conv forecaster.

All arrays are float64.  Sequence tensors are (batch, length, channels);
a Dense layer flattens its input to (batch, features) itself and hands its
input gradient back in the input's shape.  Forward passes are functional:
they return (output, cache) and leave no per-call state on the layer, so a
frozen model can serve many threads; backward consumes the matching cache
and returns (input_grad, [param_grads...]). A model's first layer has no
layer below it to take its input gradient, so `backward(..., input_grad=False)`
skips that product and returns None in its place; a pool, never first,
ignores the flag.
"""

import numpy as np

from ..rng import Rng

TANH, SIGMOID = "tanh", "sigmoid"


def _activate_in_place(name: str, z: np.ndarray) -> np.ndarray:
    """z's activation written into z, with the bits of np.tanh(z) or 1/(1+exp(-z))."""
    if name == TANH:
        return np.tanh(z, out=z)
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    return np.divide(1.0, z, out=z)


def _activate_grad(name: str, a: np.ndarray) -> np.ndarray:
    if name == TANH:
        return 1.0 - a * a
    return a * (1.0 - a)


def glorot_uniform(rng: Rng, shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    u = rng.uniform_array(int(np.prod(shape))).reshape(shape)
    return (2.0 * u - 1.0) * limit


class Conv1DLayer:
    """Same-padding, stride-1 convolution with ReLU."""

    def __init__(self, in_ch: int, filters: int, kernel_size: int, rng: Rng):
        k, f = kernel_size, filters
        self.in_ch, self.filters, self.kernel_size = in_ch, filters, kernel_size
        self.weights = glorot_uniform(rng, (k, in_ch, f), fan_in=k * in_ch, fan_out=k * f)
        self.bias = np.zeros(f)

    def _im2col(self, x: np.ndarray) -> np.ndarray:
        """The (B, L, k*C) im2col matrix of the same-padded input, as a
        zero-copy, overlapping, read-only view: row t is the k taps t..t+k-1
        of the padded sequence, which lie next to each other in memory, so
        consecutive rows overlap by (k-1)*C values."""
        k = self.kernel_size
        b, length, ch = x.shape
        pad_left = (k - 1) // 2
        xp = np.zeros((b, length + k - 1, ch))
        xp[:, pad_left : pad_left + length] = x
        return np.lib.stride_tricks.as_strided(
            xp, shape=(b, length, k * ch), strides=xp.strides, writeable=False
        )

    def forward(self, x, training=False, rng=None):
        k, f = self.kernel_size, self.filters
        cols = self._im2col(x)
        y = cols @ self.weights.reshape(k * self.in_ch, f)
        y += self.bias
        return np.maximum(y, 0.0, out=y), (cols, y)

    def backward(self, dy, cache, input_grad=True):
        cols, y = cache
        k, f = self.kernel_size, self.filters
        # The ReLU subgradient as a bool mask, which multiplies as 1.0 or 0.0;
        # y = max(z, 0) is positive exactly where z is, NaN included.
        dz = dy * (y > 0.0)
        flat_cols = cols.reshape(-1, k * self.in_ch)
        flat_dz = dz.reshape(-1, f)
        dw = (flat_cols.T @ flat_dz).reshape(k, self.in_ch, f)
        db = flat_dz.sum(axis=0)
        if not input_grad:
            return None, [dw, db]
        dcols = dz @ self.weights.reshape(k * self.in_ch, f).T
        b, length = dy.shape[0], dy.shape[1]
        dcols = dcols.reshape(b, length, k, self.in_ch)
        # Tap j of output t reads input t + j - pad_left. Add the taps in j
        # order, as into a padded buffer, dropping the terms that would land
        # in the padding.
        pad_left = (k - 1) // 2
        dx = np.zeros((b, length, self.in_ch))
        for j in range(k):
            shift = j - pad_left
            lo, hi = max(0, shift), min(length, length + shift)
            if lo < hi:
                dx[:, lo:hi, :] += dcols[:, lo - shift : hi - shift, j, :]
        return dx, [dw, db]


class MaxPool1DLayer:
    """Non-overlapping max-pool over pairs of an even-length input: it halves
    the length."""

    def __init__(self, in_len: int, in_ch: int):
        self.in_len, self.in_ch = in_len, in_ch

    def forward(self, x, training=False, rng=None):
        xr = x.reshape(x.shape[0], self.in_len // 2, 2, self.in_ch)
        # np.maximum, not np.where(a >= c, a, c): on a -0.0/0.0 tie it returns
        # the later value, as np.max over the pair does.
        return np.maximum(xr[:, :, 0, :], xr[:, :, 1, :]), xr

    def backward(self, dy, cache, input_grad=True):
        # The gradient goes to the first of two equal values, as argmax does.
        first = cache[:, :, 0, :] >= cache[:, :, 1, :]
        dxr = np.empty((dy.shape[0], self.in_len // 2, 2, self.in_ch))
        dxr[:, :, 0, :] = np.where(first, dy, 0.0)
        dxr[:, :, 1, :] = np.where(first, 0.0, dy)
        return dxr.reshape(dy.shape[0], self.in_len, self.in_ch), []


class DenseLayer:
    """Fully connected layer with a tanh or sigmoid activation and inverted
    dropout on its output in training. A (B, L, C) input is read as its
    (B, L*C) reshape, a view of a contiguous pool output."""

    def __init__(self, in_features: int, units: int, activation: str, dropout: float, rng: Rng):
        self.activation, self.dropout = activation, dropout
        self.weights = glorot_uniform(rng, (in_features, units), fan_in=in_features, fan_out=units)
        self.bias = np.zeros(units)

    def forward(self, x, training=False, rng=None):
        shape = x.shape
        x = x.reshape(shape[0], self.weights.shape[0])
        a = x @ self.weights
        a += self.bias
        _activate_in_place(self.activation, a)
        mask = None
        rate = self.dropout
        if training and rate > 0.0:
            u = rng.uniform_array(a.size).reshape(a.shape)
            mask = (u >= rate).astype(np.float64) / (1.0 - rate)
            out = a * mask
        else:
            out = a
        return out, (x, shape, a, mask)

    def backward(self, dy, cache, input_grad=True):
        x, shape, a, mask = cache
        if mask is not None:
            dy = dy * mask
        dz = dy * _activate_grad(self.activation, a)
        dw = x.T @ dz
        db = dz.sum(axis=0)
        dx = (dz @ self.weights.T).reshape(shape) if input_grad else None
        return dx, [dw, db]
