"""Layer specs and batched forward/backward passes for the 1-D conv forecaster.

All arrays are float64.  Sequence tensors are (batch, length, channels);
flattened tensors are (batch, features).  Forward passes are functional:
they return (output, cache) and leave no per-call state on the layer, so a
frozen model can serve many threads; backward consumes the matching cache
and returns (input_grad, [param_grads...]).
"""

from dataclasses import dataclass

import numpy as np

from ..rng import Rng

RELU, TANH, SIGMOID = "relu", "tanh", "sigmoid"
ACTIVATIONS = (RELU, TANH, SIGMOID)


@dataclass(frozen=True)
class Conv1DSpec:
    """Same-padding, stride-1 convolution with ReLU."""

    filters: int
    kernel_size: int = 3

    def __post_init__(self):
        if self.filters < 1 or self.kernel_size < 1:
            raise ValueError("filters and kernel_size must be positive")


@dataclass(frozen=True)
class MaxPool1DSpec:
    """Non-overlapping max-pool over pairs: it halves the length."""


@dataclass(frozen=True)
class FlattenSpec:
    pass


@dataclass(frozen=True)
class DenseSpec:
    units: int
    activation: str = TANH
    dropout: float = 0.0

    def __post_init__(self):
        if self.units < 1:
            raise ValueError("units must be positive")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")


LayerSpec = Conv1DSpec | MaxPool1DSpec | FlattenSpec | DenseSpec


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    if name == RELU:
        return np.maximum(z, 0.0)
    if name == TANH:
        return np.tanh(z)
    return 1.0 / (1.0 + np.exp(-z))


def _activate_grad(name: str, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    # subgradient at relu kink taken as 0
    if name == RELU:
        return (z > 0.0).astype(np.float64)
    if name == TANH:
        return 1.0 - a * a
    return a * (1.0 - a)


def glorot_uniform(rng: Rng, shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    u = rng.uniform_array(int(np.prod(shape))).reshape(shape)
    return (2.0 * u - 1.0) * limit


class ShapeError(ValueError):
    """Layer stack does not compose for the given input shape."""


class Conv1DLayer:
    def __init__(self, spec: Conv1DSpec, in_len: int, in_ch: int, rng: Rng):
        k, f = spec.kernel_size, spec.filters
        self.spec = spec
        self.in_len, self.in_ch = in_len, in_ch
        self.out_shape = (in_len, f)
        self.weights = glorot_uniform(rng, (k, in_ch, f), fan_in=k * in_ch, fan_out=k * f)
        self.bias = np.zeros(f)

    @property
    def params(self):
        return [self.weights, self.bias]

    def _im2col(self, x: np.ndarray) -> np.ndarray:
        k = self.spec.kernel_size
        pad_left = (k - 1) // 2
        pad_right = k - 1 - pad_left
        xp = np.pad(x, ((0, 0), (pad_left, pad_right), (0, 0)))
        # (B, L, C, K) -> (B, L, K, C) -> (B, L, K*C)
        cols = np.lib.stride_tricks.sliding_window_view(xp, k, axis=1)
        cols = cols.transpose(0, 1, 3, 2)
        b, length = x.shape[0], x.shape[1]
        return cols.reshape(b, length, k * self.in_ch)

    def forward(self, x, training=False, rng=None):
        k, f = self.spec.kernel_size, self.spec.filters
        cols = self._im2col(x)
        z = cols @ self.weights.reshape(k * self.in_ch, f) + self.bias
        y = _activate(RELU, z)
        return y, (cols, z, y)

    def backward(self, dy, cache):
        cols, z, y = cache
        k, f = self.spec.kernel_size, self.spec.filters
        dz = dy * _activate_grad(RELU, z, y)
        flat_cols = cols.reshape(-1, k * self.in_ch)
        flat_dz = dz.reshape(-1, f)
        dw = (flat_cols.T @ flat_dz).reshape(k, self.in_ch, f)
        db = flat_dz.sum(axis=0)
        dcols = dz @ self.weights.reshape(k * self.in_ch, f).T
        b, length = dy.shape[0], dy.shape[1]
        dcols = dcols.reshape(b, length, k, self.in_ch)
        pad_left = (k - 1) // 2
        dxp = np.zeros((b, length + k - 1, self.in_ch))
        for j in range(k):
            dxp[:, j : j + length, :] += dcols[:, :, j, :]
        dx = dxp[:, pad_left : pad_left + length, :]
        return dx, [dw, db]


class MaxPool1DLayer:
    def __init__(self, spec: MaxPool1DSpec, in_len: int, in_ch: int):
        if in_len % 2 != 0:
            raise ShapeError(f"pool size 2 does not divide input length {in_len}")
        self.spec = spec
        self.in_len, self.in_ch = in_len, in_ch
        self.out_shape = (in_len // 2, in_ch)

    @property
    def params(self):
        return []

    def forward(self, x, training=False, rng=None):
        xr = x.reshape(x.shape[0], self.in_len // 2, 2, self.in_ch)
        a, c = xr[:, :, 0, :], xr[:, :, 1, :]
        # np.maximum, not np.where(first, a, c): on a -0.0/0.0 tie it returns
        # the later value, as np.max over the pair does.  The mask routes the
        # gradient to the first of two equal values, as argmax does.
        return np.maximum(a, c), a >= c

    def backward(self, dy, cache):
        first = cache
        dxr = np.stack((np.where(first, dy, 0.0), np.where(first, 0.0, dy)), axis=2)
        return dxr.reshape(dy.shape[0], self.in_len, self.in_ch), []


class FlattenLayer:
    def __init__(self, spec: FlattenSpec, in_len: int, in_ch: int):
        self.spec = spec
        self.in_len, self.in_ch = in_len, in_ch
        self.out_shape = (in_len * in_ch,)

    @property
    def params(self):
        return []

    def forward(self, x, training=False, rng=None):
        return x.reshape(x.shape[0], self.in_len * self.in_ch), None

    def backward(self, dy, cache):
        return dy.reshape(dy.shape[0], self.in_len, self.in_ch), []


class DenseLayer:
    def __init__(self, spec: DenseSpec, in_features: int, rng: Rng):
        self.spec = spec
        self.in_features = in_features
        self.out_shape = (spec.units,)
        self.weights = glorot_uniform(
            rng, (in_features, spec.units), fan_in=in_features, fan_out=spec.units
        )
        self.bias = np.zeros(spec.units)

    @property
    def params(self):
        return [self.weights, self.bias]

    def forward(self, x, training=False, rng=None):
        z = x @ self.weights + self.bias
        a = _activate(self.spec.activation, z)
        mask = None
        rate = self.spec.dropout
        if training and rate > 0.0:
            u = rng.uniform_array(a.size).reshape(a.shape)
            mask = (u >= rate).astype(np.float64) / (1.0 - rate)
            out = a * mask
        else:
            out = a
        return out, (x, z, a, mask)

    def backward(self, dy, cache):
        x, z, a, mask = cache
        if mask is not None:
            dy = dy * mask
        dz = dy * _activate_grad(self.spec.activation, z, a)
        dw = x.T @ dz
        db = dz.sum(axis=0)
        dx = dz @ self.weights.T
        return dx, [dw, db]
