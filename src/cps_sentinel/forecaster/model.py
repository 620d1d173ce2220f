"""Next-step forecaster: model assembly, training loop, Adam."""

import contextlib
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from ..dataio import FieldError, TimeSeriesFrame, WindowBatch, make_windows
from ..rng import Rng, derive_seed
from .layers import SIGMOID, TANH, Conv1DLayer, DenseLayer, MaxPool1DLayer

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Inference: each thread takes PREDICT_CHUNK windows at a time, so fewer windows
# start no helper thread, and forwards them FORWARD_BLOCK at a time, which bounds
# a thread's activations (0.8 MB a layer for 256 12-step windows of 32 filters).
# A multiple of 4 keeps the bits of a whole-frame forward (see _forward_chunks).
PREDICT_CHUNK = 1024
FORWARD_BLOCK = 256
MAE_BLOCK = 4096  # windows per partial sum of the validation MAE; history.csv's bytes rest on it


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 433
    learning_rate: float = 0.001
    early_stop_patience: int = 5
    validation_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            if f.type is float and not math.isfinite(getattr(self, f.name)):
                raise FieldError(f"{f.name} must be finite, not {getattr(self, f.name)!r}", f.name)
        for name in ("epochs", "batch_size", "early_stop_patience"):
            if getattr(self, name) < 1:
                raise FieldError(f"{name} must be positive", name)
        if self.learning_rate <= 0:
            raise FieldError("learning_rate must be positive", "learning_rate")
        if not 0.0 < self.validation_fraction < 1.0:
            raise FieldError("validation_fraction must lie in (0, 1)", "validation_fraction")


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)

    @property
    def stopped_epoch(self) -> int:
        return len(self.val_loss)


class ShapeError(ValueError):
    """The input shape does not fit the forecaster stack."""


@dataclass(frozen=True)
class ForecasterStack:
    """Sizes of the forecaster's one layout: conv-pool-conv-pool, two tanh
    Dense layers, the first reading the pooled sequence flattened, and a
    sigmoid Dense output of `channels` units. Every Dense layer, the output
    included, drops units at rate `dropout` in training."""

    channels: int
    conv_filters: tuple[int, int]
    kernel_size: int
    dense_units: tuple[int, int]
    dropout: float

    def __post_init__(self):
        if len(self.conv_filters) != 2 or len(self.dense_units) != 2:
            raise ValueError("conv_filters and dense_units take two sizes each")
        if min(self.channels, *self.conv_filters, self.kernel_size, *self.dense_units) < 1:
            raise ValueError("layer sizes must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")


def default_stack(
    channels: int,
    conv_filters: tuple[int, int] = (32, 64),
    kernel_size: int = 3,
    dense_units: tuple[int, int] = (64, 32),
    dropout: float = 0.2,
) -> ForecasterStack:
    """The reference stack for `channels` channels."""
    return ForecasterStack(channels, tuple(conv_filters), kernel_size, tuple(dense_units), dropout)


class CnnModel:
    """Ordered layer stack with parameters and Adam state.

    The parameters and Adam's two moments each live in one flat float64
    vector (`flat_params`, `flat_adam_m`, `flat_adam_v`), concatenated in
    layer order. `params` holds per-tensor views into `flat_params`, and
    every layer's `weights` and `bias` are the same views, so writing
    through any of them writes the flat vector.

    Training (`train`, `adam_step`) mutates the instance and needs external
    synchronization, also against `predict_series`, whose helper threads call
    `forward`; on a model nobody is training, both are pure and thread-safe.
    """

    def __init__(self, input_shape: tuple[int, int], layers: list):
        self.input_shape = input_shape
        self.layers = layers
        weighted = [layer for layer in layers if hasattr(layer, "weights")]
        tensors = [p for layer in weighted for p in (layer.weights, layer.bias)]
        offsets = np.cumsum([p.size for p in tensors])[:-1]
        self.flat_params = np.concatenate([p.ravel() for p in tensors])
        self.flat_adam_m = np.zeros_like(self.flat_params)
        self.flat_adam_v = np.zeros_like(self.flat_params)
        chunks = np.split(self.flat_params, offsets)
        self.params = [v.reshape(p.shape) for v, p in zip(chunks, tensors)]
        for i, layer in enumerate(weighted):
            layer.weights, layer.bias = self.params[2 * i : 2 * i + 2]
        self.adam_t = 0

    def forward(self, windows: np.ndarray) -> np.ndarray:
        """Predict the next reading for each window of a (B, w, C) batch."""
        return self._forward(windows)

    def _forward(self, windows, training=False, rng=None, caches=None) -> np.ndarray:
        """The layers' forward passes over a (B, w, C) batch. Each layer's
        backward cache is appended to `caches` if one is given, and otherwise
        dropped before the next layer runs."""
        x = np.asarray(windows, dtype=np.float64)
        if x.shape[1:] != self.input_shape:
            raise ValueError(
                f"window shape {x.shape[1:]} does not match model input {self.input_shape}"
            )
        for layer in self.layers:
            x, cache = layer.forward(x, training=training, rng=rng)
            if caches is not None:
                caches.append(cache)
            del cache
        if not np.all(np.isfinite(x)):
            raise FloatingPointError("non-finite forecaster output: parameters blew up")
        return x

    def loss_and_grads(
        self,
        windows: np.ndarray,
        targets: np.ndarray,
        training: bool = False,
        rng: Rng | None = None,
    ) -> tuple[float, list[np.ndarray]]:
        """Batch MAE and its gradient for every parameter tensor.

        Dropout masks drawn in this forward pass are the ones backpropagated.
        """
        caches = []
        out = self._forward(windows, training, rng, caches)
        diff = out - np.asarray(targets, dtype=np.float64)
        loss = float(np.mean(np.abs(diff)))
        # d mean|x| / dx, with the subgradient at 0 taken as 0
        dy = np.sign(diff) / diff.size
        grads: list[np.ndarray] = []
        for i in range(len(self.layers) - 1, -1, -1):
            # Nothing lies below layer 0 to take its input gradient.
            dy, param_grads = self.layers[i].backward(dy, caches[i], input_grad=i > 0)
            grads = param_grads + grads
        return loss, grads

    def copy_params(self) -> list[np.ndarray]:
        return [p.copy() for p in self.params]


def _check_input(w: int, channels: int, stack: ForecasterStack) -> None:
    if w < 1 or channels < 1:
        raise ShapeError("input shape must be positive")
    if stack.channels != channels:
        raise ShapeError(f"stack emits {stack.channels} channels, input has {channels}")
    if w % 4 != 0:
        raise ShapeError(f"the two pools of 2 need a window divisible by 4, not {w}")


def parameter_count(w: int, channels: int, stack: ForecasterStack) -> int:
    """Length of the flat parameter vector `build_model` would allocate."""
    _check_input(w, channels, stack)
    (f1, f2), k, (d1, d2) = stack.conv_filters, stack.kernel_size, stack.dense_units
    return ((k * channels + 1) * f1 + (k * f1 + 1) * f2 + (w // 4 * f2 + 1) * d1
            + (d1 + 1) * d2 + (d2 + 1) * channels)


def build_model(w: int, channels: int, stack: ForecasterStack, seed: int = 0) -> CnnModel:
    """Assemble and initialize the stack on (w, channels) windows.

    Weights: Glorot-uniform in +-sqrt(6/(fan_in+fan_out)), drawn layer by
    layer from one generator; biases zero.
    """
    _check_input(w, channels, stack)
    rng = Rng(derive_seed(seed))
    (f1, f2), k, (d1, d2) = stack.conv_filters, stack.kernel_size, stack.dense_units
    layers = [
        Conv1DLayer(channels, f1, k, rng),
        MaxPool1DLayer(w, f1),
        Conv1DLayer(f1, f2, k, rng),
        MaxPool1DLayer(w // 2, f2),
        DenseLayer(w // 4 * f2, d1, TANH, stack.dropout, rng),
        DenseLayer(d1, d2, TANH, stack.dropout, rng),
        DenseLayer(d2, channels, SIGMOID, stack.dropout, rng),
    ]
    return CnnModel(input_shape=(w, channels), layers=layers)


def adam_step(model: CnnModel, grads: list[np.ndarray], learning_rate: float) -> None:
    """Standard bias-corrected Adam update; increments the step counter.

    `grads` holds one gradient per entry of `model.params`, in that order.
    """
    if [np.shape(g) for g in grads] != [p.shape for p in model.params]:
        raise ValueError("gradient list does not match parameter list")
    g = np.concatenate([np.ravel(x) for x in grads])
    if not np.all(np.isfinite(g)):
        raise FloatingPointError("non-finite gradient passed to adam_step")
    model.adam_t += 1
    t = model.adam_t
    m, v = model.flat_adam_m, model.flat_adam_v
    # In place, with the operations of the textbook update in its order:
    # m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
    # p -= lr * m_hat / (sqrt(v_hat) + eps).
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += ((1.0 - ADAM_BETA2) * g) * g
    step = m / (1.0 - ADAM_BETA1**t)
    step *= learning_rate
    denom = v / (1.0 - ADAM_BETA2**t)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    step /= denom
    model.flat_params -= step


def _split(windows: np.ndarray, size: int) -> list[np.ndarray]:
    """`windows` in runs of `size`; a lone leftover window joins the last run."""
    return np.split(windows, range(size, len(windows) - 1, size))


def _forward_chunks(model: CnnModel, inputs: np.ndarray) -> np.ndarray:
    """model.forward over chunks of PREDICT_CHUNK windows on the caller and one
    helper thread per further CPU, each taking the next chunk none has taken. One
    chunk starts no helper, nor does a multiprocessing child such as a GA worker,
    whose siblings (one per GA thread) share the CPUs. After a chunk raises, no
    thread starts another; helpers end before this returns. A thread forwards its
    chunk in blocks of FORWARD_BLOCK windows. A lone leftover window joins the
    last chunk, and the last block of its chunk: alone, BLAS's one-row path would
    give it other bits, as OpenBLAS gives a model of 3 channels in blocks of 2, 3
    or 5 windows, but not of a multiple of 4."""
    chunks = _split(inputs, PREDICT_CHUNK)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    helpers = min(len(chunks), cpus or 1) - 1
    if helpers:
        import multiprocessing  # imported on first use: it costs every command's start-up
        helpers = helpers if multiprocessing.parent_process() is None else 0
    outputs = [None] * len(chunks)
    untaken = iter(range(len(chunks)))  # shared: next() hands each index out once

    def run() -> None:
        try:
            for i in untaken:
                outputs[i] = [model.forward(block) for block in _split(chunks[i], FORWARD_BLOCK)]
        except BaseException:
            for _ in untaken:  # take every chunk left, so no thread starts another
                pass
            raise

    with ThreadPoolExecutor(helpers) if helpers else contextlib.nullcontext() as pool:
        started = [pool.submit(run) for _ in range(helpers)]
        run()
        for helper in started:
            helper.result()
    return np.concatenate([block for blocks in outputs for block in blocks])


def _batched_mae(model: CnnModel, inputs: np.ndarray, targets: np.ndarray) -> float:
    err = np.abs(_forward_chunks(model, inputs) - targets)
    total = sum(float(np.sum(err[lo : lo + MAE_BLOCK])) for lo in range(0, len(err), MAE_BLOCK))
    return total / (len(inputs) * targets.shape[1])


def train(model: CnnModel, batch: WindowBatch, config: TrainConfig) -> TrainHistory:
    """Seeded mini-batch training with time-ordered validation split.

    The trailing validation_fraction of windows monitors MAE; training stops
    once validation fails to improve for `early_stop_patience` consecutive
    epochs, and the best-epoch parameters are restored.
    """
    n = len(batch)
    if n == 0:
        raise ValueError("empty window batch")
    val_n = max(1, int(round(config.validation_fraction * n)))
    train_n = n - val_n
    if train_n < 1:
        raise ValueError("validation split leaves no training windows")
    train_x, train_y = batch.inputs[:train_n], batch.targets[:train_n]
    val_x, val_y = batch.inputs[train_n:], batch.targets[train_n:]

    rng = Rng(derive_seed(config.seed, 0xD0))
    history = TrainHistory()
    best_params = model.flat_params.copy()
    best_loss, stale = np.inf, 0
    order = np.arange(train_n)

    for _ in range(config.epochs):
        rng.shuffle(order)
        epoch_loss = 0.0
        for lo in range(0, train_n, config.batch_size):
            idx = order[lo : lo + config.batch_size]
            loss, grads = model.loss_and_grads(
                train_x[idx], train_y[idx], training=True, rng=rng
            )
            adam_step(model, grads, config.learning_rate)
            epoch_loss += loss * len(idx)
        history.train_loss.append(epoch_loss / train_n)

        val_loss = _batched_mae(model, val_x, val_y)
        if not np.isfinite(val_loss):
            raise FloatingPointError("training diverged: non-finite validation loss")
        history.val_loss.append(val_loss)
        if val_loss < best_loss:  # strictly: a tie is a stale epoch
            best_loss, stale = val_loss, 0
            best_params = model.flat_params.copy()
        else:
            stale += 1
            if stale == config.early_stop_patience:
                break

    model.flat_params[...] = best_params
    return history


def predict_series(model: CnnModel, frame: TimeSeriesFrame) -> tuple[np.ndarray, WindowBatch]:
    """One next-step prediction per model-length window of the frame, dropout
    disabled, with the windows they came from.

    predictions[i] forecasts batch.targets[i], the reading at absolute
    timestep batch.target_indices[i].
    """
    batch = make_windows(frame, model.input_shape[0])
    return _forward_chunks(model, batch.inputs), batch
