"""Next-step forecaster: model assembly, training loop, Adam."""

import math
from dataclasses import dataclass, field, fields

import numpy as np

from ..dataio import TimeSeriesFrame, WindowBatch, make_windows
from ..rng import Rng, derive_seed
from .layers import (
    SIGMOID,
    TANH,
    Conv1DLayer,
    Conv1DSpec,
    DenseLayer,
    DenseSpec,
    FlattenLayer,
    FlattenSpec,
    MaxPool1DLayer,
    MaxPool1DSpec,
    ShapeError,
)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

PREDICT_CHUNK = 4096


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
                raise ValueError(f"{f.name} must be finite, not {getattr(self, f.name)!r}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.early_stop_patience < 1:
            raise ValueError("early_stop_patience must be positive")
        if self.early_stop_patience > self.epochs:
            raise ValueError("patience must not exceed epochs")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must lie in (0, 1)")


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)

    @property
    def stopped_epoch(self) -> int:
        return len(self.val_loss)

    @property
    def best_val_loss(self) -> float:
        return min(self.val_loss)


class EarlyStopper:
    """Stop after `patience` consecutive epochs without strict improvement."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best = np.inf
        self._stale = 0

    def update(self, loss: float) -> bool:
        """Record one epoch's loss; returns True when it improved on the best."""
        if loss < self.best:
            self.best = loss
            self._stale = 0
            return True
        self._stale += 1
        return False

    @property
    def should_stop(self) -> bool:
        return self._stale >= self.patience


def default_stack(
    channels: int,
    conv_filters: tuple[int, int] = (32, 64),
    kernel_size: int = 3,
    dense_units: tuple[int, int] = (64, 32),
    dropout: float = 0.2,
) -> list:
    """The reference conv-pool-conv-pool-flatten-dense stack, C-generic."""
    return [
        Conv1DSpec(filters=conv_filters[0], kernel_size=kernel_size),
        MaxPool1DSpec(),
        Conv1DSpec(filters=conv_filters[1], kernel_size=kernel_size),
        MaxPool1DSpec(),
        FlattenSpec(),
        DenseSpec(units=dense_units[0], activation=TANH, dropout=dropout),
        DenseSpec(units=dense_units[1], activation=TANH, dropout=dropout),
        DenseSpec(units=channels, activation=SIGMOID, dropout=dropout),
    ]


class CnnModel:
    """Ordered layer stack with parameters and Adam state.

    The parameters and Adam's two moments each live in one flat float64
    vector (`flat_params`, `flat_adam_m`, `flat_adam_v`), concatenated in
    layer order. `params`, `adam_m` and `adam_v` are per-tensor views into
    them, and every layer's `weights` and `bias` are the same views, so
    writing through any of them writes the flat vector.

    Training (`train`, `adam_step`) mutates the instance and needs external
    synchronization; `forward`/`predict_series` on a model nobody is training
    are pure and thread-safe.
    """

    def __init__(self, input_shape: tuple[int, int], layers: list):
        self.input_shape = input_shape
        self.layers = layers
        tensors = [p for layer in layers for p in layer.params]
        offsets = np.cumsum([p.size for p in tensors])[:-1]

        def views(flat):
            return [v.reshape(p.shape) for v, p in zip(np.split(flat, offsets), tensors)]

        self.flat_params = np.concatenate([p.ravel() for p in tensors])
        self.flat_adam_m = np.zeros_like(self.flat_params)
        self.flat_adam_v = np.zeros_like(self.flat_params)
        self.params = views(self.flat_params)
        self.adam_m = views(self.flat_adam_m)
        self.adam_v = views(self.flat_adam_v)
        shared = iter(self.params)
        for layer in layers:
            if layer.params:
                layer.weights, layer.bias = next(shared), next(shared)
        self.adam_t = 0

    @property
    def w(self) -> int:
        return self.input_shape[0]

    @property
    def channels(self) -> int:
        return self.input_shape[1]

    def forward(self, window: np.ndarray, training: bool = False, rng: Rng | None = None) -> np.ndarray:
        """Predict the next reading for one (w, C) window or a (B, w, C) batch."""
        x = np.asarray(window, dtype=np.float64)
        single = x.ndim == 2
        if single:
            x = x[None, :, :]
        if x.shape[1:] != self.input_shape:
            raise ValueError(
                f"window shape {x.shape[1:]} does not match model input {self.input_shape}"
            )
        for layer in self.layers:
            x, _ = layer.forward(x, training=training, rng=rng)
        if not np.all(np.isfinite(x)):
            raise FloatingPointError("non-finite forecaster output: parameters blew up")
        return x[0] if single else x

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
        x = np.asarray(windows, dtype=np.float64)
        y = np.asarray(targets, dtype=np.float64)
        if x.ndim == 2:
            x, y = x[None], y[None]
        caches = []
        out = x
        for layer in self.layers:
            out, cache = layer.forward(out, training=training, rng=rng)
            caches.append(cache)
        if not np.all(np.isfinite(out)):
            raise FloatingPointError("non-finite forecaster output: parameters blew up")
        diff = out - y
        loss = float(np.mean(np.abs(diff)))
        # d mean|x| / dx, with the subgradient at 0 taken as 0
        dy = np.sign(diff) / diff.size
        grads: list[np.ndarray] = []
        for layer, cache in zip(reversed(self.layers), reversed(caches)):
            dy, param_grads = layer.backward(dy, cache)
            grads = param_grads + grads
        return loss, grads

    def copy_params(self) -> list[np.ndarray]:
        return [p.copy() for p in self.params]


def build_model(w: int, channels: int, specs: list, seed: int = 0) -> CnnModel:
    """Assemble and initialize the stack, validating shape composition.

    Conv weights: Glorot-uniform in +-sqrt(6/(fan_in+fan_out)); biases zero.
    """
    if w < 1 or channels < 1:
        raise ShapeError("input shape must be positive")
    rng = Rng(derive_seed(seed))
    layers = []
    shape: tuple = (w, channels)
    for i, spec in enumerate(specs):
        where = f"layer {i} ({type(spec).__name__})"
        if isinstance(spec, Conv1DSpec):
            if len(shape) != 2:
                raise ShapeError(f"{where}: expects sequence input, got {shape}")
            layers.append(Conv1DLayer(spec, shape[0], shape[1], rng))
        elif isinstance(spec, MaxPool1DSpec):
            if len(shape) != 2:
                raise ShapeError(f"{where}: expects sequence input, got {shape}")
            if shape[0] % 2 != 0:
                raise ShapeError(f"{where}: pool 2 does not divide length {shape[0]}")
            layers.append(MaxPool1DLayer(spec, shape[0], shape[1]))
        elif isinstance(spec, FlattenSpec):
            if len(shape) != 2:
                raise ShapeError(f"{where}: expects sequence input, got {shape}")
            layers.append(FlattenLayer(spec, shape[0], shape[1]))
        elif isinstance(spec, DenseSpec):
            if len(shape) != 1:
                raise ShapeError(f"{where}: expects flattened input, got {shape}")
            layers.append(DenseLayer(spec, shape[0], rng))
        else:
            raise ShapeError(f"{where}: unknown layer spec")
        shape = layers[-1].out_shape
    if len(shape) != 1 or shape[0] != channels:
        raise ShapeError(
            f"final layer must emit {channels} units, stack emits {shape}"
        )
    last = specs[-1] if specs else None
    if not isinstance(last, DenseSpec) or last.activation != SIGMOID:
        raise ShapeError("final layer must be Dense with sigmoid activation")
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


def _batched_mae(model: CnnModel, inputs: np.ndarray, targets: np.ndarray) -> float:
    total = 0.0
    for lo in range(0, len(inputs), PREDICT_CHUNK):
        chunk = slice(lo, lo + PREDICT_CHUNK)
        pred = model.forward(inputs[chunk], training=False)
        total += float(np.sum(np.abs(pred - targets[chunk])))
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
    stopper = EarlyStopper(config.early_stop_patience)
    history = TrainHistory()
    best_params = model.flat_params.copy()
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
        if stopper.update(val_loss):
            best_params = model.flat_params.copy()
        if stopper.should_stop:
            break

    model.flat_params[...] = best_params
    return history


def predict_series(model: CnnModel, frame: TimeSeriesFrame) -> tuple[np.ndarray, WindowBatch]:
    """One next-step prediction per model-length window of the frame, dropout
    disabled, with the windows they came from.

    predictions[i] forecasts batch.targets[i], the reading at absolute
    timestep batch.target_indices[i].
    """
    batch = make_windows(frame, model.w)
    preds = np.empty((len(batch), model.channels))
    for lo in range(0, len(batch), PREDICT_CHUNK):
        chunk = slice(lo, lo + PREDICT_CHUNK)
        preds[chunk] = model.forward(batch.inputs[chunk], training=False)
    return preds, batch
