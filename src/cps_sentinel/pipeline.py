"""End-to-end glue: scale, train the forecaster, fit a detector, detect, score.

Shared by the command-line front end and the genetic-algorithm fitness
function so both run exactly the same code path.
"""

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .dataio import (
    ChannelSchema,
    FieldError,
    MinMaxScaler,
    TimeSeriesFrame,
    apply_minmax,
    fit_minmax,
    make_windows,
)
from .detectors import (
    DETECTOR_KINDS,
    OCSVM,
    THRESHOLD,
    VerdictSeries,
    align_to_series,
    kmeans_detect,
    kmeans_fit,
    ocsvm_detect,
    ocsvm_fit,
    threshold_detect,
    threshold_fit,
)
from .errorspace import ErrorSeries, compute_errors, embed, augment
from .forecaster import (
    CnnModel,
    ForecasterStack,
    TrainConfig,
    TrainHistory,
    build_model,
    default_stack,
    parameter_count,
    predict_series,
    train,
)
from .metrics import ConfusionCounts, MetricsReport, score
from .rng import derive_seed


@dataclass(frozen=True)
class PipelineSettings:
    """Hyperparameters of one pipeline instance, and the GA's genome.

    Every field but `augment_fraction` is a gene of `gaopt.GENE_DOMAINS`,
    in the same order.
    """

    window: int = 12
    beta: float = 1.5
    lag: int = 1
    conv1: int = 32
    conv2: int = 64
    kernel: int = 3
    dense1: int = 64
    dense2: int = 32
    dropout: float = 0.2
    learning_rate: float = 0.001
    detector: str = THRESHOLD
    nu: float = 0.05
    gamma: float = 1.0
    augment_fraction: float = 0.3

    def __post_init__(self):
        for f in fields(self):
            if f.type is float and not math.isfinite(getattr(self, f.name)):
                raise FieldError(f"{f.name} must be finite, not {getattr(self, f.name)!r}", f.name)
        if self.detector not in DETECTOR_KINDS:
            raise FieldError(f"unknown detector {self.detector!r}", "detector")
        for name in ("window", "conv1", "conv2", "kernel", "dense1", "dense2", "learning_rate",
                     "beta", "gamma", "augment_fraction"):
            if getattr(self, name) <= 0:
                raise FieldError(f"{name} must be positive", name)
        if self.lag < 0:
            raise FieldError("lag must be non-negative", "lag")
        if not 0.0 <= self.dropout < 1.0:
            raise FieldError("dropout must lie in [0, 1)", "dropout")
        if not 0.0 < self.nu <= 1.0:
            raise FieldError("nu must lie in (0, 1]", "nu")

    def key(self) -> str:
        """Canonical `gene=value;...` string of every field but
        `augment_fraction`: the GA's cache key, log form and seed source."""
        parts = []
        for f in fields(self):
            if f.name == "augment_fraction":
                continue
            value = getattr(self, f.name)
            parts.append(f"{f.name}={value!r}" if isinstance(value, float) else f"{f.name}={value}")
        return ";".join(parts)


@dataclass
class FittedPipeline:
    """Everything needed to turn a raw frame into verdicts."""

    settings: PipelineSettings
    schema: ChannelSchema
    scaler: MinMaxScaler
    model: CnnModel
    detector: object
    train_delta: float
    train_sigma: float
    history: TrainHistory | None = None


def _forecaster_stack(settings: PipelineSettings, channels: int) -> ForecasterStack:
    return default_stack(
        channels=channels,
        conv_filters=(settings.conv1, settings.conv2),
        kernel_size=settings.kernel,
        dense_units=(settings.dense1, settings.dense2),
        dropout=settings.dropout,
    )


def build_forecaster(settings: PipelineSettings, channels: int, seed: int) -> CnnModel:
    """The untrained forecaster of `settings` for `channels` channels.

    The settings are the only record of its architecture: training builds
    it here, and loading an artifact builds it here before filling in the
    stored parameters.
    """
    return build_model(settings.window, channels, _forecaster_stack(settings, channels), seed=seed)


def forecaster_size(settings: PipelineSettings, channels: int) -> int:
    """Parameter count of `build_forecaster(settings, channels, ...)`,
    computed without building it."""
    return parameter_count(settings.window, channels, _forecaster_stack(settings, channels))


def fit_pipeline(
    train_frame: TimeSeriesFrame,
    settings: PipelineSettings,
    budget: TrainConfig | None = None,
    seed: int = 0,
) -> FittedPipeline:
    """Train the forecaster on an all-normal frame and fit the detector.

    `budget` controls epochs, batch size, patience and validation split; its
    learning rate and seed are overridden by `settings.learning_rate` and by
    seeds derived from `seed`, so a genome fully determines the result.
    """
    if np.any(train_frame.labels):
        raise ValueError("training frame contains attack-labeled rows")
    if budget is None:
        budget = TrainConfig()
    config = replace(
        budget,
        learning_rate=settings.learning_rate,
        seed=derive_seed(seed, 0x01),
    )

    scaler = fit_minmax(train_frame)
    scaled_train = apply_minmax(scaler, train_frame)
    windows = make_windows(scaled_train, settings.window)
    model = build_forecaster(settings, train_frame.schema.channel_count, derive_seed(seed, 0x02))
    history = train(model, windows, config)

    predictions, batch = predict_series(model, scaled_train)
    train_errors = compute_errors(predictions, batch.targets, batch.target_indices)

    if settings.detector == THRESHOLD:
        detector = threshold_fit(train_errors, settings.beta)
    else:
        embedding = embed(train_errors, settings.lag)
        if settings.detector == OCSVM:
            detector = ocsvm_fit(embedding, settings.nu, settings.gamma)
        else:
            augmented = augment(
                embedding,
                delta=train_errors.delta,
                sigma_train=train_errors.sigma,
                fraction=settings.augment_fraction,
                seed=derive_seed(seed, 0x03),
            )
            detector = kmeans_fit(augmented, seed=derive_seed(seed, 0x04))

    return FittedPipeline(
        settings=settings,
        schema=train_frame.schema,
        scaler=scaler,
        model=model,
        detector=detector,
        train_delta=train_errors.delta,
        train_sigma=train_errors.sigma,
        history=history,
    )


def detect_frame(
    fitted: FittedPipeline, frame: TimeSeriesFrame
) -> tuple[VerdictSeries, ErrorSeries]:
    """Verdicts for every predictable timestep of the frame (from w onward)."""
    scaled = apply_minmax(fitted.scaler, frame)
    predictions, batch = predict_series(fitted.model, scaled)
    errors = compute_errors(predictions, batch.targets, batch.target_indices)

    kind = fitted.settings.detector
    if kind == THRESHOLD:
        return threshold_detect(fitted.detector, errors), errors
    embedding = embed(errors, fitted.settings.lag)
    if kind == OCSVM:
        scored = ocsvm_detect(fitted.detector, embedding)
    else:
        scored = kmeans_detect(fitted.detector, embedding)
    return align_to_series(scored, errors), errors


def evaluate_frame(
    fitted: FittedPipeline, frame: TimeSeriesFrame
) -> tuple[ConfusionCounts, MetricsReport, VerdictSeries, ErrorSeries]:
    """Detect on a labeled frame and score against its labels."""
    verdicts, errors = detect_frame(fitted, frame)
    labels = frame.labels_at(verdicts.indices)
    counts, report = score(verdicts, labels)
    return counts, report, verdicts, errors
