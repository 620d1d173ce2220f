"""End-to-end glue: scale, train the forecaster, fit a detector, detect, score.

Shared by the command-line front end and the genetic-algorithm fitness
function so both run exactly the same code path.
"""

from dataclasses import dataclass, replace

import numpy as np

from .dataio import (
    ChannelSchema,
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
from .forecaster import CnnModel, TrainConfig, TrainHistory, build_model, default_stack, predict_series, train
from .metrics import ConfusionCounts, MetricsReport, score
from .rng import derive_seed


@dataclass(frozen=True)
class PipelineSettings:
    """Hyperparameters of one pipeline instance (the genome's phenotype)."""

    window: int = 12
    conv_filters: tuple[int, int] = (32, 64)
    kernel_size: int = 3
    dense_units: tuple[int, int] = (64, 32)
    dropout: float = 0.2
    learning_rate: float = 0.001
    detector: str = THRESHOLD
    beta: float = 1.5
    lag: int = 1
    nu: float = 0.05
    gamma: float = 1.0
    augment_fraction: float = 0.3

    def __post_init__(self):
        if self.detector not in DETECTOR_KINDS:
            raise ValueError(f"unknown detector {self.detector!r}")
        if self.window < 1:
            raise ValueError("window must be positive")
        if self.lag < 0:
            raise ValueError("lag must be non-negative")


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
    specs = default_stack(
        channels=train_frame.schema.channel_count,
        conv_filters=settings.conv_filters,
        kernel_size=settings.kernel_size,
        dense_units=settings.dense_units,
        dropout=settings.dropout,
    )
    model = build_model(
        settings.window,
        train_frame.schema.channel_count,
        specs,
        seed=derive_seed(seed, 0x02),
    )
    history = train(model, windows, config)

    predictions, target_indices = predict_series(model, scaled_train)
    train_errors = compute_errors(predictions, windows.targets, target_indices)

    if settings.detector == THRESHOLD:
        detector = threshold_fit(train_errors, settings.beta)
    elif settings.detector == OCSVM:
        embedding = embed(train_errors, settings.lag)
        detector = ocsvm_fit(embedding, settings.nu, settings.gamma)
    else:
        embedding = embed(train_errors, settings.lag)
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
    predictions, target_indices = predict_series(fitted.model, scaled)
    targets = scaled.values[fitted.settings.window :]
    errors = compute_errors(predictions, targets, target_indices)

    kind = fitted.settings.detector
    if kind == THRESHOLD:
        verdicts = threshold_detect(fitted.detector, errors)
    elif kind == OCSVM:
        embedding = embed(errors, fitted.settings.lag)
        verdicts = align_to_series(ocsvm_detect(fitted.detector, embedding), errors)
    else:
        embedding = embed(errors, fitted.settings.lag)
        verdicts = align_to_series(kmeans_detect(fitted.detector, embedding), errors)
    return verdicts, errors


def evaluate_frame(
    fitted: FittedPipeline, frame: TimeSeriesFrame
) -> tuple[ConfusionCounts, MetricsReport, VerdictSeries, ErrorSeries]:
    """Detect on a labeled frame and score against its labels."""
    verdicts, errors = detect_frame(fitted, frame)
    labels = frame.labels_at(verdicts.indices)
    counts, report = score(verdicts, labels)
    return counts, report, verdicts, errors
