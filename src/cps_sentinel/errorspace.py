"""Prediction-error series, 2-D lagged embedding, and Gaussian augmentation."""

import math
from dataclasses import dataclass

import numpy as np

from .dataio import FLOAT64, INT64, DataFormatError, _freeze, csv_text, read_csv, reject_rows
from .rng import Rng, derive_seed

ERROR_SERIES_HEADER = ("index", "error")


@dataclass(frozen=True)
class ErrorSeries:
    """Per-timestep scalar prediction error with its train-set statistics.

    delta is the maximum error (the threshold base) and sigma the population
    standard deviation (divisor N).
    """

    errors: np.ndarray
    target_indices: np.ndarray
    delta: float
    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "errors", _freeze(np.asarray(self.errors, dtype=np.float64)))
        object.__setattr__(
            self, "target_indices", _freeze(np.asarray(self.target_indices, dtype=np.int64))
        )
        if self.errors.ndim != 1 or self.errors.shape != self.target_indices.shape:
            raise ValueError("errors and target_indices must be equal-length 1-D arrays")
        if len(self.errors) == 0:
            raise ValueError("empty error series")
        if not (math.isfinite(self.delta) and math.isfinite(self.sigma)):
            raise ValueError(
                f"error statistics are not finite: delta {self.delta!r}, sigma {self.sigma!r}"
            )

    def __len__(self) -> int:
        return len(self.errors)


@dataclass(frozen=True)
class ErrorEmbedding:
    """2-D points (e_t, e_{t-lag}); point_indices give the timestep of e_t.

    Synthetic (augmentation) points carry point index -1 and a true flag.
    """

    points: np.ndarray
    point_indices: np.ndarray
    lag: int
    weights: np.ndarray
    synthetic_flags: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", _freeze(np.asarray(self.points, dtype=np.float64)))
        object.__setattr__(
            self, "point_indices", _freeze(np.asarray(self.point_indices, dtype=np.int64))
        )
        object.__setattr__(self, "weights", _freeze(np.asarray(self.weights, dtype=np.float64)))
        object.__setattr__(
            self, "synthetic_flags", _freeze(np.asarray(self.synthetic_flags, dtype=bool))
        )
        n = len(self.points)
        if self.points.ndim != 2 or self.points.shape[1] != 2:
            raise ValueError("points must be an (N, 2) array")
        if len(self.point_indices) != n or len(self.weights) != n or len(self.synthetic_flags) != n:
            raise ValueError("per-point arrays must share one length")
        if self.lag < 0:
            raise ValueError("lag must be non-negative")
        if np.any(self.weights < 0):
            raise ValueError("weights must be non-negative")

    def __len__(self) -> int:
        return len(self.points)


def compute_errors(
    predictions: np.ndarray, targets: np.ndarray, target_indices: np.ndarray
) -> ErrorSeries:
    """Channel-mean absolute error per timestep, with max and population std."""
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    idx = np.asarray(target_indices, dtype=np.int64)
    if p.shape != t.shape or p.ndim != 2:
        raise ValueError(f"predictions {p.shape} and targets {t.shape} must match as (N, C)")
    if len(idx) != len(p):
        raise ValueError("target_indices length mismatch")
    return _with_stats(np.mean(np.abs(p - t), axis=1), idx)


def _with_stats(errors: np.ndarray, target_indices: np.ndarray) -> ErrorSeries:
    """The series, with its max as delta and its population std as sigma.

    Errors near the float64 limit overflow the std to inf, which ErrorSeries
    rejects; numpy's overflow warning is silenced, as that error says it all.
    """
    with np.errstate(over="ignore"):
        sigma = float(np.std(errors))
    return ErrorSeries(
        errors=errors,
        target_indices=target_indices,
        delta=float(np.max(errors)),
        sigma=sigma,
    )


def embed(series: ErrorSeries, lag: int = 1) -> ErrorEmbedding:
    """Pair each error with its lagged value: point i = (e[i+lag], e[i]).

    lag 0 is the degenerate all-diagonal embedding (raw errors twice), kept
    so detectors can run directly on the 1-D error series.
    """
    if lag < 0:
        raise ValueError("lag must be non-negative")
    if len(series) <= lag:
        raise ValueError(f"series of length {len(series)} too short for lag {lag}")
    e = series.errors
    n = len(e) - lag
    points = np.column_stack([e[lag:], e[:n]])
    return ErrorEmbedding(
        points=points,
        point_indices=series.target_indices[lag:],
        lag=lag,
        weights=np.ones(n),
        synthetic_flags=np.zeros(n, dtype=bool),
    )


def augment(
    embedding: ErrorEmbedding,
    delta: float,
    sigma_train: float,
    fraction: float = 0.3,
    seed: int = 0,
) -> ErrorEmbedding:
    """Append attack-like points from N((2δ, 2δ), diag(σ_train, σ_train)).

    The count is fraction x original size, rounded half up. σ_train sits on
    the covariance diagonal, so each axis gets standard deviation √σ_train.
    Negative draws clamp to 0 because real errors cannot be negative.
    """
    if fraction <= 0:
        raise ValueError("fraction must be positive")
    if sigma_train < 0:
        raise ValueError("sigma_train must be non-negative")
    n = len(embedding)
    count = int(math.floor(fraction * n + 0.5))
    rng = Rng(derive_seed(seed, 0xA6))
    z = rng.gauss_array(2 * count).reshape(count, 2)
    samples = 2.0 * delta + math.sqrt(sigma_train) * z
    np.maximum(samples, 0.0, out=samples)
    return ErrorEmbedding(
        points=np.concatenate([embedding.points, samples]),
        point_indices=np.concatenate(
            [embedding.point_indices, np.full(count, -1, dtype=np.int64)]
        ),
        lag=embedding.lag,
        weights=np.concatenate([embedding.weights, np.ones(count)]),
        synthetic_flags=np.concatenate(
            [embedding.synthetic_flags, np.ones(count, dtype=bool)]
        ),
    )


def error_series_csv(series: ErrorSeries) -> str:
    """`index,error` rows; floats use repr for shortest exact round-trip."""
    return csv_text(ERROR_SERIES_HEADER, (series.target_indices, series.errors))


def read_error_series(path) -> ErrorSeries:
    """The error series of an `index,error` CSV, with its max and population std."""
    layouts = {ERROR_SERIES_HEADER: (INT64, FLOAT64)}
    indices, errors = read_csv(path, "an error-series file", layouts)
    reject_rows(path, ~np.isfinite(errors), errors, "non-finite error")
    if len(errors) == 0:
        raise DataFormatError(f"{path}: no error rows")
    try:
        return _with_stats(errors, indices)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def embedding_csv(embedding: ErrorEmbedding) -> str:
    """`index,e_t,e_lag,weight,synthetic` rows (synthetic as 0/1)."""
    synthetic = embedding.synthetic_flags.astype(np.int64)
    columns = (embedding.point_indices, *embedding.points.T, embedding.weights, synthetic)
    return csv_text(("index", "e_t", "e_lag", "weight", "synthetic"), columns)
