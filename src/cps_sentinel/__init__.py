"""Anomaly detection for cyber-physical sensor/actuator time series.

A windowed 1-D CNN forecasts the next reading of every channel; the
per-timestep prediction error feeds one of three detectors (fixed threshold,
weighted one-class SVM, two-cluster k-means over a lagged-error embedding),
and a genetic algorithm tunes the whole pipeline for F1. A deterministic
water-plant simulator generates labeled benchmark data.
"""

import logging

from . import (
    artifact,
    dataio,
    detectors,
    errorspace,
    forecaster,
    gaopt,
    metrics,
    pipeline,
    plantsim,
    rng,
)

__version__ = "0.1.0"

# Records reach stderr only through handlers the application configures.
logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "artifact",
    "dataio",
    "detectors",
    "errorspace",
    "forecaster",
    "gaopt",
    "metrics",
    "pipeline",
    "plantsim",
    "rng",
    "__version__",
]
