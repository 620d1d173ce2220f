"""Windowed 1-D CNN next-step forecaster built on plain numpy."""

from .layers import SIGMOID, TANH, glorot_uniform
from .model import (
    ADAM_EPS,
    CnnModel,
    ForecasterStack,
    ShapeError,
    TrainConfig,
    TrainHistory,
    adam_step,
    build_model,
    default_stack,
    parameter_count,
    predict_series,
    train,
)

__all__ = [
    "ADAM_EPS",
    "SIGMOID",
    "TANH",
    "ShapeError",
    "glorot_uniform",
    "CnnModel",
    "ForecasterStack",
    "TrainConfig",
    "TrainHistory",
    "adam_step",
    "build_model",
    "default_stack",
    "parameter_count",
    "predict_series",
    "train",
]
