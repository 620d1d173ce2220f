"""Windowed 1-D CNN next-step forecaster built on plain numpy."""

from .layers import (
    RELU,
    SIGMOID,
    TANH,
    Conv1DSpec,
    DenseSpec,
    FlattenSpec,
    MaxPool1DSpec,
    ShapeError,
    glorot_uniform,
)
from .model import (
    ADAM_EPS,
    CnnModel,
    EarlyStopper,
    TrainConfig,
    TrainHistory,
    adam_step,
    build_model,
    default_stack,
    predict_series,
    train,
)

__all__ = [
    "ADAM_EPS",
    "RELU",
    "SIGMOID",
    "TANH",
    "Conv1DSpec",
    "DenseSpec",
    "FlattenSpec",
    "MaxPool1DSpec",
    "ShapeError",
    "glorot_uniform",
    "CnnModel",
    "EarlyStopper",
    "TrainConfig",
    "TrainHistory",
    "adam_step",
    "build_model",
    "default_stack",
    "predict_series",
    "train",
]
