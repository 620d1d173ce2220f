"""Single-file .npz artifact bundling the whole fitted pipeline; the only
module that knows its layout.

One JSON metadata blob plus exact float64 arrays: every parameter round
trips bit-exactly, so detection results are reproducible across hosts.
Dataclasses are stored field by field and the forecaster as its flat
parameter vector alone: the settings and the channel schema determine its
architecture, and optimizer state is no part of a fitted pipeline. Loading
checks every entry it reads and raises ValueError naming the first one that
is missing or malformed.
"""

import json
import sys
import tokenize
import zipfile
import zlib
from dataclasses import fields
from typing import get_args, get_origin

import numpy as np

from .dataio import ChannelSchema, MinMaxScaler
from .detectors import KMEANS, OCSVM, THRESHOLD, KmeansModel, OcsvmModel, ThresholdModel
from .forecaster import CnnModel
from .pipeline import FittedPipeline, PipelineSettings, build_forecaster, forecaster_size

FORMAT_VERSION = 6

# Keyed by PipelineSettings.detector, the one record of which detector a
# pipeline runs.
_DETECTOR_CLASSES = {THRESHOLD: ThresholdModel, OCSVM: OcsvmModel, KMEANS: KmeansModel}

# JSON types accepted for each annotated field type.
_JSON_TYPES = {int: (int,), float: (int, float), str: (str,), dict: (dict,)}


def _encode(obj, section: str, arrays: dict) -> dict:
    """JSON-safe fields of a dataclass; its array fields go to `arrays`."""
    meta = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type is np.ndarray:
            arrays[f"{section}.{f.name}"] = value
        else:
            meta[f.name] = list(value) if isinstance(value, tuple) else value
    return meta


def _get(meta: dict, key: str, annotation, where: str):
    """meta[key] as `annotation`: a scalar type, or `tuple[item, ...]`."""
    value = meta.get(key) if isinstance(meta, dict) else None
    if get_origin(annotation) is tuple:
        item = get_args(annotation)[0]
        if type(value) is list and all(type(v) in _JSON_TYPES[item] for v in value):
            return tuple(value)
    elif type(value) in _JSON_TYPES[annotation]:
        # Finite floats only; the comparison is exact for huge JSON integers too.
        if annotation is not float or abs(value) <= sys.float_info.max:
            return annotation(value)
    raise ValueError(f"artifact field {where}.{key} is missing or malformed: {value!r:.60}")


def _array(arrays: dict, key: str, shape: tuple | None = None) -> np.ndarray:
    """arrays[key], which must be finite float64 (and of `shape`, when given).
    numpy hands back a member without the .npy magic as its raw bytes."""
    value = arrays.get(key)
    is_array = isinstance(value, np.ndarray)
    if not is_array or value.dtype != np.float64 or shape not in (None, value.shape):
        want = "float64" if shape is None else f"float64 of shape {shape}"
        found = (f"{value.dtype} of shape {value.shape}" if is_array
                 else "nothing" if value is None else "a member that is not a .npy array")
        raise ValueError(f"artifact array {key} must be {want}, found {found}")
    if not np.all(np.isfinite(value)):
        raise ValueError(f"artifact array {key} holds non-finite values")
    return value


def _decode(cls, meta: dict, section: str, arrays: dict):
    """Rebuild a dataclass written by `_encode`, checking every field."""
    kwargs = {}
    for f in fields(cls):
        if f.type is np.ndarray:
            kwargs[f.name] = _array(arrays, f"{section}.{f.name}")
        else:
            kwargs[f.name] = _get(meta, f.name, f.type, section)
    return cls(**kwargs)


def _decode_model(settings: PipelineSettings, channels: int, arrays: dict) -> CnnModel:
    """The settings' forecaster, holding the stored parameters; a vector whose
    length the settings do not produce is rejected before the model is
    allocated, so a huge gene costs no memory."""
    params = _array(arrays, "model.params", (forecaster_size(settings, channels),))
    model = build_forecaster(settings, channels, seed=0)
    model.flat_params[...] = params
    return model


def save_pipeline(path, fitted: FittedPipeline) -> None:
    kind = fitted.settings.detector
    if type(fitted.detector) is not _DETECTOR_CLASSES[kind]:
        raise ValueError(f"{kind} pipeline holds a {type(fitted.detector).__name__}")
    arrays: dict[str, np.ndarray] = {"model.params": fitted.model.flat_params}
    meta = {
        "format_version": FORMAT_VERSION,
        "settings": _encode(fitted.settings, "settings", arrays),
        "schema": _encode(fitted.schema, "schema", arrays),
        "scaler": _encode(fitted.scaler, "scaler", arrays),
        "train_delta": fitted.train_delta,
        "train_sigma": fitted.train_sigma,
        "detector": _encode(fitted.detector, "detector", arrays),
    }
    with open(path, "wb") as fh:  # An open file keeps numpy from adding ".npz" to the path.
        np.savez(fh, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)


def load_pipeline(path) -> FittedPipeline:
    # zipfile and numpy raise any of these on a broken archive, on a member
    # encrypted or compressed in a way they cannot decode, or on a bad header;
    # numpy tokenizes and parses a .npy header's dict as Python source.
    with open(path, "rb") as fh:
        try:
            with np.load(fh) as data:
                arrays = {k: data[k] for k in data.files}
        except (zipfile.BadZipFile, zlib.error, NotImplementedError, RuntimeError, EOFError,
                OSError, ValueError, SyntaxError, tokenize.TokenError) as exc:
            raise ValueError(f"{path}: not an artifact ({exc})") from None
    if "meta" not in arrays:
        raise ValueError(f"{path}: not an artifact (no metadata)")
    try:
        meta = json.loads(bytes(arrays.pop("meta")))
    except RecursionError as exc:
        raise ValueError(f"{path}: not an artifact ({exc})") from None
    version = meta.get("format_version") if isinstance(meta, dict) else None
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported artifact format version {version}")

    def part(cls, section):
        return _decode(cls, _get(meta, section, dict, "artifact"), section, arrays)

    settings = part(PipelineSettings, "settings")
    schema = part(ChannelSchema, "schema")
    scaler = part(MinMaxScaler, "scaler")
    detector = part(_DETECTOR_CLASSES[settings.detector], "detector")
    channels = schema.channel_count
    if scaler.mins.shape != (channels,):
        raise ValueError(
            f"artifact parts disagree: {channels} channels, {len(scaler.mins)} scaler entries"
        )
    train_delta = _get(meta, "train_delta", float, "artifact")
    if settings.detector == OCSVM and detector.gamma != settings.gamma:
        raise ValueError(f"artifact fields disagree: settings.gamma {settings.gamma!r}, "
                         f"detector.gamma {detector.gamma!r}")
    if settings.detector == THRESHOLD and detector.delta != train_delta:
        raise ValueError(f"artifact fields disagree: train_delta {train_delta!r}, "
                         f"detector.delta {detector.delta!r}")
    model = _decode_model(settings, channels, arrays)
    return FittedPipeline(
        settings=settings,
        schema=schema,
        scaler=scaler,
        model=model,
        detector=detector,
        train_delta=train_delta,
        train_sigma=_get(meta, "train_sigma", float, "artifact"),
        history=None,
    )
