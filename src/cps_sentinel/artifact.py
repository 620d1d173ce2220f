"""Single-file .npz artifact bundling the whole fitted pipeline; the only
module that knows its layout.

One JSON metadata blob plus exact float64 arrays: every parameter round
trips bit-exactly, so detection results are reproducible across hosts.
Dataclasses are stored field by field, the forecaster as three flat vectors
(parameters, Adam's two moments) and its step count; its architecture is not
stored, as the settings and the channel schema determine it. Loading checks
every entry it reads and raises ValueError naming the first one that is
missing or malformed.
"""

import json
import sys
import zipfile
import zlib
from dataclasses import MISSING, fields
from typing import get_args, get_origin

import numpy as np

from .dataio import ChannelSchema, MinMaxScaler
from .detectors import KMEANS, OCSVM, THRESHOLD, KmeansModel, OcsvmModel, ThresholdModel
from .forecaster import CnnModel
from .pipeline import FittedPipeline, PipelineSettings, build_forecaster

FORMAT_VERSION = 5

# Keyed by PipelineSettings.detector, the one record of which detector a
# pipeline runs.
_DETECTOR_CLASSES = {THRESHOLD: ThresholdModel, OCSVM: OcsvmModel, KMEANS: KmeansModel}
_MODEL_VECTORS = ("params", "adam_m", "adam_v")

# JSON types accepted for each annotated field type.
_JSON_TYPES = {int: (int,), float: (int, float), str: (str,), list: (list,), dict: (dict,)}


def _is_array(annotation) -> bool:
    return np.ndarray in (annotation, *get_args(annotation))


def _encode(obj, section: str, arrays: dict) -> dict:
    """JSON-safe fields of a dataclass; its array fields go to `arrays`."""
    meta = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if _is_array(f.type):
            if value is not None:
                arrays[f"{section}.{f.name}"] = value
        else:
            meta[f.name] = list(value) if isinstance(value, tuple) else value
    return meta


def _get(meta: dict, key: str, annotation, where: str):
    """meta[key] as `annotation` (a scalar type or a tuple of one)."""
    value = meta.get(key) if isinstance(meta, dict) else None
    if get_origin(annotation) is tuple:
        item, *rest = get_args(annotation)
        ok = type(value) is list and (rest == [Ellipsis] or len(value) == 1 + len(rest))
        if ok and all(type(v) in _JSON_TYPES[item] for v in value):
            return tuple(value)
    elif type(value) in _JSON_TYPES[annotation]:
        # Finite floats only; the comparison is exact for huge JSON integers too.
        if annotation is not float or abs(value) <= sys.float_info.max:
            return annotation(value)
    raise ValueError(f"artifact field {where}.{key} is missing or malformed: {value!r:.60}")


def _array(arrays: dict, key: str, shape: tuple | None = None) -> np.ndarray:
    """arrays[key], which must be finite float64 (and of `shape`, when given)."""
    value = arrays.get(key)
    if value is None or value.dtype != np.float64 or shape not in (None, value.shape):
        want = "float64" if shape is None else f"float64 of shape {shape}"
        found = "nothing" if value is None else f"{value.dtype} of shape {value.shape}"
        raise ValueError(f"artifact array {key} must be {want}, found {found}")
    if not np.all(np.isfinite(value)):
        raise ValueError(f"artifact array {key} holds non-finite values")
    return value


def _decode(cls, meta: dict, section: str, arrays: dict):
    """Rebuild a dataclass written by `_encode`, checking every field."""
    kwargs = {}
    for f in fields(cls):
        key = f"{section}.{f.name}"
        if not _is_array(f.type):
            kwargs[f.name] = _get(meta, f.name, f.type, section)
        elif key in arrays or f.default is MISSING:
            kwargs[f.name] = _array(arrays, key)
    return cls(**kwargs)


def _encode_model(model: CnnModel, arrays: dict) -> dict:
    for name in _MODEL_VECTORS:
        arrays[f"model.{name}"] = getattr(model, f"flat_{name}")
    return {"adam_t": model.adam_t}


def _decode_model(settings: PipelineSettings, channels: int, meta: dict, arrays: dict) -> CnnModel:
    """The settings' forecaster, holding the stored vectors; a vector whose
    shape the settings do not produce is rejected."""
    model = build_forecaster(settings, channels, seed=0)
    for name in _MODEL_VECTORS:
        flat = getattr(model, f"flat_{name}")
        flat[...] = _array(arrays, f"model.{name}", flat.shape)
    model.adam_t = _get(meta, "adam_t", int, "model")
    return model


def save_pipeline(path, fitted: FittedPipeline) -> None:
    kind = fitted.settings.detector
    if type(fitted.detector) is not _DETECTOR_CLASSES[kind]:
        raise ValueError(f"{kind} pipeline holds a {type(fitted.detector).__name__}")
    arrays: dict[str, np.ndarray] = {}
    meta = {
        "format_version": FORMAT_VERSION,
        "settings": _encode(fitted.settings, "settings", arrays),
        "schema": _encode(fitted.schema, "schema", arrays),
        "scaler": _encode(fitted.scaler, "scaler", arrays),
        "train_delta": fitted.train_delta,
        "train_sigma": fitted.train_sigma,
        "model": _encode_model(fitted.model, arrays),
        "detector": _encode(fitted.detector, "detector", arrays),
    }
    np.savez(path, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)


def load_pipeline(path) -> FittedPipeline:
    # zipfile and numpy raise any of these on a broken archive, on a member
    # encrypted or compressed in a way they cannot decode, or on a bad header.
    with open(path, "rb") as fh:
        try:
            with np.load(fh) as data:
                arrays = {k: data[k] for k in data.files}
        except (zipfile.BadZipFile, zlib.error, NotImplementedError, RuntimeError, EOFError,
                OSError, ValueError) as exc:
            raise ValueError(f"{path}: not an artifact ({exc})") from None
    if "meta" not in arrays:
        raise ValueError(f"{path}: not an artifact (no metadata)")
    meta = json.loads(bytes(arrays.pop("meta")))
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
    model = _decode_model(settings, channels, _get(meta, "model", dict, "artifact"), arrays)
    return FittedPipeline(
        settings=settings,
        schema=schema,
        scaler=scaler,
        model=model,
        detector=detector,
        train_delta=_get(meta, "train_delta", float, "artifact"),
        train_sigma=_get(meta, "train_sigma", float, "artifact"),
        history=None,
    )
