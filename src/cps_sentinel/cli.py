"""Command-line front end: simulate, train, detect, optimize, evaluate, report.

Configuration is INI-style (configparser). Every run is reproducible: all
randomness flows from seeds in the config files, and every float is written
with repr, so identical config plus seeds gives byte-identical outputs.

Exit codes: 0 success, 1 usage error, 2 data or validation error; errors
print a single diagnostic line on stderr.
"""

import argparse
import configparser
import os
import sys
from dataclasses import fields, replace

import numpy as np

from . import dataio, plantsim
from .artifact import load_pipeline, save_pipeline
from .dataio import (
    LABEL_COLUMN,
    TIMESTAMP_COLUMN,
    ChannelSchema,
    DataFormatError,
    csv_text,
    load_csv,
    read_header,
)
from .detectors import VERDICT_HEADER, NonConvergence, read_verdicts, verdict_csv
from .errorspace import embed, embedding_csv, error_series_csv, read_error_series
from .forecaster import TrainConfig, TrainHistory
from .gaopt import (
    GaConfig,
    evolution_log_text,
    evolve,
    genome_seed,
    history_csv,
    make_evaluator,
)
from .metrics import report_text, score
from .pipeline import PipelineSettings, detect_frame, fit_pipeline

PROG = "cps-sentinel"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems via exception, not SystemExit."""

    def error(self, message):
        raise UsageError(message)


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _read_config(path: str) -> configparser.ConfigParser:
    """The INI file at `path`, whose values are taken literally (no `%`
    interpolation); a file that does not parse raises ValueError."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        if not parser.read(path):
            raise FileNotFoundError(f"config file not found: {path}")
    except configparser.Error as exc:
        raise ValueError(f"{path}: {str(exc).splitlines()[0]}") from None
    return parser


def infer_schema(path: str) -> ChannelSchema:
    """Channel names from a CSV header."""
    header = read_header(path)
    if header[0] != TIMESTAMP_COLUMN:
        raise DataFormatError(f"{path}: header must start with {TIMESTAMP_COLUMN!r}")
    names = header[1:-1] if header[-1] == LABEL_COLUMN else header[1:]
    try:
        return ChannelSchema(names=tuple(names))
    except ValueError as exc:
        raise DataFormatError(f"{path}: header: {exc}") from None


def _option(config: configparser.ConfigParser, section: str, key: str, default, cast):
    """`cast` of `[section] key`, or `default` when the config does not set it."""
    if section in config and key in config[section]:
        return cast(config[section][key])
    return default


# INI keys that differ from the name of the field they set.
_INI_KEYS = {"detector": "kind", "early_stop_patience": "patience"}


def _fields_from_config(config: configparser.ConfigParser, section: str, cls, names) -> dict:
    """Fields `names` of dataclass `cls` read from `[section]`.

    Each value is cast to the type of the field's default; an unset key
    keeps the default.
    """
    base = cls()
    values = {}
    for name in names:
        default = getattr(base, name)
        values[name] = _option(config, section, _INI_KEYS.get(name, name), default, type(default))
    return values


def _settings_from_config(config: configparser.ConfigParser) -> PipelineSettings:
    forecaster = (
        "window", "conv1", "conv2", "kernel", "dense1", "dense2", "dropout", "learning_rate"
    )
    detector = ("detector", "beta", "lag", "nu", "gamma", "augment_fraction")
    return PipelineSettings(
        **_fields_from_config(config, "forecaster", PipelineSettings, forecaster),
        **_fields_from_config(config, "detector", PipelineSettings, detector),
    )


def _budget_from_config(config: configparser.ConfigParser) -> TrainConfig:
    names = ("epochs", "batch_size", "early_stop_patience", "validation_fraction")
    return TrainConfig(**_fields_from_config(config, "forecaster", TrainConfig, names))


def _path_from_config(config: configparser.ConfigParser, key: str) -> str:
    path = _option(config, "paths", key, None, str)
    if path is None:
        raise ValueError(f"config is missing [paths] {key}")
    return path


def _history_text(history: TrainHistory) -> str:
    columns = (range(1, len(history.train_loss) + 1), history.train_loss, history.val_loss)
    return csv_text(("epoch", "train_mae", "val_mae"), columns)


def _cmd_simulate(args) -> int:
    config = _read_config(args.config)
    plant, attacks = plantsim.load_plant_config(config)
    normal_steps = _option(config, "simulate", "normal_steps", 5000, int)
    test_steps = _option(config, "simulate", "test_steps", 1000, int)
    test_seed = _option(config, "simulate", "test_seed", plant.seed + 1, int)

    os.makedirs(args.out, exist_ok=True)
    normal = plantsim.simulate_normal(plant, normal_steps)
    dataio.save_csv(normal, os.path.join(args.out, "normal.csv"))
    test = plantsim.simulate_normal(replace(plant, seed=test_seed), test_steps)
    test = plantsim.inject_attacks(test, attacks)
    dataio.save_csv(test, os.path.join(args.out, "test.csv"))
    print(
        f"wrote normal.csv ({normal_steps} rows) and test.csv "
        f"({test_steps} rows, {len(attacks)} attacks) to {args.out}"
    )
    return 0


def _cmd_train(args) -> int:
    config = _read_config(args.config)
    train_path = _path_from_config(config, "train_csv")
    artifact_path = _path_from_config(config, "artifact")
    frame = load_csv(train_path, infer_schema(train_path))
    settings = _settings_from_config(config)
    budget = _budget_from_config(config)
    fitted = fit_pipeline(frame, settings, budget, seed=_option(config, "seeds", "pipeline", 0, int))
    save_pipeline(artifact_path, fitted)
    history_path = _option(config, "paths", "history_csv", None, str)
    if history_path is not None:
        _write_text(history_path, _history_text(fitted.history))
    print(
        f"trained {settings.detector} pipeline on {len(frame)} rows, "
        f"stopped after epoch {fitted.history.stopped_epoch}, "
        f"delta {fitted.train_delta!r}; artifact at {artifact_path}"
    )
    return 0


def _cmd_detect(args) -> int:
    fitted = load_pipeline(args.model)
    frame = load_csv(args.data, fitted.schema)
    verdicts, errors = detect_frame(fitted, frame)
    os.makedirs(args.out, exist_ok=True)
    _write_text(os.path.join(args.out, "verdicts.csv"), verdict_csv(verdicts))
    _write_text(os.path.join(args.out, "errors.csv"), error_series_csv(errors))
    print(
        f"scored {len(verdicts)} timesteps, {int(np.sum(verdicts.flags))} flagged; "
        f"verdicts.csv and errors.csv in {args.out}"
    )
    return 0


def _read_labels(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Ground-truth flags from either a verdict CSV or a labeled data CSV."""
    header = read_header(path)
    if tuple(header) == VERDICT_HEADER:
        verdicts = read_verdicts(path)
        return verdicts.indices, verdicts.flags
    if header[-1] == LABEL_COLUMN:
        frame = load_csv(path, infer_schema(path))
        return frame.timestamps.copy(), frame.labels.copy()
    raise DataFormatError(
        f"{path}: expected a verdict CSV or a data CSV with a {LABEL_COLUMN!r} column"
    )


def _cmd_evaluate(args) -> int:
    verdicts = read_verdicts(args.verdicts)
    label_indices, label_flags = _read_labels(args.labels)
    lookup = {int(ix): bool(fl) for ix, fl in zip(label_indices, label_flags)}
    try:
        truth = np.asarray([lookup[int(ix)] for ix in verdicts.indices], dtype=bool)
    except KeyError as exc:
        raise ValueError(f"labels file has no entry for index {exc.args[0]}") from None
    counts, report = score(verdicts, truth)
    sys.stdout.write(report_text(counts, report))
    return 0


def _cmd_optimize(args) -> int:
    config = _read_config(args.config)
    train_path = _path_from_config(config, "train_csv")
    validation_path = _path_from_config(config, "validation_csv")
    artifact_path = _path_from_config(config, "artifact")
    train_frame = load_csv(train_path, infer_schema(train_path))
    validation_frame = load_csv(validation_path, infer_schema(validation_path))

    ga_names = [f.name for f in fields(GaConfig)]
    ga_config = GaConfig(**_fields_from_config(config, "ga", GaConfig, ga_names))
    threads = _option(config, "ga", "threads", None, int)
    # The config's gene values are the default genome, the first individual.
    settings = _settings_from_config(config)

    full_budget = _budget_from_config(config)
    # Evolution runs on a reduced epoch budget; the winner retrains in full.
    ga_epochs = _option(config, "ga", "budget_epochs", 20, int)
    ga_budget = replace(
        full_budget,
        epochs=ga_epochs,
        early_stop_patience=min(full_budget.early_stop_patience, ga_epochs),
    )
    evaluator = make_evaluator(train_frame, validation_frame, ga_budget, seed=ga_config.seed)
    result = evolve(ga_config, evaluator, default_genome=settings, threads=threads)

    log_path = _option(config, "paths", "evolution_log", None, str)
    if log_path is not None:
        _write_text(log_path, evolution_log_text(result))
    history_path = _option(config, "paths", "ga_history_csv", None, str)
    if history_path is not None:
        _write_text(history_path, history_csv(result))

    best = result.best
    fitted = fit_pipeline(
        train_frame, best.genome, full_budget, seed=genome_seed(ga_config.seed, best.genome)
    )
    save_pipeline(artifact_path, fitted)
    print(f"best genome {best.genome.key()} fitness {best.fitness!r}; artifact at {artifact_path}")
    return 0


def _cmd_report(args) -> int:
    series = read_error_series(args.errors)
    embedding = embed(series, args.lag)
    os.makedirs(args.out, exist_ok=True)
    _write_text(os.path.join(args.out, "error_series.csv"), error_series_csv(series))
    _write_text(os.path.join(args.out, "embedding.csv"), embedding_csv(embedding))
    print(
        f"error series ({len(series)} points, delta {series.delta!r}) and "
        f"lag-{args.lag} embedding in {args.out}"
    )
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog=PROG, description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate plant CSVs from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("train", help="train forecaster + detector, write artifact")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("detect", help="run a fitted artifact over a data CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("evaluate", help="score a verdict CSV against labels")
    p.add_argument("--verdicts", required=True)
    p.add_argument("--labels", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("optimize", help="evolve hyperparameters with the GA")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("report", help="emit plot-ready error/embedding CSVs")
    p.add_argument("--errors", required=True)
    p.add_argument("--lag", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (
        DataFormatError,
        NonConvergence,
        FloatingPointError,
        ValueError,
        OSError,
    ) as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
