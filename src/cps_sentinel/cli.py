"""Command-line front end: simulate, train, detect, optimize, evaluate, report.

Configuration is INI-style (configparser). Every run is reproducible: all
randomness flows from seeds in the config files, and every float is written
with repr, so identical config plus seeds gives byte-identical outputs.

Exit codes: 0 success, 1 usage error, 2 data or validation error; errors
print a single diagnostic line on stderr.
"""

import argparse
import configparser
import csv
import io
import os
import sys
from dataclasses import replace

import numpy as np

from . import dataio, plantsim
from .artifact import load_pipeline, save_pipeline
from .dataio import (
    LABEL_COLUMN,
    SENSOR,
    TIMESTAMP_COLUMN,
    ChannelSchema,
    DataFormatError,
    load_csv,
)
from .detectors import NonConvergence, VerdictSeries, verdict_csv
from .errorspace import ErrorSeries, embed, embedding_csv, error_series_csv
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
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise FileNotFoundError(f"config file not found: {path}")
    return parser


def infer_schema(path: str) -> ChannelSchema:
    """Channel names from a CSV header; kinds default to sensor.

    Kinds only matter when generating data, never when consuming it, so the
    all-sensor default is safe for training and detection.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = next(csv.reader(fh), None)
    if not header or header[0] != TIMESTAMP_COLUMN or len(header) < 2:
        raise DataFormatError(f"{path}: header must start with {TIMESTAMP_COLUMN!r}")
    names = header[1:]
    if names and names[-1] == LABEL_COLUMN:
        names = names[:-1]
    if not names:
        raise DataFormatError(f"{path}: no channel columns in header")
    return ChannelSchema(names=tuple(names), kinds=(SENSOR,) * len(names))


def _option(config: configparser.ConfigParser, section: str, key: str, default, cast):
    """`cast` of `[section] key`, or `default` when the config does not set it."""
    if section in config and key in config[section]:
        return cast(config[section][key])
    return default


def _settings_from_config(config: configparser.ConfigParser) -> PipelineSettings:
    base = PipelineSettings()
    return PipelineSettings(
        window=_option(config, "forecaster", "window", base.window, int),
        conv_filters=(
            _option(config, "forecaster", "conv1", base.conv_filters[0], int),
            _option(config, "forecaster", "conv2", base.conv_filters[1], int),
        ),
        kernel_size=_option(config, "forecaster", "kernel", base.kernel_size, int),
        dense_units=(
            _option(config, "forecaster", "dense1", base.dense_units[0], int),
            _option(config, "forecaster", "dense2", base.dense_units[1], int),
        ),
        dropout=_option(config, "forecaster", "dropout", base.dropout, float),
        learning_rate=_option(config, "forecaster", "learning_rate", base.learning_rate, float),
        detector=_option(config, "detector", "kind", base.detector, str),
        beta=_option(config, "detector", "beta", base.beta, float),
        lag=_option(config, "detector", "lag", base.lag, int),
        nu=_option(config, "detector", "nu", base.nu, float),
        gamma=_option(config, "detector", "gamma", base.gamma, float),
        augment_fraction=_option(
            config, "detector", "augment_fraction", base.augment_fraction, float
        ),
    )


def _budget_from_config(config: configparser.ConfigParser) -> TrainConfig:
    base = TrainConfig()
    return TrainConfig(
        epochs=_option(config, "forecaster", "epochs", base.epochs, int),
        batch_size=_option(config, "forecaster", "batch_size", base.batch_size, int),
        early_stop_patience=_option(
            config, "forecaster", "patience", base.early_stop_patience, int
        ),
        validation_fraction=_option(
            config, "forecaster", "validation_fraction", base.validation_fraction, float
        ),
    )


def _path_from_config(config: configparser.ConfigParser, key: str) -> str:
    path = _option(config, "paths", key, None, str)
    if path is None:
        raise ValueError(f"config is missing [paths] {key}")
    return path


def _history_text(history: TrainHistory) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["epoch", "train_mae", "val_mae"])
    for epoch, (tr, va) in enumerate(zip(history.train_loss, history.val_loss), start=1):
        writer.writerow([epoch, repr(tr), repr(va)])
    return buf.getvalue()


def _cmd_simulate(args) -> int:
    config = _read_config(args.config)
    plant, attacks = plantsim.load_plant_config(args.config)
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


def _read_verdict_file(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["index", "flag", "score"]:
            raise DataFormatError(f"{path}: not a verdict file (header {header!r})")
        indices, flags, scores = [], [], []
        for row_no, row in enumerate(reader, start=1):
            if len(row) != 3:
                raise DataFormatError(f"{path}: malformed verdict row {row_no}")
            indices.append(int(row[0]))
            flags.append(row[1] == "1")
            scores.append(float(row[2]))
    return (
        np.asarray(indices, dtype=np.int64),
        np.asarray(flags, dtype=bool),
        np.asarray(scores, dtype=np.float64),
    )


def _read_labels(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Ground-truth flags from either a verdict CSV or a labeled data CSV."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = next(csv.reader(fh), None)
    if header == ["index", "flag", "score"]:
        indices, flags, _ = _read_verdict_file(path)
        return indices, flags
    if header and header[-1] == LABEL_COLUMN:
        frame = load_csv(path, infer_schema(path))
        return frame.timestamps.copy(), frame.labels.copy()
    raise DataFormatError(
        f"{path}: expected a verdict CSV or a data CSV with a {LABEL_COLUMN!r} column"
    )


def _cmd_evaluate(args) -> int:
    indices, flags, scores = _read_verdict_file(args.verdicts)
    label_indices, label_flags = _read_labels(args.labels)
    lookup = {int(ix): bool(fl) for ix, fl in zip(label_indices, label_flags)}
    try:
        truth = np.asarray([lookup[int(ix)] for ix in indices], dtype=bool)
    except KeyError as exc:
        raise ValueError(f"labels file has no entry for index {exc.args[0]}") from None
    verdicts = VerdictSeries(indices=indices, flags=flags, scores=scores)
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

    ga_config = GaConfig(
        population_size=_option(config, "ga", "population_size", 20, int),
        generations=_option(config, "ga", "generations", 47, int),
        tournament_size=_option(config, "ga", "tournament_size", 3, int),
        crossover_rate=_option(config, "ga", "crossover_rate", 0.9, float),
        mutation_rate=_option(config, "ga", "mutation_rate", 0.1, float),
        elitism_count=_option(config, "ga", "elitism_count", 1, int),
        seed=_option(config, "ga", "seed", 0, int),
    )
    threads = _option(config, "ga", "threads", None, int)

    full_budget = _budget_from_config(config)
    # Evolution runs on a reduced epoch budget; the winner retrains in full.
    ga_epochs = _option(config, "ga", "budget_epochs", 20, int)
    ga_budget = replace(
        full_budget,
        epochs=ga_epochs,
        early_stop_patience=min(full_budget.early_stop_patience, ga_epochs),
    )
    evaluator = make_evaluator(train_frame, validation_frame, ga_budget, seed=ga_config.seed)
    result = evolve(ga_config, evaluator, threads=threads)

    log_path = _option(config, "paths", "evolution_log", None, str)
    if log_path is not None:
        _write_text(log_path, evolution_log_text(result))
    history_path = _option(config, "paths", "ga_history_csv", None, str)
    if history_path is not None:
        _write_text(history_path, history_csv(result))

    best = result.best
    fitted = fit_pipeline(
        train_frame,
        best.genome.as_settings(),
        full_budget,
        seed=genome_seed(ga_config.seed, best.genome),
    )
    save_pipeline(artifact_path, fitted)
    print(f"best genome {best.genome.key()} fitness {best.fitness!r}; artifact at {artifact_path}")
    return 0


def _read_error_series(path: str) -> ErrorSeries:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["index", "error"]:
            raise DataFormatError(f"{path}: not an error-series file (header {header!r})")
        indices, errors = [], []
        for row_no, row in enumerate(reader, start=1):
            if len(row) != 2:
                raise DataFormatError(f"{path}: malformed error row {row_no}")
            indices.append(int(row[0]))
            errors.append(float(row[1]))
    if not errors:
        raise DataFormatError(f"{path}: no error rows")
    arr = np.asarray(errors, dtype=np.float64)
    return ErrorSeries(
        errors=arr,
        target_indices=np.asarray(indices, dtype=np.int64),
        delta=float(np.max(arr)),
        sigma=float(np.std(arr)),
    )


def _cmd_report(args) -> int:
    series = _read_error_series(args.errors)
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
