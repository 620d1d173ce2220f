"""Command-line front end: simulate, train, detect, optimize, evaluate, report.

Configuration is INI-style (configparser). Every run is reproducible: all
randomness flows from seeds in the config files, and every float is written
with repr, so identical config plus seeds gives byte-identical outputs.

Exit codes: 0 success, 1 usage error, 2 data or validation error; errors
print a single diagnostic line on stderr. A command that fails leaves none
of its outputs: if one cannot be written, those already written are removed.
"""

import argparse
import contextlib
import ctypes
import os
import sys
from dataclasses import asdict, replace
from types import SimpleNamespace

import numpy as np

from . import dataio, plantsim
from .artifact import load_pipeline, save_pipeline
from .dataio import (
    LABEL_COLUMN,
    TIMESTAMP_COLUMN,
    ChannelSchema,
    DataFormatError,
    FieldError,
    csv_text,
    load_csv,
    read_header,
)
from .detectors import NonConvergence, read_verdicts, verdict_csv
from .errorspace import embed, embedding_csv, error_series_csv, read_error_series
from .forecaster import ShapeError, TrainConfig, TrainHistory
from .gaopt import (
    GaConfig,
    evolution_log_text,
    evolve,
    genome_seed,
    history_csv,
    make_evaluator,
)
from .metrics import report_text, score
from .pipeline import PipelineSettings, detect_frame, fit_pipeline, forecaster_size

PROG = "cps-sentinel"

# glibc serves a request above its mmap threshold with fresh pages, and gives
# the heap's free top above its trim threshold back to the system. Left to
# itself it raises them from 128 KB to the largest mmap'd block freed so far
# (at most 32 MB) and twice that, so the train step's 0.2-0.3 MB temporaries
# came from the heap or from fresh pages (a third slower) by what the process
# happened to free earlier, such as a whole CSV file. Pinned at the ceiling,
# they no longer depend on it.
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 64 << 20


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems via exception, not SystemExit."""

    def error(self, message):
        raise UsageError(message)


def _text(render, value):
    """A write of the text `render(value)`, rendered when it is called and
    before its file is created, so a failed render leaves no file."""
    def write(path):
        text = render(value)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return write


def _write_all(outputs) -> None:
    """Call each of a command's `(path, write)` outputs as `write(path)`, in
    order; if one raises, remove the files already written."""
    written = []
    try:
        for path, write in outputs:
            write(path)
            written.append(path)
    except BaseException:
        for path in written:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


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


# [forecaster] sets these genes and the TrainConfig budget, [detector] the
# rest; [forecaster] `patience` is `early_stop_patience`, [detector] `kind` is `detector`.
_FORECASTER_GENES = (
    "window", "conv1", "conv2", "kernel", "dense1", "dense2", "dropout", "learning_rate"
)
_DETECTOR_GENES = ("beta", "lag", "nu", "gamma", "augment_fraction")
_PATHS = ("train_csv", "validation_csv", "artifact", "history_csv", "evolution_log",
          "ga_history_csv")


def _defaults(instance, names) -> dict:
    return {name: getattr(instance, name) for name in names}


def _run_config(path: str, required_paths) -> SimpleNamespace:
    """Every section `train` and `optimize` read from the config at `path`,
    parsed and checked, so that a bad config fails before any data is read."""
    config = dataio.read_config(path)
    paths = dataio.read_section(config, "paths", dict.fromkeys(_PATHS), dict.fromkeys(_PATHS, str))
    missing = [key for key in required_paths if paths[key] is None]
    if missing:
        raise ValueError(f"config is missing [paths] {missing[0]}")
    named = {}
    for key, value in paths.items():
        if value == "":
            raise ValueError(f"[paths] {key}: path is empty")
        if value is not None:
            first = named.setdefault(os.path.realpath(value), key)
            if first != key:
                raise ValueError(f"[paths] {first}, [paths] {key}: paths must name different files")
    genes, budget = PipelineSettings(), TrainConfig()
    forecaster = dataio.read_section(config, "forecaster", {
        **_defaults(genes, _FORECASTER_GENES),
        **_defaults(budget, ("epochs", "batch_size", "validation_fraction")),
        "patience": budget.early_stop_patience,
    })
    detector_defaults = {"kind": genes.detector, **_defaults(genes, _DETECTOR_GENES)}
    detector = dataio.read_section(config, "detector", detector_defaults)
    ga = dataio.read_section(
        config, "ga", {**asdict(GaConfig()), "threads": None, "budget_epochs": 20}, {"threads": int}
    )
    keys = {key: f"[{name}] {key}" for name, section in
            (("forecaster", forecaster), ("detector", detector), ("ga", ga)) for key in section}
    keys.update(detector="[detector] kind", early_stop_patience="[forecaster] patience")
    threads, ga_epochs = ga.pop("threads"), ga.pop("budget_epochs")
    with dataio.naming_keys(keys):
        settings = replace(genes, detector=detector.pop("kind"), **detector,
                           **{name: forecaster.pop(name) for name in _FORECASTER_GENES})
        budget = TrainConfig(early_stop_patience=forecaster.pop("patience"), **forecaster)
        ga_config = GaConfig(**ga)
        if threads is not None and threads < 0:
            raise FieldError("threads must be non-negative", "threads")
    try:  # With every gene in range, only the window can fail to fit the stack.
        forecaster_size(settings, 1)
    except ShapeError as exc:
        raise ValueError(f"[forecaster] window: {exc}") from None
    # Evolution runs on a reduced epoch budget; the winner retrains in full.
    with dataio.naming_keys({"epochs": "[ga] budget_epochs"}):
        ga_budget = replace(budget, epochs=ga_epochs)
    return SimpleNamespace(
        paths=paths, settings=settings, budget=budget, ga_budget=ga_budget,
        threads=threads, ga=ga_config,
        seed=dataio.read_section(config, "seeds", {"pipeline": 0})["pipeline"],
    )


def _history_text(history: TrainHistory) -> str:
    columns = (range(1, len(history.train_loss) + 1), history.train_loss, history.val_loss)
    return csv_text(("epoch", "train_mae", "val_mae"), columns)


def _cmd_simulate(args):
    plant, attacks, steps = plantsim.read_plant(dataio.read_config(args.config))
    normal = plantsim.simulate_normal(plant, steps["normal_steps"])
    test = plantsim.simulate_normal(replace(plant, seed=steps["test_seed"]), steps["test_steps"])
    test = plantsim.inject_attacks(test, attacks)
    outputs = [(os.path.join(args.out, name), lambda p, frame=frame: dataio.save_csv(frame, p))
               for name, frame in (("normal.csv", normal), ("test.csv", test))]
    return outputs, (f"wrote normal.csv ({len(normal)} rows) and test.csv "
                     f"({len(test)} rows, {len(attacks)} attacks) to {args.out}\n")


def _cmd_train(args):
    run = _run_config(args.config, ("train_csv", "artifact"))
    paths = run.paths
    frame = load_csv(paths["train_csv"], infer_schema(paths["train_csv"]))
    fitted = fit_pipeline(frame, run.settings, run.budget, seed=run.seed)
    outputs = [(paths["artifact"], lambda path: save_pipeline(path, fitted))]
    if paths["history_csv"] is not None:
        outputs.append((paths["history_csv"], _text(_history_text, fitted.history)))
    return outputs, (f"trained {run.settings.detector} pipeline on {len(frame)} rows, "
                     f"stopped after epoch {fitted.history.stopped_epoch}, "
                     f"delta {fitted.train_delta!r}; artifact at {paths['artifact']}\n")


def _cmd_detect(args):
    fitted = load_pipeline(args.model)
    frame = load_csv(args.data, fitted.schema)
    verdicts, errors = detect_frame(fitted, frame)
    outputs = [(os.path.join(args.out, "verdicts.csv"), _text(verdict_csv, verdicts)),
               (os.path.join(args.out, "errors.csv"), _text(error_series_csv, errors))]
    return outputs, (f"scored {len(verdicts)} timesteps, {int(np.sum(verdicts.flags))} "
                     f"flagged; verdicts.csv and errors.csv in {args.out}\n")


def _cmd_evaluate(args):
    verdicts = read_verdicts(args.verdicts)
    schema = infer_schema(args.labels)
    if read_header(args.labels)[-1] != LABEL_COLUMN:
        raise DataFormatError(f"{args.labels}: no {LABEL_COLUMN!r} column to score against")
    frame = load_csv(args.labels, schema)
    try:
        labels = frame.labels_at(verdicts.indices)
    except ValueError as exc:  # a verdict index outside the labels file
        raise DataFormatError(f"{args.labels}: {exc}") from None
    counts, report = score(verdicts, labels)
    return [], report_text(counts, report)


def _cmd_optimize(args):
    run = _run_config(args.config, ("train_csv", "validation_csv", "artifact"))
    train_path, validation_path = run.paths["train_csv"], run.paths["validation_csv"]
    train_frame = load_csv(train_path, infer_schema(train_path))
    validation_frame = load_csv(validation_path, train_frame.schema)  # as detect reads its data

    evaluator = make_evaluator(train_frame, validation_frame, run.ga_budget, seed=run.ga.seed)
    # The config's gene values are the default genome, the first individual.
    result = evolve(run.ga, evaluator, default_genome=run.settings, threads=run.threads)
    evaluator.close()  # the GA's worker processes end before the winner trains

    best = result.best
    fitted = fit_pipeline(train_frame, best.genome, run.budget,
                          seed=genome_seed(run.ga.seed, best.genome))
    outputs = [(run.paths[key], _text(render, result)) for key, render in
               (("evolution_log", evolution_log_text), ("ga_history_csv", history_csv))
               if run.paths[key] is not None]
    outputs.append((run.paths["artifact"], lambda path: save_pipeline(path, fitted)))
    return outputs, (f"best genome {best.genome.key()} fitness {best.fitness!r}; artifact at "
                     f"{run.paths['artifact']}; {len(evaluator.failures)} genomes failed\n")


def _cmd_report(args):
    series = read_error_series(args.errors)
    try:
        embedding = embed(series, args.lag)
    except ValueError as exc:  # a gap or a short series is the file's fault, a negative lag not
        raise DataFormatError(f"{args.errors}: {exc}") if args.lag >= 0 else exc from None
    outputs = [(os.path.join(args.out, "error_series.csv"), _text(error_series_csv, series)),
               (os.path.join(args.out, "embedding.csv"), _text(embedding_csv, embedding))]
    return outputs, (f"error series ({len(series)} points, delta {series.delta!r}) and "
                     f"lag-{args.lag} embedding in {args.out}\n")


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

    p = sub.add_parser("evaluate", help="score a verdict CSV against a labeled data CSV")
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


def _fix_heap_thresholds() -> None:
    """Pin glibc's mmap and trim thresholds; elsewhere, do nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, MMAP_THRESHOLD)  # M_MMAP_THRESHOLD
    mallopt(-1, TRIM_THRESHOLD)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    _fix_heap_thresholds()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return 1
    try:
        outputs, summary = args.func(args)
        if "out" in args:
            os.makedirs(args.out, exist_ok=True)
        _write_all(outputs)
        sys.stdout.write(summary)
        return 0
    # DataFormatError and every "[section] key" error are ValueErrors.
    except (NonConvergence, FloatingPointError, ValueError, OSError, MemoryError) as exc:
        # A MemoryError may carry no message; its name is then the line.
        print(f"{PROG}: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
