"""Span tracer that wraps the program's public functions from outside it.

Only a traced run installs it. `Tracer.install` replaces each public name
listed in `_targets` where its caller looks it up (a module attribute or a
class attribute), and `uninstall` puts the originals back, so an untraced run
executes the program unmodified. Spans live in memory with their parent ids
and are written out once, at the end of the run.
"""

import contextlib
import functools
import gzip
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from workloads import training_windows

# Root spans. Every other span descends from one of them, and per-layer
# values are normalized to one set-up, one repetition and one check.
PHASES = ("phase.setup", "phase.rep", "phase.check")

# Per-layer metrics reported in the result line of a traced run, as
# (name, unit, better). Times are listed only for spans that every workload
# reaches, so none of them reads 0 on any workload; the full table, including
# the workload-specific spans, goes to the trace report.
_SELF_TIMED = (
    "forecaster.Conv1DLayer.forward",
    "forecaster.Conv1DLayer.backward",
    "forecaster.MaxPool1DLayer.forward",
    "forecaster.MaxPool1DLayer.backward",
    "forecaster.DenseLayer.forward",
    "forecaster.DenseLayer.backward",
    "forecaster.adam_step",
    "forecaster.train",
    "forecaster.predict_series",
    "rng.Rng.shuffle",
    "dataio.load_csv",
    "dataio.save_csv",
    "dataio.apply_minmax",
    "dataio.make_windows",
    "plantsim.simulate_normal",
    "plantsim.inject_attacks",
    "errorspace.compute_errors",
    "errorspace.embed",
    "errorspace.error_series_csv",
    "detectors.ocsvm_fit",
    "detectors.ocsvm_detect",
    "detectors.align_to_series",
    "detectors.verdict_csv",
    "metrics.score",
    "artifact.save_pipeline",
    "artifact.load_pipeline",
    "pipeline.fit_pipeline",
    "pipeline.detect_frame",
    "cli.simulate",
    "cli.train",
    "cli.detect",
    "cli.evaluate",
)
PER_LAYER = (
    [(f"{name}.self_s", "s", "lower") for name in _SELF_TIMED]
    + [
        ("forecaster.train.epochs", "count", "lower"),
        ("forecaster.train.windows", "count", "lower"),
        ("forecaster.adam_step.calls", "count", "lower"),
        ("forecaster.predict_series.rows", "rows", "lower"),
        ("dataio.load_csv.rows", "rows", "lower"),
        ("dataio.save_csv.rows", "rows", "lower"),
        ("plantsim.simulate_normal.rows", "rows", "lower"),
        ("detectors.ocsvm_fit.points", "count", "lower"),
        ("detectors.ocsvm_fit.support_vectors", "count", "lower"),
        ("detectors.ocsvm_fit.kernel_mb_computed", "MB", "lower"),
        ("detectors.kmeans_fit.iterations", "count", "lower"),
        ("gaopt.evaluate.calls", "count", "lower"),
        ("gaopt.evolve.distinct", "count", "higher"),
        ("gaopt.evaluate.cache_hit_ratio", "ratio", "higher"),
        ("gaopt.evolve.failures", "count", "lower"),
        ("gaopt.evolve.thread_utilization", "ratio", "higher"),
    ]
)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float = 0.0
    counters: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._next_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # --- recording -------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        """Id of the innermost open span on this thread, or its adopted parent."""
        stack = self._stack()
        return stack[-1].id if stack else getattr(self._local, "adopted", None)

    def begin(self, name: str, **counters) -> Span:
        parent = self.current()
        with self._lock:
            self._next_id += 1
            span = Span(self._next_id, parent, name, threading.get_ident(), 0.0, counters=counters)
            self.spans.append(span)
        self._stack().append(span)
        span.start = time.perf_counter()
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def adopt(self, parent: int | None, queue_wait_s: float) -> None:
        """Make `parent` the parent of the next root span on this worker thread."""
        self._local.adopted = parent
        self._local.queue_wait_s = queue_wait_s

    def take_queue_wait(self) -> float:
        wait = getattr(self._local, "queue_wait_s", 0.0)
        self._local.queue_wait_s = 0.0
        return wait

    def wrap(self, fn, name, counters=None):
        """`fn` inside a span; `counters(args, kwargs, result)` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if counters is not None:
                span.counters.update(counters(args, kwargs, result))
            return result

        return traced

    # --- patching --------------------------------------------------------

    def install(self) -> None:
        for owner, attr, replacement in self._targets():
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _targets(self):
        from cps_sentinel import artifact, cli, dataio, detectors, errorspace, gaopt
        from cps_sentinel import metrics, pipeline, plantsim, rng
        from cps_sentinel.forecaster import layers, model

        def rows_in(args, kwargs, result):
            return {"rows": len(args[0])}

        def rows_out(args, kwargs, result):
            return {"rows": len(result)}

        def predicted(args, kwargs, result):
            return {"rows": len(result[1])}

        def trained(args, kwargs, result):
            _, batch, config = args
            return {
                "epochs": len(result.val_loss),
                "windows": training_windows(len(batch), config.validation_fraction),
            }

        def ocsvm_fitted(args, kwargs, result):
            n = len(args[0])
            return {
                "points": n,
                "support_vectors": len(result.support_vectors),
                "kernel_mb_computed": 8.0 * n * n / 1e6,
            }

        def kmeans_fitted(args, kwargs, result):
            return {"iterations": result.n_iter}

        def span(owner, attr, name, counters=None):
            return owner, attr, self.wrap(getattr(owner, attr), name, counters)

        targets = [
            span(cls, method, f"forecaster.{cls.__name__}.{method}")
            for cls in (layers.Conv1DLayer, layers.MaxPool1DLayer, layers.DenseLayer)
            for method in ("forward", "backward")
        ]
        targets += [
            span(model, "adam_step", "forecaster.adam_step"),
            span(pipeline, "train", "forecaster.train", trained),
            span(pipeline, "predict_series", "forecaster.predict_series", predicted),
            span(rng.Rng, "shuffle", "rng.Rng.shuffle"),
            span(cli, "load_csv", "dataio.load_csv", rows_out),
            span(dataio, "load_csv", "dataio.load_csv", rows_out),
            span(dataio, "save_csv", "dataio.save_csv", rows_in),
            span(pipeline, "apply_minmax", "dataio.apply_minmax"),
            span(pipeline, "make_windows", "dataio.make_windows"),
            span(model, "make_windows", "dataio.make_windows"),
            span(plantsim, "simulate_normal", "plantsim.simulate_normal", rows_out),
            span(plantsim, "inject_attacks", "plantsim.inject_attacks"),
            span(pipeline, "compute_errors", "errorspace.compute_errors"),
            span(pipeline, "embed", "errorspace.embed"),
            span(errorspace, "embed", "errorspace.embed"),
            span(pipeline, "augment", "errorspace.augment"),
            span(errorspace, "augment", "errorspace.augment"),
            span(cli, "error_series_csv", "errorspace.error_series_csv"),
            span(pipeline, "ocsvm_fit", "detectors.ocsvm_fit", ocsvm_fitted),
            span(pipeline, "kmeans_fit", "detectors.kmeans_fit", kmeans_fitted),
            span(detectors, "kmeans_fit", "detectors.kmeans_fit", kmeans_fitted),
            span(pipeline, "threshold_fit", "detectors.threshold_fit"),
            span(detectors, "threshold_fit", "detectors.threshold_fit"),
            span(pipeline, "ocsvm_detect", "detectors.ocsvm_detect"),
            span(pipeline, "kmeans_detect", "detectors.kmeans_detect"),
            span(pipeline, "threshold_detect", "detectors.threshold_detect"),
            span(detectors, "threshold_detect", "detectors.threshold_detect"),
            span(pipeline, "align_to_series", "detectors.align_to_series"),
            span(cli, "verdict_csv", "detectors.verdict_csv"),
            span(cli, "score", "metrics.score"),
            span(pipeline, "score", "metrics.score"),
            span(metrics, "score", "metrics.score"),
            span(cli, "save_pipeline", "artifact.save_pipeline"),
            span(artifact, "save_pipeline", "artifact.save_pipeline"),
            span(cli, "load_pipeline", "artifact.load_pipeline"),
            span(artifact, "load_pipeline", "artifact.load_pipeline"),
            span(cli, "fit_pipeline", "pipeline.fit_pipeline"),
            span(gaopt, "fit_pipeline", "pipeline.fit_pipeline"),
            span(cli, "detect_frame", "pipeline.detect_frame"),
            span(pipeline, "detect_frame", "pipeline.detect_frame"),
            span(gaopt, "evaluate_frame", "pipeline.evaluate_frame"),
            (gaopt, "make_evaluator", self._traced_make_evaluator(gaopt.make_evaluator)),
            (gaopt, "evolve", self._traced_evolve(gaopt.evolve)),
            (gaopt, "ThreadPoolExecutor", self._traced_pool()),
            (cli, "main", self._traced_cli(cli.main)),
        ]
        return targets

    def _traced_cli(self, main):
        @functools.wraps(main)
        def traced(argv=None):
            span = self.begin(f"cli.{argv[0]}")
            try:
                return main(argv)
            finally:
                self.end(span)

        return traced

    def _traced_make_evaluator(self, make_evaluator):
        tracer = self

        @functools.wraps(make_evaluator)
        def traced(*args, **kwargs):
            inner = make_evaluator(*args, **kwargs)

            def evaluator(genome):
                hit = genome.key() in inner.cache
                span = tracer.begin(
                    "gaopt.evaluate", cache_hits=int(hit), queue_wait_s=tracer.take_queue_wait()
                )
                try:
                    return inner(genome)
                finally:
                    tracer.end(span)

            evaluator.cache = inner.cache
            evaluator.failures = inner.failures
            return evaluator

        return traced

    def _traced_evolve(self, evolve):
        @functools.wraps(evolve)
        def traced(config, evaluator, *args, threads=None, **kwargs):
            span = self.begin("gaopt.evolve", threads=threads or 1)
            try:
                return evolve(config, evaluator, *args, threads=threads, **kwargs)
            finally:
                self.end(span)
                # Only an evaluator from make_evaluator keeps a cache.
                if hasattr(evaluator, "cache"):
                    span.counters["distinct"] = len(evaluator.cache)
                    span.counters["failures"] = len(evaluator.failures)

        return traced

    def _traced_pool(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            """Hands each task its submitter as parent and its queue wait."""

            def map(self, fn, *iterables, **kwargs):
                parent, submitted = tracer.current(), time.perf_counter()

                def entry(*args):
                    tracer.adopt(parent, time.perf_counter() - submitted)
                    return fn(*args)

                return super().map(entry, *iterables, **kwargs)

        return TracedPool

    # --- reporting -------------------------------------------------------

    def summary(self, phases=PHASES) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy_s, self_s and counters, per phase unit.

        Only spans under the given phases count. Each phase's totals are
        divided by how many times that phase ran, and the phases are added, so
        with all phases a value is the cost of one set-up plus one repetition
        plus one check, whatever the number of repetitions.
        """
        by_id = {s.id: s for s in self.spans}
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        phase_runs = {p: sum(1 for s in self.spans if s.name == p) for p in PHASES}

        def phase_of(span: Span) -> str | None:
            while span.parent is not None:
                span = by_id[span.parent]
            return span.name if span.name in PHASES else None

        table: dict[str, dict[str, float]] = {}
        for s in self.spans:
            phase = phase_of(s)
            if phase not in phases or s.name in PHASES:
                continue
            share = 1.0 / phase_runs[phase]
            row = table.setdefault(s.name, {"calls": 0.0, "busy_s": 0.0, "self_s": 0.0})
            busy = s.end - s.start
            row["calls"] += share
            row["busy_s"] += share * busy
            row["self_s"] += share * (busy - _covered(s, children.get(s.id, ())))
            for key, value in s.counters.items():
                row[key] = row.get(key, 0.0) + share * value
        _derive_gaopt(table)
        return table

    def per_layer(self, table: dict[str, dict[str, float]]) -> dict[str, dict]:
        metrics = {}
        for name, unit, _ in PER_LAYER:
            span, stat = name.rsplit(".", 1)
            metrics[name] = {"value": float(table.get(span, {}).get(stat, 0.0)), "unit": unit}
        return metrics

    def write(self, path, extra: dict) -> None:
        names = sorted({s.name for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        record = dict(extra)
        record["span_names"] = names
        record["span_fields"] = ["id", "parent", "name", "thread", "start", "end", "counters"]
        record["spans"] = [
            [s.id, s.parent, index[s.name], s.thread, s.start, s.end, s.counters]
            for s in self.spans
        ]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(record, fh)


def _covered(span: Span, kids) -> float:
    """Length of the part of `span` that its children's intervals cover."""
    intervals = sorted((max(k.start, span.start), min(k.end, span.end)) for k in kids)
    covered, reach = 0.0, span.start
    for lo, hi in intervals:
        lo = max(lo, reach)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def _derive_gaopt(table) -> None:
    evaluate = table.get("gaopt.evaluate")
    evolve = table.get("gaopt.evolve")
    if evaluate:
        evaluate["cache_hit_ratio"] = evaluate["cache_hits"] / evaluate["calls"]
    if evaluate and evolve:
        evolve["thread_utilization"] = evaluate["busy_s"] / (
            evolve["busy_s"] * evolve["threads"] / evolve["calls"]
        )
