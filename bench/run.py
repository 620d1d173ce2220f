"""Benchmark of cps-sentinel: one workload per run, result as the last line.

    python3 bench/run.py --workload train|detect|optimize --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
`src/` in-process. A run sets its inputs up `Sizes.setups` times, then
repeats the workload for about `--seconds` seconds (at least
`Sizes.min_reps` times) and checks every repetition's outputs. The last line
of stdout is one JSON object with the keys `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics
with `--trace 1`. Lines before it give the workload's row of named metrics,
the recorded environment and, when traced, the per-layer table.

`--workload all` runs each workload in its own process and prints one row per
workload. Files go to `.bench_out/` in the checkout.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
THREADS_ENV = "CPS_SENTINEL_THREADS"
WORKLOAD_NAMES = ("train", "detect", "optimize")
END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "f1": "ratio",
}
ROW_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "train_samples_per_s": "windows/s",
    "epochs": "count",
    "simulate_rows_per_s": "rows/s",
    "detect_rows_per_s": "rows/s",
    "optimize_genomes_per_s": "genomes/s",
    "genomes": "count",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
}


def pin_environment() -> None:
    """One BLAS thread, and GA threads only from the explicit argument."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop(THREADS_ENV, None)


def environment(import_s: float) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.25 only prints its build configuration
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {var: os.environ.get(var) for var in (*BLAS_THREAD_VARS, THREADS_ENV)},
        "machine": platform.machine(),
        "import_s": import_s,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextlib.contextmanager
def _paused(run):
    """Runs the body with tracing fully removed."""
    tracer, run.tracer = run.tracer, None
    tracer.uninstall()
    try:
        yield
    finally:
        tracer.install()
        run.tracer = tracer


def run_workload(name: str, sizes, seed: int, seconds: float, traced: bool,
                 workdir: Path) -> dict:
    """Set up, repeat and check one workload; returns the full record."""
    from tracing import Tracer
    from workloads import WORKLOADS, CheckFailed, OpFailed, Run

    workload = WORKLOADS[name]
    tracer = Tracer() if traced else None
    run = Run(tracer)
    problems: list[str] = []
    setup_times, inputs, reps, outputs, quality = [], [], [], [], []
    untraced = []

    def fail(exc: Exception) -> None:
        problems.append(str(exc))
        traceback.print_exception(exc, file=sys.stderr)

    if tracer is not None:
        tracer.install()
    try:
        state = None
        for k in range(sizes.setups):
            t0 = time.perf_counter()
            try:
                with run.phase("phase.setup"):
                    state = workload.setup(run, sizes, seed, workdir / f"setup{k}")
            except (OpFailed, CheckFailed) as exc:
                fail(exc)
                break
            setup_times.append(time.perf_counter() - t0)
            inputs.append(state.pop("inputs"))
        if any(digests != inputs[0] for digests in inputs):
            problems.append(f"set-up is not deterministic: {inputs}")

        durations: list[float] = []
        start = time.perf_counter()
        while len(setup_times) == sizes.setups:
            t0 = time.perf_counter()
            # A traced run leaves every other repetition untraced, starting
            # with the first, to measure the tracing overhead in one process.
            pause = tracer is not None and len(durations) % 2 == 0
            try:
                with _paused(run) if pause else contextlib.nullcontext():
                    with run.phase("phase.rep"):
                        measured = workload.rep(run, sizes, state)
                    with run.phase("phase.check"):
                        digests, scores = workload.check(run, sizes, state)
                if pause:
                    untraced.append(measured)
                else:
                    reps.append(measured)
                outputs.append(digests)
                quality.append(scores)
            except (OpFailed, CheckFailed) as exc:
                fail(exc)
            durations.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            if len(durations) >= sizes.min_reps and elapsed + statistics.median(durations) > seconds:
                break
        if any(d != outputs[0] for d in outputs):
            problems.append("output digests differ between repetitions")
        if any(q != quality[0] for q in quality):
            problems.append(f"F1 differs between repetitions: {quality}")
        if not reps:
            problems.append("no repetition completed")
    finally:
        if tracer is not None:
            tracer.uninstall()

    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": problems,
        "setup_times_s": setup_times,
        "reps": reps,
        "digests": outputs[0] if outputs else {},
        "inputs": inputs[0] if inputs else {},
        "quality": quality[0] if quality else {},
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        record["tracer"] = tracer
        record["untraced"] = untraced
    return record


def median_of(reps: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reps)


def row(record: dict, import_s: float) -> dict:
    """The workload's metrics under their descriptive names."""
    reps = record["reps"]
    values = {"setup_s": import_s + statistics.median(record["setup_times_s"])}
    for key in reps[0]:
        if key in ROW_UNITS:
            values[key] = median_of(reps, key)
    values.update(record["quality"])
    values["peak_rss_mb"] = record["peak_rss_mb"]
    values["error_rate"] = record["failed"] / max(record["attempted"], 1)
    return values


def end_to_end(record: dict, values: dict) -> dict:
    metrics = {
        "setup_s": values["setup_s"],
        "work_per_s": median_of(record["reps"], "work_per_s"),
        "peak_rss_mb": values["peak_rss_mb"],
        "success_rate": 1.0 - values["error_rate"],
        "f1": min(record["quality"].values()),
    }
    return {k: {"value": float(v), "unit": END_TO_END[k]} for k, v in metrics.items()}


def format_row(workload: str, values: dict) -> str:
    cells = [f"{k}={v:.6g} {ROW_UNITS.get(k, 'ratio')}" for k, v in values.items()]
    return f"row {workload}: " + ", ".join(cells)


def trace_report(record: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics for the result line, and the printed table."""
    from tracing import PHASES

    tracer = record["tracer"]
    table = tracer.summary(PHASES)
    lines = ["per-layer, per set-up + repetition + check:",
             f"  {'span':<40} {'calls':>10} {'busy_s':>10} {'self_s':>10}  counters"]
    for name, stats in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        extra = ", ".join(f"{k}={v:.6g}" for k, v in stats.items()
                          if k not in ("calls", "busy_s", "self_s"))
        lines.append(f"  {name:<40} {stats['calls']:>10.6g} {stats['busy_s']:>10.4f} "
                     f"{stats['self_s']:>10.4f}  {extra}")
    traced_op_s = median_of(record["reps"], "op_s")
    untraced_op_s = median_of(record["untraced"], "op_s")
    overhead = {"traced_op_s": traced_op_s, "untraced_op_s": untraced_op_s,
                "overhead_s": traced_op_s - untraced_op_s}
    for key in ("train_s", "detect_rows_per_s"):
        if key in record["untraced"][0]:
            overhead[f"traced_{key}"] = median_of(record["reps"], key)
            overhead[f"untraced_{key}"] = median_of(record["untraced"], key)
    lines.append("tracing overhead: " + ", ".join(f"{k}={v:.6g}" for k, v in overhead.items()))
    if record["workload"] == "train":
        per_rep = tracer.summary(("phase.rep",))
        accounted = sum(s["self_s"] for n, s in per_rep.items()
                        if n.startswith(("forecaster.", "rng.")))
        accounted += per_rep["detectors.ocsvm_fit"]["busy_s"]
        overhead["accounted_s"] = accounted
        lines.append(
            f"train_s accounting: forecaster + rng self + detectors.ocsvm_fit = {accounted:.4f} s "
            f"against untraced train_s {untraced_op_s:.4f} s "
            f"(gap {untraced_op_s - accounted:+.4f} s, tracing overhead "
            f"{overhead['overhead_s']:+.4f} s)"
        )
    record["per_layer_table"] = table
    record["overhead"] = overhead
    return tracer.per_layer(table), lines


def import_seconds(runs: int = 5) -> float:
    """Median wall time of a fresh interpreter that imports the package."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import cps_sentinel.cli"
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_one(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import cps_sentinel.cli

    if Path(cps_sentinel.cli.__file__).resolve().parent != ROOT / "src" / "cps_sentinel":
        print(f"bench: imported cps_sentinel from {cps_sentinel.cli.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    from workloads import FULL

    import_s = import_seconds()
    env = environment(import_s)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = OUT / f"work-{stem}-{os.getpid()}"
    try:
        record = run_workload(args.workload, FULL, args.seed, args.seconds,
                              bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = not record["problems"] and record["failed"] == 0
    metrics = {}
    print("env: " + json.dumps(env, sort_keys=True))
    if record["reps"]:
        values = row(record, import_s)
        record["row"] = values
        print(format_row(args.workload, values))
        print("digests: " + json.dumps(record["digests"], sort_keys=True))
        if not args.trace:
            metrics = end_to_end(record, values)
        elif record["untraced"]:
            metrics, lines = trace_report(record)
            print("\n".join(lines))
            record["tracer"].write(OUT / f"{stem}-spans.json.gz",
                                   {"workload": args.workload, "seed": args.seed})
    record.pop("tracer", None)
    record["env"] = env
    record["correct"] = correct
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    for problem in record["problems"]:
        print(f"problem: {problem}")
    result = {"correct": correct, "attempted": max(record["attempted"], 1),
              "failed": record["failed"], "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so each reports its own peak RSS."""
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        keep = ("row ", "tracing overhead", "train_s accounting", "problem")
        print("\n".join(line for line in lines if line.startswith(keep)))
        if lines:
            print(f"result {name}: {lines[-1]}")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cps_sentinel" / "__init__.py").is_file():
        print(f"bench: {ROOT / 'src' / 'cps_sentinel'} not found; run from a source checkout",
              file=sys.stderr)
        return 2
    pin_environment()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
