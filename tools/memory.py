"""Print the tracemalloc peak of each per-row stage of `detect`.

Run from anywhere; it imports the package from `src/`:

    python tools/memory.py --rows 20000 --channels 8

It writes a generated trace of `--rows` rows and `--channels` channels
(random walks, every 400th row opening a 50-row attack) with
`save_csv`, and fits a threshold pipeline on a 2,000-row normal trace with a
one-epoch budget. Then it runs the stages of `cps-sentinel detect` in order:
`load_csv`, `detect_frame`, `verdict_csv` and `error_series_csv`. For each it
prints the peak of the memory tracemalloc traced while it ran, above what was
traced when it started, and the size of what it returned. Tracing starts after
the fit, so only the stages are slowed.
"""

import argparse
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cps_sentinel.dataio import ChannelSchema, TimeSeriesFrame, load_csv, save_csv  # noqa: E402
from cps_sentinel.detectors import verdict_csv  # noqa: E402
from cps_sentinel.errorspace import error_series_csv  # noqa: E402
from cps_sentinel.forecaster import TrainConfig  # noqa: E402
from cps_sentinel.pipeline import PipelineSettings, detect_frame, fit_pipeline  # noqa: E402

TRAIN_ROWS = 2000
ATTACK_EVERY, ATTACK_LEN = 400, 50


def trace(schema: ChannelSchema, rows: int, seed: int, attacks: bool) -> TimeSeriesFrame:
    """One random walk per channel, with attack labels if `attacks`."""
    steps = np.random.default_rng(seed).normal(size=(rows, schema.channel_count))
    values = 50.0 + np.cumsum(steps, axis=0)
    labels = (np.arange(rows) % ATTACK_EVERY >= ATTACK_EVERY - ATTACK_LEN) & attacks
    return TimeSeriesFrame(schema, np.arange(rows), values, labels)


def size_mb(value) -> float:
    """MB held by the arrays of a record, or by a str."""
    if isinstance(value, str):
        return sys.getsizeof(value) / 1e6
    if isinstance(value, tuple):
        return sum(map(size_mb, value))
    return sum(v.nbytes for v in vars(value).values() if isinstance(v, np.ndarray)) / 1e6


def measure(stage, *args):
    """What `stage(*args)` returns, with its traced peak and its seconds."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    start = time.perf_counter()
    result = stage(*args)
    seconds = time.perf_counter() - start
    return result, (tracemalloc.get_traced_memory()[1] - before) / 1e6, seconds


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=20_000)
    parser.add_argument("--channels", type=int, default=8)
    args = parser.parse_args(argv)
    schema = ChannelSchema(tuple(f"c{i}" for i in range(args.channels)))
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "test.csv"
        save_csv(trace(schema, args.rows, 2, attacks=True), path)
        budget = TrainConfig(epochs=1)
        fitted = fit_pipeline(trace(schema, TRAIN_ROWS, 1, attacks=False), PipelineSettings(),
                              budget)
        print(f"{args.rows} rows x {args.channels} channels, {path.stat().st_size / 1e6:.1f} MB "
              f"of CSV")
        print(f"{'stage':<18}{'peak_mb':>10}{'returned_mb':>13}{'seconds':>9}")
        tracemalloc.start()
        try:
            frame, *row = measure(load_csv, path, schema)
            report = [("load_csv", frame, *row)]
            (verdicts, errors), *row = measure(detect_frame, fitted, frame)
            report.append(("detect_frame", (verdicts, errors), *row))
            report.append(("verdict_csv", *measure(verdict_csv, verdicts)))
            report.append(("error_series_csv", *measure(error_series_csv, errors)))
        finally:
            tracemalloc.stop()
    for name, result, peak, seconds in report:
        print(f"{name:<18}{peak:>10.1f}{size_mb(result):>13.1f}{seconds:>9.2f}")


if __name__ == "__main__":
    main()
