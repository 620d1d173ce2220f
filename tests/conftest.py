import contextlib
import io
import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from cps_sentinel.cli import main
from cps_sentinel.dataio import ChannelSchema, TimeSeriesFrame
from cps_sentinel.rng import Rng

# Hypothesis runs: deterministic, bounded, and leaving no example database behind.
SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60)

# Hypothesis caches what it learns from the source under its home directory,
# ./.hypothesis by default, while collecting; keep that out of the working tree.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory()
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


def make_frame(values, labels=None, start=0):
    """Frame with auto-named channels; values is (rows, channels)."""
    values = np.asarray(values, dtype=np.float64)
    rows, channels = values.shape
    schema = ChannelSchema(names=tuple(f"C{i}" for i in range(channels)))
    if labels is None:
        labels = np.zeros(rows, dtype=bool)
    return TimeSeriesFrame(
        schema=schema,
        timestamps=np.arange(start, start + rows, dtype=np.int64),
        values=values,
        labels=np.asarray(labels, dtype=bool),
    )


def random_frame(rows, channels, seed=0, start=0):
    rng = Rng(seed)
    values = rng.uniform_array(rows * channels).reshape(rows, channels)
    return make_frame(values, start=start)


def run_cli(argv) -> tuple[int, str]:
    """`main(argv)` with stdout discarded: its exit code and its stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture
def tiny_frame():
    return make_frame([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0], [0.25, 0.75], [0.75, 0.25]])
