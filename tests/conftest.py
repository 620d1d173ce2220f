import contextlib
import io
import tempfile
import zipfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from cps_sentinel.cli import main
from cps_sentinel.dataio import ChannelSchema, TimeSeriesFrame
from cps_sentinel.rng import Rng

# Unbalanced flows on three small tanks: every stage's valve toggles many
# times, and the third tank's level clips at 0 and at its capacity.
TOGGLING_PLANT_INI = """\
[plant]
stages = 3
capacity = 100, 150, 20
inflow = 6.0, 4.5, 15.0
outflow = 5.0, 7.0, 12.0
noise_sigma = 0.3
seed = 21

[simulate]
normal_steps = 1500
test_steps = 400
test_seed = 22

[attack.1]
category = SSMP
start = 100
duration = 50
targets = 1:valve,1:pump
manipulation = force:1
"""

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


def with_member_bytes(raw: bytes, name: str, edit) -> bytes:
    """The zip `raw` rewritten with fresh CRCs, member `name`'s bytes passed
    through `edit`."""
    out = io.BytesIO()
    with zipfile.ZipFile(io.BytesIO(raw)) as src, zipfile.ZipFile(out, "w") as dst:
        for info in src.infolist():
            data = src.read(info)
            dst.writestr(info.filename, edit(data) if info.filename == name else data)
    return out.getvalue()


@pytest.fixture
def tiny_frame():
    return make_frame([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0], [0.25, 0.75], [0.75, 0.25]])
