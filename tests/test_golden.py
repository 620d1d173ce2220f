"""Golden digests of a fixed-seed simulate -> train -> detect -> report run through the CLI.

The README promises "same inputs, same bytes out"; these pins make that
checkable across refactors. They pin the sha256 of every CSV the run writes
(the simulated frames, `history.csv`, `verdicts.csv`, `errors.csv` and the
report's `error_series.csv` and `embedding.csv`), and a digest of the trained
parameters and Adam moments that does not depend on how the artifact lays
them out. A change that alters these bytes on purpose re-records the values
and says why in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from cps_sentinel import cli
from cps_sentinel.artifact import load_pipeline
from cps_sentinel.cli import main
from cps_sentinel.forecaster import TrainHistory
from cps_sentinel.gaopt import EvolutionResult, Individual, history_csv
from cps_sentinel.pipeline import PipelineSettings

PLANT_INI = """\
[plant]
stages = 2
capacity = 1000
inflow = 8.0
outflow = 8.0
noise_sigma = 0.1
seed = 3

[simulate]
normal_steps = 600
test_steps = 300
test_seed = 4

[attack.1]
category = MSMP
start = 120
duration = 60
targets = 0:level,0:flow,1:level,1:flow
manipulation = offset:-6
"""

# detector -> (dropout, sha256 of verdicts.csv, of errors.csv, of the model state)
GOLDEN = {
    "threshold": (
        0.2,
        "ea306065ba785d2d76dd3c60c9da3720bc61967e38fbad16fb578e30fbb9cbbb",
        "566ea15b410cebecfe3e794a3ac02a0ba5a3cd45030410cc03f71a1ec82def43",
        "4af70df7432ad866c9462552609c5aa097bb3c5f8aa97123d8c0c39d7cac59cb",
    ),
    "ocsvm": (
        0.1,
        "e69aeeaf1fc2595cecfa44943934a313f67a5eda4abcf379c4874fb0c4742b73",
        "57f905e09a716c0d64ad947d4690867577dbb1f719e71239e956fa2d044210e5",
        "8eea20f73436a393013cd7587c4cc3c3d22dc2643c27b1a9239b1d79655fedfe",
    ),
    "kmeans": (
        0.0,
        "4756d1bfde1eb5a35d323ceab5858bff5556002f89a67f5ab5b1d61c80047eca",
        "4b8e7904f988f8f9a141cbe7629b1604ec808d800d2d8f9c5730bbf1da898f22",
        "8e50e2300093a84102048e5c039bc6adb1cfa342bb7e290b0e5960bf7ee953b3",
    ),
}

# simulate's output file -> sha256
SIMULATED = {
    "normal.csv": "fb8aca433fdbd85f52f3150cd366c1c61ede785ee8e98cbccf5953ad27b2e999",
    "test.csv": "88f21dd08cc29129923c051708c35ca2a4360b17d8c65eb9d32c72e57090016e",
}

# detector -> (sha256 of train's history.csv, of `report --lag 2`'s embedding.csv);
# the report's error_series.csv echoes errors.csv, so it carries the errors pin.
HISTORY_AND_EMBEDDING = {
    "threshold": (
        "89ba828c6993f331bac98622515c8dcbdae5366d46e2cf33b84e906f0260d6d4",
        "d2d32a0aa736584d0022e17e27171380156f4adc52321d7de2a52a9f5dcd9deb",
    ),
    "ocsvm": (
        "69cdf69edb9f7f1c3e66f24aff5e821e024c9ed7bd7791dfb74a7a37e809ca31",
        "360a9d5286220107fad45dea5cbaa0705fd39023482b3291a6df59d07bdcd084",
    ),
    "kmeans": (
        "41d93d06d0cc84d5cadd79d3097242b6df68102c18e159f7cf80dce4021d3e2e",
        "12bd5b291bca2a10b927095e54147c21103eb11f5e5e0ba48c1bd21c61dd4ab8",
    ),
}


def train_ini(data, tmp_path, detector, dropout):
    return f"""\
[paths]
train_csv = {data}/normal.csv
artifact = {tmp_path}/model.npz
history_csv = {tmp_path}/history.csv

[forecaster]
window = 8
conv1 = 8
conv2 = 8
dense1 = 16
dense2 = 8
dropout = {dropout}
learning_rate = 0.01
epochs = 4
batch_size = 64
patience = 4

[detector]
kind = {detector}
beta = 1.2
nu = 0.1
gamma = 10.0

[seeds]
pipeline = 7
"""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def model_digest(model) -> str:
    """Parameters, then Adam first and second moments, each in layer order."""
    parts = [
        np.concatenate([np.ravel(a) for a in tensors]).astype("<f8").tobytes()
        for tensors in (model.params, model.adam_m, model.adam_v)
    ]
    return sha256(b"".join(parts) + str(model.adam_t).encode())


@pytest.fixture(scope="module")
def plant_data(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    (d / "plant.ini").write_text(PLANT_INI)
    assert main(["simulate", "--config", str(d / "plant.ini"), "--out", str(d / "data")]) == 0
    return d / "data"


@pytest.mark.parametrize("detector", sorted(GOLDEN))
def test_fixed_seed_run_reproduces_golden_digests(plant_data, tmp_path, detector):
    dropout, verdicts, errors, state = GOLDEN[detector]
    (tmp_path / "train.ini").write_text(train_ini(plant_data, tmp_path, detector, dropout))
    assert main(["train", "--config", str(tmp_path / "train.ini")]) == 0
    out = tmp_path / "out"
    assert main([
        "detect", "--model", str(tmp_path / "model.npz"),
        "--data", str(plant_data / "test.csv"), "--out", str(out),
    ]) == 0
    report = tmp_path / "report"
    assert main([
        "report", "--errors", str(out / "errors.csv"), "--lag", "2", "--out", str(report),
    ]) == 0
    got = (
        sha256((out / "verdicts.csv").read_bytes()),
        sha256((out / "errors.csv").read_bytes()),
        model_digest(load_pipeline(tmp_path / "model.npz").model),
    )
    assert got == (verdicts, errors, state)
    history, embedding = HISTORY_AND_EMBEDDING[detector]
    assert (
        sha256((tmp_path / "history.csv").read_bytes()),
        sha256((report / "error_series.csv").read_bytes()),
        sha256((report / "embedding.csv").read_bytes()),
    ) == (history, errors, embedding)


def test_simulate_reproduces_golden_digests(plant_data):
    assert {name: sha256((plant_data / name).read_bytes()) for name in SIMULATED} == SIMULATED


# Floats whose repr a formatting change would alter: a signed zero, the
# smallest subnormal, and a sum that is not the decimal it looks like.
AWKWARD = [-0.0, 5e-324, 0.1 + 0.2]


def test_history_writers_write_exact_reprs():
    history = TrainHistory(train_loss=AWKWARD, val_loss=AWKWARD[::-1])
    assert cli._history_text(history) == (
        "epoch,train_mae,val_mae\n"
        "1,-0.0,0.30000000000000004\n"
        "2,5e-324,5e-324\n"
        "3,0.30000000000000004,-0.0\n"
    )
    result = EvolutionResult(
        best=Individual(PipelineSettings(), 0.5),
        best_history=AWKWARD,
        mean_history=AWKWARD[::-1],
        log_lines=[],
        final_population=[],
    )
    assert history_csv(result) == (
        "generation,best,mean\n"
        "0,-0.0,0.30000000000000004\n"
        "1,5e-324,5e-324\n"
        "2,0.30000000000000004,-0.0\n"
    )
