"""Golden digests of a fixed-seed simulate -> train -> detect run through the CLI.

The README promises "same inputs, same bytes out"; these pins make that
checkable across refactors. Each case pins the sha256 of `verdicts.csv` and
`errors.csv`, and a digest of the trained parameters and Adam moments that
does not depend on how the artifact lays them out. A change that alters
these bytes on purpose re-records the values and says why in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from cps_sentinel.artifact import load_pipeline
from cps_sentinel.cli import main

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


def train_ini(data, tmp_path, detector, dropout):
    return f"""\
[paths]
train_csv = {data}/normal.csv
artifact = {tmp_path}/model.npz

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
    got = (
        sha256((out / "verdicts.csv").read_bytes()),
        sha256((out / "errors.csv").read_bytes()),
        model_digest(load_pipeline(tmp_path / "model.npz").model),
    )
    assert got == (verdicts, errors, state)
