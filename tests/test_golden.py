"""Golden digests of fixed-seed simulate -> train -> detect -> report and
optimize runs through the CLI.

The README promises "same inputs, same bytes out"; these pins make that
checkable across refactors. They pin the sha256 of every CSV the run writes
(the simulated frames, `history.csv`, `verdicts.csv`, `errors.csv` and the
report's `error_series.csv` and `embedding.csv`, and optimize's
`evolution.log` and `ga_history.csv`), and a digest of the trained
parameters that does not depend on how the artifact lays them out. A change
that alters these bytes on purpose re-records the values and says why in
CHANGES.md.
"""

import hashlib

import pytest

from cps_sentinel import cli
from cps_sentinel.artifact import load_pipeline
from cps_sentinel.cli import main
from cps_sentinel.forecaster import TrainHistory
from cps_sentinel.gaopt import EvolutionResult, Individual, history_csv
from cps_sentinel.pipeline import PipelineSettings

from conftest import TOGGLING_PLANT_INI

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

# detector -> (dropout, sha256 of verdicts.csv, of errors.csv, of the parameters)
GOLDEN = {
    "threshold": (
        0.2,
        "ea306065ba785d2d76dd3c60c9da3720bc61967e38fbad16fb578e30fbb9cbbb",
        "566ea15b410cebecfe3e794a3ac02a0ba5a3cd45030410cc03f71a1ec82def43",
        "8e62caffc51d02bcf50e11e80e0825f1d26c96403280cb1e36efa26585011a54",
    ),
    "ocsvm": (
        0.1,
        "dfd684e6bf3d6bd8e828724c01153d025229d8c0baeb099c729bdd305b859887",
        "57f905e09a716c0d64ad947d4690867577dbb1f719e71239e956fa2d044210e5",
        "f3a2f2f619b8844d27c7c5d2db442f5e8b4c44de86faa502dffb7602f64508d2",
    ),
    "kmeans": (
        0.0,
        "4756d1bfde1eb5a35d323ceab5858bff5556002f89a67f5ab5b1d61c80047eca",
        "4b8e7904f988f8f9a141cbe7629b1604ec808d800d2d8f9c5730bbf1da898f22",
        "721282b0498e1527be8aecd87ceb685caee771540c44492ce29e81a194b23a35",
    ),
}

# simulate's output file -> sha256
SIMULATED = {
    "normal.csv": "fb8aca433fdbd85f52f3150cd366c1c61ede785ee8e98cbccf5953ad27b2e999",
    "test.csv": "88f21dd08cc29129923c051708c35ca2a4360b17d8c65eb9d32c72e57090016e",
}

# TOGGLING_PLANT_INI's simulate output file -> sha256
SIMULATED_TOGGLING = {
    "normal.csv": "969e85570768b8fff9f5178a0431c1ac7e4e5eee1cf812c3e6c31a936174f724",
    "test.csv": "c35f0383ebf2eb90be3b93ce33f27aad6d2daf7bf0c2e90f8a87ac3ec553cafa",
}

# detector -> (sha256 of train's history.csv, of `report --lag 2`'s embedding.csv);
# the report's error_series.csv echoes errors.csv, so it carries the errors pin.
HISTORY_AND_EMBEDDING = {
    "threshold": (
        "89ba828c6993f331bac98622515c8dcbdae5366d46e2cf33b84e906f0260d6d4",
        "7cbf6678a3f910dbbb7d979466b0154e643de2e8824ede745dddacf978bd18b1",
    ),
    "ocsvm": (
        "69cdf69edb9f7f1c3e66f24aff5e821e024c9ed7bd7791dfb74a7a37e809ca31",
        "467dbde7f062df4aa3eccd9ee9aecbc40fa49c75116f0a20237b8524ffa84fdb",
    ),
    "kmeans": (
        "41d93d06d0cc84d5cadd79d3097242b6df68102c18e159f7cf80dce4021d3e2e",
        "93741b667b8872a630cc296e9d4a30e2f82a6843a68611fdd62e66b1f43f3e7d",
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
    """The flat parameter vector, in layer order, as little-endian float64."""
    return sha256(model.flat_params.astype("<f8").tobytes())


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


def test_simulate_of_a_toggling_plant_reproduces_golden_digests(tmp_path):
    (tmp_path / "plant.ini").write_text(TOGGLING_PLANT_INI)
    out = tmp_path / "data"
    assert main(["simulate", "--config", str(tmp_path / "plant.ini"), "--out", str(out)]) == 0
    got = {name: sha256((out / name).read_bytes()) for name in SIMULATED_TOGGLING}
    assert got == SIMULATED_TOGGLING


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
    )
    assert history_csv(result) == (
        "generation,best,mean\n"
        "0,-0.0,0.30000000000000004\n"
        "1,5e-324,5e-324\n"
        "2,0.30000000000000004,-0.0\n"
    )


# sha256 of optimize's evolution.log, of its ga_history.csv, of the winner's parameters
OPTIMIZE_GOLDEN = (
    "9b00267a04886efd4afe229cd14f665b07ce78f24b04b71286d065e9e894e717",
    "a9a4bd82eedbe50e5e550fa93a42c1968ba9a0f35249a24c68f4d29524983069",
    "a661d55cdd6f7fb9c352abc439422061148858688f545342d006f3587335f1ed",
)


def optimize_ini(data, tmp_path, threads):
    """A micro GA whose default genome lies inside every gene domain; a bred
    genome wins, so the pins cover selection as well as training."""
    return f"""\
[paths]
train_csv = {data}/normal.csv
validation_csv = {data}/test.csv
artifact = {tmp_path}/best.npz
evolution_log = {tmp_path}/evolution.log
ga_history_csv = {tmp_path}/ga_history.csv

[forecaster]
window = 8
conv1 = 16
conv2 = 16
dense1 = 16
dense2 = 16
dropout = 0.3
learning_rate = 0.0001
epochs = 2
batch_size = 64
patience = 2

[detector]
kind = kmeans
beta = 1.2

[ga]
population_size = 4
generations = 2
tournament_size = 2
crossover_rate = 0.9
mutation_rate = 0.3
elitism_count = 1
seed = 5
budget_epochs = 1
threads = {threads}
"""


@pytest.mark.parametrize("threads", [1, 2])
def test_fixed_seed_optimize_reproduces_golden_digests(plant_data, tmp_path, threads):
    (tmp_path / "ga.ini").write_text(optimize_ini(plant_data, tmp_path, threads))
    assert main(["optimize", "--config", str(tmp_path / "ga.ini")]) == 0
    got = (
        sha256((tmp_path / "evolution.log").read_bytes()),
        sha256((tmp_path / "ga_history.csv").read_bytes()),
        model_digest(load_pipeline(tmp_path / "best.npz").model),
    )
    assert got == OPTIMIZE_GOLDEN
