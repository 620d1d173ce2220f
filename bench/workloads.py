"""The three benchmark workloads: train, detect and optimize.

Each is a closed loop with one caller, driving the program through its public
entry points: `cps_sentinel.cli.main` in-process, and `gaopt.make_evaluator`
plus `gaopt.evolve`. Every input comes from the criterion-09 plant (two
balanced stages, inflow = outflow = 8.0, read noise 0.1) with `offset:-6`
MSMP attacks on all four sensors. The workload seed picks the plant seeds;
the model and GA seeds stay fixed, as in criterion 09 (optimize's k-th trace
always gets GA seed k), so every seed runs the same configuration on
different data.

A workload has three steps. `setup` writes its inputs (and, for detect, the
artifacts) and is run several times. `rep` is the timed repetition. `check`
verifies what one repetition produced and returns the digests of its output
files, which must be identical across repetitions.
"""

import contextlib
import hashlib
import io
import os
import time
from dataclasses import dataclass, replace
from pathlib import Path

WINDOW = 12
BATCH = 64
LEARNING_RATE = 0.01
VALIDATION_FRACTION = 0.1
GA_SEED = 0
PIPELINE_SEED = 0
THRESHOLD, OCSVM, KMEANS = "threshold", "ocsvm", "kmeans"
# Criterion 09's floors for the detect workload's held-out F1.
F1_FLOORS = {THRESHOLD: 0.85, KMEANS: 0.80}


@dataclass(frozen=True)
class Sizes:
    """Input sizes and budgets; `FULL` is the benchmark, `TOY` its self-test."""

    train_rows: int = 5000
    train_epochs: int = 150
    train_patience: int = 15
    check_rows: int = 1000
    check_attack_every: int = 200
    # Every detect cost is per row; 20k rows rather than 50k keeps a
    # repetition near 4 s, so a run's median has several samples.
    detect_rows: int = 20_000
    detect_attack_every: int = 400
    attack_len: int = 50
    # Budget of detect's prebuilt forecaster. Detection costs the same for a
    # briefly or a fully trained forecaster, so a short budget keeps set-up
    # cheap.
    artifact_epochs: int = 5
    # A GA's cost depends on the genomes its data selects, so one
    # repetition runs the GA on `ga_datasets` plant traces made from the
    # seed; 1000 training rows keep such a repetition near 20 s.
    ga_datasets: int = 4
    ga_train_rows: int = 1000
    ga_validation_rows: int = 600
    ga_population: int = 8
    ga_generations: int = 2
    ga_epochs: int = 3
    setups: int = 3
    min_reps: int = 2


FULL = Sizes()
TOY = Sizes(
    train_rows=1000,
    train_epochs=2,
    train_patience=2,
    check_rows=400,
    detect_rows=1200,
    artifact_epochs=3,
    ga_datasets=2,
    ga_train_rows=400,
    ga_validation_rows=400,
    ga_population=3,
    ga_generations=1,
    ga_epochs=1,
    setups=2,
)


class OpFailed(Exception):
    """An operation of the program failed; it has been counted already."""


class Run:
    """Per-run context: operation counts and the tracer, if the run is traced."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0

    def phase(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def call(self, fn, *args, **kwargs):
        """One counted operation; a raised exception counts as a failure."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            raise OpFailed(f"{getattr(fn, '__name__', fn)}: {exc!r}") from exc

    def cli(self, *argv) -> str:
        """Run one `cps-sentinel` command in-process; returns its stdout."""
        from cps_sentinel import cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.call(cli.main, [str(a) for a in argv])
        if code != 0:
            self.failed += 1
            raise OpFailed(f"cps-sentinel {argv[0]} exited with code {code}")
        return out.getvalue()

    def timed_cli(self, *argv) -> tuple[float, str]:
        t0 = time.perf_counter()
        out = self.cli(*argv)
        return time.perf_counter() - t0, out


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _ini(path: Path, sections: dict[str, dict]) -> Path:
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in values.items()]
        lines.append("")
    path.write_text("\n".join(lines), encoding="utf-8")
    return path


def plant_config(path: Path, seed: int, normal_rows: int, test_rows: int,
                 test_seed: int, attack_every: int, attack_len: int) -> Path:
    """`cps-sentinel simulate` config: the criterion-09 plant and its attacks.

    One `attack_len`-step attack starts every `attack_every` steps, from
    `attack_every // 2` on, as long as it ends inside the test trace.
    """
    sections = {
        "plant": {"stages": 2, "capacity": 1000, "inflow": 8.0, "outflow": 8.0,
                  "noise_sigma": 0.1, "seed": seed},
        "simulate": {"normal_steps": normal_rows, "test_steps": test_rows,
                     "test_seed": test_seed},
    }
    start = attack_every // 2
    while start + attack_len <= test_rows:
        sections[f"attack.{start}"] = {
            "category": "MSMP",
            "start": start,
            "duration": attack_len,
            "targets": "0:level,0:flow,1:level,1:flow",
            "manipulation": "offset:-6",
        }
        start += attack_every
    return _ini(path, sections)


def train_config(path: Path, train_csv: Path, artifact: Path, forecaster: dict,
                 detector: dict, seed: int, history_csv: Path | None = None) -> Path:
    paths = {"train_csv": train_csv, "artifact": artifact}
    if history_csv is not None:
        paths["history_csv"] = history_csv
    return _ini(path, {"paths": paths, "forecaster": forecaster,
                       "detector": detector, "seeds": {"pipeline": seed}})


def _forecaster(epochs: int, patience: int, **genes) -> dict:
    settings = {"window": WINDOW, "batch_size": BATCH, "learning_rate": LEARNING_RATE,
                "dropout": 0.0, "epochs": epochs, "patience": patience,
                "validation_fraction": VALIDATION_FRACTION}
    settings.update(genes)
    return settings


def parse_report(text: str) -> dict[str, float]:
    """The `key value` lines `cps-sentinel evaluate` prints."""
    report = {}
    for line in text.splitlines():
        key, _, value = line.partition(" ")
        report[key] = float(value)
    return report


def detect_and_evaluate(run: Run, artifact: Path, data: Path, out: Path) -> tuple[float, float]:
    """`detect` then `evaluate` against the trace's own labels: (seconds, F1)."""
    t_detect, _ = run.timed_cli("detect", "--model", artifact, "--data", data, "--out", out)
    t_eval, report = run.timed_cli("evaluate", "--verdicts", out / "verdicts.csv",
                                   "--labels", data)
    return t_detect + t_eval, parse_report(report)["f1"]


def _output_digests(artifact: Path, out: Path) -> dict[str, str]:
    return {
        "artifact": sha256(artifact),
        "verdicts.csv": sha256(out / "verdicts.csv"),
        "errors.csv": sha256(out / "errors.csv"),
    }


def training_windows(windows: int, validation_fraction: float) -> int:
    """Windows in the training split, as `forecaster.train` splits them."""
    return windows - max(1, int(round(validation_fraction * windows)))


def _seed(seed: int, k: int) -> int:
    return 1000 * seed + k


class Train:
    """One `cps-sentinel train` of the criterion-09 forecaster plus OC-SVM."""

    name = "train"

    def setup(self, run: Run, sizes: Sizes, seed: int, d: Path) -> dict:
        d.mkdir(parents=True)
        plant = plant_config(d / "plant.ini", _seed(seed, 1), sizes.train_rows,
                             sizes.check_rows, _seed(seed, 2), sizes.check_attack_every,
                             sizes.attack_len)
        run.cli("simulate", "--config", plant, "--out", d)
        config = train_config(
            d / "train.ini", d / "normal.csv", d / "model.npz",
            _forecaster(sizes.train_epochs, sizes.train_patience),
            {"kind": OCSVM, "nu": 0.05, "gamma": 1.0, "lag": 1},
            PIPELINE_SEED, history_csv=d / "history.csv",
        )
        return {"dir": d, "config": config,
                "inputs": {"normal.csv": sha256(d / "normal.csv"),
                           "test.csv": sha256(d / "test.csv")}}

    def rep(self, run: Run, sizes: Sizes, state: dict) -> dict:
        t, _ = run.timed_cli("train", "--config", state["config"])
        history = (state["dir"] / "history.csv").read_text(encoding="utf-8")
        epochs = len(history.splitlines()) - 1
        windows = training_windows(sizes.train_rows - WINDOW, VALIDATION_FRACTION)
        return {"op_s": t, "train_s": t, "epochs": epochs, "windows": windows,
                "train_samples_per_s": epochs * windows / t,
                "work_per_s": epochs * windows / t}

    def check(self, run: Run, sizes: Sizes, state: dict) -> tuple[dict, dict]:
        d = state["dir"]
        _, f1 = detect_and_evaluate(run, d / "model.npz", d / "test.csv", d / "out")
        return _output_digests(d / "model.npz", d / "out"), {"f1_ocsvm": f1}


class Detect:
    """Simulate a long attacked trace, then detect + evaluate it three times."""

    name = "detect"

    def setup(self, run: Run, sizes: Sizes, seed: int, d: Path) -> dict:
        from cps_sentinel import artifact, dataio, detectors, errorspace, gaopt, metrics, pipeline
        from cps_sentinel.rng import derive_seed

        d.mkdir(parents=True)
        plant = plant_config(d / "plant.ini", _seed(seed, 3), sizes.train_rows,
                             sizes.check_rows, _seed(seed, 4), sizes.check_attack_every,
                             sizes.attack_len)
        run.cli("simulate", "--config", plant, "--out", d)
        ocsvm_config = train_config(
            d / "train.ini", d / "normal.csv", d / f"{OCSVM}.npz",
            _forecaster(sizes.artifact_epochs, sizes.artifact_epochs),
            {"kind": OCSVM, "nu": 0.05, "gamma": 1.0, "lag": 1},
            PIPELINE_SEED,
        )
        run.cli("train", "--config", ocsvm_config)

        # The threshold and k-means artifacts reuse the OC-SVM artifact's
        # forecaster, with criterion 09's recipe: the GA tunes beta on the
        # labeled validation trace, k-means fits the augmented embedding.
        fitted = run.call(artifact.load_pipeline, d / f"{OCSVM}.npz")
        frame = run.call(dataio.load_csv, d / "normal.csv", fitted.schema)
        _, errors = run.call(pipeline.detect_frame, fitted, frame)
        validation = run.call(dataio.load_csv, d / "test.csv", fitted.schema)
        _, val_errors = run.call(pipeline.detect_frame, fitted, validation)
        val_labels = validation.labels_at(val_errors.target_indices)

        def beta_fitness(genome):
            model = detectors.threshold_fit(errors, genome.beta)
            return metrics.score(detectors.threshold_detect(model, val_errors), val_labels)[1].f1

        ga = gaopt.GaConfig(population_size=12, generations=10, tournament_size=3,
                            crossover_rate=0.9, mutation_rate=0.3, elitism_count=1,
                            seed=GA_SEED)
        tuned = run.call(gaopt.evolve, ga, beta_fitness,
                         domains={"beta": gaopt.GeneSpec(low=1.0, high=3.0)}, threads=1)
        threshold = run.call(detectors.threshold_fit, errors, tuned.best.genome.beta)
        augmented = run.call(
            errorspace.augment,
            errorspace.embed(errors, fitted.settings.lag),
            delta=fitted.train_delta,
            sigma_train=fitted.train_sigma,
            fraction=fitted.settings.augment_fraction,
            seed=derive_seed(PIPELINE_SEED, 0x03),
        )
        kmeans = run.call(detectors.kmeans_fit, augmented, seed=derive_seed(PIPELINE_SEED, 0x04))
        for kind, model in ((THRESHOLD, threshold), (KMEANS, kmeans)):
            derived = replace(fitted, settings=replace(fitted.settings, detector=kind),
                              detector=model)
            run.call(artifact.save_pipeline, d / f"{kind}.npz", derived)

        trace = plant_config(d / "trace.ini", _seed(seed, 5), 1, sizes.detect_rows,
                             _seed(seed, 6), sizes.detect_attack_every, sizes.attack_len)
        return {"dir": d, "trace_config": trace,
                "inputs": {f"{k}.npz": sha256(d / f"{k}.npz")
                           for k in (THRESHOLD, OCSVM, KMEANS)}}

    def rep(self, run: Run, sizes: Sizes, state: dict) -> dict:
        d = state["dir"]
        t_sim, _ = run.timed_cli("simulate", "--config", state["trace_config"],
                                 "--out", d / "trace")
        t_detect = 0.0
        f1s = {}
        for kind in (THRESHOLD, OCSVM, KMEANS):
            t, f1s[kind] = detect_and_evaluate(run, d / f"{kind}.npz", d / "trace" / "test.csv",
                                               d / "out" / kind)
            t_detect += t
        state["f1s"] = f1s
        rows = sizes.detect_rows
        return {"op_s": t_sim + t_detect,
                "simulate_rows_per_s": rows / t_sim,
                "detect_rows_per_s": 3 * rows / t_detect,
                "work_per_s": rows / (t_sim + t_detect)}

    def check(self, run: Run, sizes: Sizes, state: dict) -> tuple[dict, dict]:
        d, f1s = state["dir"], state.pop("f1s")
        for kind, floor in F1_FLOORS.items():
            if not f1s[kind] >= floor:
                raise CheckFailed(f"{kind} F1 {f1s[kind]!r} below criterion 09's {floor}")
        digests = {"test.csv": sha256(d / "trace" / "test.csv")}
        for kind in (THRESHOLD, OCSVM, KMEANS):
            for name, value in _output_digests(d / f"{kind}.npz", d / "out" / kind).items():
                digests[f"{kind}/{name}"] = value
        # One forecaster behind all three artifacts: one error series.
        if len({digests[f"{kind}/errors.csv"] for kind in (THRESHOLD, OCSVM, KMEANS)}) != 1:
            raise CheckFailed("the three artifacts wrote different errors.csv")
        return digests, {f"f1_{kind}": f1 for kind, f1 in f1s.items()}


class Optimize:
    """GAs over the full genome; each genome trains briefly and is scored.

    A repetition runs one GA on each of `ga_datasets` plant traces, the k-th
    with GA seed `GA_SEED + k`. Each GA seed starts from its own initial
    population and each trace selects its own children, so a run averages
    over many genome mixes rather than the one a single seed happens to pick.
    """

    name = "optimize"

    def setup(self, run: Run, sizes: Sizes, seed: int, d: Path) -> dict:
        from cps_sentinel import cli, dataio

        datasets, inputs = [], {}
        for k in range(sizes.ga_datasets):
            dk = d / f"data{k}"
            dk.mkdir(parents=True)
            plant = plant_config(dk / "plant.ini", _seed(seed, 7 + 2 * k),
                                 sizes.ga_train_rows, sizes.ga_validation_rows,
                                 _seed(seed, 8 + 2 * k), sizes.check_attack_every,
                                 sizes.attack_len)
            run.cli("simulate", "--config", plant, "--out", dk)
            frames = {
                name: run.call(dataio.load_csv, dk / name, cli.infer_schema(dk / name))
                for name in ("normal.csv", "test.csv")
            }
            datasets.append({"dir": dk, "ga_seed": GA_SEED + k, "train": frames["normal.csv"],
                             "validation": frames["test.csv"]})
            inputs.update({f"data{k}/{name}": sha256(dk / name) for name in frames})
        return {"datasets": datasets, "inputs": inputs}

    def _budget(self, sizes: Sizes):
        from cps_sentinel.forecaster import TrainConfig

        return TrainConfig(epochs=sizes.ga_epochs, batch_size=BATCH,
                           learning_rate=LEARNING_RATE, early_stop_patience=sizes.ga_epochs,
                           validation_fraction=VALIDATION_FRACTION)

    def rep(self, run: Run, sizes: Sizes, state: dict) -> dict:
        from cps_sentinel import gaopt

        t, distinct = 0.0, 0
        for data in state["datasets"]:
            config = gaopt.GaConfig(population_size=sizes.ga_population,
                                    generations=sizes.ga_generations, seed=data["ga_seed"])
            t0 = time.perf_counter()
            evaluator = run.call(gaopt.make_evaluator, data["train"], data["validation"],
                                 self._budget(sizes), seed=data["ga_seed"])
            data["result"] = run.call(gaopt.evolve, config, evaluator, threads=ga_threads())
            t += time.perf_counter() - t0
            distinct += len(evaluator.cache)
            run.attempted += len(evaluator.cache)
            run.failed += len(evaluator.failures)
        return {"op_s": t, "genomes": distinct, "optimize_genomes_per_s": distinct / t,
                "work_per_s": distinct / t}

    def check(self, run: Run, sizes: Sizes, state: dict) -> tuple[dict, dict]:
        """Retrain each winner through the CLI; its F1 must equal its fitness.

        Returns the digests of every GA and the mean of their best F1.
        """
        from cps_sentinel import gaopt

        digests, f1s = {}, []
        for k, data in enumerate(state["datasets"]):
            d, result = data["dir"], data.pop("result")
            best = result.best.genome
            genes = {"window": best.window, "conv1": best.conv1, "conv2": best.conv2,
                     "kernel": best.kernel, "dense1": best.dense1, "dense2": best.dense2,
                     "dropout": best.dropout, "learning_rate": repr(best.learning_rate)}
            detector = {"kind": best.detector, "beta": repr(best.beta), "lag": best.lag,
                        "nu": best.nu, "gamma": best.gamma}
            config = train_config(d / "best.ini", d / "normal.csv", d / "best.npz",
                                  _forecaster(sizes.ga_epochs, sizes.ga_epochs, **genes),
                                  detector, gaopt.genome_seed(data["ga_seed"], best))
            run.cli("train", "--config", config)
            _, f1 = detect_and_evaluate(run, d / "best.npz", d / "test.csv", d / "out")
            if f1 != result.best.fitness:
                raise CheckFailed(f"data{k}: winner F1 {f1!r} through the CLI != GA fitness "
                                  f"{result.best.fitness!r}")
            for name, value in _output_digests(d / "best.npz", d / "out").items():
                digests[f"data{k}/{name}"] = value
            log = gaopt.evolution_log_text(result).encode()
            digests[f"data{k}/evolution.log"] = hashlib.sha256(log).hexdigest()
            f1s.append(f1)
        return digests, {"ga_best_f1": sum(f1s) / len(f1s)}


class CheckFailed(Exception):
    """An output check failed; the run is not correct."""


def ga_threads() -> int:
    return len(os.sched_getaffinity(0))


WORKLOADS = {w.name: w for w in (Train(), Detect(), Optimize())}
