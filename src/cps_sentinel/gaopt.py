"""Genetic algorithm over pipeline hyperparameters, maximizing detection F1.

A genome is a `PipelineSettings`: the fields named in GENE_DOMAINS are its
genes, and the others keep the default genome's values. Random genomes and
mutations sample inside the domains; a default gene outside them trains too.

Tournament selection, uniform crossover, per-gene resample mutation, and
elitism. Fitness is a pure function of the genome (per-genome seeds derive
from the run seed and a genome digest), so results are cached by genome key
and parallel evaluation cannot change the outcome.

Each evaluator trains and scores genomes in its own forked worker processes,
one per CPU (so Linux only), outside the GIL of the process that runs the GA.
"""

import hashlib
import logging
import os
import queue
import threading
import weakref
from concurrent.futures import BrokenExecutor, ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .dataio import FieldError, TimeSeriesFrame, csv_lines, csv_text
from .detectors import DETECTOR_KINDS, NonConvergence
from .forecaster import TrainConfig
from .pipeline import PipelineSettings, evaluate_frame, fit_pipeline
from .rng import Rng, derive_seed

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class GeneSpec:
    """Either a finite choice set or a continuous closed interval."""

    choices: tuple = ()
    low: float = 0.0
    high: float = 0.0

    def sample(self, rng: Rng):
        if not self.choices:
            return rng.uniform_range(self.low, self.high)
        return self.choices[rng.randint(len(self.choices))]


GENE_DOMAINS: dict[str, GeneSpec] = {
    "window": GeneSpec(choices=(8, 12, 16, 20, 24)),
    "beta": GeneSpec(low=1.0, high=3.0),
    "lag": GeneSpec(choices=(1, 2, 3, 5)),
    "conv1": GeneSpec(choices=(16, 32, 64)),
    "conv2": GeneSpec(choices=(16, 32, 64)),
    "kernel": GeneSpec(choices=(3, 5, 7)),
    "dense1": GeneSpec(choices=(16, 32, 64, 128)),
    "dense2": GeneSpec(choices=(16, 32, 64, 128)),
    "dropout": GeneSpec(choices=(0.0, 0.1, 0.2, 0.3)),
    "learning_rate": GeneSpec(choices=(1e-2, 1e-3, 1e-4)),
    "detector": GeneSpec(choices=DETECTOR_KINDS),
    "nu": GeneSpec(choices=(0.01, 0.05, 0.1)),
    "gamma": GeneSpec(choices=(0.1, 1.0, 10.0)),
}

GENE_NAMES = tuple(GENE_DOMAINS)


DEFAULT_GENOME = PipelineSettings()


def random_genome(
    rng: Rng, domains: dict[str, GeneSpec], base: PipelineSettings
) -> PipelineSettings:
    """Sample every gene named in `domains`; the rest copy `base`.

    A restricted `domains` mapping therefore searches a subspace around a
    fixed genome (for example tuning beta alone).
    """
    return replace(base, **{name: spec.sample(rng) for name, spec in domains.items()})


def crossover(rng: Rng, a: PipelineSettings, b: PipelineSettings) -> PipelineSettings:
    """Uniform crossover: each gene from either parent with equal chance."""
    genes = {}
    for name in GENE_NAMES:
        genes[name] = getattr(a, name) if rng.uniform() < 0.5 else getattr(b, name)
    return replace(a, **genes)


def mutate(
    rng: Rng, genome: PipelineSettings, rate: float, domains: dict[str, GeneSpec]
) -> PipelineSettings:
    """Resample each gene named in `domains` with probability `rate`."""
    changed = {}
    for name, spec in domains.items():
        if rng.uniform() < rate:
            changed[name] = spec.sample(rng)
    return replace(genome, **changed) if changed else genome


@dataclass
class Individual:
    genome: PipelineSettings
    fitness: float


@dataclass(frozen=True)
class GaConfig:
    population_size: int = 20
    generations: int = 47
    tournament_size: int = 3
    crossover_rate: float = 0.9
    mutation_rate: float = 0.1
    elitism_count: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.population_size < 2:
            raise FieldError("population_size must be at least 2", "population_size")
        if self.generations < 1:
            raise FieldError("generations must be positive", "generations")
        if not 0 < self.tournament_size <= self.population_size:
            raise FieldError("tournament_size must lie in [1, population_size]",
                             "tournament_size", "population_size")
        for name in ("crossover_rate", "mutation_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise FieldError("rates must lie in [0, 1]", name)
        if not 0 <= self.elitism_count < self.population_size:
            raise FieldError("elitism_count must be below population_size",
                             "elitism_count", "population_size")


def genome_seed(base_seed: int, genome: PipelineSettings) -> int:
    """Per-genome evaluation seed: stable digest of the canonical key."""
    digest = hashlib.sha256(genome.key().encode()).digest()
    return derive_seed(base_seed, int.from_bytes(digest[:8], "big"))


def _evaluate_raising(
    genome: PipelineSettings,
    train_frame: TimeSeriesFrame,
    validation_frame: TimeSeriesFrame,
    budget: TrainConfig | None,
    base_seed: int,
) -> float:
    fitted = fit_pipeline(train_frame, genome, budget=budget, seed=genome_seed(base_seed, genome))
    _, report, _, _ = evaluate_frame(fitted, validation_frame)
    return report.f1


_worker_inputs: list = []  # in a worker, its evaluator's frames, budget and seed


def _evaluate_in_worker(genome: PipelineSettings) -> float:
    return _evaluate_raising(genome, *_worker_inputs)


def _end_workers(pools) -> None:
    # The collector may drop an evaluator on a pool's own thread, which cannot wait for itself.
    here = threading.current_thread()
    for pool in pools:
        pool.shutdown(wait=here not in (pool._executor_manager_thread, pool._call_queue._thread))


def make_evaluator(
    train_frame: TimeSeriesFrame,
    validation_frame: TimeSeriesFrame,
    budget: TrainConfig | None = None,
    seed: int = 0,
):
    """Caching, thread-safe fitness function for evolve().

    The returned callable exposes `.cache` (genome key -> fitness),
    `.failures` (list of (genome key, reason) pairs) and `.close()`, which
    ends its worker processes, one per CPU, forked here; dropping it does too.
    A miss goes to the most recently idle worker, so n calls at once train in
    at most n workers. A worker that dies raises ChildProcessError.
    """
    if np.any(train_frame.labels):
        raise ValueError("training frame contains attack-labeled rows")
    if not np.any(validation_frame.labels) or np.all(validation_frame.labels):
        raise ValueError("validation frame must contain both normal and attack rows")
    cache: dict[str, float] = {}
    failures: list[tuple[str, str]] = []
    lock = threading.Lock()
    import multiprocessing  # imported on first use: it costs every command's start-up
    from concurrent.futures import ProcessPoolExecutor
    pools, idle, inputs = [], queue.LifoQueue(), [train_frame, validation_frame, budget, seed]
    for _ in os.sched_getaffinity(0):
        pools.append(ProcessPoolExecutor(1, multiprocessing.get_context("fork"),
                                         _worker_inputs.extend, (inputs,)))
        pools[-1].submit(int).result()  # forks now, in this thread, while older pools idle
        idle.put(pools[-1])

    def evaluator(genome: PipelineSettings) -> float:
        key = genome.key()
        with lock:
            if key in cache:
                return cache[key]
        pool = idle.get()
        try:
            fitness = pool.submit(_evaluate_in_worker, genome).result()
        except BrokenExecutor as exc:  # the broken pool, put back, fails each later call
            exc.__traceback__ = None  # the pool's thread holds exc: it must not pin this evaluator
            raise ChildProcessError(f"a GA worker process died: {exc}") from exc
        except (ValueError, FloatingPointError, NonConvergence) as exc:
            logger.warning("genome %s failed: %s", key, exc)
            with lock:
                failures.append((key, str(exc)))
            fitness = 0.0
        finally:
            idle.put(pool)
        with lock:
            cache[key] = fitness
        return fitness

    evaluator.cache = cache
    evaluator.failures = failures
    evaluator.close = weakref.finalize(evaluator, _end_workers, pools)
    return evaluator


@dataclass
class EvolutionResult:
    best: Individual
    best_history: list[float]
    mean_history: list[float]
    log_lines: list[str]


def _fitness(genomes: list[PipelineSettings], evaluator, threads: int) -> list[float]:
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return [float(fitness) for fitness in pool.map(evaluator, genomes)]


def _tournament(rng: Rng, fits: list[float], size: int) -> int:
    best = rng.randint(len(fits))
    for _ in range(size - 1):
        challenger = rng.randint(len(fits))
        if fits[challenger] > fits[best]:
            best = challenger
    return best


def evolve(
    config: GaConfig,
    evaluator,
    domains: dict[str, GeneSpec] | None = None,
    default_genome: PipelineSettings | None = None,
    threads: int | None = None,
) -> EvolutionResult:
    """Run the GA; generation 0 is the seeded initial population.

    The initial population holds one copy of the default genome plus random
    genomes. All randomness comes from config.seed in the main thread, and
    fitness depends only on the genome, so runs on any number of threads
    produce identical logs. `threads` genomes are evaluated at once (None, 0 or
    1: one), in at most `threads` workers of a make_evaluator evaluator.
    """
    domains = GENE_DOMAINS if domains is None else domains
    default_genome = DEFAULT_GENOME if default_genome is None else default_genome
    threads = threads or 1
    if threads < 0:
        raise ValueError("threads must be non-negative")
    rng = Rng(derive_seed(config.seed, 0x6A))

    genomes = [default_genome]
    genomes += [random_genome(rng, domains, default_genome)
                for _ in range(config.population_size - 1)]
    fits = _fitness(genomes, evaluator, threads)

    log_lines: list[str] = []
    best_history: list[float] = []
    mean_history: list[float] = []

    def record(generation: int) -> None:
        keys = [genome.key() for genome in genomes]
        log_lines.extend(csv_lines(([generation] * len(fits), range(len(fits)), keys, fits)))
        best_history.append(max(fits))
        mean_history.append(sum(fits) / len(fits))

    record(0)
    for generation in range(1, config.generations + 1):
        elites = sorted(range(len(genomes)), key=lambda i: (-fits[i], i))[: config.elitism_count]
        children = []
        while len(children) < config.population_size - config.elitism_count:
            parent_a = genomes[_tournament(rng, fits, config.tournament_size)]
            parent_b = genomes[_tournament(rng, fits, config.tournament_size)]
            if rng.uniform() < config.crossover_rate:
                genome = crossover(rng, parent_a, parent_b)
            else:
                genome = parent_a
            children.append(mutate(rng, genome, config.mutation_rate, domains))
        genomes, fits = ([genomes[i] for i in elites] + children,
                         [fits[i] for i in elites] + _fitness(children, evaluator, threads))
        record(generation)

    best = max(range(len(fits)), key=fits.__getitem__)
    return EvolutionResult(
        best=Individual(genomes[best], fits[best]),
        best_history=best_history,
        mean_history=mean_history,
        log_lines=log_lines,
    )


def evolution_log_text(result: EvolutionResult) -> str:
    """One `generation,index,genome,fitness` line per individual evaluated."""
    return "\n".join(result.log_lines) + "\n"


def history_csv(result: EvolutionResult) -> str:
    """`generation,best,mean` rows for plotting the fitness trajectory."""
    columns = (range(len(result.best_history)), result.best_history, result.mean_history)
    return csv_text(("generation", "best", "mean"), columns)
