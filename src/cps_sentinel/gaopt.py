"""Genetic algorithm over pipeline hyperparameters, maximizing detection F1.

A genome is a `PipelineSettings`: the fields named in GENE_DOMAINS are its
genes, and the others keep the default genome's values.

Tournament selection, uniform crossover, per-gene resample mutation, and
elitism. Fitness is a pure function of the genome (per-genome seeds derive
from the run seed and a genome digest), so results are cached by genome key
and parallel evaluation cannot change the outcome.
"""

import hashlib
import logging
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .dataio import TimeSeriesFrame, csv_text
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

    @property
    def continuous(self) -> bool:
        return not self.choices

    def sample(self, rng: Rng):
        if self.continuous:
            return rng.uniform_range(self.low, self.high)
        return self.choices[rng.randint(len(self.choices))]

    def contains(self, value) -> bool:
        if self.continuous:
            return self.low <= value <= self.high
        return value in self.choices


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


def validate_genome(genome: PipelineSettings) -> list[str]:
    """All gene-domain violations, empty when the genome is well-formed."""
    problems = []
    for name, spec in GENE_DOMAINS.items():
        value = getattr(genome, name)
        if not spec.contains(value):
            problems.append(f"{name}={value!r} outside its domain")
    # Two pool layers halve the window twice, so it must divide by 4.
    if genome.window % 4 != 0:
        problems.append(f"window={genome.window} not divisible by 4")
    return problems


def random_genome(
    rng: Rng,
    domains: dict[str, GeneSpec] | None = None,
    base: PipelineSettings | None = None,
) -> PipelineSettings:
    """Sample every gene named in `domains`; the rest copy `base`.

    A restricted `domains` mapping therefore searches a subspace around a
    fixed genome (for example tuning beta alone).
    """
    domains = GENE_DOMAINS if domains is None else domains
    base = DEFAULT_GENOME if base is None else base
    genome = replace(base, **{name: spec.sample(rng) for name, spec in domains.items()})
    return repair(genome, rng, domains)


def crossover(rng: Rng, a: PipelineSettings, b: PipelineSettings) -> PipelineSettings:
    """Uniform crossover: each gene from either parent with equal chance."""
    genes = {}
    for name in GENE_NAMES:
        genes[name] = getattr(a, name) if rng.uniform() < 0.5 else getattr(b, name)
    return replace(a, **genes)


def mutate(
    rng: Rng, genome: PipelineSettings, rate: float, domains: dict[str, GeneSpec] | None = None
) -> PipelineSettings:
    """Resample each gene named in `domains` with probability `rate`."""
    domains = GENE_DOMAINS if domains is None else domains
    changed = {}
    for name, spec in domains.items():
        if rng.uniform() < rate:
            changed[name] = spec.sample(rng)
    return replace(genome, **changed) if changed else genome


def repair(
    genome: PipelineSettings, rng: Rng, domains: dict[str, GeneSpec] | None = None
) -> PipelineSettings:
    """Resample any out-of-domain gene; force the window divisible by 4."""
    domains = GENE_DOMAINS if domains is None else domains
    genes = {}
    for name, spec in domains.items():
        if not spec.contains(getattr(genome, name)):
            genes[name] = spec.sample(rng)
    window_spec = domains.get("window", GENE_DOMAINS["window"])
    if genes.get("window", genome.window) % 4 != 0:
        if window_spec.continuous:
            raise ValueError("window domain must be a finite choice set")
        valid = [c for c in window_spec.choices if c % 4 == 0]
        if not valid:
            raise ValueError("window domain contains no multiple of 4")
        genes["window"] = valid[rng.randint(len(valid))]
    return replace(genome, **genes)


@dataclass
class Individual:
    genome: PipelineSettings
    fitness: float | None = None


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
            raise ValueError("population_size must be at least 2")
        if self.generations < 1:
            raise ValueError("generations must be positive")
        if not 0 < self.tournament_size <= self.population_size:
            raise ValueError("tournament_size must lie in [1, population_size]")
        if not 0.0 <= self.crossover_rate <= 1.0 or not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("rates must lie in [0, 1]")
        if not 0 <= self.elitism_count < self.population_size:
            raise ValueError("elitism_count must be below population_size")


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
    problems = validate_genome(genome)
    if problems:
        raise ValueError("; ".join(problems))
    fitted = fit_pipeline(train_frame, genome, budget=budget, seed=genome_seed(base_seed, genome))
    _, report, _, _ = evaluate_frame(fitted, validation_frame)
    return report.f1


def make_evaluator(
    train_frame: TimeSeriesFrame,
    validation_frame: TimeSeriesFrame,
    budget: TrainConfig | None = None,
    seed: int = 0,
):
    """Caching, thread-safe fitness function for evolve().

    The returned callable exposes `.cache` (genome key -> fitness) and
    `.failures` (list of (genome key, reason) pairs).
    """
    if np.any(train_frame.labels):
        raise ValueError("training frame contains attack-labeled rows")
    if not np.any(validation_frame.labels) or np.all(validation_frame.labels):
        raise ValueError("validation frame must contain both normal and attack rows")
    cache: dict[str, float] = {}
    failures: list[tuple[str, str]] = []
    lock = threading.Lock()

    def evaluator(genome: PipelineSettings) -> float:
        key = genome.key()
        with lock:
            if key in cache:
                return cache[key]
        try:
            fitness = _evaluate_raising(genome, train_frame, validation_frame, budget, seed)
        except (ValueError, FloatingPointError, NonConvergence) as exc:
            logger.warning("genome %s failed: %s", key, exc)
            with lock:
                failures.append((key, str(exc)))
            fitness = 0.0
        with lock:
            cache[key] = fitness
        return fitness

    evaluator.cache = cache
    evaluator.failures = failures
    return evaluator


@dataclass
class EvolutionResult:
    best: Individual
    best_history: list[float]
    mean_history: list[float]
    log_lines: list[str]


def _evaluate_population(population: list[Individual], evaluator, threads: int) -> None:
    pending = [ind for ind in population if ind.fitness is None]
    genomes = [ind.genome for ind in pending]
    if threads > 1 and len(pending) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(evaluator, genomes))
    else:
        results = [evaluator(g) for g in genomes]
    for ind, fitness in zip(pending, results):
        ind.fitness = float(fitness)


def _tournament(rng: Rng, population: list[Individual], size: int) -> Individual:
    best = population[rng.randint(len(population))]
    for _ in range(size - 1):
        challenger = population[rng.randint(len(population))]
        if challenger.fitness > best.fitness:
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
    fitness depends only on the genome, so serial and parallel runs produce
    identical logs. `threads` None, 0 or 1 means serial evaluation.
    """
    domains = GENE_DOMAINS if domains is None else domains
    default_genome = DEFAULT_GENOME if default_genome is None else default_genome
    threads = 0 if threads is None else threads
    if threads < 0:
        raise ValueError("threads must be non-negative")
    rng = Rng(derive_seed(config.seed, 0x6A))

    population = [Individual(default_genome)]
    population += [
        Individual(random_genome(rng, domains, base=default_genome))
        for _ in range(config.population_size - 1)
    ]

    log_lines: list[str] = []
    best_history: list[float] = []
    mean_history: list[float] = []

    def record(generation: int) -> None:
        for idx, ind in enumerate(population):
            log_lines.append(f"{generation},{idx},{ind.genome.key()},{ind.fitness!r}")
        fits = [ind.fitness for ind in population]
        best_history.append(max(fits))
        mean_history.append(sum(fits) / len(fits))

    _evaluate_population(population, evaluator, threads)
    record(0)

    for generation in range(1, config.generations + 1):
        ranked = sorted(
            range(len(population)), key=lambda i: (-population[i].fitness, i)
        )
        elites = [population[i] for i in ranked[: config.elitism_count]]
        children = []
        while len(children) < config.population_size - config.elitism_count:
            parent_a = _tournament(rng, population, config.tournament_size)
            parent_b = _tournament(rng, population, config.tournament_size)
            if rng.uniform() < config.crossover_rate:
                genome = crossover(rng, parent_a.genome, parent_b.genome)
            else:
                genome = parent_a.genome
            genome = mutate(rng, genome, config.mutation_rate, domains)
            genome = repair(genome, rng, domains)
            children.append(Individual(genome))
        _evaluate_population(children, evaluator, threads)
        population = [Individual(e.genome, e.fitness) for e in elites] + children
        record(generation)

    best = max(population, key=lambda ind: ind.fitness)
    return EvolutionResult(
        best=Individual(best.genome, best.fitness),
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
