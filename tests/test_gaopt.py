import logging

import numpy as np
import pytest

import cps_sentinel.gaopt as gaopt
from cps_sentinel.detectors import KMEANS, THRESHOLD
from cps_sentinel.forecaster import TrainConfig
from cps_sentinel.gaopt import (
    DEFAULT_GENOME,
    GENE_NAMES,
    GaConfig,
    GeneSpec,
    Genome,
    crossover,
    evolution_log_text,
    evolve,
    genome_seed,
    history_csv,
    make_evaluator,
    mutate,
    random_genome,
    repair,
    validate_genome,
)
from cps_sentinel.rng import Rng

from conftest import make_frame, random_frame


def toy_fitness(genome: Genome) -> float:
    """Deterministic, instant stand-in for pipeline F1: peaks at beta 2.2."""
    score = 1.0 / (1.0 + abs(genome.beta - 2.2))
    if genome.window == 16:
        score += 0.05
    if genome.detector == KMEANS:
        score += 0.02
    return score


SMALL_GA = GaConfig(population_size=8, generations=10, tournament_size=3,
                    crossover_rate=0.9, mutation_rate=0.2, elitism_count=1, seed=5)


def labeled_frames(rows=60):
    train = random_frame(rows, 2, seed=1)
    labels = np.zeros(rows, dtype=bool)
    labels[rows // 2 : rows // 2 + 10] = True
    validation = make_frame(random_frame(rows, 2, seed=2).values, labels=labels)
    return train, validation


# --- genome plumbing ---------------------------------------------------------


def test_default_genome_key_is_pinned():
    assert DEFAULT_GENOME.key() == (
        "window=12;beta=1.5;lag=1;conv1=32;conv2=64;kernel=3;dense1=64;"
        "dense2=32;dropout=0.2;learning_rate=0.001;detector=threshold;"
        "nu=0.05;gamma=1.0"
    )


def test_genome_key_has_no_commas():
    rng = Rng(0)
    for _ in range(20):
        assert "," not in random_genome(rng).key()


def test_genome_as_settings_maps_every_field():
    genome = Genome(window=16, beta=2.5, lag=3, conv1=16, conv2=32, kernel=5,
                    dense1=128, dense2=16, dropout=0.1, learning_rate=1e-4,
                    detector=KMEANS, nu=0.1, gamma=10.0)
    settings = genome.as_settings()
    assert settings.window == 16 and settings.beta == 2.5 and settings.lag == 3
    assert settings.conv_filters == (16, 32) and settings.kernel_size == 5
    assert settings.dense_units == (128, 16) and settings.dropout == 0.1
    assert settings.learning_rate == 1e-4 and settings.detector == KMEANS
    assert settings.nu == 0.1 and settings.gamma == 10.0


def test_validate_genome():
    assert validate_genome(DEFAULT_GENOME) == []
    problems = validate_genome(Genome(window=10, beta=5.0))
    assert any("window=10" in p for p in problems)
    assert any("beta" in p for p in problems)
    assert any("divisible by 4" in p for p in problems)


def test_genome_seed_depends_on_genome_and_base():
    a = genome_seed(0, DEFAULT_GENOME)
    assert genome_seed(0, DEFAULT_GENOME) == a
    assert genome_seed(1, DEFAULT_GENOME) != a
    assert genome_seed(0, Genome(beta=2.0)) != a


def test_random_genome_stays_in_domains():
    rng = Rng(3)
    for _ in range(50):
        genome = random_genome(rng)
        assert validate_genome(genome) == []


def test_random_genome_restricted_domain_keeps_base_genes():
    rng = Rng(4)
    base = Genome(window=16, detector=KMEANS, nu=0.1)
    domains = {"beta": GeneSpec(low=1.0, high=3.0)}
    betas = set()
    for _ in range(10):
        genome = random_genome(rng, domains, base=base)
        assert genome.window == 16 and genome.detector == KMEANS and genome.nu == 0.1
        assert 1.0 <= genome.beta <= 3.0
        betas.add(genome.beta)
    assert len(betas) > 1


def test_crossover_takes_each_gene_from_a_parent():
    a = Genome(window=8, beta=1.0, detector=THRESHOLD)
    b = Genome(window=24, beta=3.0, detector=KMEANS)
    rng = Rng(5)
    for _ in range(10):
        child = crossover(rng, a, b)
        for name in GENE_NAMES:
            assert getattr(child, name) in (getattr(a, name), getattr(b, name))


def test_mutate_rate_zero_is_identity():
    rng = Rng(6)
    assert mutate(rng, DEFAULT_GENOME, rate=0.0) is DEFAULT_GENOME


def test_mutate_rate_one_resamples_continuous_genes():
    rng = Rng(7)
    mutated = mutate(rng, DEFAULT_GENOME, rate=1.0)
    assert mutated.beta != DEFAULT_GENOME.beta  # continuous, so a.s. different
    assert validate_genome(repair(mutated, rng)) == []


def test_repair_fixes_violations():
    rng = Rng(8)
    fixed = repair(Genome(window=10, beta=9.0), rng)
    assert validate_genome(fixed) == []
    with pytest.raises(ValueError, match="multiple of 4"):
        repair(Genome(window=10), rng, {"window": GeneSpec(choices=(10, 14))})
    with pytest.raises(ValueError, match="finite choice"):
        repair(Genome(window=10), rng, {"window": GeneSpec(low=8, high=24)})


def test_ga_config_validation():
    with pytest.raises(ValueError, match="population_size"):
        GaConfig(population_size=1)
    with pytest.raises(ValueError, match="generations"):
        GaConfig(generations=0)
    with pytest.raises(ValueError, match="tournament_size"):
        GaConfig(population_size=4, tournament_size=5)
    with pytest.raises(ValueError, match="rates"):
        GaConfig(crossover_rate=1.5)
    with pytest.raises(ValueError, match="elitism_count"):
        GaConfig(population_size=4, elitism_count=4)


# --- evolution loop ----------------------------------------------------------


def test_evolve_best_fitness_non_decreasing_with_elitism():
    result = evolve(SMALL_GA, toy_fitness, threads=0)
    assert len(result.best_history) == SMALL_GA.generations + 1
    assert np.all(np.diff(result.best_history) >= 0)
    assert result.best.fitness == result.best_history[-1]
    assert result.best.fitness >= toy_fitness(DEFAULT_GENOME)


def test_evolve_identical_seeds_identical_logs():
    a = evolve(SMALL_GA, toy_fitness, threads=0)
    b = evolve(SMALL_GA, toy_fitness, threads=0)
    assert a.log_lines == b.log_lines
    c = evolve(GaConfig(**{**SMALL_GA.__dict__, "seed": 6}), toy_fitness, threads=0)
    assert a.log_lines != c.log_lines


def test_evolve_parallel_trace_equals_serial():
    serial = evolve(SMALL_GA, toy_fitness, threads=1)
    parallel = evolve(SMALL_GA, toy_fitness, threads=4)
    assert serial.log_lines == parallel.log_lines
    assert serial.best_history == parallel.best_history


def test_evolve_thread_count_from_environment(monkeypatch):
    serial = evolve(SMALL_GA, toy_fitness, threads=None)
    monkeypatch.setenv(gaopt.THREADS_ENV, "3")
    from_env = evolve(SMALL_GA, toy_fitness, threads=None)
    assert serial.log_lines == from_env.log_lines
    with pytest.raises(ValueError, match="non-negative"):
        evolve(SMALL_GA, toy_fitness, threads=-1)


def test_evolve_caching_does_not_change_the_trace():
    cache = {}

    def cached_toy(genome):
        key = genome.key()
        if key not in cache:
            cache[key] = toy_fitness(genome)
        return cache[key]

    assert evolve(SMALL_GA, toy_fitness).log_lines == evolve(SMALL_GA, cached_toy).log_lines
    assert cache  # repeats actually occurred


def test_evolve_log_lines_parse_as_csv():
    result = evolve(SMALL_GA, toy_fitness)
    assert len(result.log_lines) == (SMALL_GA.generations + 1) * SMALL_GA.population_size
    for line in result.log_lines:
        generation, idx, key, fitness = line.split(",")
        int(generation), int(idx), float(fitness)
        assert key.count("=") == len(GENE_NAMES)
    text = evolution_log_text(result)
    assert text.endswith("\n") and text.count("\n") == len(result.log_lines)


def test_evolve_restricted_beta_domain_tunes_beta_only():
    domains = {"beta": GeneSpec(low=1.0, high=3.0)}
    config = GaConfig(population_size=10, generations=15, tournament_size=3,
                      crossover_rate=0.8, mutation_rate=0.3, elitism_count=1, seed=9)

    def beta_only(genome):
        return -abs(genome.beta - 2.0)

    result = evolve(config, beta_only, domains=domains)
    assert abs(result.best.genome.beta - 2.0) < 0.2
    for ind in result.final_population:
        assert ind.genome.window == DEFAULT_GENOME.window
        assert ind.genome.detector == DEFAULT_GENOME.detector


def test_history_csv_format():
    result = evolve(SMALL_GA, toy_fitness)
    lines = history_csv(result).splitlines()
    assert lines[0] == "generation,best,mean"
    assert len(lines) == SMALL_GA.generations + 2
    gen, best, mean = lines[1].split(",")
    assert gen == "0" and float(best) >= float(mean)


# --- fitness evaluation against the real pipeline ----------------------------


def test_evaluate_precondition_errors():
    train, validation = labeled_frames()
    attacked_train = make_frame(train.values, labels=validation.labels)
    with pytest.raises(ValueError, match="attack-labeled"):
        make_evaluator(attacked_train, validation)
    with pytest.raises(ValueError, match="both normal and attack"):
        make_evaluator(train, train)


def test_invalid_genome_maps_to_zero_fitness(caplog):
    train, validation = labeled_frames()
    bad = Genome(window=10)
    with caplog.at_level(logging.WARNING, logger="cps_sentinel.gaopt"):
        fitness = make_evaluator(train, validation)(bad)
    assert fitness == 0.0
    assert any("divisible by 4" in r.message for r in caplog.records)


def test_make_evaluator_caches_and_records_failures(monkeypatch):
    train, validation = labeled_frames()
    calls = []

    def stub(genome, train_frame, validation_frame, budget, base_seed):
        calls.append(genome.key())
        if genome.window == 10:
            raise ValueError("stub failure")
        return 0.5

    monkeypatch.setattr(gaopt, "_evaluate_raising", stub)
    evaluator = make_evaluator(train, validation)
    assert evaluator(DEFAULT_GENOME) == 0.5
    assert evaluator(DEFAULT_GENOME) == 0.5
    assert len(calls) == 1  # second call served from the cache
    assert evaluator.cache[DEFAULT_GENOME.key()] == 0.5

    bad = Genome(window=10)
    assert evaluator(bad) == 0.0
    assert evaluator(bad) == 0.0
    assert evaluator.failures == [(bad.key(), "stub failure")]


def test_micro_ga_on_real_pipeline():
    train, validation = labeled_frames(rows=70)
    budget = TrainConfig(epochs=1, batch_size=16, learning_rate=0.01,
                         early_stop_patience=1, seed=0)
    evaluator = make_evaluator(train, validation, budget=budget, seed=3)
    base = Genome(window=8, conv1=16, conv2=16, dense1=16, dense2=16)
    config = GaConfig(population_size=3, generations=1, tournament_size=2,
                      crossover_rate=0.5, mutation_rate=0.5, elitism_count=1, seed=1)
    domains = {"beta": GeneSpec(low=1.0, high=3.0),
               "detector": GeneSpec(choices=(THRESHOLD, KMEANS))}
    result = evolve(config, evaluator, domains=domains, default_genome=base)
    assert evaluator.cache
    assert all(0.0 <= f <= 1.0 for f in evaluator.cache.values())
    assert result.best.fitness >= result.mean_history[0] - 1e-12
    assert not evaluator.failures
