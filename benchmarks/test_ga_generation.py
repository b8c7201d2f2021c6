"""Benchmarks of the GA inner loop: full generations and selection.

These track the fitness engine at three GA shapes (the paper-default
population on a small batch, and the ci and full experiment scales),
plus a micro-benchmark of the non-dominated sort at a Table-III-like
population size, with the retained scalar sort as the reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.nsga2 import (
    fast_non_dominated_sort,
    fast_non_dominated_sort_reference,
)
from repro.core.trainer import GAConfig, GATrainer
from repro.datasets.preprocessing import normalize_01, stratified_split
from repro.datasets.synthetic import SyntheticSpec, generate_synthetic_classification
from repro.quant.quantizers import quantize_inputs

#: Benchmark topology: the pendigits MLP (the widest Table I topology).
TOPOLOGY = (16, 5, 10)

#: The paper-default population on a small batch (``(population,
#: samples before the 70 % split)``), then the ci and full experiment
#: scales: population 40 on 800 samples, population 120 on all 3498
#: pendigits samples.
DEFAULT_SHAPE = (60, 700)
SCALE_SHAPES = {"ci": (40, 800), "full": (120, 3498)}


def training_data(num_samples: int):
    rng = np.random.default_rng(0)
    spec = SyntheticSpec(
        num_features=TOPOLOGY[0],
        num_classes=TOPOLOGY[-1],
        num_samples=num_samples,
        class_sep=2.0,
        noise=0.2,
    )
    features, labels = generate_synthetic_classification(spec, rng)
    x_train, y_train, _, _ = stratified_split(normalize_01(features), labels, 0.7, rng)
    return quantize_inputs(x_train), y_train


def run_generations(x_train, y_train, population: int, generations: int):
    config = GAConfig(population_size=population, generations=generations, seed=0)
    trainer = GATrainer(TOPOLOGY, ga_config=config)
    return trainer.train(x_train, y_train)


def bench_one_generation(benchmark, record_bench, name, population, num_samples):
    x_train, y_train = training_data(num_samples)
    result = benchmark(lambda: run_generations(x_train, y_train, population, 1))
    # Unique-lookup counting: in-batch duplicates are folded.
    assert population <= result.evaluations <= population * 2
    assert len(result.history) == 1
    record_bench(
        "ga_generation",
        name,
        seconds=result.wall_clock_seconds,
        population=population,
        samples=len(y_train),
        evaluations=result.evaluations,
    )


def test_bench_full_ga_generation(benchmark, record_bench):
    """One full NSGA-II generation at population 60 (evaluation + selection)."""
    bench_one_generation(benchmark, record_bench, "full_generation_pop60", *DEFAULT_SHAPE)


@pytest.mark.parametrize("scale", sorted(SCALE_SHAPES))
def test_bench_ga_generation_at_scale(benchmark, record_bench, scale):
    """One full NSGA-II generation at the ci and full experiment shapes."""
    population, num_samples = SCALE_SHAPES[scale]
    bench_one_generation(
        benchmark, record_bench, f"full_generation_{scale}", population, num_samples
    )


def test_bench_nondominated_sort_n200(benchmark):
    """Broadcast non-dominated sort of a 200-individual mixed-feasibility pool."""
    rng = np.random.default_rng(0)
    objectives = rng.random((200, 2))
    violations = np.maximum(0.0, rng.random(200) - 0.7)
    fronts = benchmark(lambda: fast_non_dominated_sort(objectives, violations))
    assert sorted(i for front in fronts for i in front) == list(range(200))


def test_bench_nondominated_sort_n200_reference(benchmark):
    """Scalar pairwise-loop sort at n=200, kept for speedup tracking."""
    rng = np.random.default_rng(0)
    objectives = rng.random((200, 2))
    violations = np.maximum(0.0, rng.random(200) - 0.7)
    fronts = benchmark(lambda: fast_non_dominated_sort_reference(objectives, violations))
    assert fronts == fast_non_dominated_sort(objectives, violations)
