"""Equivalence tests for the genome-native fitness and the flat-buffer
gradient loop.

* ``FitnessEvaluator.score_population`` — population matrix decoded by
  ``ChromosomeLayout.decode_population`` and scored in one stacked pass —
  equals the per-genome oracle ``score_population(..., slow=True)``
  (decode one model per genome, ``mlp.accuracy`` + ``fast_mlp_fa_count``)
  bit for bit, in every plane dtype (float32, float64 and int64);
* out-of-bounds genes and malformed matrices raise ``ValueError``;
* the population adapters (``forward_population``,
  ``accuracy_population``) agree with per-model inference;
* ``GradientTrainer.train`` (flat ``theta`` buffer) equals
  ``train(..., slow=True)`` (per-layer loop) bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.approx.config import ApproxConfig
from repro.approx.layer import exact_matmul_dtype
from repro.approx.mlp import accuracy_population, forward_population
from repro.approx.population import StackedMLP, _stacked_planes, forward_stacked
from repro.approx.topology import Topology
from repro.baselines.gradient import GradientTrainer
from repro.core.cache import EvaluationCache
from repro.core.chromosome import ChromosomeLayout
from repro.core.fitness import FitnessEvaluator
from repro.core.trainer import GAConfig, GATrainer


def _evaluator(sizes, config, learn_shifts, rng, n_samples=40):
    layout = ChromosomeLayout(Topology(sizes), config, learn_shifts=learn_shifts)
    inputs = rng.integers(0, config.max_input_value + 1, size=(n_samples, sizes[0]))
    labels = rng.integers(0, sizes[-1], size=n_samples)
    return layout, FitnessEvaluator(layout, inputs, labels)


def _assert_oracle_equal(evaluator, population):
    accuracies, areas = evaluator.score_population(population)
    oracle_accuracies, oracle_areas = evaluator.score_population(population, slow=True)
    assert accuracies.dtype == oracle_accuracies.dtype == np.float64
    assert areas.dtype == oracle_areas.dtype == np.int64
    assert np.array_equal(accuracies, oracle_accuracies)
    assert np.array_equal(areas, oracle_areas)


def _plane_dtypes(layout, population):
    stack = layout.decode_population(population)
    return [
        _stacked_planes(
            stack.masks[i],
            stack.signs[i],
            stack.exponents[i],
            stack.biases[i],
            8 if stack.config.layer_input_bits(i) <= 8 else stack.config.layer_input_bits(i),
        ).dtype
        for i in range(len(stack.masks))
    ]


def _saturate_exponents(layout, population):
    """Set every exponent gene to its maximum (widest accumulators)."""
    exponent_genes = [
        g for g in range(layout.num_genes) if layout.describe_gene(g)[0] == "exponent"
    ]
    population[:, exponent_genes] = layout.upper_bounds[exponent_genes]
    return population


class TestGenomeNativeFitness:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**9),
        sizes=st.sampled_from([(4, 3, 2), (5, 2, 3), (3, 4, 2, 3), (6, 2), (2, 5, 4)]),
        learn_shifts=st.booleans(),
        population_size=st.integers(min_value=1, max_value=7),
        duplicates=st.integers(min_value=0, max_value=3),
        input_bits=st.integers(min_value=2, max_value=8),
    )
    def test_matches_per_genome_oracle(
        self, seed, sizes, learn_shifts, population_size, duplicates, input_bits
    ):
        rng = np.random.default_rng(seed)
        config = ApproxConfig(input_bits=input_bits)
        layout, evaluator = _evaluator(sizes, config, learn_shifts, rng)
        population = np.stack([layout.random(rng) for _ in range(population_size)])
        if duplicates:
            rows = rng.integers(0, population_size, size=duplicates)
            population = np.concatenate([population, population[rows]])
        _assert_oracle_equal(evaluator, population)
        # The memoized batch path agrees with the uncached oracle too.
        assert evaluator.evaluate_population(population) == [
            evaluator.compute(row) for row in population
        ]

    def test_single_genome_goes_through_kernel(self, rng):
        layout, evaluator = _evaluator((4, 3, 2), ApproxConfig(), True, rng)
        genome = layout.random(rng)
        _assert_oracle_equal(evaluator, genome[None, :])
        assert evaluator.evaluate(genome) == evaluator.compute(genome)

    @pytest.mark.parametrize(
        "config, expected",
        [
            (ApproxConfig(), np.float32),
            (ApproxConfig(weight_bits=24), np.float64),
            (ApproxConfig(weight_bits=50), np.int64),
        ],
    )
    @pytest.mark.parametrize("learn_shifts", [True, False])
    def test_plane_dtype_fallbacks_match_oracle(self, rng, config, expected, learn_shifts):
        layout, evaluator = _evaluator((5, 3, 3), config, learn_shifts, rng)
        population = np.stack([layout.random(rng) for _ in range(6)])
        if expected != np.float32:
            population = _saturate_exponents(layout, population)
        assert _plane_dtypes(layout, population)[0] == expected
        _assert_oracle_equal(evaluator, population)

    def test_wide_inputs_and_activations_match_oracle(self, rng):
        """Planes wider than one byte take the generic bit expansion."""
        config = ApproxConfig(input_bits=10, activation_bits=10, weight_bits=16)
        layout, evaluator = _evaluator((3, 4, 2), config, True, rng)
        population = _saturate_exponents(
            layout, np.stack([layout.random(rng) for _ in range(5)])
        )
        assert _plane_dtypes(layout, population) == [np.float64, np.float64]
        _assert_oracle_equal(evaluator, population)

    def test_exact_matmul_dtype_thresholds(self):
        assert exact_matmul_dtype(2**22 - 1) == np.float32
        assert exact_matmul_dtype(2**22) == np.float64
        assert exact_matmul_dtype(2**52 - 1) == np.float64
        assert exact_matmul_dtype(2**52) == np.int64

    def test_decode_population_matches_per_genome_decode(self, rng):
        layout = ChromosomeLayout(Topology((4, 3, 2)), ApproxConfig(), learn_shifts=True)
        population = np.stack([layout.random(rng) for _ in range(5)])
        stack = layout.decode_population(population)
        assert stack.size == 5
        for p, genome in enumerate(population):
            mlp = layout.decode(genome)
            for index, layer in enumerate(mlp.layers):
                assert np.array_equal(stack.masks[index][p], layer.masks)
                assert np.array_equal(stack.signs[index][p], layer.signs)
                assert np.array_equal(stack.exponents[index][p], layer.exponents)
                assert np.array_equal(stack.biases[index][p], layer.biases)
            assert stack.shifts[p].tolist() == mlp.shifts[:-1]

    def test_out_of_bounds_genes_raise(self, rng):
        layout, evaluator = _evaluator((4, 3, 2), ApproxConfig(), True, rng)
        population = np.stack([layout.random(rng) for _ in range(3)])
        population[1, 0] = layout.upper_bounds[0] + 1
        with pytest.raises(ValueError, match="out of bounds"):
            layout.decode_population(population)
        with pytest.raises(ValueError, match="out of bounds"):
            evaluator.evaluate_population(population)
        population[1, 0] = layout.lower_bounds[0] - 1
        with pytest.raises(ValueError, match="out of bounds"):
            evaluator.score_population(population)

    def test_malformed_matrix_raises(self, rng):
        layout, evaluator = _evaluator((4, 3, 2), ApproxConfig(), True, rng)
        with pytest.raises(ValueError, match="shape"):
            layout.decode_population(np.zeros((2, layout.num_genes + 1), dtype=np.int64))
        with pytest.raises(ValueError, match="shape"):
            evaluator.evaluate(np.zeros(layout.num_genes - 1, dtype=np.int64))


class TestPopulationAdapters:
    def test_forward_and_accuracy_match_per_model(self, rng, random_population):
        models = random_population(rng, (5, 3, 4), 6)
        x = rng.integers(0, 16, size=(30, 5))
        y = rng.integers(0, 4, size=30)
        scores = forward_population(models, x)
        assert scores.dtype == np.int64
        for model, score in zip(models, scores):
            assert np.array_equal(score, model.forward(x))
        assert accuracy_population(models, x, y).tolist() == [
            model.accuracy(x, y) for model in models
        ]

    def test_from_models_round_trips_decode_population(self, rng):
        layout = ChromosomeLayout(Topology((4, 3, 2)), ApproxConfig())
        population = np.stack([layout.random(rng) for _ in range(4)])
        x = rng.integers(0, 16, size=(12, 4))
        direct = forward_stacked(layout.decode_population(population), x)
        stacked = forward_stacked(
            StackedMLP.from_models([layout.decode(g) for g in population]), x
        )
        assert np.array_equal(direct, stacked)

    def test_heterogeneous_population_rejected(self, rng, make_mlp):
        models = [make_mlp(rng, sizes=(4, 3, 2)), make_mlp(rng, sizes=(4, 2, 2))]
        with pytest.raises(ValueError):
            forward_population(models, np.zeros((1, 4), dtype=np.int64))
        with pytest.raises(ValueError):
            forward_population([], np.zeros((1, 4), dtype=np.int64))


class TestModelCache:
    def test_in_process_run_caches_archive_models_only(self, rng):
        inputs = rng.integers(0, 16, size=(60, 4))
        labels = rng.integers(0, 2, size=60)
        cache = EvaluationCache()
        config = GAConfig(population_size=10, generations=3, seed=0)
        result = GATrainer((4, 3, 2), ga_config=config).train(inputs, labels, cache=cache)
        layout_key = EvaluationCache.layout_key(result.layout)
        keys = {
            (layout_key, EvaluationCache.genome_key(np.asarray(p.payload)))
            for p in result.pareto_points
        }
        assert len(keys) > 0
        assert all(key in cache.models for key in keys)
        assert len(cache.models) == len(keys)


class TestFlatBufferGradient:
    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    @pytest.mark.parametrize("sizes", [(6, 4, 3), (5, 3, 4, 2), (4, 2)])
    def test_matches_per_layer_loop(self, rng, optimizer, sizes):
        features = rng.random((90, sizes[0]))
        labels = rng.integers(0, sizes[-1], size=90)
        trainer = GradientTrainer(
            epochs=6, batch_size=16, restarts=3, optimizer=optimizer, seed=5
        )
        fast = trainer.train(features, labels, sizes)
        slow = trainer.train(features, labels, sizes, slow=True)
        for got, want in zip(
            fast.model.weights + fast.model.biases, slow.model.weights + slow.model.biases
        ):
            assert got.shape == want.shape
            assert np.array_equal(got, want)
        assert fast.losses == slow.losses
        assert fast.train_accuracy == slow.train_accuracy
        assert fast.epochs_run == slow.epochs_run
