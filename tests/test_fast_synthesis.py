"""Equivalence and cache-sharing tests for the batched synthesis engine.

The vectorized engine in :mod:`repro.hardware.fast_synthesis` must be
*bit-identical* to the scalar analyzers in
:mod:`repro.hardware.synthesis` (retained as the ``slow=True`` oracle):
every randomized case below compares whole :class:`HardwareReport`
dataclasses — area, power, delay, cell counts and area breakdown — with
exact equality, across topologies, bit-widths, voltages and the
registered-I/O variant.  The second half covers the shared
:class:`~repro.core.cache.EvaluationCache`: true-LRU eviction order and
the end-to-end guarantee that a pipeline run performs zero redundant
decode/forward/synthesis for genomes already seen by the GA stage.
"""

import numpy as np
import pytest

from repro.approx.config import ApproxConfig
from repro.approx.topology import Topology
from repro.core.cache import EvaluationCache, LRUCache
from repro.core.chromosome import ChromosomeLayout
from repro.core.fitness import FitnessEvaluator
from repro.evaluation.pareto_analysis import evaluate_front
from repro.experiments.config import ExperimentScale
from repro.experiments.session import ExperimentSession
from repro.hardware.adder_tree import count_adders_from_columns
from repro.hardware.fast_synthesis import (
    fast_synthesize_exact_mlp,
    reduce_columns_adder_costs,
    synthesize_approximate_population,
    synthesize_exact_population,
)
from repro.hardware.synthesis import (
    synthesize_approximate_mlp,
    synthesize_exact_mlp,
)


# ----------------------------------------------------------------------
# Shared 3:2 reduction
# ----------------------------------------------------------------------
class TestReduceColumnsAdderCosts:
    @pytest.mark.parametrize("use_half_adders", [False, True])
    @pytest.mark.parametrize("include_final_cpa", [False, True])
    def test_matches_scalar_reducer(self, use_half_adders, include_final_cpa):
        rng = np.random.default_rng(0)
        for trial in range(20):
            width = int(rng.integers(1, 24))
            n = int(rng.integers(1, 30))
            counts = rng.integers(0, 40, size=(width, n))
            fa, ha, cpa, stages = reduce_columns_adder_costs(
                counts,
                use_half_adders=use_half_adders,
                include_final_cpa=include_final_cpa,
            )
            for j in range(n):
                cost = count_adders_from_columns(
                    counts[:, j],
                    use_half_adders=use_half_adders,
                    include_final_cpa=include_final_cpa,
                )
                assert fa[j] == cost.full_adders, (trial, j)
                assert ha[j] == cost.half_adders, (trial, j)
                assert cpa[j] == cost.cpa_full_adders, (trial, j)
                assert stages[j] == cost.reduction_stages, (trial, j)

    def test_mixed_depths_do_not_interfere(self):
        # One already-reduced tree next to a deep one: the shared sweep
        # must leave the finished tree untouched.
        counts = np.array([[1, 30], [2, 30], [0, 30]], dtype=np.int64)
        fa, ha, cpa, stages = reduce_columns_adder_costs(counts)
        shallow = count_adders_from_columns(
            counts[:, 0], use_half_adders=True, include_final_cpa=True
        )
        deep = count_adders_from_columns(
            counts[:, 1], use_half_adders=True, include_final_cpa=True
        )
        assert (fa[0], ha[0], cpa[0], stages[0]) == (
            shallow.full_adders,
            shallow.half_adders,
            shallow.cpa_full_adders,
            shallow.reduction_stages,
        )
        assert (fa[1], ha[1], cpa[1], stages[1]) == (
            deep.full_adders,
            deep.half_adders,
            deep.cpa_full_adders,
            deep.reduction_stages,
        )

    def test_rejects_negative_and_non_matrix(self):
        with pytest.raises(ValueError):
            reduce_columns_adder_costs(np.array([1, 2, 3]))
        with pytest.raises(ValueError):
            reduce_columns_adder_costs(np.array([[1], [-1]]))


# ----------------------------------------------------------------------
# Approximate MLPs
# ----------------------------------------------------------------------
class TestApproximateEquivalence:
    @pytest.mark.parametrize(
        "sizes", [(4, 3, 2), (6, 4, 3), (5, 2), (16, 5, 10), (3, 3, 3, 2)]
    )
    def test_population_matches_scalar_oracle(self, sizes, random_population):
        rng = np.random.default_rng(hash(sizes) % (2**32))
        mlps = random_population(rng, sizes, 6)
        fast = synthesize_approximate_population(mlps)
        for mlp, report in zip(mlps, fast):
            assert report == synthesize_approximate_mlp(mlp, slow=True)

    @pytest.mark.parametrize("voltage", [1.0, 0.8, 0.6])
    @pytest.mark.parametrize("include_registers", [False, True])
    def test_operating_points(self, voltage, include_registers, random_population):
        rng = np.random.default_rng(5)
        mlps = random_population(rng, (6, 4, 3), 5)
        fast = synthesize_approximate_population(
            mlps, voltage=voltage, include_registers=include_registers
        )
        for mlp, report in zip(mlps, fast):
            assert report == synthesize_approximate_mlp(
                mlp,
                voltage=voltage,
                include_registers=include_registers,
                slow=True,
            )

    def test_default_path_delegates_to_fast_engine(self, random_population):
        rng = np.random.default_rng(6)
        (mlp,) = random_population(rng, (4, 3, 2), 1)
        assert synthesize_approximate_mlp(mlp) == synthesize_approximate_mlp(
            mlp, slow=True
        )

    def test_clock_period_is_passed_through(self, random_population):
        rng = np.random.default_rng(7)
        (mlp,) = random_population(rng, (4, 3, 2), 1)
        report = synthesize_approximate_population([mlp], clock_period_ms=250.0)[0]
        assert report.clock_period_ms == pytest.approx(250.0)

    def test_empty_and_heterogeneous_inputs(self, random_population):
        assert synthesize_approximate_population([]) == []
        rng = np.random.default_rng(8)
        a = random_population(rng, (4, 3, 2), 1)
        b = random_population(rng, (5, 3, 2), 1)
        with pytest.raises(ValueError):
            synthesize_approximate_population(a + b)


# ----------------------------------------------------------------------
# Exact bespoke MLPs
# ----------------------------------------------------------------------
def _random_exact_job(rng):
    num_layers = int(rng.integers(1, 4))
    sizes = [int(rng.integers(2, 8)) for _ in range(num_layers + 1)]
    weight_codes = [
        rng.integers(-127, 128, size=(sizes[i], sizes[i + 1]))
        for i in range(num_layers)
    ]
    bias_codes = [
        rng.integers(-5000, 5001, size=(sizes[i + 1],)) for i in range(num_layers)
    ]
    input_bits = [int(rng.integers(2, 6))] + [8] * (num_layers - 1)
    shifts = [int(rng.integers(0, 6)) for _ in range(num_layers)]
    use_shifts = bool(rng.integers(0, 2))
    return {
        "weight_codes": weight_codes,
        "bias_codes": bias_codes,
        "input_bits_per_layer": input_bits,
        "activation_bits": 8,
        "activation_shifts": shifts if use_shifts else None,
    }


class TestExactEquivalence:
    def test_randomized_jobs_match_scalar_oracle(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            job = _random_exact_job(rng)
            voltage = float(rng.choice([1.0, 0.9, 0.7]))
            include_registers = bool(rng.integers(0, 2))
            fast = fast_synthesize_exact_mlp(
                voltage=voltage, include_registers=include_registers, **job
            )
            slow = synthesize_exact_mlp(
                voltage=voltage, include_registers=include_registers, slow=True, **job
            )
            assert fast == slow, trial

    def test_heterogeneous_batch_with_per_job_voltages(self):
        rng = np.random.default_rng(12)
        jobs = [_random_exact_job(rng) for _ in range(5)]
        voltages = [1.0, 0.8, 0.7, 0.9, 0.6]
        reports = synthesize_exact_population(jobs, voltage=voltages)
        for job, voltage, report in zip(jobs, voltages, reports):
            assert report == synthesize_exact_mlp(voltage=voltage, slow=True, **job)

    def test_voltage_vector_must_align(self):
        rng = np.random.default_rng(13)
        jobs = [_random_exact_job(rng) for _ in range(2)]
        with pytest.raises(ValueError):
            synthesize_exact_population(jobs, voltage=[1.0])

    def test_misaligned_job_rejected(self):
        job = {
            "weight_codes": [np.ones((3, 2), dtype=np.int64)] * 2,
            "bias_codes": [np.zeros(2, dtype=np.int64)],
            "input_bits_per_layer": [4, 8],
        }
        with pytest.raises(ValueError):
            synthesize_exact_population([job])

    def test_default_exact_path_delegates_to_fast_engine(self):
        rng = np.random.default_rng(15)
        job = _random_exact_job(rng)
        assert synthesize_exact_mlp(**job) == synthesize_exact_mlp(slow=True, **job)


# ----------------------------------------------------------------------
# Batched front evaluation
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_ga_result():
    from repro.core.trainer import GAConfig, GATrainer

    rng = np.random.default_rng(21)
    inputs = rng.integers(0, 16, size=(60, 4))
    labels = rng.integers(0, 2, size=60)
    trainer = GATrainer(
        (4, 3, 2), ga_config=GAConfig(population_size=12, generations=3, seed=0)
    )
    result = trainer.train(inputs, labels)
    return result, inputs, labels


class TestEvaluateFrontBatching:
    def test_batched_front_matches_scalar_oracle(self, tiny_ga_result):
        result, inputs, labels = tiny_ga_result
        fast = evaluate_front(result, inputs, labels, clock_period_ms=200.0)
        slow = evaluate_front(result, inputs, labels, clock_period_ms=200.0, slow=True)
        assert fast == slow

    def test_cache_reuse_returns_identical_designs(self, tiny_ga_result):
        result, inputs, labels = tiny_ga_result
        cache = EvaluationCache()
        first = evaluate_front(result, inputs, labels, cache=cache)
        misses_after_first = cache.reports.misses
        second = evaluate_front(result, inputs, labels, cache=cache)
        assert second == first
        # The second pass is served entirely from the cache: no new
        # report misses, no new accuracy misses.
        assert cache.reports.misses == misses_after_first
        assert cache.reports.hits >= len(first)

    def test_custom_library_bypasses_report_cache(self, tiny_ga_result):
        from dataclasses import replace

        from repro.hardware.egfet import default_egfet_library

        result, inputs, labels = tiny_ga_result
        cache = EvaluationCache()
        default_designs = evaluate_front(result, inputs, labels, cache=cache)
        # A re-scaled library must not be served stale default-library
        # reports from the shared cache.
        library = default_egfet_library()
        doubled = replace(
            library,
            cells={
                name: replace(spec, area_cm2=spec.area_cm2 * 2)
                for name, spec in library.cells.items()
            },
        )
        custom_designs = evaluate_front(
            result, inputs, labels, cache=cache, library=doubled
        )
        for base, custom in zip(default_designs, custom_designs):
            assert custom.area_cm2 == pytest.approx(2 * base.area_cm2)


# ----------------------------------------------------------------------
# LRU cache semantics (satellite: FIFO -> true LRU)
# ----------------------------------------------------------------------
class TestLRUCache:
    def test_hit_refreshes_recency_and_eviction_order(self):
        cache = LRUCache(max_size=3)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        # Touch the oldest entry: under FIFO it would still be evicted
        # first; under true LRU the untouched "b" goes first.
        assert cache.get("a") == 1
        assert cache.keys() == ["b", "c", "a"]
        cache.put("d", 4)
        assert "b" not in cache
        assert "a" in cache and "c" in cache and "d" in cache
        cache.put("e", 5)
        assert "c" not in cache
        assert cache.keys() == ["a", "d", "e"]

    def test_counters_and_bound(self):
        cache = LRUCache(max_size=2)
        assert cache.get("missing") is None
        cache.put("x", 1)
        assert cache.get("x") == 1
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == pytest.approx(0.5)
        cache.put("y", 2)
        cache.put("z", 3)
        assert len(cache) == 2
        with pytest.raises(ValueError):
            LRUCache(max_size=0)

    def test_fitness_evaluator_memo_is_lru(self):
        rng = np.random.default_rng(31)
        layout = ChromosomeLayout(Topology((4, 3, 2)), ApproxConfig())
        inputs = rng.integers(0, 16, size=(20, 4))
        labels = rng.integers(0, 2, size=20)
        evaluator = FitnessEvaluator(layout, inputs, labels, max_cache_size=3)
        chromosomes = [layout.random(rng) for _ in range(4)]
        hot = chromosomes[0]
        evaluator.evaluate(hot)
        evaluator.evaluate(chromosomes[1])
        evaluator.evaluate(chromosomes[2])
        # Refresh the hot genome, then insert a fourth: the hot genome
        # must survive (FIFO would evict it, being the oldest insert).
        evaluator.evaluate(hot)
        evaluator.evaluate(chromosomes[3])
        hits_before = evaluator.cache_hits
        evaluator.evaluate(hot)
        assert evaluator.cache_hits == hits_before + 1
        # The least recently *used* entry was evicted instead: looking
        # chromosomes[1] up again forces a recomputation.
        computations_before = evaluator.fitness_computations
        evaluator.evaluate(chromosomes[1])
        assert evaluator.fitness_computations == computations_before + 1

    def test_shared_cache_isolates_evaluator_contexts(self):
        # Cached fitness values embed the feasibility constraint, so two
        # evaluators with different baselines sharing one cache must not
        # serve each other's entries.
        rng = np.random.default_rng(32)
        layout = ChromosomeLayout(Topology((4, 3, 2)), ApproxConfig())
        inputs = rng.integers(0, 16, size=(20, 4))
        labels = rng.integers(0, 2, size=20)
        chromosome = layout.random(rng)
        shared = EvaluationCache()
        constrained = FitnessEvaluator(
            layout, inputs, labels, baseline_accuracy=1.5, cache=shared
        )
        unconstrained = FitnessEvaluator(layout, inputs, labels, cache=shared)
        first = constrained.evaluate(chromosome)
        second = unconstrained.evaluate(chromosome)
        # An impossible baseline makes every candidate infeasible; the
        # unconstrained evaluator must not inherit that violation.
        assert first.constraint_violation > 0.0
        assert second.constraint_violation == 0.0
        assert unconstrained.cache_hits == 0


# ----------------------------------------------------------------------
# End-to-end cache sharing across session stages
# ----------------------------------------------------------------------
def _tiny_scale(datasets):
    return ExperimentScale(
        name="tiny-test",
        datasets=datasets,
        max_samples=160,
        gradient_epochs=8,
        gradient_restarts=1,
        ga_population=10,
        ga_generations=3,
        max_front_designs=8,
    )


class TestPipelineCacheSharing:
    def test_front_stage_reuses_ga_work(self):
        session = ExperimentSession(_tiny_scale(("breast_cancer",)))
        result = session.front("breast_cancer")
        approx = result.approximate
        assert approx is not None and approx.cache is not None
        cache = approx.cache
        # Zero redundant decode: every front genome was decoded by the
        # GA stage and served from the shared model cache.
        assert cache.models.misses == 0
        assert cache.models.hits >= len(approx.designs) > 0
        # Every report was synthesized exactly once (no report existed
        # before the front stage, so every lookup missed then filled).
        assert cache.reports.hits == 0
        assert cache.reports.misses == len(approx.designs)

        # A later reporting stage re-requesting the front is served
        # entirely from the cache: zero redundant forward/synthesis.
        x_test, y_test = result.dataset.quantized_test()
        again = evaluate_front(
            approx.ga_result,
            x_test,
            y_test,
            clock_period_ms=result.spec.clock_period_ms,
            max_designs=session.scale.max_front_designs,
            cache=cache,
        )
        assert again == approx.designs
        assert cache.models.misses == 0
        assert cache.reports.misses == len(approx.designs)

    def test_pendigits_uses_registry_clock_period(self):
        from repro.datasets.registry import clock_period_for

        assert clock_period_for("pendigits") == pytest.approx(250.0)
        result = ExperimentSession(_tiny_scale(("pendigits",))).front("pendigits")
        assert result.baseline.report.clock_period_ms == pytest.approx(250.0)
        assert result.approximate is not None
        for design in result.approximate.designs:
            assert design.report.clock_period_ms == pytest.approx(250.0)
