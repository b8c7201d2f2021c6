"""The hardware-approximation-aware genetic trainer (NSGA-II loop).

This is the "Training & Approximation Framework" box of the paper's
Fig. 2: given a dataset and an MLP topology it evolves masks, signs,
power-of-two exponents and biases (and, as an enabled-by-default
extension, per-layer QReLU shifts) against the two objectives of
equation (3), and returns the estimated area/accuracy Pareto front.

The subsequent "Hardware analysis" step — synthesizing the front's
members to obtain true area and power — lives in
:mod:`repro.evaluation.pareto_analysis`.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.approx.config import ApproxConfig
from repro.approx.mlp import ApproximateMLP
from repro.approx.topology import Topology
from repro.baselines.gradient import FloatMLP
from repro.core.cache import EvaluationCache
from repro.core.chromosome import ChromosomeLayout
from repro.core.fitness import FitnessEvaluator, FitnessValues
from repro.core.nsga2 import crowding_distance, fast_non_dominated_sort, nsga2_sort_key
from repro.core.operators import GeneticOperators
from repro.core.pareto import ParetoArchive, ParetoPoint, hypervolume, pareto_front
from repro.core.population import PopulationInitializer

__all__ = ["GAConfig", "GenerationStats", "GAResult", "GATrainer"]

_LOGGER = logging.getLogger(__name__)


@dataclass(frozen=True)
class GAConfig:
    """Hyper-parameters of the genetic training.

    The defaults follow the paper where stated (crossover 0.7, ~10 %
    doping, 10 % admissible accuracy loss during training) and use
    CI-friendly budgets elsewhere; the DATE'24 experiments use far larger
    populations/generations, which the experiment harness requests
    explicitly.
    """

    population_size: int = 60
    generations: int = 40
    crossover_probability: float = 0.7
    mutation_probability: float = 0.02
    doping_fraction: float = 0.10
    initial_mask_density: float = 0.5
    max_accuracy_loss: float = 0.10
    learn_shifts: bool = True
    archive_size: int = 256
    seed: int = 0
    n_workers: int = 0
    #: Run the genetic operators through the scalar per-individual
    #: reference walk instead of the matrix-native engine.  Bit-identical
    #: to the default (both consume the same random draws); retained for
    #: the equivalence tests and for bisecting discrepancies.
    slow_operators: bool = False
    #: Island-model parameters, consumed by
    #: :class:`~repro.core.islands.IslandGATrainer`: the population is
    #: partitioned into ``n_islands`` sub-populations evolving in their
    #: own worker processes, exchanging ``migration_size`` elites around
    #: a ring every ``migration_interval`` generations.  ``n_islands=1``
    #: is the plain single-process :class:`GATrainer` (bit-identical).
    n_islands: int = 1
    migration_interval: int = 10
    migration_size: int = 2

    def __post_init__(self) -> None:
        if self.population_size < 4:
            raise ValueError("population_size must be at least 4")
        if self.generations < 1:
            raise ValueError("generations must be at least 1")
        if self.n_workers < 0:
            raise ValueError("n_workers must be non-negative")
        if self.n_islands < 1:
            raise ValueError("n_islands must be at least 1")
        if self.migration_interval < 1:
            raise ValueError("migration_interval must be at least 1")
        if self.migration_size < 0:
            raise ValueError("migration_size must be non-negative")
        if self.n_islands > 1:
            smallest = self.population_size // self.n_islands
            if smallest < 4:
                raise ValueError(
                    f"population_size {self.population_size} is too small for "
                    f"{self.n_islands} islands (each needs at least 4 members)"
                )
            if self.migration_size * 2 > smallest:
                raise ValueError(
                    f"migration_size {self.migration_size} must not exceed half "
                    f"of the smallest island ({smallest} members)"
                )


@dataclass(frozen=True)
class GenerationStats:
    """Progress record of one generation.

    ``evaluations`` counts *unique* fitness lookups requested so far
    (genomes duplicated within one population batch are folded onto a
    single lookup), ``cache_hits`` how many of those were served from
    the evaluator's memo cache, and ``fitness_computations`` how many
    chromosomes were actually scored — the three always
    satisfy ``evaluations == cache_hits + fitness_computations``.

    ``duration_s`` is the wall-clock time of this generation alone
    (variation + evaluation + environmental selection + stats), which is
    what makes island-model vs single-process scaling measurable per
    generation instead of only end to end.
    """

    generation: int
    best_error: float
    best_area: float
    mean_error: float
    mean_area: float
    hypervolume: float
    archive_size: int
    evaluations: int
    cache_hits: int = 0
    fitness_computations: int = 0
    duration_s: float = 0.0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of unique lookups served from the memo cache."""
        return self.cache_hits / self.evaluations if self.evaluations else 0.0


@dataclass
class GAResult:
    """Outcome of a genetic training run."""

    layout: ChromosomeLayout
    pareto_points: List[ParetoPoint]
    history: List[GenerationStats]
    evaluations: int
    wall_clock_seconds: float
    baseline_accuracy: Optional[float] = None

    @property
    def estimated_front(self) -> List[ParetoPoint]:
        """The estimated area/accuracy Pareto front (sorted by area)."""
        return pareto_front(self.pareto_points)

    @property
    def generation_seconds(self) -> List[float]:
        """Per-generation wall-clock durations (``GenerationStats.duration_s``)."""
        return [stats.duration_s for stats in self.history]

    def decode(self, point: ParetoPoint) -> ApproximateMLP:
        """Decode a Pareto point's chromosome into an approximate MLP."""
        if point.payload is None:
            raise ValueError("Pareto point carries no chromosome payload")
        return self.layout.decode(np.asarray(point.payload))

    def select_within_accuracy_loss(
        self, max_loss: float, baseline_accuracy: Optional[float] = None
    ) -> Optional[ParetoPoint]:
        """Smallest-area point whose accuracy loss stays within ``max_loss``.

        This is how the paper picks the Table II operating points: the
        most hardware-efficient circuit that loses at most 5 % accuracy
        against the exact baseline.
        """
        reference = baseline_accuracy if baseline_accuracy is not None else self.baseline_accuracy
        if reference is None:
            raise ValueError("a baseline accuracy is required to apply an accuracy-loss bound")
        eligible = [
            point for point in self.estimated_front if point.accuracy >= reference - max_loss
        ]
        if not eligible:
            return None
        return min(eligible, key=lambda p: (p.area, p.error))

    def best_accuracy_point(self) -> ParetoPoint:
        """The point with the highest accuracy on the estimated front."""
        return max(self.estimated_front, key=lambda p: p.accuracy)


class GATrainer:
    """NSGA-II driver for approximate, hardware-aware MLP training."""

    def __init__(
        self,
        topology: Topology | Sequence[int],
        approx_config: Optional[ApproxConfig] = None,
        ga_config: Optional[GAConfig] = None,
    ) -> None:
        if not isinstance(topology, Topology):
            topology = Topology(topology)
        self.topology = topology
        self.approx_config = approx_config or ApproxConfig()
        self.ga_config = ga_config or GAConfig()
        self.layout = ChromosomeLayout(
            topology=self.topology,
            config=self.approx_config,
            learn_shifts=self.ga_config.learn_shifts,
        )

    # ------------------------------------------------------------------
    def train(
        self,
        train_inputs: np.ndarray,
        train_labels: np.ndarray,
        baseline_accuracy: Optional[float] = None,
        seed_model: Optional[FloatMLP] = None,
        area_objective: bool = True,
        cache: Optional[EvaluationCache] = None,
    ) -> GAResult:
        """Run the genetic training.

        Parameters
        ----------
        train_inputs:
            Integer-quantized training inputs.
        train_labels:
            Training labels.
        baseline_accuracy:
            Accuracy of the exact baseline; enables the 10 % accuracy-loss
            feasibility constraint of Section IV-A.
        seed_model:
            Optional gradient-trained float model used to seed the doped
            individuals of the initial population.
        area_objective:
            When False the area objective is ignored (all candidates get
            area 0), which reproduces the hardware-unaware "GA" column of
            Table III and is used by the ablation experiments.
        cache:
            Optional shared :class:`~repro.core.cache.EvaluationCache`;
            the fitness values of every evaluated genome and the decoded
            models of the final archive are stored there so the
            front-synthesis and reporting stages can reuse them instead
            of rebuilding their own caches.
        """
        config = self.ga_config
        rng = np.random.default_rng(config.seed)
        start = time.perf_counter()

        evaluator = FitnessEvaluator(
            layout=self.layout,
            train_inputs=train_inputs,
            train_labels=train_labels,
            baseline_accuracy=baseline_accuracy,
            max_accuracy_loss=config.max_accuracy_loss,
            n_workers=config.n_workers,
            cache=cache,
        )
        initializer = PopulationInitializer(
            layout=self.layout,
            doping_fraction=config.doping_fraction,
            mask_density=config.initial_mask_density,
            seed_model=seed_model,
        )
        archive = ParetoArchive(max_size=config.archive_size)
        history: List[GenerationStats] = []

        try:
            result = self._run(
                config, rng, evaluator, initializer, archive, history,
                seed_model, area_objective, baseline_accuracy, start,
            )
        finally:
            evaluator.close()
        if cache is not None:
            # Fitness is scored genome-natively (no model per genome), so
            # the archive members are decoded once here for the
            # downstream front-synthesis and reporting stages.
            self._populate_model_cache(cache, result.pareto_points)
        return result

    def _run(
        self,
        config: GAConfig,
        rng: np.random.Generator,
        evaluator: FitnessEvaluator,
        initializer: PopulationInitializer,
        archive: ParetoArchive,
        history: List[GenerationStats],
        seed_model: Optional[FloatMLP],
        area_objective: bool,
        baseline_accuracy: Optional[float],
        start: float,
    ) -> GAResult:
        # The population lives as one (n, genes) int64 matrix end to end:
        # variation, fitness evaluation and environmental selection all
        # operate on the matrix without per-individual list round-trips.
        population = np.stack(initializer.build(config.population_size, rng)).astype(
            np.int64, copy=False
        )
        fitnesses = evaluator.evaluate_population(population)
        self._update_archive(archive, population, fitnesses)
        # Fixed hypervolume reference point so progress is comparable
        # across generations.
        initial_max_area = max((fit.area for fit in fitnesses), default=1.0)
        hv_reference = (1.0, float(initial_max_area) * 1.1 + 1.0)

        operators = GeneticOperators(
            layout=self.layout,
            crossover_probability=config.crossover_probability,
            mutation_probability=config.mutation_probability,
        )

        for generation in range(config.generations):
            generation_start = time.perf_counter()
            population, fitnesses = self._generation_step(
                rng=rng,
                evaluator=evaluator,
                operators=operators,
                archive=archive,
                population=population,
                fitnesses=fitnesses,
                target_size=config.population_size,
                area_objective=area_objective,
                slow_operators=config.slow_operators,
            )
            stats = self._stats(
                generation,
                fitnesses,
                archive,
                evaluator,
                hv_reference,
                duration_s=time.perf_counter() - generation_start,
            )
            history.append(stats)
            if _LOGGER.isEnabledFor(logging.DEBUG):
                previous = history[-2] if len(history) > 1 else None
                lookups = stats.evaluations - (previous.evaluations if previous else 0)
                hits = stats.cache_hits - (previous.cache_hits if previous else 0)
                _LOGGER.debug(
                    "generation %d: %d unique fitness lookups, %d cache hits "
                    "(%.1f%% hit rate), %d computed, %.3fs",
                    generation,
                    lookups,
                    hits,
                    100.0 * hits / lookups if lookups else 0.0,
                    lookups - hits,
                    stats.duration_s,
                )

        if len(archive) == 0:
            # No candidate satisfied the accuracy-loss bound within the
            # budget; fall back to the final population so downstream
            # hardware analysis still has a front to work with.
            for chromosome, fit in zip(population, fitnesses):
                archive.add(
                    ParetoPoint(
                        error=fit.error,
                        area=fit.area,
                        accuracy=fit.accuracy,
                        payload=np.array(chromosome, dtype=np.int64),
                    )
                )

        elapsed = time.perf_counter() - start
        return GAResult(
            layout=self.layout,
            pareto_points=archive.points,
            history=history,
            evaluations=evaluator.evaluations,
            wall_clock_seconds=elapsed,
            baseline_accuracy=baseline_accuracy,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _generation_step(
        self,
        *,
        rng: np.random.Generator,
        evaluator: FitnessEvaluator,
        operators: GeneticOperators,
        archive: ParetoArchive,
        population: np.ndarray,
        fitnesses: List[FitnessValues],
        target_size: int,
        area_objective: bool,
        slow_operators: bool = False,
    ) -> tuple[np.ndarray, List[FitnessValues]]:
        """One NSGA-II generation: variation → evaluation → selection.

        Shared by the single-process loop and the island workers of
        :class:`~repro.core.islands.IslandGATrainer` (each island runs
        this step on its own sub-population), so the two engines cannot
        drift apart.  ``target_size`` is the (sub-)population size —
        islands evolve fewer members than ``config.population_size``.
        """
        objectives, violations = self._objective_matrix(fitnesses, area_objective)
        ranks, crowding = nsga2_sort_key(objectives, violations)
        offspring = operators.make_offspring(
            population, ranks, crowding, target_size, rng, slow=slow_operators
        )
        offspring_fitnesses = evaluator.evaluate_population(offspring)
        self._update_archive(archive, offspring, offspring_fitnesses)
        return self._environmental_selection(
            np.concatenate([population, offspring]),
            fitnesses + offspring_fitnesses,
            target_size,
            area_objective,
        )

    def _populate_model_cache(
        self, cache: EvaluationCache, points: Sequence[ParetoPoint]
    ) -> int:
        """Decode points' chromosomes into ``cache.models`` (if missing).

        Returns how many models were decoded.  Membership is probed with
        ``in`` (not ``get``) so the section's hit/miss counters — which
        the zero-redundant-work tests assert on — are not disturbed.
        """
        layout_key = EvaluationCache.layout_key(self.layout)
        decoded = 0
        for point in points:
            if point.payload is None:
                continue
            chromosome = np.asarray(point.payload)
            key = (layout_key, EvaluationCache.genome_key(chromosome))
            if key in cache.models:
                continue
            cache.models.put(key, self.layout.decode(chromosome))
            decoded += 1
        return decoded

    @staticmethod
    def _objective_matrix(
        fitnesses: Sequence[FitnessValues], area_objective: bool
    ) -> tuple[np.ndarray, List[float]]:
        objectives = np.array(
            [
                [fit.error, fit.area if area_objective else 0.0]
                for fit in fitnesses
            ],
            dtype=np.float64,
        )
        violations = [fit.constraint_violation for fit in fitnesses]
        return objectives, violations

    def _update_archive(
        self,
        archive: ParetoArchive,
        population: Sequence[np.ndarray],
        fitnesses: Sequence[FitnessValues],
    ) -> None:
        for chromosome, fit in zip(population, fitnesses):
            if not fit.feasible:
                continue
            archive.add(
                ParetoPoint(
                    error=fit.error,
                    area=fit.area,
                    accuracy=fit.accuracy,
                    payload=np.array(chromosome, dtype=np.int64),
                )
            )

    def _environmental_selection(
        self,
        population: np.ndarray,
        fitnesses: List[FitnessValues],
        target_size: int,
        area_objective: bool,
    ) -> tuple[np.ndarray, List[FitnessValues]]:
        objectives, violations = self._objective_matrix(fitnesses, area_objective)
        fronts = fast_non_dominated_sort(objectives, violations)
        survivors: List[int] = []
        for front in fronts:
            if len(survivors) + len(front) <= target_size:
                chosen = front
            else:
                remaining = target_size - len(survivors)
                distances = crowding_distance(objectives[front])
                order = np.argsort(-distances, kind="stable")
                chosen = [front[i] for i in order[:remaining]]
            survivors.extend(chosen)
            if len(survivors) >= target_size:
                break
        return population[survivors], [fitnesses[i] for i in survivors]

    @staticmethod
    def _stats(
        generation: int,
        fitnesses: Sequence[FitnessValues],
        archive: ParetoArchive,
        evaluator: FitnessEvaluator,
        reference: tuple[float, float],
        duration_s: float = 0.0,
    ) -> GenerationStats:
        errors = np.array([fit.error for fit in fitnesses])
        areas = np.array([fit.area for fit in fitnesses])
        return GenerationStats(
            generation=generation,
            best_error=float(errors.min()),
            best_area=float(areas.min()),
            mean_error=float(errors.mean()),
            mean_area=float(areas.mean()),
            hypervolume=hypervolume(archive.points, reference),
            archive_size=len(archive),
            evaluations=evaluator.evaluations,
            cache_hits=evaluator.cache_hits,
            fitness_computations=evaluator.fitness_computations,
            duration_s=duration_s,
        )
