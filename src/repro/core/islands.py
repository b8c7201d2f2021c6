"""Island-model parallel NSGA-II engine with cross-process cache pooling.

:class:`~repro.core.trainer.GATrainer` advances one population on one
core; every stage *inside* a generation is batched, but the generation
loop itself is sequential.  :class:`IslandGATrainer` shards the
population into ``n_islands`` sub-populations ("islands") that each run
the exact same matrix-native NSGA-II loop
(:meth:`GATrainer._generation_step`) in their own worker process:

* **epochs** — the coordinator dispatches ``migration_interval``
  generations at a time to a process pool; each island's full state
  (population matrix, fitness values, Pareto archive, RNG state) travels
  with the task, so results are independent of which worker executes it
  and of completion order;
* **ring migration** — between epochs, every island exports its
  ``migration_size`` best members (NSGA-II sort key: rank, then crowding
  distance) and imports its ring-predecessor's, replacing its worst;
* **merged-front reduction** — after the final epoch the coordinator
  folds every island's archive into one
  :class:`~repro.core.pareto.ParetoArchive`, which becomes the result's
  Pareto set;
* **cross-process cache pooling** — with a ``pool_dir``, workers share
  fitness values through a :class:`~repro.core.cache.CachePool`:
  append-only per-worker snapshot segments, merged on load at every
  epoch boundary, so islands stop recomputing fitness values their
  neighbours (or a previous run) already paid for.

``n_islands=1`` delegates wholesale to :class:`GATrainer` and is
therefore **bit-identical** to the single-process engine — same random
draws, same front, same history — serving as the oracle for the
equivalence tests, exactly like the ``slow=True`` paths elsewhere.

Determinism: for a fixed seed and island count the merged front is
identical regardless of worker scheduling (state is explicit and
results are collected by island index).  Only the *cache counters*
(``cache_hits`` / ``fitness_computations``) may vary between runs,
because which worker process already holds a genome in its memo cache
depends on scheduling.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.approx.config import ApproxConfig
from repro.approx.topology import Topology
from repro.baselines.gradient import FloatMLP
from repro.core.cache import CachePool, EvaluationCache
from repro.core.fitness import FitnessEvaluator, FitnessValues
from repro.core.nsga2 import nsga2_sort_key
from repro.core.operators import GeneticOperators
from repro.core.pareto import ParetoArchive, ParetoPoint, hypervolume
from repro.core.population import PopulationInitializer
from repro.core.trainer import GAConfig, GAResult, GATrainer, GenerationStats

__all__ = ["IslandConfig", "IslandGAResult", "IslandGATrainer", "make_trainer"]


@dataclass(frozen=True)
class IslandConfig:
    """Parameters of the island model (a view over :class:`GAConfig`)."""

    n_islands: int = 1
    migration_interval: int = 10
    migration_size: int = 2

    def __post_init__(self) -> None:
        if self.n_islands < 1:
            raise ValueError("n_islands must be at least 1")
        if self.migration_interval < 1:
            raise ValueError("migration_interval must be at least 1")
        if self.migration_size < 0:
            raise ValueError("migration_size must be non-negative")

    @classmethod
    def from_ga_config(cls, config: GAConfig) -> "IslandConfig":
        return cls(
            n_islands=config.n_islands,
            migration_interval=config.migration_interval,
            migration_size=config.migration_size,
        )

    def island_population_sizes(self, population_size: int) -> List[int]:
        """Partition of the total population (remainder to the first islands)."""
        base, remainder = divmod(population_size, self.n_islands)
        sizes = [base + (1 if i < remainder else 0) for i in range(self.n_islands)]
        if min(sizes) < 4:
            raise ValueError(
                f"population_size {population_size} is too small for "
                f"{self.n_islands} islands (each needs at least 4 members)"
            )
        if self.migration_size * 2 > min(sizes):
            raise ValueError(
                f"migration_size {self.migration_size} must not exceed half of "
                f"the smallest island ({min(sizes)} members)"
            )
        return sizes


@dataclass
class _IslandState:
    """One island's complete evolutionary state (travels with each task)."""

    index: int
    target_size: int
    rng_state: dict
    population: Optional[np.ndarray] = None
    fitnesses: List[FitnessValues] = field(default_factory=list)
    archive_points: List[ParetoPoint] = field(default_factory=list)
    hv_reference: Optional[Tuple[float, float]] = None
    generations_done: int = 0
    totals: Dict[str, int] = field(
        default_factory=lambda: {
            "evaluations": 0,
            "cache_hits": 0,
            "fitness_computations": 0,
        }
    )


@dataclass
class IslandGAResult(GAResult):
    """A :class:`GAResult` plus the island model's per-island details.

    ``history`` is the *merged* per-generation trajectory: best/min
    objectives across islands, population-weighted means, summed
    evaluation counters, ``duration_s`` as the max over islands (the
    parallel wall-clock of that generation) and ``hypervolume`` as the
    best island's indicator under its own reference point (island
    references differ, so a cross-island sum would be meaningless; the
    merged front's hypervolume under a common reference is what the
    benchmarks compare).  ``island_histories`` keeps every island's own
    trajectory.
    """

    island_histories: List[List[GenerationStats]] = field(default_factory=list)
    n_islands: int = 1
    migrations: int = 0


class _IslandWorker:
    """Per-process execution context: trainer, evaluator, cache pool."""

    def __init__(self, payload: dict) -> None:
        self.trainer = GATrainer(
            payload["topology"], payload["approx_config"], payload["ga_config"]
        )
        config = self.trainer.ga_config
        self.evaluator = FitnessEvaluator(
            layout=self.trainer.layout,
            train_inputs=payload["train_inputs"],
            train_labels=payload["train_labels"],
            baseline_accuracy=payload["baseline_accuracy"],
            max_accuracy_loss=config.max_accuracy_loss,
            n_workers=0,  # islands are the process-level parallelism; no nesting
            cache=EvaluationCache(),
        )
        self.initializer = PopulationInitializer(
            layout=self.trainer.layout,
            doping_fraction=config.doping_fraction,
            mask_density=config.initial_mask_density,
            seed_model=payload["seed_model"],
        )
        self.operators = GeneticOperators(
            layout=self.trainer.layout,
            crossover_probability=config.crossover_probability,
            mutation_probability=config.mutation_probability,
        )
        self.area_objective = bool(payload["area_objective"])
        pool_dir = payload["pool_dir"]
        self.pool = CachePool(pool_dir) if pool_dir is not None else None

    def run_epoch(
        self, state: _IslandState, generations: int
    ) -> Tuple[_IslandState, List[GenerationStats]]:
        """Advance one island by ``generations`` generations."""
        trainer = self.trainer
        config = trainer.ga_config
        evaluator = self.evaluator
        if self.pool is not None:
            # Merge-on-load: pick up every segment flushed by other
            # workers (or a previous run) since the last epoch.
            self.pool.refresh(evaluator.cache)
        # Seed value is irrelevant — the serialized island state is
        # restored immediately — but construction must still be seeded
        # so no draw can ever slip through undeterministically (RP03).
        rng = np.random.default_rng(0)
        rng.bit_generator.state = state.rng_state
        archive = ParetoArchive.restore(
            state.archive_points, max_size=config.archive_size
        )
        base = (
            evaluator.evaluations,
            evaluator.cache_hits,
            evaluator.fitness_computations,
        )
        population = state.population
        fitnesses = list(state.fitnesses)
        if population is None:
            population = np.stack(
                self.initializer.build(state.target_size, rng)
            ).astype(np.int64, copy=False)
            fitnesses = evaluator.evaluate_population(population)
            trainer._update_archive(archive, population, fitnesses)
            initial_max_area = max((fit.area for fit in fitnesses), default=1.0)
            state.hv_reference = (1.0, float(initial_max_area) * 1.1 + 1.0)

        stats_out: List[GenerationStats] = []
        for offset in range(generations):
            generation_start = time.perf_counter()
            population, fitnesses = trainer._generation_step(
                rng=rng,
                evaluator=evaluator,
                operators=self.operators,
                archive=archive,
                population=population,
                fitnesses=fitnesses,
                target_size=state.target_size,
                area_objective=self.area_objective,
                slow_operators=config.slow_operators,
            )
            duration = time.perf_counter() - generation_start
            errors = np.array([fit.error for fit in fitnesses])
            areas = np.array([fit.area for fit in fitnesses])
            stats_out.append(
                GenerationStats(
                    generation=state.generations_done + offset,
                    best_error=float(errors.min()),
                    best_area=float(areas.min()),
                    mean_error=float(errors.mean()),
                    mean_area=float(areas.mean()),
                    hypervolume=hypervolume(archive.points, state.hv_reference),
                    archive_size=len(archive),
                    # Island-cumulative counters: the per-process
                    # evaluator serves several islands, so deltas since
                    # epoch start are added to this island's totals.
                    evaluations=state.totals["evaluations"]
                    + (evaluator.evaluations - base[0]),
                    cache_hits=state.totals["cache_hits"]
                    + (evaluator.cache_hits - base[1]),
                    fitness_computations=state.totals["fitness_computations"]
                    + (evaluator.fitness_computations - base[2]),
                    duration_s=duration,
                )
            )
        if self.pool is not None:
            # Append-only segment of the fitness values this worker
            # computed during the epoch; neighbours merge it on load.
            self.pool.flush(evaluator.cache)
        state.population = population
        state.fitnesses = fitnesses
        state.archive_points = archive.points
        state.rng_state = rng.bit_generator.state
        state.generations_done += generations
        state.totals = {
            "evaluations": state.totals["evaluations"]
            + (evaluator.evaluations - base[0]),
            "cache_hits": state.totals["cache_hits"]
            + (evaluator.cache_hits - base[1]),
            "fitness_computations": state.totals["fitness_computations"]
            + (evaluator.fitness_computations - base[2]),
        }
        return state, stats_out


#: Per-process worker context (set once by the pool initializer).
_WORKER: Optional[_IslandWorker] = None


def _init_island_worker(payload: dict) -> None:
    global _WORKER
    _WORKER = _IslandWorker(payload)


def _run_island_epoch(
    task: Tuple[_IslandState, int]
) -> Tuple[_IslandState, List[GenerationStats]]:
    assert _WORKER is not None, "island worker pool not initialized"
    state, generations = task
    return _WORKER.run_epoch(state, generations)


def _migration_order(
    population: np.ndarray,
    fitnesses: Sequence[FitnessValues],
    area_objective: bool,
) -> np.ndarray:
    """Island members best-first by the NSGA-II sort key (rank, -crowding)."""
    objectives, violations = GATrainer._objective_matrix(fitnesses, area_objective)
    ranks, crowding = nsga2_sort_key(objectives, violations)
    # lexsort: last key is primary — rank ascending, crowding descending.
    return np.lexsort((-crowding, ranks))


def _migrate(
    states: List[_IslandState], migration_size: int, area_objective: bool
) -> None:
    """Seeded ring migration: island ``i`` imports island ``i-1``'s elites.

    All exports are computed from the pre-migration populations (a
    simultaneous exchange, not a sequential cascade), then each island's
    ``migration_size`` worst members are overwritten by its neighbour's
    best — fitness values travel along, so immigrants are never
    re-evaluated.
    """
    n = len(states)
    orders = [
        _migration_order(state.population, state.fitnesses, area_objective)
        for state in states
    ]
    exports = []
    for state, order in zip(states, orders):
        top = order[:migration_size]
        exports.append(
            (state.population[top].copy(), [state.fitnesses[i] for i in top])
        )
    for i, (state, order) in enumerate(zip(states, orders)):
        chromosomes, fits = exports[(i - 1) % n]
        worst = order[len(order) - migration_size :]
        state.population[worst] = chromosomes
        for slot, fit in zip(worst, fits):
            state.fitnesses[slot] = fit


def _merge_histories(
    histories: List[List[GenerationStats]], sizes: List[int]
) -> List[GenerationStats]:
    """Fold per-island trajectories into one merged per-generation history."""
    merged: List[GenerationStats] = []
    if not histories or not histories[0]:
        return merged
    total = sum(sizes)
    for g in range(min(len(history) for history in histories)):
        rows = [history[g] for history in histories]
        merged.append(
            GenerationStats(
                generation=g,
                best_error=min(row.best_error for row in rows),
                best_area=min(row.best_area for row in rows),
                mean_error=sum(r.mean_error * s for r, s in zip(rows, sizes)) / total,
                mean_area=sum(r.mean_area * s for r, s in zip(rows, sizes)) / total,
                hypervolume=max(row.hypervolume for row in rows),
                archive_size=sum(row.archive_size for row in rows),
                evaluations=sum(row.evaluations for row in rows),
                cache_hits=sum(row.cache_hits for row in rows),
                fitness_computations=sum(row.fitness_computations for row in rows),
                duration_s=max(row.duration_s for row in rows),
            )
        )
    return merged


class IslandGATrainer:
    """Coordinator of the island-model NSGA-II search.

    Parameters
    ----------
    topology / approx_config / ga_config:
        Exactly as for :class:`GATrainer`; the island parameters are
        read from ``ga_config`` (``n_islands``, ``migration_interval``,
        ``migration_size``).
    parallel:
        When True (default), islands run epochs on a process pool of
        ``min(n_islands, max_workers)`` workers.  ``parallel=False``
        executes the identical epoch code in-process, sequentially —
        useful for tests and single-core machines; results are
        identical either way (state is explicit).
    max_workers:
        Cap on the worker-pool size (default: one process per island).
    """

    def __init__(
        self,
        topology: Topology | Sequence[int],
        approx_config: Optional[ApproxConfig] = None,
        ga_config: Optional[GAConfig] = None,
        *,
        parallel: bool = True,
        max_workers: Optional[int] = None,
    ) -> None:
        self._base = GATrainer(topology, approx_config, ga_config)
        self.topology = self._base.topology
        self.approx_config = self._base.approx_config
        self.ga_config = self._base.ga_config
        self.layout = self._base.layout
        self.island_config = IslandConfig.from_ga_config(self.ga_config)
        # Validate the partition up front (raises on impossible splits).
        self.island_config.island_population_sizes(self.ga_config.population_size)
        self.parallel = parallel
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self.max_workers = max_workers

    # ------------------------------------------------------------------
    def train(
        self,
        train_inputs: np.ndarray,
        train_labels: np.ndarray,
        baseline_accuracy: Optional[float] = None,
        seed_model: Optional[FloatMLP] = None,
        area_objective: bool = True,
        cache: Optional[EvaluationCache] = None,
        pool_dir: Optional[Union[str, Path]] = None,
    ) -> IslandGAResult:
        """Run the island-model genetic training.

        Same contract as :meth:`GATrainer.train`, plus ``pool_dir``: a
        shared cache-pool directory through which the island workers
        (and any earlier run pointed at the same directory) exchange
        computed fitness values.  The coordinator seeds the pool with
        ``cache``'s current entries (e.g. a loaded snapshot) before the
        first epoch and merges the pooled entries back into ``cache``
        after the last, so downstream stages and disk snapshots see
        every island's work.
        """
        config = self.ga_config
        n = self.island_config.n_islands
        start = time.perf_counter()

        if n == 1:
            # The bit-identical oracle path: same draws, same front,
            # same history as the single-process engine.
            pool = None
            if pool_dir is not None and cache is not None:
                pool = CachePool(pool_dir, owner=self._coordinator_owner())
                pool.refresh(cache)
            result = self._base.train(
                train_inputs,
                train_labels,
                baseline_accuracy=baseline_accuracy,
                seed_model=seed_model,
                area_objective=area_objective,
                cache=cache,
            )
            if pool is not None:
                pool.flush(cache)
            return IslandGAResult(
                layout=result.layout,
                pareto_points=result.pareto_points,
                history=result.history,
                evaluations=result.evaluations,
                wall_clock_seconds=result.wall_clock_seconds,
                baseline_accuracy=result.baseline_accuracy,
                island_histories=[list(result.history)],
                n_islands=1,
                migrations=0,
            )

        sizes = self.island_config.island_population_sizes(config.population_size)
        seed_sequences = np.random.SeedSequence(config.seed).spawn(n)
        states = [
            _IslandState(
                index=i,
                target_size=sizes[i],
                rng_state=np.random.default_rng(seed_sequences[i]).bit_generator.state,
            )
            for i in range(n)
        ]
        payload = {
            "topology": self.topology,
            "approx_config": self.approx_config,
            "ga_config": config,
            "train_inputs": np.asarray(train_inputs, dtype=np.int64),
            "train_labels": np.asarray(train_labels, dtype=np.int64),
            "baseline_accuracy": baseline_accuracy,
            "seed_model": seed_model,
            "area_objective": area_objective,
            "pool_dir": str(pool_dir) if pool_dir is not None else None,
        }

        coordinator_pool = None
        if pool_dir is not None and cache is not None:
            # Publish the coordinator's entries (a loaded disk snapshot,
            # typically) so the first epoch already hits on them.
            coordinator_pool = CachePool(pool_dir, owner=self._coordinator_owner())
            coordinator_pool.refresh(cache)
            coordinator_pool.flush(cache)

        histories: List[List[GenerationStats]] = [[] for _ in range(n)]
        migrations = 0
        executor: Optional[ProcessPoolExecutor] = None
        worker: Optional[_IslandWorker] = None
        try:
            if self.parallel:
                workers = min(n, self.max_workers or n)
                executor = ProcessPoolExecutor(
                    max_workers=workers,
                    initializer=_init_island_worker,
                    initargs=(payload,),
                )
            else:
                worker = _IslandWorker(payload)
            done = 0
            while done < config.generations:
                step = min(
                    self.island_config.migration_interval, config.generations - done
                )
                if executor is not None:
                    futures = [
                        executor.submit(_run_island_epoch, (state, step))
                        for state in states
                    ]
                    # Collected by island index, so completion order —
                    # i.e. worker scheduling — cannot affect the result.
                    outcomes = [future.result() for future in futures]
                else:
                    outcomes = [worker.run_epoch(state, step) for state in states]
                states = [outcome[0] for outcome in outcomes]
                for island, outcome in enumerate(outcomes):
                    histories[island].extend(outcome[1])
                done += step
                if done < config.generations and self.island_config.migration_size > 0:
                    _migrate(states, self.island_config.migration_size, area_objective)
                    migrations += 1
        finally:
            if executor is not None:
                executor.shutdown()

        if coordinator_pool is not None:
            # Merge every island's pooled work back into the shared
            # cache, so downstream stages and the disk snapshot see it.
            coordinator_pool.refresh(cache)

        merged = ParetoArchive(max_size=config.archive_size)
        for state in states:
            merged.extend(state.archive_points)
        if len(merged) == 0:
            # No island produced a feasible candidate; mirror the
            # single-process fallback and return the final populations.
            for state in states:
                for chromosome, fit in zip(state.population, state.fitnesses):
                    merged.add(
                        ParetoPoint(
                            error=fit.error,
                            area=fit.area,
                            accuracy=fit.accuracy,
                            payload=np.array(chromosome, dtype=np.int64),
                        )
                    )

        result = IslandGAResult(
            layout=self.layout,
            pareto_points=merged.points,
            history=_merge_histories(histories, sizes),
            evaluations=sum(state.totals["evaluations"] for state in states),
            wall_clock_seconds=time.perf_counter() - start,
            baseline_accuracy=baseline_accuracy,
            island_histories=histories,
            n_islands=n,
            migrations=migrations,
        )
        if cache is not None:
            # Islands score fitness genome-natively, so no models exist
            # yet; cache the merged front's models once so downstream
            # stages do not re-decode member by member.
            self._base._populate_model_cache(cache, result.pareto_points)
        return result

    @staticmethod
    def _coordinator_owner() -> str:
        return f"coordinator-{os.getpid():x}-{os.urandom(3).hex()}"


def make_trainer(
    topology: Topology | Sequence[int],
    approx_config: Optional[ApproxConfig] = None,
    ga_config: Optional[GAConfig] = None,
    *,
    parallel: bool = True,
) -> Union[GATrainer, IslandGATrainer]:
    """The right trainer for ``ga_config``: islands when ``n_islands > 1``.

    ``n_islands == 1`` returns a plain :class:`GATrainer` so the default
    configuration stays byte-for-byte on the single-process path.
    """
    config = ga_config or GAConfig()
    if config.n_islands > 1:
        return IslandGATrainer(topology, approx_config, config, parallel=parallel)
    return GATrainer(topology, approx_config, config)
