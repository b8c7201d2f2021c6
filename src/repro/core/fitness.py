"""Fitness evaluation: the two objectives of equation (3) plus feasibility.

For every chromosome the evaluator decodes the approximate MLP, computes

* ``error = 1 - Accuracy(theta, D_train)`` using the integer forward
  model of equation (4), and
* ``area = FA-count(theta)`` using the fast vectorized Full-Adder
  counter (the high-level area estimate of equation (2));

and, when a baseline accuracy is supplied, a constraint violation equal
to how far the candidate's accuracy loss exceeds the admissible bound
(10 % during training, per Section IV-A).  The violation is used for
constrained dominance in the NSGA-II selection.

The evaluator is population-batched and genome-native:
:meth:`evaluate_population` deduplicates the batch, serves repeated
genomes (elites, clones produced by crossover) from a
``chromosome.tobytes()``-keyed memo cache, and scores the remaining
rows of the population matrix in one stacked pass
(:meth:`ChromosomeLayout.decode_population` →
:func:`~repro.approx.population.score_stacked`) without building a model
per genome.  For large populations an opt-in process pool
(``n_workers``) fans the unique evaluations out across cores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.approx.population import score_stacked
from repro.core.cache import EvaluationCache
from repro.core.chromosome import ChromosomeLayout
from repro.hardware.fast_area import fast_mlp_fa_count

__all__ = ["FitnessValues", "FitnessEvaluator"]


@dataclass(frozen=True)
class FitnessValues:
    """Objectives and feasibility of one evaluated chromosome."""

    error: float
    area: float
    accuracy: float
    constraint_violation: float = 0.0

    @property
    def objectives(self) -> np.ndarray:
        """The minimization objectives ``[error, area]``."""
        return np.array([self.error, self.area], dtype=np.float64)

    @property
    def feasible(self) -> bool:
        """Whether the accuracy-loss constraint is satisfied."""
        return self.constraint_violation <= 0.0


#: Per-process evaluator used by the worker pool (set by the initializer).
_WORKER_EVALUATOR: Optional["FitnessEvaluator"] = None


def _init_worker(payload: dict) -> None:
    global _WORKER_EVALUATOR
    _WORKER_EVALUATOR = FitnessEvaluator(**payload)


def _evaluate_chunk(chromosomes: np.ndarray) -> List[FitnessValues]:
    assert _WORKER_EVALUATOR is not None, "worker pool not initialized"
    return _WORKER_EVALUATOR._compute_batch(chromosomes)


class FitnessEvaluator:
    """Evaluates chromosomes on accuracy and hardware area.

    Parameters
    ----------
    layout:
        Chromosome layout used to decode gene vectors.
    train_inputs:
        Integer-quantized training inputs (``(n_samples, num_inputs)``).
    train_labels:
        Training labels.
    baseline_accuracy:
        Accuracy of the exact baseline MLP; when given, candidates whose
        accuracy drops more than ``max_accuracy_loss`` below it are
        marked infeasible (constrained NSGA-II).
    max_accuracy_loss:
        Admissible accuracy loss during training (paper: 10 %).
    n_workers:
        When > 1, unique chromosomes of a population batch are evaluated
        on a process pool of this many workers.  0/1 keeps everything in
        process (the right choice for the small CI-scale populations).
    max_cache_size:
        Bound on the memo cache.  Eviction is true LRU: a cache hit
        refreshes an entry's recency, so hot genomes (elites reappearing
        every generation) are not evicted in pure insertion order.
        Ignored when a shared ``cache`` is supplied — the shared cache
        keeps its own section bounds.
    cache:
        Optional shared :class:`~repro.core.cache.EvaluationCache`.  When
        given, fitness values are stored there, so later pipeline stages
        can reuse the GA's work; when omitted, a private cache is
        created.  (Decoded models of the archive members are cached by
        the trainer, not per evaluated genome.)  Fitness
        entries are namespaced by the evaluator's context (training
        split, baseline accuracy, loss bound), so one cache can safely
        be shared between evaluators with different constraints.

    Attributes
    ----------
    evaluations:
        Number of *unique* fitness lookups requested.  Genomes that are
        duplicated within one :meth:`evaluate_population` batch count
        once — duplicates are folded before the cache is consulted, so
        they are neither lookups nor hits.
    cache_hits:
        How many unique lookups were served from the memo cache.
    fitness_computations:
        Number of chromosomes actually scored
        (``evaluations - cache_hits``).
    """

    def __init__(
        self,
        layout: ChromosomeLayout,
        train_inputs: np.ndarray,
        train_labels: np.ndarray,
        baseline_accuracy: Optional[float] = None,
        max_accuracy_loss: float = 0.10,
        n_workers: int = 0,
        max_cache_size: int = 250_000,
        cache: Optional[EvaluationCache] = None,
    ) -> None:
        self.layout = layout
        self.train_inputs = np.asarray(train_inputs, dtype=np.int64)
        self.train_labels = np.asarray(train_labels, dtype=np.int64)
        if self.train_inputs.ndim != 2:
            raise ValueError("train_inputs must be a 2-D integer array")
        if self.train_inputs.shape[0] != self.train_labels.shape[0]:
            raise ValueError("train_inputs and train_labels must have the same length")
        if self.train_inputs.shape[1] != layout.topology.num_inputs:
            raise ValueError(
                f"train_inputs has {self.train_inputs.shape[1]} features, "
                f"topology expects {layout.topology.num_inputs}"
            )
        if max_accuracy_loss < 0:
            raise ValueError(f"max_accuracy_loss must be non-negative, got {max_accuracy_loss}")
        if n_workers < 0:
            raise ValueError(f"n_workers must be non-negative, got {n_workers}")
        if max_cache_size <= 0:
            raise ValueError(f"max_cache_size must be positive, got {max_cache_size}")
        self.baseline_accuracy = baseline_accuracy
        self.max_accuracy_loss = max_accuracy_loss
        self.n_workers = n_workers
        self.max_cache_size = max_cache_size
        self.evaluations = 0
        self.cache_hits = 0
        self.fitness_computations = 0
        self.cache = (
            cache
            if cache is not None
            else EvaluationCache(max_fitness_entries=max_cache_size)
        )
        # Cached FitnessValues embed the decode semantics, the training
        # split and the feasibility constraint, so fitness keys are
        # namespaced by this evaluator's context.
        self._context_key = (
            EvaluationCache.layout_key(layout),
            baseline_accuracy,
            max_accuracy_loss,
            EvaluationCache.split_fingerprint(self.train_inputs, self.train_labels),
        )
        self._pool = None

    def _fitness_key(self, genome: bytes):
        return (self._context_key, genome)

    @property
    def _cache(self):
        """The fitness section's backing mapping (tests and debugging)."""
        return self.cache.fitness._data

    # ------------------------------------------------------------------
    def score_population(
        self, population: np.ndarray, slow: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Training accuracy and FA-count area of every row of ``population``.

        The default path decodes the ``(P, genes)`` matrix into stacked
        tensors and scores them in one pass; ``slow=True`` decodes one
        :class:`~repro.approx.mlp.ApproximateMLP` per genome and scores
        it on its own (the bit-identical oracle).  Returns a float64 and
        an int64 array of shape ``(P,)``.
        """
        population = np.asarray(population, dtype=np.int64)
        if not slow:
            stack = self.layout.decode_population(population)
            return score_stacked(stack, self.train_inputs, self.train_labels)
        models = [self.layout.decode(chromosome) for chromosome in population]
        accuracies = [m.accuracy(self.train_inputs, self.train_labels) for m in models]
        areas = [fast_mlp_fa_count(m) for m in models]
        return np.array(accuracies, dtype=np.float64), np.array(areas, dtype=np.int64)

    def compute(self, chromosome: np.ndarray) -> FitnessValues:
        """Decode and evaluate one chromosome, bypassing the memo cache."""
        accuracies, areas = self.score_population(
            np.asarray(chromosome, dtype=np.int64)[None, :], slow=True
        )
        return self._make_values(float(accuracies[0]), float(areas[0]))

    def _make_values(self, accuracy: float, area: float) -> FitnessValues:
        violation = 0.0
        if self.baseline_accuracy is not None:
            loss = self.baseline_accuracy - accuracy
            violation = max(0.0, loss - self.max_accuracy_loss)
        return FitnessValues(
            error=1.0 - accuracy,
            area=area,
            accuracy=accuracy,
            constraint_violation=violation,
        )

    def evaluate(self, chromosome: np.ndarray) -> FitnessValues:
        """Evaluate one chromosome (memoized)."""
        return self.evaluate_population(
            np.asarray(chromosome, dtype=np.int64).reshape(1, -1)
        )[0]

    def evaluate_population(
        self, population: Union[np.ndarray, Sequence[np.ndarray]]
    ) -> List[FitnessValues]:
        """Evaluate every chromosome of a population.

        ``population`` may be an ``(n, genes)`` int64 matrix (the
        trainer's native representation) or a sequence of gene vectors.
        The batch is deduplicated first — in-batch duplicates (elites,
        crossover clones) are folded onto one lookup and never counted
        twice — then resolved against the memo cache; only the unique,
        never-seen rows are scored, in one stacked pass (optionally on
        the worker pool).
        """
        if len(population) == 0:
            return []
        # One contiguous (n, genes) matrix: keys are its rows' bytes and
        # the unscored rows are gathered from it in one fancy index.
        matrix = np.ascontiguousarray(
            population if isinstance(population, np.ndarray) else np.stack(population),
            dtype=np.int64,
        )
        keys = [row.tobytes() for row in matrix]

        # Resolve against a batch-local map so cache eviction while
        # storing new results can never drop an entry we still need.
        resolved: Dict[bytes, FitnessValues] = {}
        pending: Dict[bytes, int] = {}
        for index, key in enumerate(keys):
            if key in resolved or key in pending:
                continue  # in-batch duplicate: one lookup, counted once
            cached = self.cache.fitness.get(self._fitness_key(key))
            if cached is not None:
                self.cache_hits += 1
                resolved[key] = cached
            else:
                pending[key] = index
        self.evaluations += len(resolved) + len(pending)

        if pending:
            computed = self._compute_batch(matrix[list(pending.values())])
            self.fitness_computations += len(pending)
            for key, values in zip(pending.keys(), computed):
                resolved[key] = values
                self.cache.fitness.put(self._fitness_key(key), values)
        return [resolved[key] for key in keys]

    # ------------------------------------------------------------------
    def _compute_batch(self, chromosomes: np.ndarray) -> List[FitnessValues]:
        if self.n_workers > 1 and len(chromosomes) >= 2 * self.n_workers:
            return self._compute_on_pool(chromosomes)
        return self._compute_vectorized(chromosomes)

    def _compute_vectorized(self, chromosomes: np.ndarray) -> List[FitnessValues]:
        """Genome-native fitness of a ``(P, genes)`` matrix: one stacked
        forward pass and one stacked FA count cover every row (bitwise
        identical to per-chromosome :meth:`compute`)."""
        accuracies, areas = self.score_population(chromosomes)
        return [
            self._make_values(accuracy, float(area))
            for accuracy, area in zip(accuracies.tolist(), areas.tolist())
        ]

    def _compute_on_pool(self, chromosomes: np.ndarray) -> List[FitnessValues]:
        pool = self._ensure_pool()
        chunk = max(1, -(-len(chromosomes) // self.n_workers))
        chunks = [
            chromosomes[start : start + chunk]
            for start in range(0, len(chromosomes), chunk)
        ]
        results: List[FitnessValues] = []
        for part in pool.map(_evaluate_chunk, chunks):
            results.extend(part)
        return results

    def _ensure_pool(self):
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            payload = {
                "layout": self.layout,
                "train_inputs": self.train_inputs,
                "train_labels": self.train_labels,
                "baseline_accuracy": self.baseline_accuracy,
                "max_accuracy_loss": self.max_accuracy_loss,
            }
            self._pool = ProcessPoolExecutor(
                max_workers=self.n_workers,
                initializer=_init_worker,
                initargs=(payload,),
            )
        return self._pool

    def close(self) -> None:
        """Shut down the worker pool (no-op when running in process)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "FitnessEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
