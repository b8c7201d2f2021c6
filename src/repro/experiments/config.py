"""Experiment scales: smoke (seconds), ci (a minute or two), full (hours).

The paper's training runs evaluate tens of millions of chromosomes on a
64-core server; the reproduction exposes the same flow at three budgets
so that tests and benchmarks stay fast while a user with time to spare
can launch the full-scale configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

__all__ = ["ExperimentScale", "SCALES", "get_scale"]


@dataclass(frozen=True)
class ExperimentScale:
    """Budget knobs shared by all experiments.

    Attributes
    ----------
    name:
        Scale identifier.
    datasets:
        Datasets to include (canonical names).
    max_samples:
        Optional cap on the per-dataset sample count.
    gradient_epochs / gradient_restarts:
        Budget of the float (baseline) training.
    ga_population / ga_generations:
        Budget of the genetic training.
    ga_workers:
        Process-pool size for the fitness evaluation (0 = in-process).
    ga_islands:
        Number of islands for the island-model GA engine
        (:class:`~repro.core.islands.IslandGATrainer`); 1 keeps the
        single-process :class:`~repro.core.trainer.GATrainer` path.
        With ``cache_dir`` set, islands additionally pool fitness values
        through a shared segment directory (``<dataset>.pool``).
    ga_migration_interval / ga_migration_size:
        Ring-migration cadence and elite count exchanged between islands
        (ignored when ``ga_islands`` is 1).
    max_front_designs:
        How many estimated-front members to synthesize in the hardware
        analysis step.
    seed:
        Global seed (dataset generation, training, GA).
    cache_dir:
        Optional directory for disk-backed evaluation caches.  When set,
        the session loads each dataset's
        :class:`~repro.core.cache.EvaluationCache` snapshot before the
        genetic stage and saves it afterwards, so repeated runner
        invocations share fitness and synthesis work across process
        restarts (``runner.py --cache-dir``).
    cache_max_age_days:
        Snapshot-compaction age bound: entries whose last use is older
        than this many days are dropped when the snapshot is saved, so
        long-lived cache directories do not grow with the union of every
        run ever made (``None`` keeps entries regardless of age).
    cache_max_snapshot_bytes:
        Snapshot-compaction size bound: a saved snapshot is shrunk
        (least recently used entries first) until the file fits.
    dataset_workers:
        Threads used to warm the per-dataset heavy stages (gradient
        baseline + GA front) in parallel before experiments read them
        (``ExperimentSession.prefetch``); 0/1 keeps execution serial.
    verify_rtl:
        Differentially verify every synthesized front member — Python
        model vs. gate-level netlist vs. RTL testbench golden vectors —
        after the hardware-analysis stage (``runner.py --verify-rtl``).
    verify_vectors:
        Stimulus vectors per design for the RTL verification sweep.
    verify_eda:
        Additionally execute every front member's emitted module text as
        Verilog with the :mod:`repro.eda.microverilog` fifth oracle
        (``runner.py --verify-eda``; implies the verification sweep).
    verify_seed:
        Explicit seed for the verification stimulus draw; ``None`` falls
        back to the global ``seed`` (``runner.py --verify-seed``).
    """

    name: str
    datasets: Tuple[str, ...] = (
        "breast_cancer",
        "cardio",
        "pendigits",
        "redwine",
        "whitewine",
    )
    max_samples: Optional[int] = None
    gradient_epochs: int = 150
    gradient_restarts: int = 3
    ga_population: int = 60
    ga_generations: int = 40
    ga_workers: int = 0
    ga_islands: int = 1
    ga_migration_interval: int = 10
    ga_migration_size: int = 2
    max_front_designs: Optional[int] = 40
    seed: int = 0
    cache_dir: Optional[str] = None
    cache_max_age_days: Optional[float] = 30.0
    cache_max_snapshot_bytes: Optional[int] = None
    dataset_workers: int = 0
    verify_rtl: bool = False
    verify_vectors: int = 32
    verify_eda: bool = False
    verify_seed: Optional[int] = None


SCALES: Dict[str, ExperimentScale] = {
    "smoke": ExperimentScale(
        name="smoke",
        datasets=("breast_cancer", "redwine"),
        max_samples=300,
        gradient_epochs=40,
        gradient_restarts=1,
        ga_population=24,
        ga_generations=10,
        max_front_designs=10,
    ),
    "ci": ExperimentScale(
        name="ci",
        max_samples=800,
        gradient_epochs=80,
        gradient_restarts=2,
        ga_population=40,
        ga_generations=25,
        max_front_designs=20,
    ),
    "full": ExperimentScale(
        name="full",
        max_samples=None,
        gradient_epochs=300,
        gradient_restarts=5,
        ga_population=120,
        ga_generations=300,
        max_front_designs=None,
    ),
}


def get_scale(name: str) -> ExperimentScale:
    """Look up a scale by name."""
    try:
        return SCALES[name]
    except KeyError:
        raise KeyError(f"unknown scale {name!r}; available: {sorted(SCALES)}") from None
