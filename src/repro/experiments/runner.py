"""Command-line client of the :class:`~repro.experiments.session.ExperimentSession`.

Usage::

    python -m repro.experiments.runner --experiment table2 --scale ci
    python -m repro.experiments.runner --experiment all --scale smoke
    python -m repro.experiments.runner --experiment all --scale smoke --export-dir out/
    python -m repro.experiments.runner --experiment table2 --cache-dir .repro-cache

Every experiment prints a plain-text table mirroring the corresponding
artifact of the paper (Table I/II/III, Fig. 4/5) plus the ablations.
The heavy per-dataset stages (gradient baseline, hardware-aware GA
front, TC'23 sweep) are session stages shared by all experiments, so
``--experiment all`` trains each of them exactly once per dataset.

``--export-dir DIR`` additionally writes every artifact as machine-
readable ``<experiment>.json`` + ``<experiment>.csv`` (see
:mod:`repro.evaluation.artifacts`; the JSON round-trips bit-identically
through ``Artifact.from_json``).

``--cache-dir DIR`` makes the evaluation cache persistent: each
dataset's fitness/accuracy/hardware-report entries are loaded from
``DIR`` before the genetic stage and saved back afterwards (compacted
by the scale's snapshot policy), so a second invocation of the same
experiment at the same scale is served almost entirely from cache (a
per-dataset ``[cache]`` summary line reports the hit rate and the
snapshot traffic).  Snapshots are versioned and keys are namespaced by
dataset split and constraints, so one directory can safely be shared
between scales and experiments.

``--dataset-workers N`` warms the per-dataset heavy stages in ``N``
threads before the experiments read them (datasets are independent).

``--islands N`` runs the genetic stage on the island-model engine
(:mod:`repro.core.islands`): the population is partitioned into ``N``
sub-populations evolving in their own worker processes with periodic
ring migration (``--migration-interval`` / ``--migration-size``).
Combined with ``--cache-dir``, the islands additionally pool computed
fitness values through a shared segment directory, so a second
invocation recomputes nothing (see ``docs/distributed.md``).

``--store-dir DIR`` publishes a serving design store (fronts, baseline
and comparator summaries, per-design RTL) after the experiments run —
``--export-dir`` does so implicitly under ``<export-dir>/store``.  The
two query modes then answer from such a store **without re-running any
search stage**: ``--query '{"op": "select", "dataset": "redwine"}'``
(repeatable) answers one-shot queries, ``--serve`` reads JSONL queries
from stdin and streams JSONL answers — both thin wrappers over
``python -m repro.serving`` (see ``docs/serving.md``).

``--verify-rtl`` differentially verifies every synthesized front member
after the hardware-analysis stage — Python model vs. gate-level netlist
vs. RTL testbench golden vectors, batched over ``--verify-vectors``
stimulus vectors, sharing one compiled netlist schedule between
parameter-identical neurons across the front — and prints a per-dataset
``[verify]`` summary line (see ``docs/verification.md``).

``--verify-eda`` additionally executes every front member's emitted
module text *as Verilog* through the :mod:`repro.eda.microverilog`
fifth oracle (implies the verification sweep); ``--verify-seed`` pins
the stimulus draw independently of the experiment seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import List, Optional

from repro.experiments.config import SCALES
from repro.experiments.session import EXPERIMENT_ORDER, ExperimentSession

__all__ = ["main"]


def _query_mode(store_dir: str, queries: Optional[List[str]], serve: bool) -> int:
    """Answer queries from a warm design store (no search stage runs).

    One-shot ``--query`` strings are answered as a concurrent batch;
    ``--serve`` additionally reads JSONL queries from stdin and streams
    one JSONL answer per line until EOF.
    """
    import asyncio
    import json

    from repro.serving.cli import _dispatch, _run_batch
    from repro.serving.service import ParetoService

    service = ParetoService(store_dir)
    code = 0
    if queries:
        batch = [json.loads(query) for query in queries]
        results = asyncio.run(_run_batch(service, batch))
        for result in results:
            print(json.dumps(result, allow_nan=False))
        if any(not result["ok"] for result in results):
            code = 1
    if serve:

        async def loop() -> None:
            for line in sys.stdin:
                line = line.strip()
                if not line:
                    continue
                try:
                    result = await _dispatch(service, json.loads(line))
                    answer = {"ok": True, "result": result}
                except Exception as exc:  # served loop must not die per-query
                    answer = {"ok": False, "error": str(exc)}
                print(json.dumps(answer, allow_nan=False), flush=True)

        asyncio.run(loop())
    return code


def main(argv: List[str] | None = None) -> int:
    """Run one (or all) experiments and print the resulting tables."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--experiment",
        default="all",
        choices=sorted(EXPERIMENT_ORDER) + ["all"],
        help="which artifact to regenerate",
    )
    parser.add_argument(
        "--scale",
        default="ci",
        choices=sorted(SCALES),
        help="evaluation budget (smoke/ci/full)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="GA fitness-evaluation process-pool size (overrides the scale; 0 = in-process)",
    )
    parser.add_argument(
        "--islands",
        type=int,
        default=None,
        help=(
            "number of islands for the island-model GA engine (overrides the "
            "scale; 1 = single-process GATrainer)"
        ),
    )
    parser.add_argument(
        "--migration-interval",
        type=int,
        default=None,
        help="generations between elite migrations (island model only)",
    )
    parser.add_argument(
        "--migration-size",
        type=int,
        default=None,
        help="elites each island exchanges per migration (island model only)",
    )
    parser.add_argument(
        "--dataset-workers",
        type=int,
        default=None,
        help=(
            "threads warming the per-dataset heavy stages (gradient baseline "
            "+ GA front) in parallel before the experiments read them"
        ),
    )
    parser.add_argument(
        "--export-dir",
        default=None,
        help=(
            "directory for machine-readable exports: every experiment is "
            "written as <experiment>.json + <experiment>.csv"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=(
            "directory for persistent evaluation-cache snapshots; repeated "
            "invocations share fitness/synthesis work across restarts"
        ),
    )
    parser.add_argument(
        "--store-dir",
        default=None,
        help=(
            "serving design-store directory: experiment runs publish into "
            "it; --serve/--query answer from it without any search stage"
        ),
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help="serve JSONL queries from stdin against --store-dir and exit",
    )
    parser.add_argument(
        "--query",
        action="append",
        default=None,
        metavar="JSON",
        help='answer one query, e.g. \'{"op": "front", "dataset": "redwine"}\' (repeatable)',
    )
    parser.add_argument(
        "--verify-rtl",
        action="store_true",
        help=(
            "differentially verify every synthesized front member (Python "
            "model vs gate-level netlist vs RTL testbench golden vectors) "
            "and print a per-dataset [verify] summary"
        ),
    )
    parser.add_argument(
        "--verify-vectors",
        type=int,
        default=None,
        help="stimulus vectors per design for --verify-rtl (default: scale setting)",
    )
    parser.add_argument(
        "--verify-eda",
        action="store_true",
        help=(
            "additionally execute every front member's emitted module text "
            "as Verilog through the repro.eda.microverilog fifth oracle "
            "(implies --verify-rtl)"
        ),
    )
    parser.add_argument(
        "--verify-seed",
        type=int,
        default=None,
        help=(
            "seed for the verification stimulus draw (default: the "
            "experiment seed); two runs with the same value apply "
            "identical vectors"
        ),
    )
    args = parser.parse_args(argv)

    if args.serve or args.query:
        if args.store_dir is None:
            parser.error("--serve/--query require --store-dir (a published design store)")
        return _query_mode(args.store_dir, args.query, serve=args.serve)

    scale = SCALES[args.scale]
    if args.workers is not None:
        if args.workers < 0:
            parser.error("--workers must be non-negative")
        scale = dataclasses.replace(scale, ga_workers=args.workers)
    if args.islands is not None:
        if args.islands < 1:
            parser.error("--islands must be at least 1")
        scale = dataclasses.replace(scale, ga_islands=args.islands)
    if args.migration_interval is not None:
        if args.migration_interval < 1:
            parser.error("--migration-interval must be at least 1")
        scale = dataclasses.replace(scale, ga_migration_interval=args.migration_interval)
    if args.migration_size is not None:
        if args.migration_size < 0:
            parser.error("--migration-size must be non-negative")
        scale = dataclasses.replace(scale, ga_migration_size=args.migration_size)
    if args.dataset_workers is not None:
        if args.dataset_workers < 0:
            parser.error("--dataset-workers must be non-negative")
        scale = dataclasses.replace(scale, dataset_workers=args.dataset_workers)
    if args.cache_dir is not None:
        scale = dataclasses.replace(scale, cache_dir=args.cache_dir)
    if args.verify_rtl:
        scale = dataclasses.replace(scale, verify_rtl=True)
    if args.verify_eda:
        # The fifth oracle rides on the verification sweep, so enabling
        # it enables the sweep too.
        scale = dataclasses.replace(scale, verify_rtl=True, verify_eda=True)
    if args.verify_vectors is not None:
        # The scale itself may enable verification (ExperimentScale.verify_rtl);
        # only reject the flag when no verification will actually run.
        if not scale.verify_rtl:
            parser.error("--verify-vectors requires --verify-rtl")
        if args.verify_vectors <= 0:
            parser.error("--verify-vectors must be positive")
        scale = dataclasses.replace(scale, verify_vectors=args.verify_vectors)
    if args.verify_seed is not None:
        if not scale.verify_rtl:
            parser.error("--verify-seed requires --verify-rtl or --verify-eda")
        scale = dataclasses.replace(scale, verify_seed=args.verify_seed)

    session = ExperimentSession(scale)
    names = list(EXPERIMENT_ORDER) if args.experiment == "all" else [args.experiment]
    artifacts = session.run(
        names, export_dir=args.export_dir, store_dir=args.store_dir
    )
    for name in names:
        print(f"\n=== {name} (scale={args.scale}) ===")
        print(artifacts[name].format())
    if args.export_dir is not None:
        print(f"\n[export] wrote {len(artifacts)} experiment(s) to {args.export_dir} (.json + .csv)")
    store_dir = args.store_dir
    if store_dir is None and args.export_dir is not None:
        store_dir = str(Path(args.export_dir) / "store")
    if store_dir is not None:
        from repro.serving.store import DesignStore

        published = DesignStore(store_dir).datasets()
        if published:
            print(f"[store] published {len(published)} dataset(s) to {store_dir}: {', '.join(published)}")
    if scale.cache_dir is not None:
        for dataset, stats in sorted(session.cache_summary().items()):
            print(
                f"[cache] {dataset}: fitness {stats['cache_hits']}/"
                f"{stats['evaluations']} hits ({100.0 * stats['hit_rate']:.1f}%), "
                f"snapshot loaded {stats['loaded']} / saved {stats['saved']} entries"
            )
    if scale.verify_rtl or scale.verify_eda:
        for dataset, verification in sorted(session.verification_summary().items()):
            status = "OK" if verification.passed else "FAILED"
            eda_part = (
                f"eda {verification.eda_mismatches} / " if scale.verify_eda else ""
            )
            print(
                f"[verify] {dataset}: {verification.num_designs} designs x "
                f"{verification.num_vectors} vectors "
                f"({verification.num_neuron_checks} neuron netlists, "
                f"{verification.plans_compiled} compiled / "
                f"{verification.plan_reuses} plan reuses) -- "
                f"netlist {verification.netlist_mismatches} / "
                f"RTL {verification.rtl_mismatches} / "
                f"model {verification.model_mismatches} / "
                f"expr {verification.expression_mismatches} / "
                f"{eda_part}"
                f"total {verification.total_mismatches} mismatches "
                f"[{status}] ({verification.seconds:.2f}s)"
            )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
