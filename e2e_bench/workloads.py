"""The three workloads, their timed loop and their metrics.

* ``ga_search`` — the ``table2`` experiment on all five datasets with the
  full scale's samples and GA population, the smoke gradient budget and
  :data:`GA_SEARCH_GENERATIONS` generations.  The GA inner loop does most
  of the work.
* ``paper_all`` — ``--experiment all`` at ``ci`` scale with the full
  gradient budget, RTL + EDA verification, export and publish into a
  fresh store.  Every stage runs.
* ``serve_queries`` — :data:`SERVE_ROUNDS` query rounds per iteration.
  No search module runs.

Every run first publishes the *serving fixture* in a child process: a
``ci`` run (``fig4`` + ``fig5``) of the code under test with the fixed seed
:data:`FIXTURE_SEED`, so every seed queries the same store and only the
query mix depends on ``--seed``.  The training workloads run
:data:`TRAINING_ROUNDS` rounds against it after each session run, so
every workload reports every end-to-end metric.

Workloads are defined only through the ``ExperimentScale`` fields for
samples, gradient and GA budgets and verification, and only drive
``ExperimentSession`` and ``ParetoService``.  Every iteration of one
seed does identical work.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from e2e_bench import checks
from e2e_bench.checks import Operations
from e2e_bench.clients import StoreView, answer_checker, make_rounds, run_battery

__all__ = ["WORKLOADS", "scale_for", "run_workload"]

WORKLOADS = ("ga_search", "paper_all", "serve_queries")

#: GA generations of ``ga_search`` (sized so one iteration takes a few
#: seconds on two cores and a run holds several iterations).
GA_SEARCH_GENERATIONS = 25
#: Scale seed of the serving fixture (fixed: the store's content would
#: otherwise move the query metrics with the seed).
FIXTURE_SEED = 0
#: Query rounds after each training iteration (fewer left the query
#: metrics of the training workloads with too few samples to be steady).
TRAINING_ROUNDS = 200
#: Query rounds per ``serve_queries`` iteration.
SERVE_ROUNDS = 50
#: Fresh-interpreter set-up probes per run (``setup_s`` is their median).
SETUP_PROBES = 9


def scale_for(workload: str, seed: int):
    """The ``ExperimentScale`` a workload runs (``serve_queries``: its fixture)."""
    from repro.experiments.config import SCALES

    if workload == "ga_search":
        return dataclasses.replace(
            SCALES["full"],
            name="e2e-ga_search",
            gradient_epochs=SCALES["smoke"].gradient_epochs,
            gradient_restarts=SCALES["smoke"].gradient_restarts,
            ga_generations=GA_SEARCH_GENERATIONS,
            seed=seed,
        )
    if workload == "paper_all":
        return dataclasses.replace(
            SCALES["ci"],
            name="e2e-paper_all",
            gradient_epochs=SCALES["full"].gradient_epochs,
            gradient_restarts=SCALES["full"].gradient_restarts,
            verify_rtl=True,
            verify_eda=True,
            seed=seed,
        )
    if workload == "serve_queries":
        return dataclasses.replace(SCALES["ci"], name="e2e-serve_queries", seed=seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


# ---------------------------------------------------------------------------
# Child processes: set-up probe and the serving fixture
# ---------------------------------------------------------------------------


def _probe(workload: str, seed: int, store: str) -> float:
    """Seconds to import the workload's public API and construct it."""
    start = time.perf_counter()
    if workload == "serve_queries":
        from repro.serving.service import ParetoService

        ParetoService(store)
    else:
        from repro.experiments.session import ExperimentSession

        ExperimentSession(scale_for(workload, seed))
    return time.perf_counter() - start


def _publish_fixture(store: str) -> None:
    """Publish a full store (fronts, RTL, TC'23 and comparator sections).

    ``fig4`` and ``fig5`` read every stage the store holds; the other
    experiments would only add training time.
    """
    from repro.experiments.session import ExperimentSession

    ExperimentSession(scale_for("serve_queries", FIXTURE_SEED)).run(["fig4", "fig5"], store_dir=store)


def _child(root: Path, *args: str) -> str:
    """Run ``python -m e2e_bench.workloads ARGS`` and return its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-m", "e2e_bench.workloads", *args],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"child {args[0]} failed ({done.returncode}): {done.stderr[-2000:]}")
    return done.stdout


# ---------------------------------------------------------------------------
# One iteration
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Iteration:
    """What one iteration measured."""

    wall_s: float
    ops: Operations
    quality: Dict[str, float]
    digest: str
    counters: Dict[str, float]
    latencies_s: Sequence[float]
    opens_s: Sequence[float]
    coalesced: int
    self_total_s: float = 0.0
    layers: Optional[Dict[str, float]] = None


class Queries:
    """The fixture store, the seeded round plan and the reference answers."""

    def __init__(self, store: Path, seed: int, rounds: int) -> None:
        self.view = StoreView.load(store)
        self.plan = make_rounds(self.view, seed, rounds)
        self.references: Dict = {}

    def run(self, ops: Operations, tracer):
        """Run the plan and check every answer; ``tracer`` records the rounds only."""
        check = answer_checker(self.view, ops, self.references)

        def untraced_check(answers: list) -> None:
            tracer.active = False
            check(answers)
            tracer.active = True

        tracer.active = True
        try:
            return run_battery(self.view, self.plan, untraced_check)
        finally:
            tracer.active = False


def _ga_counters(session, tracer) -> Dict[str, float]:
    """GA counters from the public results, plus ``cache.models`` traffic."""
    computed = hits = 0
    for result in checks.ga_results(session):
        if result.history:
            computed += result.history[-1].fitness_computations
            hits += result.history[-1].cache_hits
    caches = {}
    for key in session.stage_counts():
        if key[0] == "ga_front":
            cache = session.front(key[1]).approximate.cache
            caches[id(cache)] = cache
    return {
        "core.fitness_computed": computed,
        "core.fitness_hits": hits,
        "core.model_reads": sum(c.models.hits for c in caches.values()),
        "core.model_puts": sum(tracer.puts_by_instance.get(id(c.models), 0) for c in caches.values()),
    }


def _training_iteration(workload: str, scale, work: Path, queries: Queries, tracer) -> Iteration:
    """One session run (timed), its output checks, then the query rounds.

    ``tracer`` records the session run and the query rounds only.
    """
    from repro.experiments.session import ExperimentSession

    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = Operations()
    export_dir = work / "export" if workload == "paper_all" else None
    datasets = list(scale.datasets)

    session = ExperimentSession(scale)
    tracer.reset()
    tracer.active = True
    start = time.perf_counter()
    if workload == "paper_all":
        artifacts = ops.run("session.run(all)", lambda: session.run("all", export_dir=export_dir))
    else:
        artifacts = ops.run("session.run(table2)", lambda: session.run(["table2"]))
    wall = time.perf_counter() - start
    tracer.active = False
    self_total = tracer.self_total()
    if artifacts is None:
        return Iteration(wall, ops, {}, "", {}, [], [], 0, self_total)

    checks.check_artifacts(ops, artifacts, export_dir)
    if scale.verify_rtl:
        checks.check_verification(ops, session, eda=scale.verify_eda)
    if export_dir is not None:
        checks.check_store(ops, session, export_dir / "store", datasets)

    records = [session.record(name) for name in datasets]
    stages = session.stage_counts()
    rtl = [session.rtl_records(n) for n in datasets if ("rtl_records", n) in stages]
    counters = _ga_counters(session, tracer)
    digest = checks.digest(
        sorted(artifacts.items()),
        records,
        rtl,
        counters["core.fitness_computed"],
        counters["core.fitness_hits"],
    )
    quality = checks.quality_metrics(records)
    # The query rounds measure the serving path, not garbage collection
    # over the finished session's heap.
    del session, artifacts, records, rtl
    gc.collect()
    battery = queries.run(ops, tracer)
    return Iteration(
        wall, ops, quality, digest, counters, battery.latencies_s, battery.opens_s,
        battery.coalesced, self_total,
    )


def _serve_iteration(queries: Queries, tracer) -> Iteration:
    """One batch of query rounds; ``wall_s`` covers them all."""
    ops = Operations()
    tracer.reset()
    battery = queries.run(ops, tracer)
    records = [queries.view.records[name] for name in queries.view.datasets]
    return Iteration(
        battery.wall_s, ops, checks.quality_metrics(records), checks.digest(records), {},
        battery.latencies_s, battery.opens_s, battery.coalesced, tracer.self_total(),
    )


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced iteration
# ---------------------------------------------------------------------------


def _layer_metrics(tracer, iteration: Iteration) -> Dict[str, float]:
    from e2e_bench.metrics import PER_LAYER

    values: Dict[str, float] = dict(tracer.self_s)
    values.update(tracer.counts)
    values.update(iteration.quality)
    counters = iteration.counters
    computed = counters.get("core.fitness_computed", 0)
    hits = counters.get("core.fitness_hits", 0)
    values["core.fitness_computed"] = computed
    values["core.fitness_hits"] = hits
    values["core.fitness_hit_ratio"] = hits / (hits + computed) if hits + computed else 0.0
    puts = counters.get("core.model_puts", 0)
    values["core.model_read_ratio"] = counters.get("core.model_reads", 0) / puts if puts else 0.0
    evaluate = tracer.inclusive_s.get("core.evaluate_s", 0.0)
    values["core.genomes_per_s"] = computed / evaluate if evaluate else 0.0
    values["serving.coalesced"] = iteration.coalesced
    return {name: values.get(name, 0.0) for name, _ in PER_LAYER}


# ---------------------------------------------------------------------------
# The timed loop
# ---------------------------------------------------------------------------


def _import_layers() -> None:
    """Import every traced module so lazy imports do not land in a timing."""
    import importlib

    from e2e_bench.tracing import PUT_TARGET, TARGETS

    for module in {target.module for target in TARGETS} | {PUT_TARGET[0]}:
        importlib.import_module(module)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, root: Path, work: Path) -> Dict:
    """Run one workload for ``seconds`` and return its result record."""
    from e2e_bench.tracing import Tracer

    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    ops = Operations()
    store = work / "fixture_store"
    fixture_start = time.perf_counter()
    ops.run("publish the serving fixture", lambda: _child(root, "fixture", "--store", str(store)))
    fixture_s = time.perf_counter() - fixture_start
    probe_args = ("probe", "--workload", workload, "--seed", str(seed), "--store", str(store))
    probes = [float(_child(root, *probe_args).split()[-1]) for _ in range(SETUP_PROBES)]
    # Untraced iterations get a tracer that is never installed.
    tracer, idle = Tracer(), Tracer()
    if ops.failed:
        return _summarize(workload, seed, trace, ops, [], [], probes, fixture_s, 0.0, tracer)
    _import_layers()

    iterate: Callable[[Tracer], Iteration]
    if workload == "serve_queries":
        queries = Queries(store, seed, SERVE_ROUNDS)
        iterate = lambda t: _serve_iteration(queries, t)  # noqa: E731
    else:
        queries = Queries(store, seed, TRAINING_ROUNDS)
        scale = scale_for(workload, seed)
        iterate = lambda t: _training_iteration(workload, scale, work / "iteration", queries, t)  # noqa: E731

    plain: List[Iteration] = []
    traced: List[Iteration] = []
    costs: List[float] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        if trace and len(traced) < len(plain):
            with tracer:
                iteration = iterate(tracer)
                iteration.layers = _layer_metrics(tracer, iteration)
            traced.append(iteration)
        else:
            iteration = iterate(idle)
            plain.append(iteration)
        ops.merge(iteration.ops)
        costs.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        enough = bool(plain) and (not trace or bool(traced))
        # Stop when another iteration would end nearer past the budget
        # than this one ends before it.
        if enough and elapsed + statistics.median(costs) / 2 > seconds:
            break

    return _summarize(
        workload, seed, trace, ops, plain, traced, probes, fixture_s,
        time.perf_counter() - start, tracer,
    )


def _summarize(workload, seed, trace, ops, plain, traced, probes, fixture_s, measured_s, tracer) -> Dict:
    # Read before the summary allocates anything.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ok = [it for it in plain + traced if it.digest]
    # Determinism guard: one seed, identical results in every iteration.
    if len(ok) > 1:
        ops.check(
            "determinism",
            lambda: None
            if all(it.digest == ok[0].digest and it.quality == ok[0].quality for it in ok[1:])
            else "results differ between iterations of one seed",
        )
    decode_counts = {it.layers["core.decode_calls"] for it in traced if it.layers}
    if len(decode_counts) > 1:
        ops.check(
            "determinism",
            lambda: f"core.decode_calls differs between iterations: {sorted(decode_counts)}",
        )
    # A wrapped target that no longer resolves would read as a layer
    # that costs nothing.
    for name in tracer.missing:
        ops.check(f"trace target {name}", lambda: "no longer resolves; its layer is not measured")

    latencies = checks.joined(it.latencies_s for it in plain)
    opens = checks.joined(it.opens_s for it in plain)
    walls = [it.wall_s for it in plain if it.digest]
    e2e: Dict[str, float] = {"setup_s": statistics.median(probes), "peak_rss_mb": peak_rss_mb}
    if walls:
        e2e["wall_s"] = statistics.median(walls)
    if len(latencies):
        e2e["query_p50_ms"] = 1000.0 * checks.percentile(latencies, 0.50)
        e2e["query_p99_ms"] = 1000.0 * checks.percentile(latencies, 0.99)
    if len(opens):
        e2e["open_p50_ms"] = 1000.0 * checks.percentile(opens, 0.50)

    per_layer: Dict[str, float] = {}
    layered = [it.layers for it in traced if it.layers and it.digest]
    traced_walls = [it.wall_s for it in traced if it.digest]
    if layered:
        per_layer = {name: statistics.median(layers[name] for layers in layered) for name in layered[0]}
        if walls:
            per_layer["trace.overhead"] = statistics.median(traced_walls) / statistics.median(walls) - 1.0

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "measured_s": measured_s,
        "iterations": {"untraced": len(plain), "traced": len(traced)},
        "fixture_s": fixture_s,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "error_rate": ops.failed / ops.attempted if ops.attempted else 0.0,
        "failures": ops.failures,
        "end_to_end": e2e,
        "samples": {
            "wall_s": len(walls),
            "setup_s": len(probes),
            "peak_rss_mb": 1,
            "query_p50_ms": len(latencies),
            "query_p99_ms": len(latencies),
            "open_p50_ms": len(opens),
        },
        "per_layer": per_layer,
        "quality": ok[0].quality if ok else {},
        "digest": ok[0].digest if ok else None,
        "counters": ok[0].counters if ok else {},
        "untraced_walls_s": walls,
        "traced_walls_s": traced_walls,
        "setup_probes_s": probes,
        "self_time_totals_s": [it.self_total_s for it in traced],
        "missing_targets": list(tracer.missing),
    }


# ---------------------------------------------------------------------------
# ``python -m e2e_bench.workloads {probe,fixture}`` (child processes)
# ---------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m e2e_bench.workloads")
    parser.add_argument("command", choices=("probe", "fixture"))
    parser.add_argument("--workload", default="serve_queries", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=FIXTURE_SEED)
    parser.add_argument("--store", required=True)
    args = parser.parse_args(argv)
    if args.command == "probe":
        print(repr(_probe(args.workload, args.seed, args.store)))
    else:
        _publish_fixture(args.store)
    return 0


if __name__ == "__main__":
    sys.exit(main())
