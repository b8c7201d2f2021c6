"""Checks of the benchmark's own instruments (wrappers, metric names).

Run explicitly (the file name keeps it out of the default test run)::

    PYTHONPATH=src python -m pytest e2e_bench/selfcheck.py -q

The coverage tests run each workload's iteration on a tiny scale with the
tracer installed and check that every layer the workload exercises
recorded a call.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from e2e_bench import workloads  # noqa: E402
from e2e_bench.checks import hypervolume_2d  # noqa: E402
from e2e_bench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from e2e_bench.tracing import PUT_TARGET, QUERY_OPS, STAGES, Target, Tracer, _resolve  # noqa: E402

_GA_LAYERS = {
    "datasets.load_s",
    "baselines.gradient_s",
    "core.variation_s",
    "core.evaluate_s",
    "core.decode_s",
    "core.select_s",
    "core.archive_s",
    "core.hv_s",
    "approx.forward_s",
    "hardware.fa_count_s",
    "hardware.synth_s",
    "evaluation.front_s",
    "evaluation.artifact_s",
    "experiments.stage_s.front",
    "experiments.stage_s.front_record",
    "serving.store_read_s",
    "serving.query_s.select",
    "serving.query_s.front",
    "serving.query_s.feasibility",
    "serving.query_s.points",
}
EXERCISED = {
    "ga_search": _GA_LAYERS,
    "paper_all": _GA_LAYERS
    | {
        "baselines.comparators_s",
        "hardware.sim_s",
        "evaluation.verify_s",
        "rtl.generate_s",
        "eda.sim_s",
        "serving.store_write_s",
        "serving.query_s.rtl",
    }
    | {f"experiments.stage_s.{stage}" for stage in STAGES},
    "serve_queries": {"serving.store_read_s"} | {f"serving.query_s.{op}" for op in QUERY_OPS},
}

_TINY = dict(
    datasets=("breast_cancer", "redwine"),
    max_samples=200,
    gradient_epochs=10,
    gradient_restarts=1,
    ga_population=12,
    ga_generations=3,
    max_front_designs=4,
)


def _originals():
    workloads._import_layers()
    tracer = Tracer()
    found = {}
    for target in tracer.targets:
        resolved = _resolve(target.module, target.qualname)
        assert resolved is not None, f"{target.module}.{target.qualname} not found"
        found[id(resolved[2])] = f"{target.module}.{target.qualname}"
    resolved = _resolve(*PUT_TARGET)
    found[id(resolved[2])] = ".".join(PUT_TARGET)
    return tracer, found


def _repro_bindings(ids):
    """``module.attr`` names in ``repro.*`` bound to one of ``ids``."""
    hits = []
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name == "repro" or name.startswith("repro."):
            for attr, value in list(vars(module).items()):
                if id(value) in ids:
                    hits.append(f"{name}.{attr}")
    return hits


def test_every_binding_of_a_target_is_wrapped_and_restored():
    tracer, originals = _originals()
    before = _repro_bindings(originals)
    assert len(before) > len(originals) // 2  # the scan sees the real bindings
    import repro.core.nsga2
    import repro.core.trainer

    with tracer:
        assert tracer.missing == []
        assert _repro_bindings(originals) == []
        # ``from repro.core.nsga2 import nsga2_sort_key`` in the trainer
        # is re-bound to the same wrapper as the defining module.
        copy = repro.core.trainer.nsga2_sort_key
        assert copy is repro.core.nsga2.nsga2_sort_key and hasattr(copy, "__wrapped__")
        wrapped = {id(getattr(owner, name)) for owner, name, _ in tracer._patched}
    assert _repro_bindings(originals) == before
    assert _repro_bindings(wrapped) == []


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_hypervolume_2d():
    assert hypervolume_2d([]) == 0.0
    assert hypervolume_2d([(0.5, 0.5)]) == pytest.approx(0.25)
    assert hypervolume_2d([(0.2, 0.6), (0.6, 0.2), (0.7, 0.7), (1.2, 0.0)]) == pytest.approx(
        0.8 * 0.4 + 0.4 * 0.8 - 0.4 * 0.4
    )


def test_async_span_counts_only_its_running_steps():
    tracer = Tracer(targets=())

    async def idle():
        await asyncio.sleep(0.05)

    async def busy():
        end = time.perf_counter() + 0.05
        while time.perf_counter() < end:
            pass

    timed = tracer._async_wrapper(Target("repro", "idle", "idle"), idle)

    async def main():
        await asyncio.gather(timed(), busy())

    asyncio.run(main())
    assert tracer.calls["idle"] == 1
    assert tracer.self_s["idle"] < 0.02
    assert tracer.inclusive_s["idle"] < 0.02


def _coverage(workload, iteration, tracer):
    missing = sorted(m for m in EXERCISED[workload] if tracer.calls.get(m, 0) < 1)
    assert missing == [], f"{workload}: no call recorded for {missing}"
    assert iteration.self_total_s <= iteration.wall_s
    layers = iteration.layers
    assert layers["core.decode_calls"] >= layers["core.fitness_computed"]
    assert set(layers) == {name for name, _ in PER_LAYER}


def _traced(fn):
    tracer = Tracer()
    with tracer:
        iteration = fn(tracer)
        iteration.layers = workloads._layer_metrics(tracer, iteration)
    assert iteration.ops.failures == []
    return tracer, iteration


@pytest.fixture(scope="module")
def fixture_store(tmp_path_factory):
    from repro.experiments.session import ExperimentSession

    store = tmp_path_factory.mktemp("fixture") / "store"
    scale = dataclasses.replace(workloads.scale_for("serve_queries", 3), **_TINY)
    ExperimentSession(scale).run("all", store_dir=store)
    return store


@pytest.mark.parametrize("workload", ["ga_search", "paper_all"])
def test_training_workload_coverage(workload, tmp_path, fixture_store):
    scale = dataclasses.replace(workloads.scale_for(workload, 3), **_TINY)
    queries = workloads.Queries(fixture_store, 3, rounds=2)
    tracer, iteration = _traced(
        lambda t: workloads._training_iteration(workload, scale, tmp_path / "it", queries, t)
    )
    _coverage(workload, iteration, tracer)
    assert iteration.layers["core.fitness_computed"] > 0


def test_serve_workload_coverage(fixture_store):
    queries = workloads.Queries(fixture_store, 3, rounds=5)
    tracer, iteration = _traced(lambda t: workloads._serve_iteration(queries, t))
    _coverage("serve_queries", iteration, tracer)
    assert iteration.layers["serving.store_reads"] >= 5 * len(queries.view.datasets)


def test_round_plan_is_the_serving_battery(fixture_store):
    from collections import Counter

    from e2e_bench.clients import BATTERIES_PER_CLIENT, CLIENTS, DATASET_OPS, StoreView, make_rounds

    view = StoreView.load(fixture_store)
    plan = make_rounds(view, 3, rounds=2)
    assert plan == make_rounds(view, 3, rounds=2) and plan != make_rounds(view, 4, rounds=2)
    assert len(plan) == 2 and all(len(clients) == CLIENTS for clients in plan)
    for queries in (q for clients in plan for q in clients):
        ops = Counter(
            (op, dict(params).get("dataset") or dict(params)["experiment"]) for op, params in queries
        )
        expected = {(op, name): BATTERIES_PER_CLIENT for name in view.datasets for op in DATASET_OPS}
        expected.update({("points", "fig4"): BATTERIES_PER_CLIENT, ("points", "fig5"): BATTERIES_PER_CLIENT})
        assert ops == expected
        opened = [dict(params)["dataset"] for _, params in queries[: len(view.datasets)]]
        assert sorted(opened) == view.datasets
