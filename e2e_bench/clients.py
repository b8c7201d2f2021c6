"""Closed-loop query clients against a published design store.

A *round* opens a fresh :class:`~repro.serving.service.ParetoService`
(so its first query per dataset reads the store cold) and runs
:data:`CLIENTS` clients on one event loop; each client sends its next
query only after the previous answer arrived.  The query mix of every
round is drawn from the workload seed and the round index, so one seed
always sends the same queries.  Each client starts by visiting every
dataset once (in its own seeded order), which makes every round measure
one cold open per dataset.

The rounds run on one CPU (see :func:`one_cpu`).

Every served answer is compared, between rounds and outside every timed
interval, with a reference computed once through
:mod:`repro.serving.queries`.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import random
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from e2e_bench.checks import Operations, same

__all__ = ["CLIENTS", "BATTERIES_PER_CLIENT", "StoreView", "Battery", "make_rounds", "run_battery", "answer_checker"]

#: Concurrent closed-loop clients (the benchmark is sized for two cores).
CLIENTS = 2
#: Passes of the query battery each client sends per round.
BATTERIES_PER_CLIENT = 5
#: Operations sent once per dataset in a battery (as in
#: ``benchmarks/test_serving_latency.py``); ``points`` is sent once for
#: ``fig4`` and once for ``fig5`` across all datasets.
DATASET_OPS = ("select", "front", "feasibility", "rtl")
POINTS_EXPERIMENTS = ("fig4", "fig5")

Query = Tuple[str, Tuple[Tuple[str, object], ...]]


@dataclass
class StoreView:
    """What a store holds, loaded once outside the timed region."""

    root: Path
    records: Dict[str, object]

    @classmethod
    def load(cls, root: Path) -> "StoreView":
        from repro.serving.store import DesignStore

        store = DesignStore(root)
        return cls(root, {name: store.get_dataset(name) for name in store.datasets()})

    @property
    def datasets(self) -> List[str]:
        return sorted(self.records)

    def reference(self, query: Query) -> object:
        """The answer :mod:`repro.serving.queries` gives for ``query``.

        Queries carry no budget or voltage, so the service defaults apply:
        :data:`~repro.serving.queries.DEFAULT_ACCURACY_LOSS` and the
        minimum supply voltage.
        """
        from repro.hardware.egfet import MIN_VOLTAGE
        from repro.serving import queries
        from repro.serving.store import DesignStore

        op, params = query
        kwargs = dict(params)
        loss = queries.DEFAULT_ACCURACY_LOSS
        if op == "points":
            rows: List[Dict] = []
            for name in self.datasets:
                record = self.records[name]
                if kwargs["experiment"] == "fig4":
                    rows.extend(queries.fig4_point_rows(queries.fig4_rows(record, loss)))
                else:
                    rows.extend(queries.fig5_point_rows(queries.fig5_rows(record, loss, MIN_VOLTAGE)))
            return rows
        record = self.records[kwargs["dataset"]]
        if op == "select":
            return queries.selection_row(record, max_accuracy_loss=loss)
        if op == "front":
            return queries.front_rows(record)
        if op == "feasibility":
            return queries.fig5_rows(record, max_accuracy_loss=loss, approximate_voltage=MIN_VOLTAGE)
        design = queries.resolve_rtl_design(record, kwargs["design"], loss)
        rtl = DesignStore(self.root).get_rtl(record.dataset, design)
        return (design, rtl.module_name, rtl.verilog, rtl.testbench)


def _answer_view(op: str, answer: object) -> object:
    """The comparable part of a served answer."""
    if op == "rtl":
        return (answer["design"], answer["module_name"], answer["verilog"], answer["testbench"])
    return answer


def _battery(rng: random.Random, view: StoreView) -> List[Query]:
    """One pass: every dataset operation once per dataset, plus ``points``.

    Parameters are the service defaults (5 % accuracy-loss budget, the
    minimum supply voltage); the seed only draws which stored RTL design
    each ``rtl`` query fetches (``None`` is the selected design).
    """
    batch: List[Query] = []
    for dataset in view.datasets:
        for op in DATASET_OPS:
            params: Dict[str, object] = {"dataset": dataset}
            if op == "rtl":
                params["design"] = rng.choice([None] + list(view.records[dataset].rtl_designs))
            batch.append((op, tuple(sorted(params.items()))))
    for experiment in POINTS_EXPERIMENTS:
        batch.append(("points", (("experiment", experiment),)))
    return batch


def _dataset(query: Query) -> Optional[str]:
    return dict(query[1]).get("dataset")


def make_rounds(view: StoreView, seed: int, rounds: int) -> List[List[List[Query]]]:
    """``rounds`` x :data:`CLIENTS` seeded query lists.

    Each client sends :data:`BATTERIES_PER_CLIENT` passes of the battery
    in an order drawn from the seed and the round index.  The first query
    of each dataset is moved to the front, so every client starts by
    visiting every dataset once and each round measures one cold open per
    dataset.
    """
    plan = []
    for index in range(rounds):
        rng = random.Random(seed * 1_000_003 + index)
        clients = []
        for _ in range(CLIENTS):
            queries = [q for _ in range(BATTERIES_PER_CLIENT) for q in _battery(rng, view)]
            rng.shuffle(queries)
            seen = set()
            first: List[Query] = []
            rest: List[Query] = []
            for query in queries:
                dataset = _dataset(query)
                (first if dataset is not None and dataset not in seen else rest).append(query)
                seen.add(dataset)
            clients.append(first + rest)
        plan.append(clients)
    return plan


@dataclass
class Battery:
    """Latencies of one batch of rounds.

    ``wall_s`` sums the rounds alone: each round's answers are checked
    between rounds, outside every timed interval, so at most one round of
    answers is alive at a time.
    """

    wall_s: float = 0.0
    latencies_s: array = field(default_factory=lambda: array("d"))
    opens_s: array = field(default_factory=lambda: array("d"))
    coalesced: int = 0


async def _client(service, queries: List[Query], opened: Dict[str, float], opened_at: float, out: Battery, answers: list) -> None:
    for query in queries:
        op, params = query
        kwargs = dict(params)
        start = time.perf_counter()
        try:
            answer = await getattr(service, op)(**kwargs)
        except Exception as exc:  # counted as a failed operation by the check
            answer = exc
        end = time.perf_counter()
        out.latencies_s.append(end - start)
        answers.append((query, answer))
        dataset = kwargs.get("dataset")
        if dataset is not None and dataset not in opened:
            opened[dataset] = end - opened_at


async def _rounds(root: Path, plan: List[List[List[Query]]], out: Battery, check: Callable[[list], None]) -> None:
    from repro.serving.service import ParetoService

    for clients in plan:
        answers: list = []
        opened: Dict[str, float] = {}
        opened_at = time.perf_counter()
        service = ParetoService(root)
        await asyncio.gather(*(_client(service, q, opened, opened_at, out, answers) for q in clients))
        out.wall_s += time.perf_counter() - opened_at
        out.opens_s.extend(opened.values())
        out.coalesced += sum(
            op["coalesced"] for op in service.metrics()["operations"].values()
        )
        check(answers)


@contextlib.contextmanager
def one_cpu():
    """Confine the calling thread, and the threads it starts, to one CPU.

    The service hands every store read to a worker thread
    (``asyncio.to_thread``).  Spread over two virtual CPUs, each hand-off
    wakes the other CPU, and how long that takes depends on the host's
    load: run interleaved in one process, batches of rounds on two CPUs
    spread up to about twice as widely as batches on one (README.md,
    "Workloads").  On one CPU the hand-off is a context switch within
    the benchmark's own process.  Where affinity cannot be set, the
    rounds run unconfined.
    """
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def run_battery(view: StoreView, plan: List[List[List[Query]]], check: Callable[[list], None]) -> Battery:
    """Run the rounds of ``plan`` on one CPU; ``check`` gets each round's answers."""
    out = Battery()
    with one_cpu():
        asyncio.run(_rounds(view.root, plan, out, check))
    return out


def answer_checker(view: StoreView, ops: Operations, references: Dict[Query, object]) -> Callable[[list], None]:
    """Check callback comparing answers with references (one operation each).

    ``references`` caches the reference answers across calls.
    """

    def compare(query: Query, answer: object) -> Optional[str]:
        if isinstance(answer, Exception):
            return f"{type(answer).__name__}: {answer}"
        if query not in references:
            references[query] = view.reference(query)
        if not same(_answer_view(query[0], answer), references[query]):
            return "served answer differs from the reference"
        return None

    def check(answers: list) -> None:
        for query, answer in answers:
            ops.check(f"query {query}", lambda: compare(query, answer))

    return check
