"""Per-layer timing of a ``repro`` run, installed from outside the package.

A :class:`Tracer` wraps public functions of the ``repro`` layers
(:data:`TARGETS`) in spans.  Each span adds its duration to its parent's
child time, so a layer's *self time* is its span time minus the time of
the spans it caused; self times therefore never double count and, in a
single thread, sum to at most the wall time of the traced region.

Spans are kept per thread.  ``async def`` targets (the
:class:`~repro.serving.service.ParetoService` queries) are timed step by
step: only the slices in which the coroutine actually runs count, so two
concurrent clients on one event loop do not charge each other's work.

Wrappers are installed on the defining module or class **and on every
``repro.*`` module attribute bound to the same object**: ``from x import
f`` copies the binding, and a wrapper on ``x.f`` alone would miss calls
made through the copy.  :meth:`Tracer.uninstall` restores every binding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["Target", "TARGETS", "Tracer", "STAGES", "QUERY_OPS"]

#: Public session stages timed as ``experiments.stage_s.<stage>``.
STAGES = (
    "baseline",
    "front",
    "tc23",
    "vos",
    "stochastic",
    "ga_plain",
    "ga_variant",
    "front_record",
    "rtl_records",
    "publish",
)

#: Public service queries timed as ``serving.query_s.<op>``.
QUERY_OPS = ("select", "front", "feasibility", "rtl", "points")


def _models_times_rows(args: tuple, kwargs: dict, result) -> float:
    models = args[0] if args else kwargs["models"]
    rows = args[1] if len(args) > 1 else kwargs["x"]
    return len(models) * len(rows)


def _population_size(args: tuple, kwargs: dict, result) -> float:
    return len(result)


@dataclass(frozen=True)
class Target:
    """One wrapped function: where it lives and what it measures.

    ``metric`` is the self-time metric the span adds to; each
    ``counters`` entry is ``(metric, amount)`` where ``amount(args,
    kwargs, result)`` gives the work done by one call (``None`` counts
    calls).
    """

    module: str
    qualname: str
    metric: str
    counters: Tuple[Tuple[str, Optional[Callable]], ...] = ()


def _stage(name: str) -> Target:
    return Target(
        "repro.experiments.session",
        f"ExperimentSession.{name}",
        f"experiments.stage_s.{name}",
    )


def _query(op: str) -> Target:
    return Target(
        "repro.serving.service", f"ParetoService.{op}", f"serving.query_s.{op}"
    )


TARGETS: Tuple[Target, ...] = (
    Target("repro.datasets.registry", "load_dataset", "datasets.load_s"),
    Target(
        "repro.baselines.gradient",
        "GradientTrainer.train",
        "baselines.gradient_s",
        (("baselines.gradient_calls", None),),
    ),
    Target("repro.baselines.approx_tc23", "explore_tc23", "baselines.comparators_s"),
    Target("repro.baselines.vos_tcad23", "explore_vos", "baselines.comparators_s"),
    Target(
        "repro.baselines.stochastic_date21",
        "StochasticMLP.synthesize",
        "baselines.comparators_s",
    ),
    Target(
        "repro.baselines.stochastic_date21",
        "StochasticMLP.accuracy",
        "baselines.comparators_s",
    ),
    Target("repro.core.operators", "GeneticOperators.make_offspring", "core.variation_s"),
    Target(
        "repro.core.fitness",
        "FitnessEvaluator.evaluate_population",
        "core.evaluate_s",
    ),
    Target(
        "repro.core.chromosome",
        "ChromosomeLayout.decode",
        "core.decode_s",
        (("core.decode_calls", None),),
    ),
    Target("repro.core.nsga2", "nsga2_sort_key", "core.select_s"),
    Target("repro.core.nsga2", "fast_non_dominated_sort", "core.select_s"),
    Target("repro.core.nsga2", "crowding_distance", "core.select_s"),
    Target("repro.core.pareto", "ParetoArchive.add", "core.archive_s"),
    Target("repro.core.pareto", "hypervolume", "core.hv_s"),
    Target(
        "repro.approx.mlp",
        "accuracy_population",
        "approx.forward_s",
        (("approx.forward_rows", _models_times_rows),),
    ),
    Target("repro.hardware.fast_area", "fast_population_fa_count", "hardware.fa_count_s"),
    Target("repro.hardware.fast_area", "fast_mlp_fa_count", "hardware.fa_count_s"),
    Target(
        "repro.hardware.fast_synthesis",
        "synthesize_approximate_population",
        "hardware.synth_s",
        (("hardware.designs_synthesized", _population_size),),
    ),
    Target(
        "repro.hardware.fast_synthesis",
        "synthesize_exact_population",
        "hardware.synth_s",
        (("hardware.designs_synthesized", _population_size),),
    ),
    Target("repro.hardware.simulator", "simulate_batch", "hardware.sim_s"),
    Target("repro.evaluation.pareto_analysis", "evaluate_front", "evaluation.front_s"),
    Target(
        "repro.evaluation.verification",
        "verify_front",
        "evaluation.verify_s",
        (
            ("evaluation.designs_verified", lambda a, k, r: r.num_designs),
            ("evaluation.mismatches", lambda a, k, r: r.total_mismatches),
        ),
    ),
    Target("repro.evaluation.artifacts", "Artifact.build", "evaluation.artifact_s"),
    Target("repro.evaluation.artifacts", "Artifact.save", "evaluation.artifact_s"),
    Target("repro.rtl.verilog", "generate_mlp_verilog", "rtl.generate_s"),
    Target("repro.rtl.testbench", "generate_testbench", "rtl.generate_s"),
    Target("repro.eda.microverilog", "simulate_mlp_module", "eda.sim_s"),
    *(_stage(name) for name in STAGES),
    *(
        Target("repro.serving.store", f"DesignStore.put_{kind}", "serving.store_write_s")
        for kind in ("front", "tc23", "methods", "rtl")
    ),
    *(
        Target(
            "repro.serving.store",
            f"DesignStore.{name}",
            "serving.store_read_s",
            (("serving.store_reads", None),),
        )
        for name in ("get_dataset", "get_rtl")
    ),
    *(_query(op) for op in QUERY_OPS),
)

#: Counted (not timed): ``LRUCache.put`` calls per cache instance, so the
#: ``models`` section's puts can be told apart from the other sections'.
PUT_TARGET = ("repro.core.cache", "LRUCache.put")


def _resolve(module_name: str, qualname: str):
    """``(owner, attribute name, function, rebind)`` of a target, or ``None``.

    ``rebind(wrapper)`` gives the value to store on the owner: class and
    static methods keep their descriptor type.
    """
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = owner.__dict__.get(name) if inspect.isclass(owner) else getattr(owner, name, None)
    if isinstance(raw, (staticmethod, classmethod)):
        return owner, name, raw.__func__, type(raw)
    if raw is None or not callable(raw):
        return None
    return owner, name, raw, lambda wrapper: wrapper


class _Frame:
    __slots__ = ("child",)

    def __init__(self) -> None:
        self.child = 0.0


class _Steps:
    """Awaitable that drives a coroutine and times only its running steps."""

    __slots__ = ("tracer", "metric", "coro")

    def __init__(self, tracer: "Tracer", metric: str, coro) -> None:
        self.tracer = tracer
        self.metric = metric
        self.coro = coro

    def __await__(self):
        tracer, coro = self.tracer, self.coro
        stack = tracer._stack()
        total = own = 0.0
        value, error = None, None
        try:
            while True:
                frame = _Frame()
                stack.append(frame)
                start = time.perf_counter()
                try:
                    if error is None:
                        yielded = coro.send(value)
                    else:
                        yielded = coro.throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    elapsed = time.perf_counter() - start
                    stack.pop()
                    if stack:
                        stack[-1].child += elapsed
                    total += elapsed
                    own += elapsed - frame.child
                try:
                    value, error = (yield yielded), None
                except GeneratorExit:
                    coro.close()
                    raise
                except BaseException as exc:  # delivered into the coroutine
                    value, error = None, exc
        finally:
            tracer._record(self.metric, total, own)


class Tracer:
    """Span recorder plus the installer of its wrappers.

    ``self_s[metric]`` / ``inclusive_s[metric]`` accumulate seconds,
    ``counts[metric]`` work counters, ``calls[metric]`` span counts and
    ``puts_by_instance`` the ``LRUCache.put`` calls per cache object.
    While ``active`` is false the installed wrappers record nothing.
    """

    def __init__(self, targets: Sequence[Target] = TARGETS) -> None:
        self.targets = tuple(targets)
        self.active = True
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []
        self.reset()

    # -- recording ------------------------------------------------------
    def reset(self) -> None:
        """Drop every recorded value (the wrappers stay installed)."""
        with self._lock:
            self.self_s: Dict[str, float] = {}
            self.inclusive_s: Dict[str, float] = {}
            self.calls: Dict[str, int] = {}
            self.counts: Dict[str, float] = {}
            self.puts_by_instance: Dict[int, int] = {}

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, metric: str, inclusive: float, own: float) -> None:
        with self._lock:
            self.self_s[metric] = self.self_s.get(metric, 0.0) + own
            self.inclusive_s[metric] = self.inclusive_s.get(metric, 0.0) + inclusive
            self.calls[metric] = self.calls.get(metric, 0) + 1

    def _count(self, target: Target, args: tuple, kwargs: dict, result) -> None:
        for counter, amount in target.counters:
            value = 1 if amount is None else amount(args, kwargs, result)
            with self._lock:
                self.counts[counter] = self.counts.get(counter, 0) + value

    def self_total(self) -> float:
        """Sum of every layer's self time."""
        with self._lock:
            return sum(self.self_s.values())

    # -- wrappers -------------------------------------------------------
    def _sync_wrapper(self, target: Target, fn: Callable) -> Callable:
        metric = target.metric
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            frame = _Frame()
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1].child += elapsed
                tracer._record(metric, elapsed, elapsed - frame.child)
            if target.counters:
                tracer._count(target, args, kwargs, result)
            return result

        return wrapper

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        if inspect.iscoroutinefunction(fn):
            return self._async_wrapper(target, fn)
        return self._sync_wrapper(target, fn)

    def _async_wrapper(self, target: Target, fn: Callable) -> Callable:
        metric = target.metric
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            if not tracer.active:
                return await fn(*args, **kwargs)
            result = await _Steps(tracer, metric, fn(*args, **kwargs))
            if target.counters:
                tracer._count(target, args, kwargs, result)
            return result

        return wrapper

    def _put_counter(self, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(cache, *args, **kwargs):
            if tracer.active:
                key = id(cache)
                with tracer._lock:
                    tracer.puts_by_instance[key] = tracer.puts_by_instance.get(key, 0) + 1
            return fn(cache, *args, **kwargs)

        return wrapper

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        """Wrap every target (idempotent per tracer; see :meth:`uninstall`)."""
        if self._patched:
            return
        self.missing = []
        makers = [((t.module, t.qualname), functools.partial(self._wrap, t)) for t in self.targets]
        makers.append((PUT_TARGET, self._put_counter))
        replacements: Dict[int, Callable] = {}
        for location, make in makers:
            resolved = _resolve(*location)
            if resolved is None:
                self.missing.append(".".join(location))
                continue
            owner, name, original, rebind = resolved
            wrapper = make(original)
            replacements[id(original)] = wrapper
            self._patch(owner, name, rebind(wrapper))

        # Re-bind every copy made by ``from x import f`` in a repro module.
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "")
            if not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    self._patch(module, attr, wrapper)

    def _patch(self, owner, name: str, wrapper) -> None:
        original = (
            owner.__dict__[name] if inspect.isclass(owner) else getattr(owner, name)
        )
        self._patched.append((owner, name, original))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` replaced."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()
