"""Publishing search-time results into the serving :class:`DesignStore`.

This module is the one-way bridge between the two halves of the system:
it runs on the search side (it may import anything — trainers, synthesis,
RTL generation) and converts live session stage results into the plain-data
records of :mod:`repro.serving.store`.  Once published, every query the
:class:`~repro.serving.service.ParetoService` answers — selection,
fronts, feasibility, RTL retrieval, plot-ready point sets — is a pure
function of these records; nothing search-shaped ever runs again.

The RTL text is generated *here*, at publish time, precisely so the
serving layer can hand out Verilog without importing
:mod:`repro.rtl`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.core.cache import EvaluationCache, stable_fingerprint
from repro.evaluation.pareto_analysis import design_sort_name, resolve_decoded_model
from repro.experiments.table2 import ACCURACY_LOSS_BUDGET
from repro.serving.store import (
    DesignRecord,
    DesignStore,
    EdaSummaryRecord,
    FrontRecord,
    MethodRecord,
    MethodsRecord,
    ReportRecord,
    RTLRecord,
    Tc23Record,
    VerificationRecord,
)

__all__ = [
    "front_record",
    "tc23_record",
    "methods_record",
    "rtl_records",
    "publish_session",
]

if TYPE_CHECKING:  # the session imports this module lazily
    from repro.experiments.session import PipelineResult


def _split_digest(result: PipelineResult) -> str:
    """Stable identity of the held-out test split accuracies refer to."""
    x_test, y_test = result.dataset.quantized_test()
    return stable_fingerprint(repr(EvaluationCache.split_fingerprint(x_test, y_test)))


def front_record(result: PipelineResult, scale) -> FrontRecord:
    """Plain-data record of one dataset's evaluated front.

    ``selected`` is the front stage's default operating point, chosen
    at the Table II budget, which the record states alongside it.
    """
    approx = result.approximate
    if approx is None:
        raise ValueError(
            f"dataset {result.spec.name!r} has no approximate front to publish"
        )
    baseline = result.baseline
    split = _split_digest(result)
    designs = tuple(
        DesignRecord(
            name=design_sort_name(design),
            index=index,
            test_accuracy=float(design.test_accuracy),
            train_accuracy=float(design.point.accuracy),
            error=float(design.point.error),
            fa_count=float(design.point.area),
            area_cm2=float(design.report.area_cm2),
            power_mw=float(design.report.power_mw),
            delay_ms=float(design.report.delay_ms),
            voltage=float(design.report.voltage),
            clock_period_ms=float(design.report.clock_period_ms),
        )
        for index, design in enumerate(approx.designs)
    )
    return FrontRecord(
        dataset=result.spec.name,
        scale=str(scale.name),
        seed=int(scale.seed),
        fingerprint=stable_fingerprint(
            "front", result.spec.name, str(scale.name), str(scale.seed), split
        ),
        split=split,
        baseline_test_accuracy=float(baseline.test_accuracy),
        baseline_train_accuracy=float(baseline.train_accuracy),
        baseline=ReportRecord.from_report(baseline.report),
        designs=designs,
        default_accuracy_loss=float(ACCURACY_LOSS_BUDGET),
        selected=design_sort_name(approx.selected) if approx.selected else None,
        training_seconds=float(approx.training_seconds),
        verification=(
            VerificationRecord.from_verification(approx.verification)
            if approx.verification is not None
            else None
        ),
    )


def tc23_record(
    result: PipelineResult,
    tc23: Tuple,
    max_accuracy_loss: float = 0.05,
) -> Tc23Record:
    """Plain-data record of the TC'23 comparator for one dataset.

    ``tc23`` is the session stage's ``(model, report, sweep)`` tuple;
    the model's test accuracy is measured here, once, so query time
    never needs the model (or the dataset) again.
    """
    tc_model, tc_report, _ = tc23
    accuracy: Optional[float] = None
    if tc_model is not None:
        x_test, y_test = result.dataset.quantized_test()
        accuracy = float(tc_model.accuracy(x_test, y_test))
    return Tc23Record(
        dataset=result.spec.name,
        max_accuracy_loss=float(max_accuracy_loss),
        accuracy=accuracy,
        report=ReportRecord.from_report(tc_report) if tc_report is not None else None,
    )


def methods_record(
    session,
    name: str,
    max_accuracy_loss: float = 0.05,
) -> MethodsRecord:
    """Comparator summaries (tc23 / tcad23 / date21) for the Fig. 4 rows.

    Reads the session's memoized ``tc23``/``vos``/``stochastic`` stages;
    the "ours" entry is deliberately *not* stored — it depends on the
    query's accuracy-loss budget and is re-selected from the front
    record at query time.
    """
    x_test, y_test = session.baseline(name).dataset.quantized_test()
    methods: List[MethodRecord] = []

    tc_model, tc_report, _ = session.tc23(name, max_accuracy_loss=max_accuracy_loss)
    if tc_model is not None and tc_report is not None:
        methods.append(
            MethodRecord(
                method="tc23",
                accuracy=float(tc_model.accuracy(x_test, y_test)),
                area_cm2=float(tc_report.area_cm2),
                power_mw=float(tc_report.power_mw),
            )
        )

    vos_model, vos_report, _ = session.vos(name, max_accuracy_loss=max_accuracy_loss)
    if vos_model is not None and vos_report is not None:
        methods.append(
            MethodRecord(
                method="tcad23",
                accuracy=float(vos_model.accuracy(x_test, y_test)),
                area_cm2=float(vos_report.area_cm2),
                power_mw=float(vos_report.power_mw),
            )
        )

    sc_accuracy, sc_report = session.stochastic(name)
    methods.append(
        MethodRecord(
            method="date21",
            accuracy=float(sc_accuracy),
            area_cm2=float(sc_report.area_cm2),
            power_mw=float(sc_report.power_mw),
        )
    )
    return MethodsRecord(
        dataset=name,
        max_accuracy_loss=float(max_accuracy_loss),
        methods=tuple(methods),
    )


def rtl_records(result: PipelineResult) -> List[RTLRecord]:
    """Verilog + self-checking testbench for every evaluated front member.

    Models are resolved through the front stage's shared evaluation cache
    (no re-decoding of genomes the GA already decoded); testbench
    vectors are drawn with the dataset spec's seed so the emitted text
    is deterministic.

    Every record additionally carries the testbench shape parsed back
    *out of the emitted text* and the microverilog verdict of executing
    that text as Verilog against its own golden vectors — so a consumer
    of the store knows the published artifact itself was simulated, not
    just the model that produced it.  A design whose emitted text cannot
    be parsed or disagrees with its golden vectors fails publishing
    loudly (:class:`~repro.eda.microverilog.MicroVerilogError` /
    ``ValueError``) instead of entering the store unverified.
    """
    import numpy as np

    from repro.eda.microverilog import simulate_mlp_module
    from repro.rtl.testbench import extract_testbench_vectors, generate_testbench
    from repro.rtl.verilog import generate_mlp_verilog

    approx = result.approximate
    if approx is None:
        return []
    cache = approx.cache
    layout_key = (
        EvaluationCache.layout_key(approx.ga_result.layout)
        if cache is not None
        else None
    )
    records: List[RTLRecord] = []
    for design in approx.designs:
        name = design_sort_name(design)
        module_name = f"approx_mlp_{result.spec.name}_{name}"
        _, model = resolve_decoded_model(
            approx.ga_result, design.point, cache, layout_key
        )
        verilog = generate_mlp_verilog(model, module_name=module_name)
        testbench = generate_testbench(
            model,
            module_name=module_name,
            testbench_name=f"{module_name}_tb",
            seed=0,
        )
        parsed = extract_testbench_vectors(testbench)
        predictions = simulate_mlp_module(verilog, parsed.vectors)
        mismatches = int(np.count_nonzero(predictions != parsed.golden))
        if mismatches:
            raise ValueError(
                f"design {name!r} of dataset {result.spec.name!r}: emitted "
                f"Verilog disagrees with its own testbench golden vectors on "
                f"{mismatches}/{parsed.num_vectors} vectors; refusing to publish"
            )
        records.append(
            RTLRecord(
                dataset=result.spec.name,
                design=name,
                module_name=module_name,
                verilog=verilog,
                testbench=testbench,
                num_vectors=parsed.num_vectors,
                num_inputs=parsed.num_inputs,
                eda=EdaSummaryRecord(
                    oracle="microverilog",
                    num_vectors=parsed.num_vectors,
                    mismatches=mismatches,
                    passed=mismatches == 0,
                ),
            )
        )
    return records


def publish_session(session, store, experiments=None) -> dict:
    """Publish a session's memoizable results into ``store``.

    Publishes, for every dataset whose front the requested experiments
    read: the front record, per-design RTL, and — when the experiments'
    stage graphs include them — the TC'23 and comparator-methods
    sections.  Returns a summary dict (used by ``runner.py`` logging).
    """
    from repro.experiments.session import EXPERIMENT_DEFINITIONS, EXPERIMENT_ORDER

    if isinstance(experiments, str):
        experiments = [experiments]
    names = list(experiments) if experiments else list(EXPERIMENT_ORDER)
    if not isinstance(store, DesignStore):
        store = DesignStore(store)

    front_targets: set = set()
    tc23_targets: set = set()
    methods_targets: set = set()
    for exp_name in names:
        definition = EXPERIMENT_DEFINITIONS[exp_name]
        scope = definition.dataset_scope or session.scale.datasets
        if "ga_front" in definition.stages:
            front_targets.update(scope)
        if "tc23" in definition.stages:
            tc23_targets.update(scope)
        if "vos" in definition.stages:
            methods_targets.update(scope)

    ordered = [name for name in session.scale.datasets if name in front_targets]
    ordered += sorted(front_targets.difference(session.scale.datasets))
    rtl_count = 0
    for name in ordered:
        store.put_front(session.front_record(name))
        for record in session.rtl_records(name):
            store.put_rtl(record)
            rtl_count += 1
        if name in tc23_targets:
            store.put_tc23(session.tc23_record(name))
        if name in methods_targets:
            store.put_methods(session.methods_record(name))
    return {
        "store": str(store.root),
        "datasets": ordered,
        "rtl_designs": rtl_count,
        "tc23": sorted(tc23_targets & set(ordered)),
        "methods": sorted(methods_targets & set(ordered)),
    }
