"""Experiment harness reproducing every table and figure of the paper.

The public entry point is the :class:`~repro.experiments.session.ExperimentSession`:
it runs the per-dataset stages of the paper's Fig. 2 flow (dataset,
gradient baseline, hardware-aware GA front, TC'23 sweep …) and memoizes
each one, and every paper artifact (Table I/II/III, Fig. 4/5, the
ablations) is a declared stage graph over typed
:class:`~repro.evaluation.artifacts.Artifact` results, so experiments
share the stages they have in common::

    from repro.experiments import ExperimentSession

    session = ExperimentSession("smoke")
    artifacts = session.run(["table2", "fig4"])
    print(artifacts["table2"].format())

Each module declares one artifact's rows:

* :mod:`repro.experiments.table1` — Table I (exact bespoke baselines),
* :mod:`repro.experiments.table2` — Table II (our approximate MLPs at
  ≤5 % accuracy loss, with area/power reduction factors),
* :mod:`repro.experiments.fig4`   — Fig. 4 (normalized area/power versus
  the TC'23, TCAD'23 and DATE'21 state of the art),
* :mod:`repro.experiments.fig5`   — Fig. 5 (printed-power-source
  feasibility zones at 0.6 V),
* :mod:`repro.experiments.table3` — Table III (training execution times),
* :mod:`repro.experiments.ablation` — additional ablations of the design
  choices (approximation modes, doping, accuracy-loss constraint).

All experiments accept an :class:`~repro.experiments.config.ExperimentScale`
so they can run at CI-friendly budgets or at paper-scale budgets.  A
non-default budget or dataset is a direct builder call, e.g.
``build_table2(session, max_accuracy_loss=0.01)``.
"""

from repro.experiments.config import ExperimentScale, SCALES, get_scale
from repro.experiments.session import (
    EXPERIMENT_DEFINITIONS,
    EXPERIMENT_ORDER,
    ExperimentDefinition,
    ExperimentSession,
    PipelineResult,
)

__all__ = [
    "ExperimentScale",
    "SCALES",
    "get_scale",
    "PipelineResult",
    "ExperimentSession",
    "ExperimentDefinition",
    "EXPERIMENT_DEFINITIONS",
    "EXPERIMENT_ORDER",
]
