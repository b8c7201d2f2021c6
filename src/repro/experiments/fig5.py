"""Fig. 5 — printed-power-source feasibility at the 0.6 V supply.

The paper drops the supply of its approximate MLPs to the minimum EGFET
voltage (0.6 V) — possible because the approximate circuits are faster
than the baseline and can absorb the voltage-scaling slowdown — and then
classifies every circuit by the smallest printed power source able to
drive it (energy harvester / Blue Spark 5 mW / Zinergy 15 mW / Molex
30 mW / none) and by whether its area is sustainable.

The builder reads the session's shared ``ga_front``/``tc23`` stages
(also consumed by Table II and Fig. 4).
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.table2 import ACCURACY_LOSS_BUDGET
from repro.hardware.egfet import MIN_VOLTAGE

__all__ = ["DISPLAY", "build_fig5"]

#: (header, row key) pairs of the printed table.
DISPLAY = (
    ("MLP", "dataset"),
    ("Design", "design"),
    ("V", "voltage"),
    ("Area(cm2)", "area_cm2"),
    ("Power(mW)", "power_mw"),
    ("Zone", "zone"),
)


def build_fig5(
    session,
    max_accuracy_loss: float = ACCURACY_LOSS_BUDGET,
    approximate_voltage: float = MIN_VOLTAGE,
) -> List[Dict]:
    """Fig. 5 rows: one per (dataset, design) with the assigned zone.

    The baseline and the TC'23 design are assessed at the nominal 1 V
    (they cannot tolerate voltage scaling without missing their timing),
    our design additionally at ``approximate_voltage``.
    """
    # Thin record reader: the session's ``front_record``/``tc23_record``
    # stages carry every operating point as plain data, and the shared
    # pure query logic performs the selection, the 0.6 V re-scaling and
    # the power-source classification — identically to a warm-store
    # query through ``python -m repro.serving feasibility``.
    from repro.serving import queries

    rows: List[Dict] = []
    for name in session.scale.datasets:
        record = session.record(name, tc23=True, max_accuracy_loss=max_accuracy_loss)
        rows.extend(
            queries.fig5_rows(
                record,
                max_accuracy_loss=max_accuracy_loss,
                approximate_voltage=approximate_voltage,
            )
        )
    return rows
