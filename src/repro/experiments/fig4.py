"""Fig. 4 — normalized area and power versus the state of the art.

For every dataset the experiment reports the area and power of

* our GA-trained approximate MLP (Table II operating point),
* the TC'23 post-training co-design baseline,
* the TCAD'23 cross-approximation + voltage-over-scaling baseline,
* the DATE'21 stochastic-computing baseline,

each normalized to the exact bespoke baseline (the paper's Fig. 4 plots
these normalized values on a log axis).  The accuracy of every design is
reported alongside, because the stochastic baseline's gains come at a
catastrophic accuracy cost — the paper's key qualitative point.

The builder reads the session's shared ``ga_front``/``tc23`` stages
(also consumed by Table II and Fig. 5) and the memoized ``vos``/
``stochastic`` baseline stages.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.table2 import ACCURACY_LOSS_BUDGET

__all__ = ["DISPLAY", "build_fig4"]

#: (header, row key) pairs of the printed table.
DISPLAY = (
    ("MLP", "dataset"),
    ("Method", "method"),
    ("Acc", "accuracy"),
    ("Norm. Area", "norm_area"),
    ("Norm. Power", "norm_power"),
    ("Area Red.", "area_reduction"),
    ("Power Red.", "power_reduction"),
)


def build_fig4(
    session, max_accuracy_loss: float = ACCURACY_LOSS_BUDGET
) -> List[Dict]:
    """Fig. 4 rows (one per dataset and method), a thin record reader.

    The session's ``front_record``/``methods_record`` stages measure
    every comparator exactly once (models never leave the record
    stage); row assembly — selection at this call's budget,
    normalization, reduction factors — is the shared pure query logic,
    so a Fig. 4 regenerated from a warm serving store is identical.
    """
    from repro.serving import queries

    rows: List[Dict] = []
    for name in session.scale.datasets:
        record = session.record(
            name, methods=True, max_accuracy_loss=max_accuracy_loss
        )
        rows.extend(queries.fig4_rows(record, max_accuracy_loss=max_accuracy_loss))
    return rows
