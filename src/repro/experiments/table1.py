"""Table I — evaluation of the exact bespoke baseline printed MLPs.

For every dataset the experiment reports the MLP topology, parameter
count, test accuracy and synthesized area/power of the exact bespoke
design (8-bit fixed-point weights, 4-bit inputs), alongside the values
the paper reports for reference.

The row builder (:func:`build_table1`) reads the shared
``gradient_baseline`` stage of
:class:`~repro.experiments.session.ExperimentSession`.
"""

from __future__ import annotations

from typing import Dict, List

__all__ = ["DISPLAY", "build_table1"]

#: (header, row key) pairs of the printed table.
DISPLAY = (
    ("MLP", "dataset"),
    ("Topology", "topology"),
    ("Params", "parameters"),
    ("Acc", "accuracy"),
    ("Area(cm2)", "area_cm2"),
    ("Power(mW)", "power_mw"),
    ("Paper Acc", "paper_accuracy"),
    ("Paper Area", "paper_area_cm2"),
    ("Paper Power", "paper_power_mw"),
)


def build_table1(session) -> List[Dict]:
    """Table I rows (one per dataset) from the session's baseline stage."""
    rows: List[Dict] = []
    for name in session.scale.datasets:
        result = session.baseline(name)
        spec = result.spec
        baseline = result.baseline
        rows.append(
            {
                "dataset": spec.name,
                "topology": str(spec.mlp_topology),
                "parameters": spec.mlp_topology.num_parameters,
                "accuracy": baseline.test_accuracy,
                "area_cm2": baseline.report.area_cm2,
                "power_mw": baseline.report.power_mw,
                "paper_accuracy": spec.paper_accuracy,
                "paper_area_cm2": spec.paper_area_cm2,
                "paper_power_mw": spec.paper_power_mw,
            }
        )
    return rows
