"""Benchmark: regenerate Fig. 5 (printed-power-source feasibility at 0.6 V).

Classifies the baseline, the TC'23 designs and our approximate MLPs by
the smallest printed power source able to drive them, including the
re-evaluation of our circuits at the minimum 0.6 V EGFET supply.
"""

from __future__ import annotations


def test_fig5_power_source_feasibility(benchmark, session):
    """Time the Fig. 5 regeneration and check the zone ordering."""
    artifact = benchmark.pedantic(
        lambda: session.artifact("fig5"), rounds=1, iterations=1
    )
    print("\n" + artifact.format())
    rows = artifact.rows

    by_key = {(row["dataset"], row["design"]): row for row in rows}
    datasets = {row["dataset"] for row in rows}
    for dataset in datasets:
        baseline = by_key[(dataset, "baseline_micro20")]
        ours = by_key[(dataset, "ours")]
        ours_low = by_key[(dataset, "ours_0v6")]
        # The baseline cannot be powered by any printed source (paper Fig. 5:
        # all baselines lie in the red/unpowered zones).
        assert not baseline["feasible"] or baseline["power_mw"] > 15.0
        # Our circuits draw far less power than the baseline ...
        assert ours["power_mw"] < baseline["power_mw"]
        # ... and dropping the supply to 0.6 V cuts power further (quadratic
        # scaling), moving the design toward the harvester/battery zones.
        assert ours_low["power_mw"] < ours["power_mw"] * 0.5
        assert ours_low["feasible"] or ours_low["zone"] == "Unsustainable Area"
