"""Benchmark: regenerate Fig. 4 (normalized area/power vs the state of the art).

Compares our GA-trained approximate MLPs against the TC'23 post-training
co-design, the TCAD'23 cross-approximation + VOS and the DATE'21
stochastic-computing MLPs, all normalized to the exact bespoke baseline.
"""

from __future__ import annotations


def test_fig4_state_of_the_art_comparison(benchmark, session):
    """Time the Fig. 4 regeneration and check the qualitative ordering."""
    artifact = benchmark.pedantic(
        lambda: session.artifact("fig4"), rounds=1, iterations=1
    )
    print("\n" + artifact.format())
    rows = artifact.rows

    by_dataset = {}
    for row in rows:
        by_dataset.setdefault(row["dataset"], {})[row["method"]] = row

    for dataset, methods in by_dataset.items():
        ours = methods["ours"]
        # Every method is normalized to the exact baseline; ours must be
        # well below 1.0 on both axes (the paper's log-scale bars).
        assert ours["norm_area"] < 1.0
        assert ours["norm_power"] < 1.0
        # The stochastic baseline trades accuracy away (paper: ~35% average
        # loss); it must not meaningfully beat our accuracy.
        if "date21" in methods:
            assert methods["date21"]["accuracy"] <= ours["accuracy"] + 0.1
        # Post-training approximation cannot exceed the baseline accuracy
        # budget either; it stays a valid (weaker or comparable) comparator.
        if "tc23" in methods:
            assert methods["tc23"]["norm_area"] <= 1.0
