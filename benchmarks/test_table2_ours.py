"""Benchmark: regenerate Table II (our approximate MLPs at <=5 % loss).

Times the full framework — genetic hardware-aware training, hardware
analysis of the estimated Pareto front, operating-point selection — and
checks the paper's headline claim: large area and power reductions with
bounded accuracy loss.
"""

from __future__ import annotations


def test_table2_our_approximate_mlps(benchmark, session):
    """Time the Table II regeneration and check the reduction claims."""
    artifact = benchmark.pedantic(
        lambda: session.artifact("table2"), rounds=1, iterations=1
    )
    print("\n" + artifact.format())
    rows = artifact.rows

    assert len(rows) == len(session.scale.datasets)
    for row in rows:
        # Shape of the paper's claim: every dataset sees a meaningful
        # area and power reduction (paper: >=5.3x; we require >1.5x at
        # the CI-scale GA budget) ...
        assert row["area_reduction"] > 1.5
        assert row["power_reduction"] > 1.5
        # ... while accuracy stays close to the baseline (5% budget plus
        # slack for the reduced training budget).
        assert row["accuracy"] >= row["baseline_accuracy"] - 0.10
