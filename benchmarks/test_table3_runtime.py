"""Benchmark: regenerate Table III (training execution times).

Times gradient training, hardware-unaware GA training and the proposed
hardware-aware GA-AxC training at a common evaluation budget and checks
the paper's qualitative claim: the hardware-aware GA costs barely more
than the hardware-unaware GA, and both are slower than gradient descent.
"""

from __future__ import annotations


def test_table3_training_execution_time(benchmark, session):
    """Time the Table III regeneration and check the runtime ordering."""
    artifact = benchmark.pedantic(
        lambda: session.artifact("table3"), rounds=1, iterations=1
    )
    print("\n" + artifact.format())
    rows = artifact.rows

    for row in rows:
        # Gradient training is the fastest flow (paper: minutes vs hours).
        assert row["grad_seconds"] < row["ga_seconds"]
        assert row["grad_seconds"] < row["ga_axc_seconds"]
        # Hardware awareness adds only moderate overhead to the GA
        # (paper: 100 min vs 89 min on average).
        assert row["ga_axc_seconds"] < 3.0 * row["ga_seconds"] + 1.0
        # Both GA flows request the same evaluation budget; the unique
        # lookup counts stay within it (in-batch duplicates are folded).
        budget = session.scale.ga_population * (session.scale.ga_generations + 1)
        assert 0 < row["ga_evaluations"] <= budget
        assert 0 < row["ga_axc_evaluations"] <= budget
