"""Integration tests: the experiment harness end to end at smoke scale.

These tests reproduce miniature versions of every table and figure,
asserting the qualitative claims of the paper (our designs shrink area
and power versus the baseline, the stochastic baseline loses accuracy,
voltage scaling moves circuits to smaller power sources, GA training is
slower than gradient training) rather than absolute numbers.
"""

import numpy as np
import pytest

from repro.experiments.config import ExperimentScale, get_scale
from repro.experiments.session import ExperimentSession

TINY = ExperimentScale(
    name="tiny",
    datasets=("breast_cancer",),
    max_samples=250,
    gradient_epochs=40,
    gradient_restarts=1,
    ga_population=20,
    ga_generations=10,
    max_front_designs=8,
    seed=0,
)


@pytest.fixture(scope="module")
def session():
    return ExperimentSession(TINY)


class TestScales:
    def test_known_scales(self):
        assert get_scale("smoke").name == "smoke"
        assert get_scale("ci").name == "ci"
        assert get_scale("full").ga_generations > get_scale("ci").ga_generations
        with pytest.raises(KeyError):
            get_scale("huge")


class TestPipeline:
    def test_baseline_stage(self, session):
        result = session.baseline("breast_cancer")
        assert result.baseline.test_accuracy > 0.85
        assert result.baseline.report.area_cm2 > 1.0
        assert result.approximate is None

    def test_caching(self, session):
        first = session.baseline("breast_cancer")
        second = session.baseline("breast_cancer")
        assert first is second

    def test_approximate_stage(self, session):
        result = session.front("breast_cancer")
        approx = result.approximate
        assert approx is not None
        assert approx.selected is not None
        assert len(approx.designs) >= 1
        assert len(approx.true_front) >= 1


class TestStageMemo:
    """A memoized stage result never depends on which stage ran first."""

    def test_front_selection_ignores_earlier_comparator_budget(self):
        from dataclasses import replace

        from repro.evaluation.pareto_analysis import design_sort_name, select_design
        from repro.experiments.table2 import ACCURACY_LOSS_BUDGET

        scale = replace(TINY, seed=1)
        fresh = ExperimentSession(scale).front_record("breast_cancer")
        session = ExperimentSession(scale)
        session.methods_record("breast_cancer", max_accuracy_loss=0.01)
        assert session.front_record("breast_cancer").selected == fresh.selected
        result = session.front("breast_cancer")
        expected = select_design(
            result.approximate.designs,
            baseline_accuracy=result.baseline.test_accuracy,
            max_accuracy_loss=ACCURACY_LOSS_BUDGET,
        )
        assert fresh.selected == design_sort_name(expected)

    def test_front_stage_leaves_baseline_result_unchanged(self):
        session = ExperimentSession(TINY)
        baseline = session.baseline("breast_cancer")
        front = session.front("breast_cancer")
        assert front.approximate is not None
        assert session.baseline("breast_cancer") is baseline
        assert baseline.approximate is None
        assert front.baseline is baseline.baseline


class TestTable1:
    def test_rows_and_formatting(self, session):
        artifact = session.artifact("table1")
        rows = artifact.rows
        assert len(rows) == 1
        row = rows[0]
        assert row["topology"] == "(10, 3, 2)"
        assert row["accuracy"] > 0.85
        assert row["area_cm2"] > 0
        text = artifact.format()
        assert "breast_cancer" in text


class TestTable2:
    def test_reduction_factors_exceed_one(self, session):
        artifact = session.artifact("table2")
        row = artifact.rows[0]
        # The headline claim: the approximate MLP is smaller and less
        # power hungry than the exact baseline within the 5% loss budget
        # (the paper reports >5x; at the tiny CI budget we require >1.5x).
        assert row["area_reduction"] > 1.5
        assert row["power_reduction"] > 1.5
        assert row["accuracy"] >= row["baseline_accuracy"] - 0.07
        assert "breast_cancer" in artifact.format()


class TestFig4:
    def test_methods_present_and_ours_beats_baseline(self, session):
        rows = session.artifact("fig4").rows
        methods = {row["method"] for row in rows}
        assert {"ours", "tc23", "date21"}.issubset(methods)
        ours = next(row for row in rows if row["method"] == "ours")
        assert ours["norm_area"] < 1.0
        assert ours["norm_power"] < 1.0
        date21 = next(row for row in rows if row["method"] == "date21")
        # The stochastic baseline loses far more accuracy than ours.
        assert date21["accuracy"] <= ours["accuracy"]


class TestFig5:
    def test_voltage_scaling_moves_to_smaller_source(self, session):
        rows = session.artifact("fig5").rows
        ours = next(row for row in rows if row["design"] == "ours")
        ours_low = next(row for row in rows if row["design"] == "ours_0v6")
        baseline = next(row for row in rows if row["design"] == "baseline_micro20")
        assert ours_low["power_mw"] < ours["power_mw"]
        assert ours["power_mw"] < baseline["power_mw"]
        assert ours_low["voltage"] == pytest.approx(0.6)


class TestTable3:
    def test_gradient_faster_than_ga(self, session):
        row = session.artifact("table3").rows[0]
        assert row["grad_seconds"] < row["ga_seconds"]
        # Both GA flows request the same evaluation budget; the unique
        # lookup counts stay within it (in-batch duplicates are folded).
        budget = session.scale.ga_population * (session.scale.ga_generations + 1)
        assert 0 < row["ga_evaluations"] <= budget
        assert 0 < row["ga_axc_evaluations"] <= budget
        # GA-AxC should not be drastically slower than the plain GA.
        assert row["ga_axc_seconds"] < row["ga_seconds"] * 3 + 1.0
