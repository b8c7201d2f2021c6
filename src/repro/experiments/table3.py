"""Table III — training execution time evaluation.

The paper compares, per dataset, the wall-clock training time of

1. conventional gradient training (accuracy objective only),
2. GA-based training with accuracy as the only objective and no
   hardware approximation (full-precision-equivalent search space), and
3. the proposed GA-based training with approximations and both accuracy
   and area objectives (GA-AxC),

showing that the hardware-aware variant costs barely more than the
hardware-unaware GA.  The reproduction measures the same three flows at
a common evaluation budget; the absolute minutes differ from the paper's
EPYC server, but the ordering (grad ≪ GA ≈ GA-AxC) is the reproduced
claim.

Under the session API the first and third flows are *timings of stages
the session already ran*: the ``grad`` column is the shared gradient
baseline's training time and the ``GA-AxC`` column is the shared
hardware-aware front's — so ``--experiment all`` never re-trains them
for this table.  Only the hardware-unaware plain GA (the ``GA`` column)
is a genuinely distinct search and runs as its own once-per-dataset
stage.
"""

from __future__ import annotations

from typing import Dict, List

__all__ = ["DISPLAY", "build_table3"]

#: Paper-reported execution times in minutes (grad, GA, GA-AxC).
PAPER_TABLE3: Dict[str, tuple] = {
    "breast_cancer": (0.5, 8.0, 9.0),
    "cardio": (2.0, 42.0, 45.0),
    "pendigits": (14.0, 298.0, 344.0),
    "redwine": (2.0, 21.0, 22.0),
    "whitewine": (7.0, 77.0, 79.0),
}

#: (header, row key) pairs of the printed table.
DISPLAY = (
    ("MLP", "dataset"),
    ("Grad (s)", "grad_seconds"),
    ("GA (s)", "ga_seconds"),
    ("GA-AxC (s)", "ga_axc_seconds"),
    ("GA evals", "ga_evaluations"),
    ("GA-AxC evals", "ga_axc_evaluations"),
)


def build_table3(session) -> List[Dict]:
    """Table III rows (wall-clock seconds of the three training flows)."""
    rows: List[Dict] = []
    for name in session.scale.datasets:
        result = session.front(name)
        approx = result.approximate
        assert approx is not None
        ga_plain = session.ga_plain(name)
        paper = PAPER_TABLE3.get(name, (None, None, None))
        rows.append(
            {
                "dataset": name,
                "grad_seconds": result.baseline.training_seconds,
                "ga_seconds": ga_plain.wall_clock_seconds,
                "ga_axc_seconds": approx.training_seconds,
                "ga_evaluations": ga_plain.evaluations,
                "ga_axc_evaluations": approx.ga_result.evaluations,
                "paper_grad_minutes": paper[0],
                "paper_ga_minutes": paper[1],
                "paper_ga_axc_minutes": paper[2],
            }
        )
    return rows
