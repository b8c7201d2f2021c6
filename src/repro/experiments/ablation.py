"""Ablation experiments on the framework's design choices.

Two studies complement the paper's evaluation (they correspond to design
decisions the paper motivates but does not quantify separately):

* **Approximation ablation** — train with (a) pow2 quantization only
  (masks forced fully open), (b) masks only (exponents forced to zero),
  and (c) both approximations, and compare the reachable area at the
  5 % accuracy-loss budget.  This isolates the contribution of each
  hardware approximation embedded in the training.
* **GA-settings ablation** — doped vs purely random initial population
  and with/without the 10 % accuracy-loss feasibility constraint,
  comparing final hypervolume and best accuracy; this quantifies the
  two convergence aids of Section IV-A.

Under the session API the *identity* variants — both approximations
enabled, doped + constrained — are exactly the configuration of the
shared ``ga_front`` stage, so they reuse its trained result; only the
genuinely restricted/altered variants train their own (memoized)
``ga_variant`` stages.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.core.trainer import GAConfig, GAResult, GATrainer
from repro.core.pareto import hypervolume

__all__ = ["build_approximation_ablation", "build_ga_settings_ablation"]

#: Dataset the ablations run on (small enough to train several variants).
ABLATION_DATASET = "breast_cancer"


def _freeze_masks_open(trainer: GATrainer) -> None:
    """Restrict the search space to fully open masks (pow2-only mode)."""
    layout = trainer.layout
    mask_flags = layout.mask_gene_flags
    bits = layout.mask_bits_per_gene
    layout.lower_bounds = layout.lower_bounds.copy()
    layout.lower_bounds[mask_flags] = (1 << bits[mask_flags]) - 1


def _freeze_exponents_zero(trainer: GATrainer) -> None:
    """Restrict the search space to exponent 0 (mask-only mode)."""
    layout = trainer.layout
    exponent_flags = np.zeros(layout.num_genes, dtype=bool)
    for index in range(layout.num_genes):
        kind = layout.describe_gene(index)[0]
        if kind == "exponent":
            exponent_flags[index] = True
    layout.upper_bounds = layout.upper_bounds.copy()
    layout.upper_bounds[exponent_flags] = 0


def _train_variant(
    session,
    dataset: str,
    restrict,
    doping_fraction: Optional[float] = None,
    constrained: bool = True,
) -> GAResult:
    """One ablation GA run at the session's scale budgets."""
    result = session.baseline(dataset)
    x_train, y_train = result.dataset.quantized_train()
    scale = session.scale
    kwargs = {} if doping_fraction is None else {"doping_fraction": doping_fraction}
    ga_config = GAConfig(
        population_size=scale.ga_population,
        generations=scale.ga_generations,
        seed=scale.seed,
        **kwargs,
    )
    trainer = GATrainer(result.spec.mlp_topology, ga_config=ga_config)
    if restrict is not None:
        restrict(trainer)
    doped = ga_config.doping_fraction > 0
    return trainer.train(
        x_train,
        y_train,
        baseline_accuracy=result.baseline.train_accuracy if constrained else None,
        seed_model=result.baseline.float_model if doped else None,
    )


def build_approximation_ablation(
    session,
    dataset: str = ABLATION_DATASET,
    max_accuracy_loss: float = 0.05,
) -> List[Dict]:
    """Compare pow2-only, mask-only and combined approximation modes."""
    result = session.baseline(dataset)
    x_test, y_test = result.dataset.quantized_test()

    modes = {
        "pow2_only": _freeze_masks_open,
        "masks_only": _freeze_exponents_zero,
        "pow2_and_masks": None,
    }
    rows: List[Dict] = []
    for mode, restrict in modes.items():
        if restrict is None:
            # Both approximations enabled is exactly the shared front
            # stage's configuration: reuse its trained result.
            front = session.front(dataset)
            assert front.approximate is not None
            ga_result = front.approximate.ga_result
        else:
            ga_result = session.ga_variant(
                dataset,
                f"approx:{mode}",
                lambda restrict=restrict: _train_variant(session, dataset, restrict),
            )
        point = ga_result.select_within_accuracy_loss(max_accuracy_loss)
        best = ga_result.best_accuracy_point()
        rows.append(
            {
                "dataset": dataset,
                "mode": mode,
                "selected_fa_count": None if point is None else point.area,
                "selected_accuracy": None if point is None else point.accuracy,
                "best_accuracy": best.accuracy,
                "front_size": len(ga_result.estimated_front),
                "test_accuracy": (
                    None
                    if point is None
                    else ga_result.decode(point).accuracy(x_test, y_test)
                ),
            }
        )
    return rows


def build_ga_settings_ablation(
    session, dataset: str = ABLATION_DATASET
) -> List[Dict]:
    """Compare doped vs random init and constrained vs unconstrained GA."""
    settings = [
        ("doped+constraint", 0.10, True),
        ("random_init", 0.0, True),
        ("no_constraint", 0.10, False),
    ]
    rows: List[Dict] = []
    for label, doping, constrained in settings:
        if label == "doped+constraint":
            # Default doping + constraint is the shared front stage's
            # configuration: reuse its trained result.
            front = session.front(dataset)
            assert front.approximate is not None
            ga_result = front.approximate.ga_result
        else:
            ga_result = session.ga_variant(
                dataset,
                f"settings:{label}",
                lambda doping=doping, constrained=constrained: _train_variant(
                    session,
                    dataset,
                    None,
                    doping_fraction=doping,
                    constrained=constrained,
                ),
            )
        front_points = ga_result.estimated_front
        reference_area = max((p.area for p in front_points), default=1.0) * 1.1 + 1.0
        rows.append(
            {
                "dataset": dataset,
                "setting": label,
                "hypervolume": hypervolume(front_points, (1.0, reference_area)),
                "best_accuracy": max((p.accuracy for p in front_points), default=0.0),
                "min_fa_count": min((p.area for p in front_points), default=float("nan")),
                "front_size": len(front_points),
            }
        )
    return rows
