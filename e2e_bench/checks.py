"""Output checks, quality metrics and determinism digests.

Everything here reads the public results of a run (artifacts, session
stages, the published store) after the timed region; nothing is timed.
``repro`` and NumPy are imported inside the functions so that importing
this module costs nothing before the set-up probe starts its clock.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import traceback
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Operations",
    "hypervolume_2d",
    "quality_metrics",
    "same",
    "digest",
    "ga_results",
    "check_artifacts",
    "check_verification",
    "check_store",
    "joined",
    "percentile",
]

#: Wall-clock columns skipped by every determinism comparison (the
#: table3 timing columns end in ``_seconds``; so does the store's
#: ``FrontRecord.training_seconds``).
TIMING_SUFFIX = "_seconds"


class Operations:
    """Attempted / failed operation counter with the first failure messages."""

    #: Messages kept; every failure is counted.
    MAX_MESSAGES = 100

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def fail(self, name: str, message: str) -> None:
        self.failed += 1
        if len(self.failures) < self.MAX_MESSAGES:
            self.failures.append(f"{name}: {message}")

    def run(self, name: str, fn: Callable[[], object]) -> object:
        """Run one operation; an exception counts it as failed."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # every stage failure is reported, none aborts
            last = traceback.extract_tb(exc.__traceback__)[-1]
            self.fail(name, f"{type(exc).__name__}: {exc} ({last.filename}:{last.lineno})")
            return None

    def check(self, name: str, fn: Callable[[], Optional[str]]) -> None:
        """Run one check; a returned message or an exception is a failure."""
        message = self.run(name, fn)
        if isinstance(message, str):
            self.fail(name, message)

    def merge(self, other: "Operations") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures.extend(other.failures[: self.MAX_MESSAGES - len(self.failures)])


# ---------------------------------------------------------------------------
# Quality metrics
# ---------------------------------------------------------------------------


def hypervolume_2d(points: Iterable[Tuple[float, float]]) -> float:
    """Area dominated by ``(x, y)`` minimization points inside ``[0, 1]^2``.

    The reference point is ``(1, 1)``; points outside the box add nothing.
    This is not :func:`repro.core.pareto.hypervolume` on purpose: a quality
    metric must not move when the code under test changes its own kernel.
    """
    inside = sorted((x, y) for x, y in points if x < 1.0 and y < 1.0)
    volume = 0.0
    best_y = 1.0
    for index, (x, y) in enumerate(inside):
        best_y = min(best_y, y)
        next_x = inside[index + 1][0] if index + 1 < len(inside) else 1.0
        volume += (next_x - x) * (1.0 - best_y)
    return volume


def quality_metrics(records: Sequence) -> Dict[str, float]:
    """``area_gain_5pct`` and ``front_hv`` over stored dataset records.

    ``area_gain_5pct`` is the geometric mean over datasets of the exact
    baseline's area over the area of the design Table II selects at a 5 %
    accuracy-loss budget; ``front_hv`` is the mean hypervolume of each
    synthesized true front in (test error, area / baseline area) against
    the reference point (1, 1).
    """
    from repro.serving import queries

    gains: List[float] = []
    volumes: List[float] = []
    for record in records:
        row = queries.selection_row(record, max_accuracy_loss=0.05)
        gains.append(row["baseline_area_cm2"] / row["area_cm2"])
        base_area = record.front.baseline.area_cm2
        volumes.append(
            hypervolume_2d(
                (1.0 - design["test_accuracy"], design["area_cm2"] / base_area)
                for design in queries.front_rows(record)
            )
        )
    return {
        "area_gain_5pct": math.exp(sum(math.log(g) for g in gains) / len(gains)),
        "front_hv": sum(volumes) / len(volumes),
    }


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


def _plain(value):
    """JSON-ready view of a record without wall-clock fields."""
    if dataclasses.is_dataclass(value):
        return {
            field.name: _plain(getattr(value, field.name))
            for field in dataclasses.fields(value)
            if not field.name.endswith(TIMING_SUFFIX)
        }
    if isinstance(value, dict):
        return {
            str(key): _plain(item)
            for key, item in value.items()
            if not str(key).endswith(TIMING_SUFFIX)
        }
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, float):
        return repr(value)
    return value


def digest(*parts: object) -> str:
    """Stable SHA-256 of records/rows, wall-clock fields excluded."""
    text = json.dumps([_plain(part) for part in parts], sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def same(left: object, right: object) -> bool:
    """Equality that treats NaN as equal to NaN."""
    if isinstance(left, float) and isinstance(right, float):
        return left == right or (math.isnan(left) and math.isnan(right))
    if isinstance(left, dict) and isinstance(right, dict):
        return left.keys() == right.keys() and all(same(left[k], right[k]) for k in left)
    if isinstance(left, (list, tuple)) and isinstance(right, (list, tuple)):
        return len(left) == len(right) and all(same(a, b) for a, b in zip(left, right))
    return left == right


# ---------------------------------------------------------------------------
# Session results
# ---------------------------------------------------------------------------


def _never():
    raise AssertionError("ga_variant stage was not memoized")


def ga_results(session) -> List:
    """Every GA result the session's stages produced (memo reads only)."""
    results = []
    for key in session.stage_counts():
        if key[0] == "ga_front":
            results.append(session.front(key[1]).approximate.ga_result)
        elif key[0] == "ga_plain":
            results.append(session.ga_plain(key[1]))
        elif key[0] == "ga_variant":
            results.append(session.ga_variant(key[1], key[2], _never))
    return results


def check_artifacts(ops: Operations, artifacts: Dict, export_dir: Optional[Path]) -> None:
    """Every artifact (and every exported JSON file) round-trips."""
    from repro.evaluation.artifacts import Artifact

    for name, artifact in artifacts.items():
        ops.check(
            f"artifact {name} round-trip",
            lambda artifact=artifact: None
            if Artifact.from_json(artifact.to_json()) == artifact
            else "Artifact.from_json(to_json()) differs",
        )
    if export_dir is None:
        return
    for path in sorted(export_dir.glob("*.json")):

        def check(path=path) -> Optional[str]:
            text = path.read_text(encoding="utf-8")
            parsed = Artifact.from_json(text)
            if parsed.experiment in artifacts and parsed != artifacts[parsed.experiment]:
                return "exported file differs from the in-memory artifact"
            if parsed.to_json() + "\n" != text:
                return "re-encoding the parsed file changes its bytes"
            return None

        ops.check(f"export {path.name} round-trip", check)


def check_verification(ops: Operations, session, eda: bool) -> None:
    """Every verified design agrees across all oracles."""
    summary = session.verification_summary()
    if not summary:
        ops.check("verification ran", lambda: "no verification results")
    for dataset, verification in sorted(summary.items()):

        def check(verification=verification) -> Optional[str]:
            if verification.total_mismatches:
                return (
                    f"{verification.total_mismatches} mismatches (netlist "
                    f"{verification.netlist_mismatches}, RTL {verification.rtl_mismatches}, "
                    f"model {verification.model_mismatches}, expression "
                    f"{verification.expression_mismatches}, eda {verification.eda_mismatches})"
                )
            if eda and verification.eda_checked != verification.num_designs:
                return (
                    f"eda oracle ran on {verification.eda_checked} of "
                    f"{verification.num_designs} designs"
                )
            return None

        ops.check(f"verification {dataset}", check)


def check_store(ops: Operations, session, store_dir: Path, datasets: Sequence[str]) -> None:
    """The published store reloads and holds what the session computed."""
    from repro.serving.store import DesignStore

    store = DesignStore(store_dir)
    ops.check(
        "store datasets",
        lambda: None
        if sorted(store.datasets()) == sorted(datasets)
        else f"store lists {store.datasets()}, expected {sorted(datasets)}",
    )
    stages = session.stage_counts()
    for dataset in datasets:

        def check(dataset=dataset) -> Optional[str]:
            record = store.get_dataset(dataset)
            if record.front != session.front_record(dataset):
                return "reloaded front differs from the published record"
            if ("rtl_records", dataset) in stages:
                published = {r.design: r for r in session.rtl_records(dataset)}
                if set(record.rtl_designs) != set(published):
                    return "reloaded RTL design list differs"
                for name, rtl in published.items():
                    if store.get_rtl(dataset, name) != rtl:
                        return f"reloaded RTL of {name} differs"
            return None

        ops.check(f"store reload {dataset}", check)


def joined(arrays: Iterable[Sequence[float]]):
    """One float64 NumPy array of every sample (no per-sample Python objects)."""
    import numpy as np

    parts = [np.asarray(values, dtype=np.float64) for values in arrays]
    return np.concatenate(parts) if parts else np.zeros(0)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a NumPy array."""
    import numpy as np

    ordered = np.sort(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])
