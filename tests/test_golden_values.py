"""Pinned results: a whole smoke run, every exported value, bit for bit.

``tests/golden/*.schema.json`` pin the *shape* of each artifact; this
module pins the *values*.  ``ExperimentSession("smoke").run("all",
export_dir=...)`` writes every table and figure, the plot-ready point
sets and the serving design store (fronts, comparator summaries, per-
design RTL).  Every JSON file of that export must equal its entry in
``tests/golden/smoke_all.values.json``.  Only keys ending in
``_seconds`` are stripped: wall-clock timings are the one part of a run
that is not a pure function of (scale, seed).

A refactor that changes a front, a table cell or a design name fails
here.  A deliberate behaviour change regenerates the golden file with::

    PYTHONPATH=src python tests/test_golden_values.py

and the resulting diff of the golden file is part of the change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path
from typing import Iterator

from repro.experiments.session import ExperimentSession

GOLDEN = Path(__file__).parent / "golden" / "smoke_all.values.json"


def strip_timings(value):
    """``value`` without any dict key ending in ``_seconds`` (recursively)."""
    if isinstance(value, dict):
        return {
            key: strip_timings(item)
            for key, item in value.items()
            if not key.endswith("_seconds")
        }
    if isinstance(value, list):
        return [strip_timings(item) for item in value]
    return value


def smoke_values(export_dir: Path) -> dict:
    """``{relative path: stripped JSON}`` of a smoke ``run("all")`` export."""
    ExperimentSession("smoke").run("all", export_dir=export_dir)
    return {
        path.relative_to(export_dir).as_posix(): strip_timings(
            json.loads(path.read_text(encoding="utf-8"))
        )
        for path in sorted(export_dir.rglob("*.json"))
    }


def differences(produced, golden, where: str = "") -> Iterator[str]:
    """Paths (``file/key/index``) at which two JSON values differ."""
    if isinstance(produced, dict) and isinstance(golden, dict):
        for key in sorted(set(produced) | set(golden)):
            if key not in produced or key not in golden:
                yield f"{where}/{key}: only in {'golden' if key in golden else 'produced'}"
            else:
                yield from differences(produced[key], golden[key], f"{where}/{key}")
    elif isinstance(produced, list) and isinstance(golden, list) and len(produced) == len(golden):
        for index, (a, b) in enumerate(zip(produced, golden)):
            yield from differences(a, b, f"{where}/{index}")
    elif produced != golden or type(produced) is not type(golden):
        yield f"{where}: produced {produced!r:.60}, golden {golden!r:.60}"


def test_smoke_all_matches_golden(tmp_path):
    produced = smoke_values(tmp_path)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    found = list(differences(produced, golden))
    assert not found, (
        f"{len(found)} value(s) differ from {GOLDEN.name}:\n  "
        + "\n  ".join(found[:20])
    )


if __name__ == "__main__":  # pragma: no cover - golden regeneration
    with tempfile.TemporaryDirectory() as tmp:
        values = smoke_values(Path(tmp))
    GOLDEN.write_text(json.dumps(values, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(values)} files' values to {GOLDEN}", file=sys.stderr)
