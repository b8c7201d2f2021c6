"""Shared fixtures for the benchmark harness.

Every benchmark module regenerates one table or figure of the paper.
The benchmarks run at the "smoke" experiment scale by default so that
``pytest benchmarks/ --benchmark-only`` completes in minutes; set the
``REPRO_BENCH_SCALE`` environment variable to ``ci`` or ``full`` to run
the heavier configurations.

Benchmarks can also record named timings with the ``record_bench``
fixture; at session end every recorded group is written to a
``BENCH_<group>.json`` file (in ``REPRO_BENCH_OUT``, default the current
directory).  The recordings use plain ``time.perf_counter`` measurements
taken inside the tests, so they are emitted even under
``--benchmark-disable`` — this is what gives CI a per-commit perf
trajectory (front-synthesis and GA-generation timings) without running
the full pytest-benchmark calibration.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path
from typing import Dict, List

import pytest

from repro.experiments.config import ExperimentScale, get_scale
from repro.experiments.session import ExperimentSession

#: Scale used by the benchmarks (overridable via the environment).
BENCH_SCALE_NAME = os.environ.get("REPRO_BENCH_SCALE", "smoke")

#: Recorded timings, grouped by output file: group -> list of records.
_BENCH_RECORDS: Dict[str, List[dict]] = {}


def bench_scale() -> ExperimentScale:
    """The experiment scale benchmarks run at."""
    return get_scale(BENCH_SCALE_NAME)


@pytest.fixture(scope="session")
def session() -> ExperimentSession:
    """One session shared by all benchmarks (baselines/GA runs are memoized)."""
    return ExperimentSession(bench_scale())


def _record_bench(group: str, name: str, seconds: float, **extra) -> None:
    """Record one named timing into the ``BENCH_<group>.json`` payload."""
    record = {"name": name, "seconds": float(seconds)}
    record.update(extra)
    _BENCH_RECORDS.setdefault(group, []).append(record)


@pytest.fixture(scope="session")
def record_bench():
    """Session-wide timing recorder (see module docstring)."""
    return _record_bench


def pytest_sessionfinish(session, exitstatus):
    """Write every recorded group to ``BENCH_<group>.json``."""
    if not _BENCH_RECORDS:
        return
    out_dir = Path(os.environ.get("REPRO_BENCH_OUT", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    for group, records in _BENCH_RECORDS.items():
        payload = {
            "scale": BENCH_SCALE_NAME,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "records": records,
        }
        path = out_dir / f"BENCH_{group}.json"
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
        )
