"""Run one end-to-end benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 e2e_bench/run.py --workload {ga_search,paper_all,serve_queries} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` alternates
untraced and traced iterations and reports the per-layer metrics plus
``trace.overhead``.  Human-readable lines (every metric with its unit and
sample count, and ``error_rate``) go first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record (including the seed, ``nproc``, Python,
NumPy and BLAS thread count, and the code identity) is written to
``.e2e_bench/results/<workload>-seed<N>-trace<T>.json``.

Exits 2 without a result when the checkout has no ``src/repro``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
OUTPUT = ROOT / ".e2e_bench"


def _blas_threads() -> object:
    """OpenBLAS thread count of the NumPy in use (or the env setting)."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if os.environ.get(name):
            return os.environ[name]
    return None


def _code_identity() -> dict:
    """Git commit when the checkout is a repository, and a digest of ``src/``."""
    git = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
                check=False,
            )
        except OSError:
            commit = None
        if commit is not None and commit.returncode == 0:
            git = commit.stdout.strip()
    return {"git_commit": git, "src_sha256": _tree_digest("src"), "bench_sha256": _tree_digest("e2e_bench")}


def _tree_digest(directory: str) -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / directory).rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _differs_from_earlier_runs(result: dict, results: Path) -> Optional[str]:
    """Compare with earlier result files of this workload, seed and code.

    The digest, the quality metrics, the GA counters and (between traced
    runs) ``core.decode_calls`` must be identical across processes, too.
    Returns ``None`` when nothing differs, or when no earlier run compares.
    """
    if not result["digest"]:
        return None
    identity = ("src_sha256", "bench_sha256")
    differences = []
    for path in sorted(results.glob(f"{result['workload']}-seed{result['seed']}-trace*.json")):
        earlier = json.loads(path.read_text(encoding="utf-8"))
        if not earlier.get("digest") or any(
            earlier["environment"].get(key) != result["environment"][key] for key in identity
        ):
            continue
        pairs = [
            ("digest", earlier["digest"], result["digest"]),
            ("quality", earlier["quality"], result["quality"]),
        ]
        for name in ("core.fitness_computed", "core.fitness_hits"):
            pairs.append((name, earlier["counters"].get(name), result["counters"].get(name)))
        if earlier["per_layer"] and result["per_layer"]:
            name = "core.decode_calls"
            pairs.append((name, earlier["per_layer"].get(name), result["per_layer"].get(name)))
        differences += [f"{name} differs from {path.name}" for name, a, b in pairs if a != b]
        result["compared_with"].append(path.name)
    return "; ".join(differences) or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("ga_search", "paper_all", "serve_queries"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2e_bench: no src/repro package under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    import numpy

    from e2e_bench.metrics import END_TO_END, PER_LAYER
    from e2e_bench.workloads import run_workload

    work = OUTPUT / f"work-{os.getpid()}"
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), ROOT, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["environment"] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": _blas_threads(),
        **_code_identity(),
    }
    results = OUTPUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    result["compared_with"] = []
    difference = _differs_from_earlier_runs(result, results)
    if result["compared_with"]:
        result["attempted"] += 1
    if difference:
        result["failed"] += 1
        result["failures"].append(f"determinism across processes: {difference}")
    result["error_rate"] = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=2, allow_nan=False) + "\n", encoding="utf-8")

    values = result["per_layer"] if args.trace else result["end_to_end"]
    names = PER_LAYER if args.trace else END_TO_END
    samples = result["samples"]
    for name, unit in names:
        if name in values:
            count = samples.get(name, result["iterations"]["traced" if args.trace else "untraced"])
            print(f"{args.workload} {name} = {values[name]:.6g} {unit} (n={count})")
    if not args.trace:
        for name, value in result["quality"].items():
            print(f"{args.workload} quality {name} = {value:.6g} (per-layer metric, not gated)")
    print(
        f"{args.workload} error_rate = {result['error_rate']:.6g} "
        f"({result['failed']} failed / {result['attempted']} attempted)"
    )
    for failure in result["failures"][:10]:
        print(f"{args.workload} FAILED {failure}")
    if result["missing_targets"]:
        print(f"{args.workload} missing trace targets: {', '.join(result['missing_targets'])}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0 and all(n in values for n, _ in names),
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": values[name], "unit": unit}
                    for name, unit in names
                    if name in values
                },
            },
            allow_nan=False,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
