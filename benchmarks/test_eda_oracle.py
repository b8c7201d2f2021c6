"""Benchmarks of the microverilog fifth oracle.

Tracks what the pure-Python Verilog-subset simulator costs on top of the
existing four-oracle differential harness: parse+simulate throughput on
a front-sized batch of generated modules, and the end-to-end overhead of
``verify_front(eda=True)`` versus the eda-off run.  Timings land in
``BENCH_eda_oracle.json`` (see ``conftest.record_bench``) so the CI
smoke pass leaves a per-commit trajectory; the *external* iverilog/yosys
flow is benchmarked separately by the ``eda-cross-check`` CI job via
``python -m repro.eda --out BENCH_eda.json``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.cache import EvaluationCache
from repro.eda.microverilog import parse_module, simulate_mlp_module
from repro.evaluation.verification import verify_front
from repro.rtl.verilog import generate_mlp_verilog

#: Parse/simulate sweep shape: 12 modules × 256 stimulus vectors.
NUM_MODULES = 12
NUM_VECTORS = 256
SIZES = (6, 5, 3)
INPUT_BITS = 4


def _random_modules():
    from repro.approx.config import ApproxConfig
    from repro.approx.mlp import ApproximateMLP
    from repro.approx.topology import Topology

    rng = np.random.default_rng(0)
    config = ApproxConfig(input_bits=INPUT_BITS)
    texts = [
        generate_mlp_verilog(
            ApproximateMLP.random(Topology(SIZES), config, rng, mask_density=0.5)
        )
        for _ in range(NUM_MODULES)
    ]
    vectors = rng.integers(0, (1 << INPUT_BITS), size=(NUM_VECTORS, SIZES[0]))
    return texts, vectors.astype(np.int64)


def test_bench_parse_and_simulate_sweep(record_bench):
    """12 modules × 256 vectors through parse + vectorized evaluation."""
    texts, vectors = _random_modules()

    start = time.perf_counter()
    modules = [parse_module(text) for text in texts]
    parse_seconds = time.perf_counter() - start
    assert len(modules) == NUM_MODULES

    start = time.perf_counter()
    predictions = [simulate_mlp_module(text, vectors) for text in texts]
    simulate_seconds = time.perf_counter() - start
    assert all(p.shape == (NUM_VECTORS,) for p in predictions)

    record_bench(
        "eda_oracle",
        "parse_sweep_12_modules",
        seconds=parse_seconds,
        num_modules=NUM_MODULES,
    )
    record_bench(
        "eda_oracle",
        "simulate_sweep_12x256",
        seconds=simulate_seconds,
        num_modules=NUM_MODULES,
        num_vectors=NUM_VECTORS,
        vectors_per_second=(NUM_MODULES * NUM_VECTORS) / simulate_seconds
        if simulate_seconds
        else float("inf"),
    )


def test_bench_fifth_oracle_overhead(session, record_bench):
    """verify_front(eda=True) vs eda=False on a synthesized front."""
    result = session.front("breast_cancer")
    approx = result.approximate
    assert approx is not None

    start = time.perf_counter()
    plain = verify_front(
        approx.ga_result,
        num_vectors=64,
        max_designs=session.scale.max_front_designs,
        cache=EvaluationCache(),
    )
    plain_seconds = time.perf_counter() - start

    start = time.perf_counter()
    eda = verify_front(
        approx.ga_result,
        num_vectors=64,
        max_designs=session.scale.max_front_designs,
        cache=EvaluationCache(),
        eda=True,
    )
    eda_seconds = time.perf_counter() - start

    # The fifth oracle agrees everywhere the other four do.
    assert eda.num_designs == plain.num_designs
    assert eda.eda_mismatches == 0
    assert eda.passed and plain.passed

    record_bench(
        "eda_oracle",
        "verify_front_breast_cancer_four_oracles",
        seconds=plain_seconds,
        num_designs=plain.num_designs,
    )
    record_bench(
        "eda_oracle",
        "verify_front_breast_cancer_five_oracles",
        seconds=eda_seconds,
        num_designs=eda.num_designs,
        overhead_seconds=eda_seconds - plain_seconds,
    )
