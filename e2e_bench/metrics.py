"""Metric names and units, in the order the benchmark prints them.

``BENCHMARK.json`` lists the same names; ``selfcheck.py`` keeps the two
in step.
"""

from __future__ import annotations

from e2e_bench.tracing import QUERY_OPS, STAGES

__all__ = ["END_TO_END", "PER_LAYER"]

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("open_p50_ms", "ms"),
)

PER_LAYER = (
    ("datasets.load_s", "s"),
    ("baselines.gradient_s", "s"),
    ("baselines.gradient_calls", "count"),
    ("baselines.comparators_s", "s"),
    ("core.variation_s", "s"),
    ("core.evaluate_s", "s"),
    ("core.decode_s", "s"),
    ("core.decode_calls", "count"),
    ("core.select_s", "s"),
    ("core.archive_s", "s"),
    ("core.hv_s", "s"),
    ("approx.forward_s", "s"),
    ("approx.forward_rows", "count"),
    ("hardware.fa_count_s", "s"),
    ("core.fitness_computed", "count"),
    ("core.fitness_hits", "count"),
    ("core.fitness_hit_ratio", "1"),
    ("core.model_read_ratio", "1"),
    ("core.genomes_per_s", "1/s"),
    ("hardware.synth_s", "s"),
    ("hardware.designs_synthesized", "count"),
    ("hardware.sim_s", "s"),
    ("evaluation.front_s", "s"),
    ("evaluation.verify_s", "s"),
    ("evaluation.designs_verified", "count"),
    ("evaluation.mismatches", "count"),
    ("evaluation.artifact_s", "s"),
    ("rtl.generate_s", "s"),
    ("eda.sim_s", "s"),
    *((f"experiments.stage_s.{stage}", "s") for stage in STAGES),
    ("serving.store_write_s", "s"),
    ("serving.store_read_s", "s"),
    ("serving.store_reads", "count"),
    *((f"serving.query_s.{op}", "s") for op in QUERY_OPS),
    ("serving.coalesced", "count"),
    ("area_gain_5pct", "x"),
    ("front_hv", "1"),
    ("trace.overhead", "1"),
)
