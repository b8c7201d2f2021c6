"""End-to-end benchmark of the reproduction (see ``e2e_bench/README.md``).

Run one workload with::

    python3 e2e_bench/run.py --workload ga_search --seed 1 --seconds 30 --trace 0

The package only drives the public ``ExperimentSession`` /
``ParetoService`` APIs; the traced mode times layers from outside by
wrapping public functions of ``repro.*`` (:mod:`e2e_bench.tracing`).
"""
