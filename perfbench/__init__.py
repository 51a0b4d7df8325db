"""End-to-end and per-layer benchmark of the collusion-detection service.

Entry point: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root.  See
``perfbench/README.md`` for the workloads, the metric map and the
committed layer table.
"""
