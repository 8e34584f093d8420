"""End-to-end simulator benchmark with per-layer attribution.

Run it from the repository root::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

See ``perfbench/README.md`` for the workloads, metrics and layer table.
"""
