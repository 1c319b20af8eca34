"""End-to-end benchmark of the repro toolkit with a per-layer breakdown.

Run ``python3 perfbench/run.py --help`` for usage; ``perfbench/compare.py``
compares two sets of recorded runs.
"""
