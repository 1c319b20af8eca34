"""Shared helpers for the benchmark harness.

Every benchmark regenerates one figure, table or numeric claim of the paper
(see the experiment index in ``DESIGN.md``).  Each test

1. runs the corresponding experiment driver once, asserts the *qualitative
   shape* the paper reports (who wins, monotone separation, crossover
   positions), and prints the numeric series via the reporting helpers so the
   captured output documents the reproduced values, and
2. uses ``pytest-benchmark`` to time the computational kernel, so the harness
   doubles as a performance regression suite.

Run with ``pytest benchmarks/ --benchmark-only`` (timings) or additionally
``-s`` to see the reproduced series on stdout.  Each run also writes the
printed tables as CSV for re-plotting, plus the perf trajectory, into a
fresh temporary directory — so a test run never rewrites the committed
``benchmarks/results/`` — or into ``--results-dir DIR`` when given (CI passes
``--results-dir benchmarks/results`` to compare and upload them).
"""

from __future__ import annotations

from pathlib import Path

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--results-dir",
        type=Path,
        default=None,
        help="directory for the benchmark CSV series and perf trajectory (default: a temporary directory)",
    )


@pytest.fixture(scope="session")
def results_dir(request, tmp_path_factory) -> Path:
    """Directory where benchmarks drop their CSV series."""
    chosen = request.config.getoption("--results-dir", default=None)
    if chosen is None:
        return tmp_path_factory.mktemp("results")
    chosen.mkdir(parents=True, exist_ok=True)
    return chosen


@pytest.fixture(scope="session")
def perf_trajectory(results_dir: Path) -> Path:
    """The unified perf-trajectory JSONL every bench records its headline
    numbers into (via :func:`repro.obs.record_perf`); CI compares it against
    the committed ``benchmarks/perf_baseline.json`` with
    ``repro metrics --baseline`` as a warn-only regression gate."""
    return results_dir / "perf_trajectory.jsonl"
