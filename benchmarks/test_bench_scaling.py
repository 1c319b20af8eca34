"""Algorithmic scaling — Algorithm 1 (O(m log m)) and ChainFind (O(m³)).

Section V argues ChainFind runs in ``O(m³)`` time and that the reuse-distance
algorithm is cheap enough to run inside a JIT.  This benchmark times both
kernels across a size sweep and additionally compares the Fenwick-tree
inversion counter against the naive quadratic oracle, and the Olken
stack-distance algorithm against per-size LRU simulation — the classic
trace-tool trade-off.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import format_table, write_csv
from repro.cache import mrc_from_trace
from repro.core import (
    chain_find,
    count_inversions_fenwick,
    count_inversions_naive,
    Permutation,
    max_inversions,
    random_permutation,
)
from repro.trace import zipfian_trace

# The per-size simulation oracle lives with the test suite (``tests/oracles.py``).
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import mrc_by_simulation  # noqa: E402


@pytest.mark.parametrize("m", [256, 1024, 4096])
def test_reuse_distance_kernel_scaling(benchmark, m):
    from repro.core import stack_distances as periodic_stack_distances

    sigma = random_permutation(m, rng=m)
    result = benchmark(periodic_stack_distances, sigma)
    assert len(result) == m
    assert int(result.max()) <= m


@pytest.mark.parametrize("m", [8, 12, 16, 20])
def test_chainfind_scaling(benchmark, m):
    result = benchmark(chain_find, Permutation.identity(m))
    assert result.length == max_inversions(m)
    assert result.end.is_reverse()


def test_inversion_counting_fenwick_vs_naive(benchmark, results_dir):
    rng = np.random.default_rng(0)
    rows = []
    for m in (256, 1024, 4096):
        word = rng.permutation(m)
        import time

        t0 = time.perf_counter()
        naive = count_inversions_naive(word)
        t_naive = time.perf_counter() - t0
        t0 = time.perf_counter()
        fast = count_inversions_fenwick(word)
        t_fenwick = time.perf_counter() - t0
        assert naive == fast
        rows.append({"m": m, "naive_s": t_naive, "fenwick_s": t_fenwick, "speedup": t_naive / max(t_fenwick, 1e-9)})
    benchmark(count_inversions_fenwick, rng.permutation(4096))
    print()
    print(format_table(rows, title="Inversion counting: naive O(m^2) vs Fenwick O(m log m)"))
    write_csv(results_dir / "scaling_inversions.csv", rows)


def test_mrc_single_pass_vs_per_size_simulation(benchmark, results_dir):
    trace = zipfian_trace(20_000, 512, rng=1).accesses
    curve = benchmark(mrc_from_trace, trace)
    sampled = mrc_by_simulation(trace, [1, 64, 256, 512])
    for c, ratio in sampled.items():
        assert curve[c] == pytest.approx(ratio)
    rows = [{"cache_size": c, "miss_ratio": curve[c]} for c in (1, 16, 64, 256, 512)]
    print()
    title = "Single-pass MRC of a 20k-access Zipfian trace (validated against per-size simulation)"
    print(format_table(rows, title=title))
    write_csv(results_dir / "scaling_mrc.csv", rows)
