"""Unit tests for the engine worker-pool runner."""

from __future__ import annotations

import os

import pytest

import numpy as np

from repro.engine.runner import check_workers, pool_map, published_arrays, resolve_array


def _square(x: int) -> int:
    return x * x


def _tag_pid(x: int) -> tuple[int, int]:
    return x, os.getpid()


class TestCheckWorkers:
    def test_accepts_positive(self):
        assert check_workers(1) == 1
        assert check_workers(8) == 8

    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ValueError):
            check_workers(bad)


class TestPoolMap:
    def test_inline_when_single_worker(self):
        values, pids = zip(*pool_map(_tag_pid, [1, 2, 3], workers=1))
        assert values == (1, 2, 3)
        assert set(pids) == {os.getpid()}

    def test_inline_when_single_task(self):
        _, pid = pool_map(_tag_pid, [5], workers=4)[0]
        assert pid == os.getpid()

    def test_pooled_preserves_order(self):
        assert pool_map(_square, list(range(20)), workers=3) == [x * x for x in range(20)]

    def test_empty_tasks(self):
        assert pool_map(_square, [], workers=4) == []

    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            pool_map(_square, [1], workers=0)


def _lookup_sum(key: str) -> int:
    return int(resolve_array(key).sum())


class TestPublishedArrays:
    def test_resolve_passthrough_for_arrays(self):
        arr = np.array([1, 2, 3])
        assert resolve_array(arr) is arr

    def test_resolve_by_key_inside_context(self):
        arr = np.array([4, 5, 6])
        with published_arrays({"trace": arr}):
            assert resolve_array("trace") is arr
        with pytest.raises(KeyError):
            resolve_array("trace")

    def test_published_arrays_reach_forked_workers(self):
        arrays = {"a": np.arange(10), "b": np.arange(5)}
        with published_arrays(arrays):
            sums = pool_map(_lookup_sum, ["a", "b", "a"], workers=2)
        assert sums == [45, 10, 45]

    def test_unpublishes_on_error(self):
        arr = np.array([7])
        with pytest.raises(RuntimeError):
            with published_arrays({"x": arr}):
                raise RuntimeError("boom")
        with pytest.raises(KeyError):
            resolve_array("x")
