"""A failing task without a retry policy surfaces as its own exception."""

from __future__ import annotations

import pytest

from repro.engine.runner import pool_map


def _reject_odd(x: int) -> int:
    if x % 2:
        raise ValueError(f"odd task {x}")
    return x


@pytest.mark.parametrize("workers", [1, 2])
def test_task_value_error_is_raised_unchanged(workers):
    # `repro partition` maps a ValueError to exit code 2; wrapping it in a
    # PoolFailureError would turn a bad input into a crash.
    with pytest.raises(ValueError, match="odd task 1"):
        pool_map(_reject_odd, [0, 1, 2, 3], workers=workers)
