"""Shared validation and small numeric helpers used across :mod:`repro`.

The library follows a few global conventions (see ``DESIGN.md``):

* permutations are 0-indexed tuples internally,
* all randomness flows through :class:`numpy.random.Generator` objects,
* array-like inputs are normalised to ``numpy.ndarray`` with ``np.intp``
  dtype where they index data items.

This module keeps those conversions in one place so every public entry point
performs identical, predictable validation.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Any

import numpy as np

__all__ = [
    "as_int_array",
    "check_permutation_array",
    "check_positive_int",
    "check_nonnegative_int",
    "ensure_rng",
]


def check_positive_int(value: Any, name: str) -> int:
    """Validate that ``value`` is a positive integer and return it as ``int``.

    Parameters
    ----------
    value:
        Candidate value.  NumPy integer scalars are accepted.
    name:
        Parameter name used in the error message.

    Raises
    ------
    TypeError
        If ``value`` is not an integral type.
    ValueError
        If ``value`` is not strictly positive.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    value = int(value)
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def check_nonnegative_int(value: Any, name: str) -> int:
    """Validate that ``value`` is a non-negative integer and return it as ``int``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    value = int(value)
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


def as_int_array(values: Iterable[int], name: str = "values") -> np.ndarray:
    """Convert ``values`` to a 1-D ``np.intp`` array without copying when possible.

    Parameters
    ----------
    values:
        Any iterable of integers (list, tuple, generator, ndarray).
    name:
        Parameter name used in error messages.

    Returns
    -------
    numpy.ndarray
        A one-dimensional integer array.
    """
    arr = np.asarray(list(values) if not isinstance(values, (np.ndarray, Sequence)) else values)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        # Accept float arrays that are integer valued (e.g. from np.arange * 1.0).
        if np.issubdtype(arr.dtype, np.floating) and np.all(arr == np.floor(arr)):
            arr = arr.astype(np.intp)
        else:
            raise TypeError(f"{name} must contain integers, got dtype {arr.dtype}")
    return arr.astype(np.intp, copy=False)


def check_permutation_array(values: Iterable[int], name: str = "permutation") -> np.ndarray:
    """Validate a 0-indexed one-line permutation and return it as an array.

    A valid permutation of size ``m`` contains every integer in ``[0, m)``
    exactly once.

    Raises
    ------
    ValueError
        If the array is not a permutation of ``0..m-1``.
    """
    arr = as_int_array(values, name)
    m = arr.size
    if m == 0:
        return arr
    seen = np.zeros(m, dtype=bool)
    if arr.min() < 0 or arr.max() >= m:
        raise ValueError(f"{name} must contain each of 0..{m - 1} exactly once; " f"values outside range found")
    seen[arr] = True
    if not seen.all():
        raise ValueError(f"{name} must contain each of 0..{m - 1} exactly once")
    return arr


def ensure_rng(rng: np.random.Generator | int | None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from ``rng``.

    ``None`` creates a fresh default generator; integers are used as seeds;
    existing generators are passed through unchanged.
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError("rng must be None, an int seed, or a numpy.random.Generator, " f"got {type(rng).__name__}")
