"""Permutations of the symmetric group :math:`S_m`.

This module provides the :class:`Permutation` value type used throughout the
library.  A permutation is stored in 0-indexed *one-line notation*: the tuple
``sigma`` where ``sigma[i]`` is the image of position ``i``.  The paper's
examples use 1-indexed notation; the :meth:`Permutation.from_one_indexed` and
:meth:`Permutation.one_indexed` helpers convert between the two.

Design notes
------------
* Instances are immutable and hashable so they can be used as graph nodes in
  the Bruhat covering graph (:mod:`repro.core.covering_graph`).
* Inversion counts and the Lehmer code come from one distance pass over the
  re-traversal (:mod:`repro.core.inversions`); applying a permutation to a
  long trace is one NumPy fancy index.
* Group-theoretic helpers (composition, inverse, conjugation, cycle type,
  Lehmer code, rank/unrank in lexicographic order) are provided because the
  ChainFind algorithm and the Mahonian analysis in the appendix rely on them.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator, Sequence
from typing import Any

import numpy as np

from .._util import check_nonnegative_int, check_permutation_array, check_positive_int, ensure_rng

__all__ = [
    "Permutation",
    "all_permutations",
    "permutations_by_inversions",
    "random_permutation",
    "transposition",
    "adjacent_transposition",
]


class Permutation:
    """An element of the symmetric group :math:`S_m` in one-line notation.

    Parameters
    ----------
    mapping:
        Iterable of the images ``sigma(0), sigma(1), ..., sigma(m-1)`` — i.e.
        0-indexed one-line notation.  Must contain each of ``0..m-1`` exactly
        once.

    Examples
    --------
    >>> sigma = Permutation([1, 0, 2])
    >>> sigma(0)
    1
    >>> sigma.inversions()
    1
    >>> (sigma * sigma).is_identity()
    True
    """

    __slots__ = ("_map", "_hash")

    def __init__(self, mapping: Iterable[int]):
        arr = check_permutation_array(mapping, "mapping")
        self._map: tuple[int, ...] = tuple(int(x) for x in arr)
        self._hash: int | None = None

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def identity(cls, m: int) -> "Permutation":
        """The identity permutation of ``S_m`` (the *cyclic* re-traversal)."""
        m = check_nonnegative_int(m, "m")
        return cls(range(m))

    @classmethod
    def reverse(cls, m: int) -> "Permutation":
        """The reverse permutation ``m-1, ..., 1, 0`` (the *sawtooth* re-traversal).

        This is the maximal element of the Bruhat order with
        ``m * (m - 1) / 2`` inversions.
        """
        m = check_nonnegative_int(m, "m")
        return cls(range(m - 1, -1, -1))

    @classmethod
    def from_one_indexed(cls, mapping: Iterable[int]) -> "Permutation":
        """Build a permutation from 1-indexed one-line notation (as the paper writes it).

        >>> Permutation.from_one_indexed([2, 1, 3, 4]).one_indexed()
        (2, 1, 3, 4)
        """
        arr = np.asarray(list(mapping), dtype=np.intp)
        return cls(arr - 1)

    @classmethod
    def from_cycles(cls, m: int, cycles: Iterable[Sequence[int]], *, one_indexed: bool = False) -> "Permutation":
        """Build a permutation of ``S_m`` from disjoint (or composed) cycles.

        Cycles are applied right-to-left, matching the usual composition of
        functions, so ``from_cycles(3, [(0, 1), (1, 2)])`` equals
        ``from_cycles(3, [(0, 1)]) * from_cycles(3, [(1, 2)])``.

        Parameters
        ----------
        m:
            Size of the symmetric group.
        cycles:
            Iterable of cycles; each cycle is a sequence of distinct points.
        one_indexed:
            When ``True`` the cycle entries are interpreted 1-indexed, as in
            the paper's ``(13)`` style notation.
        """
        m = check_nonnegative_int(m, "m")
        result = list(range(m))
        cycle_list = [tuple(c) for c in cycles]
        for cycle in reversed(cycle_list):
            if one_indexed:
                cycle = tuple(x - 1 for x in cycle)
            if len(cycle) < 2:
                continue
            if len(set(cycle)) != len(cycle):
                raise ValueError(f"cycle {cycle} contains repeated points")
            for x in cycle:
                if not 0 <= x < m:
                    raise ValueError(f"cycle point {x} outside 0..{m - 1}")
            # Apply the cycle to the current one-line map: the permutation
            # built so far is composed on the left by the cycle.
            mapping = {cycle[i]: cycle[(i + 1) % len(cycle)] for i in range(len(cycle))}
            result = [mapping.get(v, v) for v in result]
        return cls(result)

    @classmethod
    def from_lehmer(cls, code: Sequence[int]) -> "Permutation":
        """Build a permutation from its Lehmer code (inversion table).

        ``code[i]`` is the number of positions ``j > i`` with
        ``sigma(j) < sigma(i)``; it must satisfy ``0 <= code[i] <= m - 1 - i``.
        """
        code = list(int(c) for c in code)
        m = len(code)
        available = list(range(m))
        out = []
        for i, c in enumerate(code):
            if not 0 <= c <= m - 1 - i:
                raise ValueError(f"Lehmer code entry {c} at index {i} out of range 0..{m - 1 - i}")
            out.append(available.pop(c))
        return cls(out)

    @classmethod
    def unrank(cls, m: int, rank: int) -> "Permutation":
        """Return the permutation of ``S_m`` with lexicographic rank ``rank``.

        Ranks run from ``0`` (identity) to ``m! - 1`` (reverse permutation).
        """
        m = check_nonnegative_int(m, "m")
        rank = check_nonnegative_int(rank, "rank")
        total = math.factorial(m)
        if rank >= total and m > 0:
            raise ValueError(f"rank {rank} out of range for S_{m} (m! = {total})")
        code = []
        for i in range(m):
            f = math.factorial(m - 1 - i)
            code.append(rank // f)
            rank %= f
        return cls.from_lehmer(code)

    # ------------------------------------------------------------------ #
    # Basic protocol
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """Number of points ``m`` the permutation acts on."""
        return len(self._map)

    @property
    def one_line(self) -> tuple[int, ...]:
        """0-indexed one-line notation as a tuple."""
        return self._map

    def one_indexed(self) -> tuple[int, ...]:
        """1-indexed one-line notation, matching the paper's examples."""
        return tuple(x + 1 for x in self._map)

    def to_array(self) -> np.ndarray:
        """One-line notation as a fresh ``np.intp`` array."""
        return np.asarray(self._map, dtype=np.intp)

    def __call__(self, i: int) -> int:
        """Image of point ``i`` under the permutation."""
        return self._map[i]

    def __len__(self) -> int:  # pragma: no cover - trivial
        return len(self._map)

    def __iter__(self) -> Iterator[int]:
        return iter(self._map)

    def __getitem__(self, i: int) -> int:
        return self._map[i]

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, Permutation):
            return self._map == other._map
        if isinstance(other, (tuple, list)):
            return self._map == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._map)
        return self._hash

    def __repr__(self) -> str:
        return f"Permutation({list(self._map)})"

    def __str__(self) -> str:
        cycles = self.cycles(include_fixed_points=False)
        if not cycles:
            return f"e[{self.size}]"
        return "".join("(" + " ".join(str(x) for x in c) + ")" for c in cycles)

    # ------------------------------------------------------------------ #
    # Group operations
    # ------------------------------------------------------------------ #
    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition ``self ∘ other``: ``(self * other)(i) == self(other(i))``."""
        if not isinstance(other, Permutation):
            return NotImplemented
        if self.size != other.size:
            raise ValueError(f"cannot compose permutations of different sizes ({self.size} vs {other.size})")
        return Permutation(tuple(self._map[other._map[i]] for i in range(self.size)))

    def inverse(self) -> "Permutation":
        """The group inverse ``sigma^{-1}``."""
        inv = [0] * self.size
        for i, v in enumerate(self._map):
            inv[v] = i
        return Permutation(inv)

    def conjugate(self, tau: "Permutation") -> "Permutation":
        """Return ``tau * self * tau^{-1}``."""
        return tau * self * tau.inverse()

    def power(self, k: int) -> "Permutation":
        """The ``k``-th power of the permutation (``k`` may be negative)."""
        if self.size == 0:
            return self
        base = self if k >= 0 else self.inverse()
        k = abs(int(k))
        result = Permutation.identity(self.size)
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def is_identity(self) -> bool:
        """Whether this is the identity permutation (the cyclic re-traversal)."""
        return all(v == i for i, v in enumerate(self._map))

    def is_reverse(self) -> bool:
        """Whether this is the reverse permutation (the sawtooth re-traversal)."""
        m = self.size
        return all(v == m - 1 - i for i, v in enumerate(self._map))

    def is_involution(self) -> bool:
        """Whether ``sigma * sigma`` is the identity."""
        return all(self._map[self._map[i]] == i for i in range(self.size))

    def order(self) -> int:
        """The order of the permutation in the group (lcm of cycle lengths)."""
        result = 1
        for cycle in self.cycles(include_fixed_points=False):
            result = math.lcm(result, len(cycle))
        return result

    # ------------------------------------------------------------------ #
    # Structure: cycles, descents, inversions
    # ------------------------------------------------------------------ #
    def cycles(self, *, include_fixed_points: bool = False) -> list[tuple[int, ...]]:
        """The disjoint cycle decomposition (cycles of length ≥ 2 unless requested)."""
        seen = [False] * self.size
        out: list[tuple[int, ...]] = []
        for start in range(self.size):
            if seen[start]:
                continue
            cycle = [start]
            seen[start] = True
            nxt = self._map[start]
            while nxt != start:
                cycle.append(nxt)
                seen[nxt] = True
                nxt = self._map[nxt]
            if len(cycle) > 1 or include_fixed_points:
                out.append(tuple(cycle))
        return out

    def cycle_type(self) -> tuple[int, ...]:
        """Cycle lengths (including fixed points) sorted in decreasing order."""
        lengths = sorted((len(c) for c in self.cycles(include_fixed_points=True)), reverse=True)
        return tuple(lengths)

    def descents(self) -> list[int]:
        """Positions ``i`` with ``sigma(i) > sigma(i + 1)`` (0-indexed)."""
        return [i for i in range(self.size - 1) if self._map[i] > self._map[i + 1]]

    def inversions(self) -> int:
        """The inversion number ``ℓ(sigma)`` — the Bruhat/Coxeter length.

        This counts pairs ``i < j`` with ``sigma(i) > sigma(j)``.  Theorem 2 of
        the paper identifies this quantity with the summed cache-hit vector of
        the re-traversal ``A sigma(A)``.
        """
        from .inversions import count_inversions

        return count_inversions(self)

    def inversion_pairs(self) -> list[tuple[int, int]]:
        """All pairs ``(i, j)`` with ``i < j`` and ``sigma(i) > sigma(j)``."""
        m = self.size
        return [(i, j) for i in range(m) for j in range(i + 1, m) if self._map[i] > self._map[j]]

    def lehmer_code(self) -> tuple[int, ...]:
        """The Lehmer code: ``code[i] = #{j > i : sigma(j) < sigma(i)}``."""
        from .inversions import inversion_vector

        return tuple(inversion_vector(self).tolist())

    def rank(self) -> int:
        """Lexicographic rank of the permutation in ``S_m`` (0-based)."""
        code = self.lehmer_code()
        m = self.size
        return sum(c * math.factorial(m - 1 - i) for i, c in enumerate(code))

    def parity(self) -> int:
        """``0`` for even permutations, ``1`` for odd (parity of the inversion number)."""
        return self.inversions() % 2

    def sign(self) -> int:
        """``+1`` for even permutations, ``-1`` for odd."""
        return 1 if self.parity() == 0 else -1

    # ------------------------------------------------------------------ #
    # Action on data
    # ------------------------------------------------------------------ #
    def apply(self, sequence: Sequence[Any] | np.ndarray) -> np.ndarray | list:
        """Rearrange ``sequence`` so that output position ``i`` holds ``sequence[sigma(i)]``.

        This is exactly the paper's construction of the re-traversal
        ``B = sigma(A)``: if ``A = (1, 2, ..., m)`` (1-indexed) then
        ``B[i] = sigma(A[i]) = sigma(i)``.

        NumPy arrays are returned as arrays (fancy indexing, no Python loop);
        other sequences are returned as lists.
        """
        if len(sequence) != self.size:
            raise ValueError(f"sequence length {len(sequence)} does not match permutation size {self.size}")
        if isinstance(sequence, np.ndarray):
            return sequence[np.asarray(self._map, dtype=np.intp)]
        return [sequence[v] for v in self._map]

    def swap_positions(self, i: int, j: int) -> "Permutation":
        """Return the permutation obtained by swapping the *values at positions* ``i`` and ``j``.

        In group terms this is ``self * (i j)`` — multiplication on the right
        by a transposition of positions, which is the move that generates the
        Bruhat covering relation used by ChainFind.
        """
        m = self.size
        if not (0 <= i < m and 0 <= j < m):
            raise ValueError(f"positions ({i}, {j}) out of range for S_{m}")
        new = list(self._map)
        new[i], new[j] = new[j], new[i]
        return Permutation(new)

    def shifted(self, offset: int) -> "Permutation":
        """Conjugate by a relabelling that adds ``offset`` cyclically (utility for tests)."""
        m = self.size
        offset %= max(m, 1)
        relabel = Permutation([(i + offset) % m for i in range(m)])
        return relabel * self * relabel.inverse()


# ---------------------------------------------------------------------- #
# Module-level constructors and enumerations
# ---------------------------------------------------------------------- #
def transposition(m: int, a: int, b: int) -> Permutation:
    """The transposition ``(a b)`` in ``S_m`` (0-indexed points)."""
    m = check_positive_int(m, "m")
    if a == b:
        raise ValueError("transposition requires two distinct points")
    if not (0 <= a < m and 0 <= b < m):
        raise ValueError(f"points ({a}, {b}) out of range for S_{m}")
    mapping = list(range(m))
    mapping[a], mapping[b] = mapping[b], mapping[a]
    return Permutation(mapping)


def adjacent_transposition(m: int, i: int) -> Permutation:
    """The adjacent transposition (simple reflection) ``s_i = (i, i+1)`` in ``S_m``."""
    if not 0 <= i < m - 1:
        raise ValueError(f"adjacent transposition index {i} out of range for S_{m}")
    return transposition(m, i, i + 1)


def all_permutations(m: int) -> Iterator[Permutation]:
    """Iterate over every permutation of ``S_m`` in lexicographic order.

    There are ``m!`` of them; callers enumerating beyond ``m ≈ 9`` should use
    sampling (:func:`random_permutation`) instead.
    """
    m = check_nonnegative_int(m, "m")
    for p in itertools.permutations(range(m)):
        yield Permutation(p)


def permutations_by_inversions(m: int) -> dict[int, list[Permutation]]:
    """Group every permutation of ``S_m`` by inversion number.

    Returns a dict mapping ``ℓ -> [permutations with that many inversions]``.
    The sizes of the groups are the Mahonian numbers ``M(m, ℓ)``
    (see :mod:`repro.core.mahonian`).
    """
    from .inversions import _ranked_permutations

    groups: dict[int, list[Permutation]] = {}
    for sigma, ell in _ranked_permutations(m):
        groups.setdefault(ell, []).append(sigma)
    return groups


def random_permutation(m: int, rng: np.random.Generator | int | None = None) -> Permutation:
    """Draw a uniformly random permutation of ``S_m``."""
    m = check_nonnegative_int(m, "m")
    generator = ensure_rng(rng)
    return Permutation(generator.permutation(m))
