"""Phase-change detection from successive windowed miss-ratio curves.

Real workloads are piecewise-stationary: long regimes with a stable MRC
separated by abrupt shifts (working-set migration, popularity drift, tenant
churn).  :class:`PhaseChangeDetector` turns a stream of windowed curves (from
:mod:`repro.online.windowed`) into a stream of *regime shift* flags, one
stream per tenant: it keeps each tenant's curve observed at the start of its
current regime as the reference, measures the mean absolute miss-ratio
distance of every new curve against it (what
:func:`repro.profiling.accuracy.compare_curves` measures between two curves
of one length), and declares a phase change only after the distance has
exceeded the threshold for ``hysteresis`` consecutive observations — one
noisy window cannot trigger a re-partition, but a persistent shift is
flagged within ``hysteresis`` epochs.

On a flagged change the detector re-anchors: the current curve becomes the
new reference and the counter resets, so consecutive distinct regimes each
produce exactly one flag.  An epoch's curves arrive as one ``(tenants,
sizes)`` ratio matrix and every distance is one row of one reduction; the
streaks, flags and references are per tenant.  The detector is
deterministic and carries no clock; callers decide how often to feed it
(typically once per epoch).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

__all__ = ["PhaseObservation", "PhaseChangeDetector"]


@dataclass(frozen=True)
class PhaseObservation:
    """Outcome of feeding one matrix of windowed curves to the detector, one entry per row."""

    distance: np.ndarray
    exceeded: np.ndarray
    changed: np.ndarray


class PhaseChangeDetector:
    """Hysteresis-filtered regime-shift detector over the windowed MRCs of ``tenants`` tenants.

    Parameters
    ----------
    tenants:
        Number of tenants, each with its own reference, streak and changes.
    threshold:
        Mean-absolute-error distance (in miss-ratio units) above which a
        window is considered *off-reference*.
    hysteresis:
        Number of consecutive off-reference windows required before a phase
        change is declared.  ``1`` flags on the first excursion.

    Examples
    --------
    >>> import numpy as np
    >>> flat, steep = np.array([[0.5, 0.5]]), np.array([[0.9, 0.8]])
    >>> detector = PhaseChangeDetector(1, threshold=0.1, hysteresis=2)
    >>> detector.observe(flat, [0]).changed.tolist()      # first curve anchors the reference
    [False]
    >>> detector.observe(steep, [0]).changed.tolist()     # 1st excursion: armed, not flagged
    [False]
    >>> detector.observe(steep, [0]).changed.tolist()     # 2nd consecutive excursion: flagged
    [True]
    >>> detector.observe(steep, [0]).changed.tolist()     # re-anchored on the new regime
    [False]
    """

    def __init__(self, tenants: int, *, threshold: float = 0.05, hysteresis: int = 2):
        if float(threshold) <= 0.0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        if int(hysteresis) < 1:
            raise ValueError(f"hysteresis must be >= 1, got {hysteresis}")
        self.threshold = float(threshold)
        self.hysteresis = int(hysteresis)
        #: Row ``t``: tenant ``t``'s reference curve, valid where ``_anchored[t]`` (sized on first use).
        self._references = np.zeros((int(tenants), 0))
        self._anchored = np.zeros(int(tenants), dtype=bool)
        self._streaks = np.zeros(int(tenants), dtype=np.int64)
        self.changes = np.zeros(int(tenants), dtype=np.int64)

    def state_dict(self) -> list[dict]:
        """Picklable per-tenant regime state (for checkpoint/resume); an unanchored tenant's reference is ``None``."""
        return [
            {"reference": reference.copy() if anchored else None, "streak": streak, "changes": changes}
            for reference, anchored, streak, changes in zip(
                self._references, self._anchored.tolist(), self._streaks.tolist(), self.changes.tolist()
            )
        ]

    def load_state_dict(self, state: Sequence[dict]) -> None:
        """Restore state captured by :meth:`state_dict`."""
        references = [tenant["reference"] for tenant in state]
        width = max((len(reference) for reference in references if reference is not None), default=0)
        self._references = np.zeros((len(state), width))
        for t, reference in enumerate(references):
            if reference is not None:
                self._references[t] = reference
        self._anchored = np.array([reference is not None for reference in references], dtype=bool)
        self._streaks = np.array([int(tenant["streak"]) for tenant in state], dtype=np.int64)
        self.changes = np.array([int(tenant["changes"]) for tenant in state], dtype=np.int64)

    def observe(self, ratios: np.ndarray, tenants: Sequence[int]) -> PhaseObservation:
        """Feed tenant ``tenants[i]``'s windowed miss ratios ``ratios[i]`` (one length for all); report each row."""
        ratios = np.asarray(ratios, dtype=np.float64)
        tenants = np.asarray(tenants, dtype=np.int64)
        if self._references.shape[1] != ratios.shape[1]:
            if self._anchored.any():
                raise ValueError(f"curves of {ratios.shape[1]} sizes against references of {self._references.shape[1]}")
            self._references = np.zeros((self._anchored.size, ratios.shape[1]))
        first = ~self._anchored[tenants]
        distance = np.abs(ratios - self._references[tenants]).mean(axis=1)
        distance[first] = 0.0
        exceeded = (distance > self.threshold) & ~first
        streaks = np.where(exceeded, self._streaks[tenants] + 1, 0)
        changed = streaks >= self.hysteresis
        self._streaks[tenants] = np.where(changed, 0, streaks)
        self.changes[tenants] += changed
        anchored = first | changed
        self._references[tenants[anchored]] = ratios[anchored]
        self._anchored[tenants[anchored]] = True
        return PhaseObservation(distance=distance, exceeded=exceeded, changed=changed)
