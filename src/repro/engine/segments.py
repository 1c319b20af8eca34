"""Segment and epoch boundary arithmetic of the epoched replay.

The online replay pauses its event loop at a merged epoch/phase stop
schedule and labels each epoch with a phase.  The helpers here are that
arithmetic, written once:

* :func:`replay_stops` — the merged stop schedule of an epoched replay over
  a phased workload: every epoch end plus every interior phase boundary.
* :func:`phase_of_event` / :func:`phase_of_last_event` — phase labeling.

The *boundary epoch* pitfall (regression-tested in
``tests/engine/test_segments.py``): when an epoch ends exactly on a phase
boundary, the replay's running phase cursor has already advanced to the new
regime even though every event recorded in the epoch belongs to the old one.
:func:`phase_of_last_event` therefore labels an epoch ``[start, end)`` by
the phase of event ``end - 1``, never by the cursor.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = [
    "phase_of_event",
    "phase_of_last_event",
    "replay_stops",
]


def replay_stops(n: int, epoch: int, boundaries: Sequence[int] = ()) -> tuple[list[int], frozenset[int]]:
    """The merged stop schedule of an epoched replay over a phased workload.

    Returns ``(stops, epoch_ends)``: ``stops`` is every position the event
    loop must pause at, sorted ascending — each multiple of ``epoch`` (plus
    the final partial epoch at ``n``), merged with every *interior* phase
    boundary (oracle lanes resize there) — and ``epoch_ends`` is the subset
    where an epoch closes (profiles refresh, controllers are consulted).
    ``boundaries`` follows the :class:`repro.trace.drift.DriftingWorkload`
    convention: ``boundaries[p]`` is phase ``p``'s first event, with
    ``boundaries[0] == 0`` (ignored here — nothing stops before event 0).
    """
    n = int(n)
    epoch = int(epoch)
    if n < 1:
        raise ValueError(f"need at least one event, got {n}")
    if epoch < 1:
        raise ValueError(f"epoch must be >= 1, got {epoch}")
    epoch_ends = frozenset(range(epoch, n, epoch)) | {n}
    stops = sorted(epoch_ends | {int(b) for b in boundaries if 0 < int(b) < n})
    return stops, epoch_ends


def phase_of_event(boundaries: Sequence[int], position: int) -> int:
    """Index of the phase containing event ``position``.

    ``boundaries[p]`` is phase ``p``'s first event; a position at a boundary
    therefore belongs to the *new* phase.
    """
    return int(np.searchsorted(np.asarray(boundaries), int(position), side="right")) - 1


def phase_of_last_event(boundaries: Sequence[int], end: int) -> int:
    """Phase label of a half-open epoch ``[start, end)``: the last event's phase.

    An epoch that ends exactly on a phase boundary is attributed to the
    regime it *measured* — every one of its events precedes the boundary —
    not to the regime the replay's phase cursor has already advanced into.
    """
    return phase_of_event(boundaries, int(end) - 1)
