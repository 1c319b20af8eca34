"""The common job/result protocol shared by every experiment type.

The four public experiment types — profile, sweep, partition, online — each
declare a frozen job dataclass and return a frozen result dataclass.  Before
the engine layer existed those four had drifted apart: every ``__post_init__``
re-implemented its own positive-integer / fraction / choice checks with its
own error wording, and the results disagreed about whether they could render
rows or a summary.  This module pins the contract:

* :class:`ExperimentJob` / :class:`ExperimentResult` are the structural
  protocols the :mod:`repro.api` facade programs against — a job carries
  ``name`` and ``seed``, a result renders ``rows()`` (flat dictionaries for
  tables/CSV) and ``summary()`` (one aggregate scoreboard row).
* the ``check_*`` validators give every job the same failure wording for the
  same mistake, so the CLI and the facade surface one error language.
* :func:`knob` declares a job field once — its default, type, help text and
  choices — and :mod:`repro.api` and :mod:`repro.cli` derive their keywords
  and ``--flags`` from the job's fields instead of restating them.

Validators raise ``ValueError`` with the field name in the message — jobs
stay fail-fast (bad knobs are rejected before any expensive profiling runs).
"""

from __future__ import annotations

from dataclasses import field
from typing import Any, Protocol, runtime_checkable

__all__ = [
    "ALLOC_METHODS",
    "PROFILE_MODES",
    "ExperimentJob",
    "ExperimentResult",
    "check_choice",
    "check_fraction",
    "check_non_negative",
    "check_positive",
    "check_unit",
    "knob",
]

#: Allocation methods understood by every allocating experiment
#: (partition and online replay share one allocator registry).
ALLOC_METHODS: tuple[str, ...] = ("greedy", "dp", "hull")

#: Per-tenant MRC profiling modes (see :mod:`repro.profiling`).
PROFILE_MODES: tuple[str, ...] = ("exact", "shards", "reuse")


@runtime_checkable
class ExperimentJob(Protocol):
    """Structural protocol of one experiment specification.

    Every job is a frozen, picklable dataclass carrying at least a ``name``
    (labels tables and CSV rows).  Jobs with deterministic randomness call
    the knob ``seed`` (interleaving, sampling hashes), never ``rng`` or
    ``random_state``; granularities are ``unit``.  Validation happens in
    ``__post_init__`` via the ``check_*`` helpers of this module, so
    constructing a job with bad knobs fails immediately.
    """

    name: str


@runtime_checkable
class ExperimentResult(Protocol):
    """Structural protocol of one experiment outcome.

    ``rows()`` yields flat dictionaries (one per measured entity: capacity
    point, tenant, epoch) for tables and CSV export; ``summary()`` is the
    one-line aggregate scoreboard.  The :mod:`repro.api` facade's CSV export
    writes ``rows()`` and, for result types with a meaningful aggregate, a
    ``TOTAL`` row derived from ``summary()``.
    """

    def rows(self) -> list[dict]:
        """Flat per-entity dictionaries for tables and CSV export."""
        ...  # pragma: no cover - protocol

    def summary(self) -> dict:
        """One aggregate scoreboard row."""
        ...  # pragma: no cover - protocol


def knob(default: Any, help: str, *, choices: tuple | None = None, flag: str | None = None) -> Any:
    """A job field that is also a CLI flag: its default, help text and choices.

    ``repro profile``, ``online``, ``partition`` and ``sweep`` turn every such
    field into ``--<name-with-dashes>`` (or ``flag``, where given) with the
    field's default and type (see :func:`repro.cli.build_parser`), so a knob
    is declared once, on its job.
    """
    return field(default=default, metadata={"help": help, "choices": choices, "flag": flag})


def check_positive(name: str, value: Any) -> int:
    """Validate an integer knob that must be >= 1; returns the coerced int."""
    value = int(value)
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


def check_non_negative(name: str, value: Any) -> float:
    """Validate a float knob that must be >= 0; returns the coerced float."""
    value = float(value)
    if value < 0.0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def check_fraction(name: str, value: Any) -> float:
    """Validate a float knob that must lie in ``(0, 1]``; returns the float."""
    value = float(value)
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must be in (0, 1], got {value}")
    return value


def check_choice(name: str, value: Any, choices: tuple) -> Any:
    """Validate an enumerated knob against its allowed values."""
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")
    return value


def check_unit(unit: Any, budget: Any) -> int:
    """Validate an allocation granularity against the budget it divides."""
    unit = check_positive("unit", unit)
    if unit > int(budget):
        raise ValueError(f"unit ({unit}) cannot exceed the budget ({int(budget)})")
    return unit
