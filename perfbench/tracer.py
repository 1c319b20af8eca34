"""An in-memory span tracer that times a program's functions from outside it.

:class:`Tracer` replaces named functions and methods of the imported program
with timing wrappers, records one :class:`Span` per call (name, start, end,
parent span, run id, counts) and puts every original back on
:meth:`Tracer.uninstall`.  Span names are ``<layer>.<part>``.

A span's *self time* is its duration minus the durations of its child
spans, so the self times of one run add up to its root span's duration.
:func:`self_seconds` does that arithmetic with one extension: a span may
credit part of its self time to other span names (``Span.remote``), which is
how a process pool's wait is charged to the work its workers did.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

#: Attribute that marks a tracing wrapper; it holds the wrapped function.
_ORIGINAL = "__perfbench_original__"


@dataclass
class Span:
    """One traced call."""

    name: str
    start: float = 0.0
    end: float = 0.0
    parent: int = -1
    run: int = 0
    counts: dict[str, float] = field(default_factory=dict)
    #: Seconds of this span's self time that worker processes spent on the
    #: work of other span names (see :func:`self_seconds`).
    remote: dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        """Wall-clock duration."""
        return self.end - self.start


#: Called after a traced call returns, to record counts on its span:
#: ``hook(span, args, kwargs, result)``.
CountHook = Callable[[Span, tuple, dict, object], None]


@dataclass(frozen=True)
class Target:
    """A function (``"module:function"``) or method (``"module:Class.method"``) to trace."""

    path: str
    span: str
    count: CountHook | None = None


class Tracer:
    """Records the spans of wrapped calls in memory (see the module docstring)."""

    def __init__(self, package: str):
        self.package = package
        self.spans: list[Span] = []
        #: Run id stamped on new spans; the caller bumps it per timed call.
        self.run = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Record the enclosed block as one span, a child of the innermost open span."""
        index = len(self.spans)
        span = Span(name, parent=self._stack[-1] if self._stack else -1, run=self.run)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, function: Callable, target: Target) -> Callable:
        """A wrapper that records every call of ``function`` as a ``target.span`` span."""

        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(target.span) as span:
                result = function(*args, **kwargs)
            if target.count is not None:
                target.count(span, args, kwargs, result)
            return result

        setattr(traced, _ORIGINAL, function)
        return traced

    def install(self, targets: Iterable[Target]) -> None:
        """Wrap every target wherever the program binds it.

        All target modules are imported before anything is patched, so no
        module binds a wrapper by importing it mid-install.
        """
        resolved = []
        for target in targets:
            module_name, _, attribute = target.path.partition(":")
            owner: object = importlib.import_module(module_name)
            *classes, leaf = attribute.split(".")
            for name in classes:
                owner = getattr(owner, name)
            resolved.append((target, owner, leaf, bool(classes)))
        for target, owner, leaf, is_method in resolved:
            original = vars(owner)[leaf]
            wrapped = self.wrap(original, target)
            if is_method:
                self._patch(owner, leaf, wrapped)
                continue
            # A function is also bound wherever it was imported by name and in
            # module-level tables such as an allocator registry.
            for container, key, value in list(_bindings(self.package)):
                if value is original:
                    self._patch(container, key, wrapped)

    def uninstall(self) -> None:
        """Put every original back; raises if a wrapper is still bound anywhere."""
        while self._patches:
            container, key, original = self._patches.pop()
            _set(container, key, original)
        stale = [
            f"{getattr(container, '__name__', type(container).__name__)}.{key}"
            for container, key, value in _bindings(self.package)
            if isinstance(value, types.FunctionType) and _ORIGINAL in value.__dict__
        ]
        if stale:
            raise RuntimeError(f"tracing wrappers still bound after uninstall: {stale}")

    def dump(self, path: Path) -> Path:
        """Write every recorded span as JSON (once, when the benchmark ends)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": [asdict(span) for span in self.spans]}) + "\n", encoding="utf-8")
        return path

    def _patch(self, container: object, key: str, value: object) -> None:
        current = container[key] if isinstance(container, dict) else vars(container)[key]
        self._patches.append((container, key, current))
        _set(container, key, value)


def _set(container: object, key: str, value: object) -> None:
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


def _bindings(package: str) -> Iterator[tuple[object, str, object]]:
    """``(container, key, value)`` of every module attribute of ``package``, every
    attribute of the classes it defines, and every entry of its module-level dicts."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == package or module_name.startswith(package + ".")):
            continue
        for key, value in list(vars(module).items()):
            yield module, key, value
            if type(value) is dict:
                for item_key, item in list(value.items()):
                    yield value, item_key, item
            elif isinstance(value, type) and value.__module__ == module_name:
                for attribute, member in list(vars(value).items()):
                    yield value, attribute, member


def self_seconds(spans: list[Span], run: int | None = None) -> dict[str, float]:
    """Self seconds per span name, over one run (or all runs).

    A span's self time is its duration minus the durations of its children.
    The part of it that a span credits to other names in ``remote`` moves to
    those names, scaled down when the credits exceed the self time.
    """
    own = [span.seconds for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.seconds
    totals: dict[str, float] = defaultdict(float)
    for span, seconds in zip(spans, own):
        if run is not None and span.run != run:
            continue
        claimed = sum(span.remote.values())
        share = min(1.0, max(seconds, 0.0) / claimed) if claimed > 0.0 else 0.0
        for name, remote in span.remote.items():
            totals[name] += remote * share
        totals[span.name] += seconds - claimed * share
    return dict(totals)


def layer_seconds(totals: dict[str, float]) -> dict[str, float]:
    """Self seconds summed by layer, the span-name prefix."""
    layers: dict[str, float] = defaultdict(float)
    for name, seconds in totals.items():
        layers[name.split(".", 1)[0]] += seconds
    return dict(layers)


def outer_counts(spans: list[Span], run: int | None = None) -> dict[str, float]:
    """Counts summed as ``"<span name>:<count>"``.

    A count that an enclosing span of the same name also carries is skipped,
    so a kernel entered through another entry point of the same kernel
    counts its references once.
    """
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        if run is not None and span.run != run:
            continue
        parent = spans[span.parent] if span.parent >= 0 else None
        for key, value in span.counts.items():
            if parent is not None and parent.name == span.name and key in parent.counts:
                continue
            totals[f"{span.name}:{key}"] += value
    return dict(totals)
