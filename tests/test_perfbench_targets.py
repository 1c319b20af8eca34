"""The end-to-end benchmark's tracer targets still name functions of the program.

``perfbench/run.py --trace 1`` wraps every ``perfbench.layers.TARGETS`` entry
(``"module:function"`` or ``"module:Class.method"``) to split a run's wall
time across layers.  A rename in ``src/`` would otherwise surface only when
the benchmark runs; installing and uninstalling the targets here fails the
test suite instead.
"""

from __future__ import annotations

import importlib
from pathlib import Path
from unittest import mock

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.layers import TARGETS
    from perfbench.tracer import Tracer

    tracer = Tracer("repro")
    tracer.install(TARGETS)
    try:
        yield tracer
    finally:
        tracer.uninstall()  # raises if any wrapper is still bound


def _bound(path: str):
    """What ``"module:function"`` / ``"module:Class.method"`` is bound to right now."""
    module_name, _, attribute = path.partition(":")
    owner = importlib.import_module(module_name)
    *classes, leaf = attribute.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return vars(owner)[leaf]


def test_targets_install_and_uninstall_on_repro(tracer):
    from perfbench.layers import TARGETS

    unwrapped = [target.path for target in TARGETS if not hasattr(_bound(target.path), "__perfbench_original__")]
    assert not unwrapped, f"tracer targets left unwrapped: {unwrapped}"


def test_traced_online_run_records_its_layers(tracer, tmp_path):
    from repro import api
    from repro.alloc import allocators

    handed = []  # misses handed to the hull, per allocation

    def hull(curves, budget_units):
        handed.append(sum(curve.misses.size for curve in curves))
        return allocators.hull_allocate(curves, budget_units)  # the traced function

    with tracer.span("other.call"), mock.patch.dict(allocators._ALLOCATORS, hull=hull):
        api.online("three-phase", 320, 1500, 500, length=1500, rate=0.5, checkpoint_dir=tmp_path)
    names = {span.name for span in tracer.spans}
    assert {"online.replay", "engine.lanes", "online.window_profile", "resilience.checkpoint"} <= names
    assert {"online.detector", "alloc.hull"} <= names
    # One hull call per allocation, over every tenant's misses: the counts behind
    # alloc.hull_points_in and alloc.hull_vertex_ratio.
    hulls = [span.counts for span in tracer.spans if span.name == "alloc.hull" and "points" in span.counts]
    assert handed and [counts["points"] for counts in hulls] == handed
    assert all(0 < counts["vertices"] <= counts["points"] for counts in hulls)
