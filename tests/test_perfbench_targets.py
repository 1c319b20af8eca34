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

    with tracer.span("other.call"):
        api.online("three-phase", 320, 1500, 500, length=1500, rate=0.5, checkpoint_dir=tmp_path)
    names = {span.name for span in tracer.spans}
    assert {"online.replay", "engine.lanes", "online.window_profile", "resilience.checkpoint"} <= names
