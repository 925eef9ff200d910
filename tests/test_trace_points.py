"""The benchmark's span tracer patches sublln functions by name; keep every name it needs.

``perfbench/workloads.py:trace_points()`` lists the ``(owner, attribute)``
pairs that a ``--trace 1`` run wraps.  A refactor that drops one of them (an
import that looks unused, a renamed helper) would break traced runs only,
so it is caught here.  Nothing under ``perfbench/`` is changed.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads.py imports its sibling ``tracer``
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def patched_names(points):
    spans, contexts, counted = points
    return [(owner, attr) for owner, attr, *_ in [*spans, *contexts, *counted]]


def test_every_trace_point_resolves(workloads):
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr in patched_names(workloads.trace_points())
        if not hasattr(owner, attr)
    ]
    assert not missing, f"names traced by perfbench no longer exist: {missing}"


def test_install_then_uninstall_restores_originals(workloads):
    points = workloads.trace_points()
    names = patched_names(points)
    originals = [getattr(owner, attr) for owner, attr in names]
    tracer = workloads.Tracer()
    tracer.install(*points)
    try:
        assert all(getattr(owner, attr) is not fn for (owner, attr), fn in zip(names, originals))
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is fn for (owner, attr), fn in zip(names, originals))
