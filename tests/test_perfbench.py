"""The benchmark's tracer still finds every library function it binds to.

A binding whose function was renamed or deleted lands in ``Tracer.absent``,
and its span silently disappears from traced runs.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    """Load ``perfbench/tracing.py`` by path, writing no bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves(monkeypatch):
    tracing = load_tracing(monkeypatch)
    assert tracing.BINDINGS
    missing = [
        (layer, module, path)
        for layer, module, path in tracing.BINDINGS
        if tracing._resolve(module, path) is None
    ]
    assert missing == []
    assert tracing._resolve("statefuse.fusion", "no_such_function") is None
