"""The benchmark's tracer patches package attributes by name; a rename of one
of them must fail here rather than crash the traced benchmark run."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_target_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in tracing.TARGETS
        if not hasattr(importlib.import_module(module), attr)
    ]
    missing += [
        f"{module}.ThreadPoolExecutor"
        for module in tracing.POOL_OWNERS
        if not hasattr(importlib.import_module(module), "ThreadPoolExecutor")
    ]
    assert missing == []
