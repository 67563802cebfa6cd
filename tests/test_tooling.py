"""The benchmark's trace hooks still name functions of the package."""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_benchmark_hook_targets_resolve(monkeypatch):
    """Every hook target the traced benchmark patches is a callable module
    attribute; a renamed function fails here instead of dropping its layer
    from a traced run. spans.py is loaded by path and no bytecode is written
    beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    assert len(spans.HOOKS) > 0
    for hook in spans.HOOKS:
        _, _, target = spans._resolve(hook.target)
        assert callable(target), hook.target
