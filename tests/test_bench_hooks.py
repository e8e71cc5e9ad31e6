"""The benchmark's traced run wraps functions by name; a rename must fail here."""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_function_resolves_where_it_is_patched(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    points = spans._patch_points()
    assert points
    for owner, attr, name, _ in points:
        assert callable(vars(owner).get(attr)), f"{name}: {owner.__name__}.{attr} is gone"
