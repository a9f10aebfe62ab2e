"""The benchmark's tracer wraps module attributes by name.

A refactor that drops or renames one of them fails only when a traced
benchmark run starts, so the resolution is checked here.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_attribute_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for target in spans.FULL:
        owner, attr = spans._resolve(target)
        assert callable(getattr(owner, attr)), target
