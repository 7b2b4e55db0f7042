"""The benchmark harness wraps package functions by name; a rename must
fail here rather than in a traced benchmark run.  perfbench/run.py is
parsed, never imported."""

import ast
import importlib
from pathlib import Path

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def _assigned(name: str) -> ast.expr:
    for node in ast.parse(RUN_PY.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node.value
    raise AssertionError(f"{name} not assigned in {RUN_PY}")


def test_benchmark_modules_import():
    modules = ast.literal_eval(_assigned("MODULES"))
    assert "coloring" in modules
    for module in modules:
        importlib.import_module(f"liftchroma.{module}")


def test_layer_spans_resolve():
    spans = _assigned("LAYER_SPANS").elts
    assert len(spans) >= 20
    for span in spans:
        module, function = (ast.literal_eval(e) for e in span.elts[:2])
        assert callable(getattr(importlib.import_module(f"liftchroma.{module}"), function))


def test_matching_counts_keep_their_caches():
    moments_exact = importlib.import_module("liftchroma.moments_exact")
    for name in ("proper_matching_count", "proper_pair_matching_count"):
        fn = getattr(moments_exact, name)
        assert callable(fn.cache_info) and callable(fn.cache_clear)
