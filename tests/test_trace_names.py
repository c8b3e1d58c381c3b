"""The names the benchmark's tracer wraps exist in the library.

``benchmark/trace.py`` looks up each ``(module, name)`` pair of its
``IMPORTED`` tuple in ``stochorder.<module>``, and the two theorem
verifiers in ``harness`` and ``cli``. The tuple is read from the source
with ``ast``; no benchmark module is imported.
"""

import ast
import importlib
from pathlib import Path

TRACE = Path(__file__).resolve().parent.parent / "benchmark" / "trace.py"


def _imported() -> tuple:
    for node in ast.parse(TRACE.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "IMPORTED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no IMPORTED in {TRACE}")


def test_every_traced_name_resolves():
    pairs = _imported()
    assert pairs and all(len(p) == 2 for p in pairs)
    missing = [
        f"{module}.{name}" for module, name in pairs
        if not callable(getattr(importlib.import_module(f"stochorder.{module}"), name, None))
    ]
    assert missing == []


def test_verifiers_held_by_harness_and_cli():
    for owner in ("harness", "cli"):
        module = importlib.import_module(f"stochorder.{owner}")
        for name in ("verify_iid_theorem", "verify_noniid_theorem"):
            assert callable(getattr(module, name, None)), f"{owner}.{name}"
