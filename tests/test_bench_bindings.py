"""The library names that the benchmark's tracer binds still exist.

``perfbench/tracing.py`` rebinds every ``(module, name)`` of its ``TRACED``
table, and ``srbosonic.cli.ProcessPoolExecutor``, by name.  A deleted or
renamed one would otherwise show only when the benchmark runs.  The table
is read from the tracer's source, so no benchmark code runs here.
"""

import ast
import importlib
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_names() -> list:
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TRACED" for target in node.targets
        ):
            table = ast.literal_eval(node.value)
            return [(module, name) for module, names in table.items() for name in names]
    raise AssertionError(f"no TRACED table in {TRACING}")


BOUND = traced_names() + [("cli", "ProcessPoolExecutor")]


@pytest.mark.parametrize("module, name", BOUND, ids=[f"{m}.{n}" for m, n in BOUND])
def test_bound_name_resolves(module, name):
    value = getattr(importlib.import_module(f"srbosonic.{module}"), name)
    assert callable(value)
