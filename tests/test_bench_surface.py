"""The program surface the benchmark in ``perfbench/`` uses.

The benchmark's tracer skips a function it cannot find, so a renamed or moved
function would read 0 in its metrics rather than fail; its worker imports
settings classes by module. Both files are read as text here, not imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text())


def _targets() -> list:
    for node in _tree("tracer.py").body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py has no TARGETS list")


def _worker_imports() -> list:
    return sorted(
        (node.module, alias.name)
        for node in ast.walk(_tree("worker.py"))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("transduct")
        for alias in node.names
    )


def test_the_tracer_has_targets_and_the_worker_imports_its_settings():
    assert len(_targets()) == 20
    assert {("transduct.core", "IngestionSchema"), ("transduct.backends", "BackendConfig"),
            ("transduct.prompt", "SerializationConfig")} <= set(_worker_imports())


@pytest.mark.parametrize("span, module, attr", [t[:3] for t in _targets()])
def test_each_traced_function_is_in_the_program(span, module, attr):
    # the tracer wraps a method only where its class itself defines it
    owner, _, name = attr.rpartition(".")
    found = importlib.import_module(module)
    found = vars(getattr(found, owner)).get(name) if owner else getattr(found, name, None)
    assert callable(found) or isinstance(found, classmethod), f"{span}: {module}.{attr}"


@pytest.mark.parametrize("module, name", _worker_imports())
def test_each_name_the_worker_imports_is_in_the_program(module, name):
    assert hasattr(importlib.import_module(module), name)
