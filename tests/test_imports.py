"""Every name a qitekit module imports is used in that module, and every
function the benchmark's trace wraps still exists under its name."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qitekit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _used(tree):
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:  # quoted annotations such as -> "StateVector"
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                yield from _used(ast.parse(node.value, mode="eval"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(), str(path))
    unused = sorted(set(_imported(tree)) - set(_used(tree)))
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_benchmark_trace_names_resolve():
    # the benchmark's trace wraps these functions by name, so a rename would
    # otherwise fail only in a traced benchmark run
    path = PACKAGE.parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"qitekit.{module}.{fn}"
        for module, fns in tracing.WRAPPED.items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"qitekit.{module}"), fn, None))
    ]
    assert tracing.WRAPPED and not missing, f"no longer resolve: {missing}"


def test_only_the_cli_takes_max_qubits():
    # the CLI checks --max-qubits once, when it validates a config; no
    # library function carries a width ceiling of its own
    offenders = [
        f"{path.name}:{node.name}"
        for path in MODULES
        if path.name != "cli.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and "max_qubits" in {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
    ]
    assert not offenders, f"take a max_qubits parameter: {offenders}"
