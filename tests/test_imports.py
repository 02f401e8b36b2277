"""Every name a module of the package imports is used in that module.

The package ``__init__`` only re-exports, so it is skipped.  One binding
is kept on purpose: ``elicit.suites`` binds ``coalition_totals`` without
calling it, because the benchmark's self-tests (``bench/test_bench.py``)
check that tracing wraps that binding.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "elicit"
KEPT = {("suites", "coalition_totals")}
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
            yield node.returns
            yield from (p.annotation for p in params if p is not None)
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names(tree: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` and never read there."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = _names(tree)
    # Quoted annotations such as -> "Distribution" name types too.
    for annotation in _annotations(tree):
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _names(ast.parse(node.value, mode="eval"))
    return sorted(imported - used)


def test_detects_an_unused_import():
    source = "from a import b, c\nimport d.e\n\ndef f(x: 'c') -> None:\n    pass\n"
    assert unused_imports(source) == ["b", "d"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    unused = unused_imports((PACKAGE / f"{module}.py").read_text())
    assert [n for n in unused if (module, n) not in KEPT] == []
