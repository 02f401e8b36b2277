"""Count the lines of ``src/elicit``: in total, and code only.

Code-only lines exclude blank lines, lines that hold only a ``#``
comment, and the lines of module, class and function docstrings.  The
count uses the standard library alone and prints one JSON line:

    python tools/src_lines.py
    {"files": <modules>, "total": <lines>, "code": <code-only lines>}
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "elicit"


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers covered by module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(total, code-only) lines of one source file."""
    text = path.read_text()
    lines = text.splitlines()
    skip = docstring_lines(ast.parse(text))
    code = sum(
        1
        for number, line in enumerate(lines, start=1)
        if number not in skip
        and line.strip()
        and not line.strip().startswith("#")
    )
    return len(lines), code


def main() -> dict:
    files = sorted(SRC.rglob("*.py"))
    counts = [count(path) for path in files]
    return {
        "files": len(files),
        "total": sum(total for total, _ in counts),
        "code": sum(code for _, code in counts),
    }


if __name__ == "__main__":
    print(json.dumps(main()))
