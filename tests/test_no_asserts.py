"""The library's checks are raises, so they still run under ``python -O``:
no module under ``src/nsjack`` may contain an ``assert`` statement."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "nsjack"


def test_no_assert_statements_in_the_library():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(SRC.parent)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], "assert statements: " + ", ".join(found)
