"""Every module-level function, class and constant of ``src/nsjack`` serves a
command, a certificate or a benchmark workload: code elsewhere in
``src/nsjack`` (not the package ``__init__``) or in ``perfbench/`` reads it.
A definition that only tests read belongs in ``tests/oracles.py``.  The same
holds for every method and property of a library class: library code outside
the member's own body, or a ``perfbench/`` file, reads it as an attribute."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bound_names(node) -> set[str]:
    """Names a module-level definition or assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    targets = node.targets if isinstance(node, ast.Assign) else []
    if isinstance(node, ast.AnnAssign):
        targets = [node.target]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def read_names(tree) -> set[str]:
    """Every name loaded and every attribute read in ``tree``."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def read_attributes(tree) -> Counter:
    """How often ``tree`` reads each attribute name."""
    return Counter(
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    )


def test_every_library_definition_has_a_reader():
    definitions, read = [], set()
    for path in sorted((ROOT / "src" / "nsjack").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            names = bound_names(node)
            definitions += [f"{path.stem}.{name}" for name in sorted(names)]
            read |= read_names(node) - names  # its own body is not a reader
    for path in (ROOT / "perfbench").glob("*.py"):
        read |= read_names(ast.parse(path.read_text()))
    unread = [name for name in definitions if name.split(".")[1] not in read]
    assert definitions and unread == [], "read by nothing: " + ", ".join(unread)


def test_every_library_member_has_a_reader():
    members, read = [], Counter()
    for path in sorted((ROOT / "src" / "nsjack").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read += read_attributes(tree)
        members += [
            (f"{path.stem}.{cls.name}.{node.name}", node)
            for cls in tree.body
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))
        ]
    for path in (ROOT / "perfbench").glob("*.py"):
        read += read_attributes(ast.parse(path.read_text()))
    # its own body is not a reader
    unread = [
        name
        for name, node in members
        if read[node.name] == read_attributes(node)[node.name]
    ]
    assert members and unread == [], "read by nothing: " + ", ".join(unread)
