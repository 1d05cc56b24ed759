"""No module of ``comprelie`` imports a name it never uses.

An import left behind when its last use moves to another module still
loads and binds the name, and tells a reader that the module depends on
it.  The check reads each module's syntax tree: a name bound by an
``import`` statement, at any depth, must be read somewhere in the module,
in code or in a quoted annotation.  ``__future__`` imports bind nothing
and are skipped.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "comprelie"

# (module, name) -> why the module binds a name it does not read
ALLOWED = {
    # importing the submodule comprelie.prelie binds the package attribute
    # ``prelie`` to the module; the package binds it to the function, so
    # that ``comprelie.prelie(...)`` stays callable
    ("__init__", "prelie"): "the package attribute is the function, not its module",
}


def unused_imports(source: str, module: str) -> list[tuple[str, str, int]]:
    """(module, name, line) of each name an import binds and the module
    never reads, in the order of the imports."""
    tree = ast.parse(source)
    bound: list[tuple[str, int]] = []
    read: set[str] = set()

    def read_annotation(node: ast.AST | None) -> None:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            for sub in ast.walk(ast.parse(node.value, mode="eval")):
                if isinstance(sub, ast.Name):
                    read.add(sub.id)

    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``; ``import a.b as c`` binds ``c``
                bound.append((alias.asname or alias.name.split(".")[0], node.lineno))
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            read_annotation(node.returns)
        elif isinstance(node, ast.arg):
            read_annotation(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            read_annotation(node.annotation)
    return [(module, name, line) for name, line in bound if name not in read]


def test_the_detector_sees_a_hand_written_leftover():
    hand_written = (
        "from __future__ import annotations\n"
        "import itertools\n"
        "import os.path\n"
        "import collections.abc as abc\n"
        "from typing import Iterator, Sequence\n"
        "from .words import _prepend, _Sum, Word as W\n"
        "def f(xs: 'Sequence[int]') -> int:\n"
        "    from math import comb, lcm\n"
        "    acc = _Sum()\n"
        "    return comb(len(xs), 2) + len(os.path.sep)\n"
        "def g(w) -> W:\n"
        "    return w\n"
    )
    assert unused_imports(hand_written, "m") == [
        ("m", "itertools", 2), ("m", "abc", 4), ("m", "Iterator", 5), ("m", "_prepend", 6), ("m", "lcm", 8),
    ]


def test_no_module_imports_a_name_it_never_uses():
    found = [
        (module, name, line)
        for path in sorted(SRC.glob("*.py"))
        for module, name, line in unused_imports(path.read_text(encoding="utf-8"), path.stem)
        if (module, name) not in ALLOWED
    ]
    assert found == []


def test_every_allowed_binding_is_still_unread():
    # an allowance whose name the module now reads is stale: drop it
    unread = {
        (module, name)
        for path in sorted(SRC.glob("*.py"))
        for module, name, _ in unused_imports(path.read_text(encoding="utf-8"), path.stem)
    }
    assert set(ALLOWED) <= unread
