"""Every product and linear map goes through one bilinear extension.

``words._bilinear`` is the one double loop over (key, coefficient) pairs
around ``_add_into``; every other product, ``shuffle`` included, hands it
a kernel on basis elements.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "comprelie"
ALLOWED = {"_bilinear"}


def _iterates_pairs(loop: ast.For) -> bool:
    """``for k, c in ...``: a loop over the pairs of a combination (not
    over ``enumerate`` or ``zip``, whose items are pairs too)."""
    if not (isinstance(loop.target, ast.Tuple) and len(loop.target.elts) == 2):
        return False
    it = loop.iter
    return not (isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
                and it.func.id in ("enumerate", "zip"))


def _is_add_into(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    return (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == "_add_into"


def double_loops(source: str) -> list[tuple[str, int]]:
    """(function, line) of each ``_add_into`` call inside two nested
    ``for`` statements over pairs."""
    found: list[tuple[str, int]] = []

    def visit(node: ast.AST, func: str, depth: int) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            func, depth = getattr(node, "name", func), 0
        elif _is_add_into(node) and depth >= 2:
            found.append((func, node.lineno))
        if isinstance(node, ast.For) and _iterates_pairs(node):
            depth += 1
        for child in ast.iter_child_nodes(node):
            visit(child, func, depth)

    visit(ast.parse(source), "<module>", 0)
    return found


def test_the_detector_sees_a_hand_written_double_loop():
    hand_written = (
        "def product(a, b):\n"
        "    acc = {}\n"
        "    for u, cu in a.items():\n"
        "        for v, cv in b.items():\n"
        "            _add_into(acc, kernel(u, v), cu * cv)\n"
        "    return acc\n"
    )
    assert double_loops(hand_written) == [("product", 5)]


def test_only_the_extension_loops_around_add_into():
    seen = set()
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for func, line in double_loops(path.read_text(encoding="utf-8")):
            seen.add(func)
            if func not in ALLOWED:
                offenders.append(f"{path.name}:{line} in {func}")
    assert not offenders, "use words._bilinear: " + ", ".join(offenders)
    assert seen == ALLOWED
