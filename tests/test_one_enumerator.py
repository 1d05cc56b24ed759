"""Every choice of positions goes through one enumerator.

``words._interleavings`` is the one place that picks position subsets with
``itertools.combinations``; the shuffle, the closed pre-Lie product and
(through ``enveloping._splittings``) the cobracket's deshuffle read it or
its dual instead of keeping a subset loop of their own.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "comprelie"


def combinations_calls(source: str) -> list[tuple[str, int]]:
    """(function, line) of each call of ``itertools.combinations``,
    however it was imported."""
    found: list[tuple[str, int]] = []

    def visit(node: ast.AST, func: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name == "combinations":
                found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), "<module>")
    return found


def test_the_detector_sees_a_subset_loop():
    hand_written = (
        "import itertools\n"
        "def subsets(n):\n"
        "    for k in range(n):\n"
        "        yield from itertools.combinations(range(n), k)\n"
    )
    assert combinations_calls(hand_written) == [("subsets", 4)]


def test_only_the_interleavings_choose_positions():
    seen = [
        (path.name, func)
        for path in sorted(SRC.glob("*.py"))
        for func, _ in combinations_calls(path.read_text(encoding="utf-8"))
    ]
    assert seen == [("words.py", "_interleavings")]
