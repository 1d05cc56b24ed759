"""The pre-Lie product is computed by a loop, not by its recursion.

The paper defines the product on words by ``xw . v = x(w . v) + f(x)(w sh
v)``; ``prelie._prelie_words`` runs the unrolled sum, one pass over the
letters of the left word, so a long word costs no stack frames and the
memo keeps only the pairs asked for.  No function in ``prelie.py`` may
refer to itself: a direct call, or the function handed on (through
``partial``, say) to be called back.
"""

from __future__ import annotations

import ast
from pathlib import Path

PRELIE = Path(__file__).resolve().parent.parent / "src" / "comprelie" / "prelie.py"


def self_references(source: str) -> list[tuple[str, int]]:
    """(function, line) of each place a function names itself inside its
    own body: a module-level or nested function by its name (unless the
    body binds that name to a local), a method as an attribute of
    ``self`` or ``cls``."""
    tree = ast.parse(source)
    methods = {
        id(item)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    found: list[tuple[str, int]] = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = [node for stmt in func.body for node in ast.walk(stmt)]
        local = {n.id for n in body if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        for node in body:
            if id(func) in methods:
                hit = (
                    isinstance(node, ast.Attribute)
                    and node.attr == func.name
                    and isinstance(node.value, ast.Name)
                    and node.value.id in ("self", "cls")
                )
            else:
                hit = isinstance(node, ast.Name) and node.id == func.name
                hit = hit and func.name not in local
            if hit:
                found.append((func.name, node.lineno))
    return found


def test_the_detector_sees_a_recursion():
    hand_written = (
        "from functools import partial\n"
        "def _prelie_words(ctx, u, v):\n"
        "    if len(u) == 0:\n"
        "        return ()\n"
        "    rest = _prelie_words(ctx, u[1:], v)\n"
        "    return rest\n"
        "def through_partial(ctx, pairs):\n"
        "    return _bilinear(partial(through_partial, ctx), pairs)\n"
        "class Engine:\n"
        "    def bullet(self, a, b):\n"
        "        return self.bullet(b, a)\n"
        "class Series:\n"
        "    def bigraded(self):\n"
        "        bigraded = {}\n"
        "        return bigraded\n"
        "def loop(ctx, u, v):\n"
        "    loop = [x for x in u]\n"
        "    return loop\n"
    )
    assert self_references(hand_written) == [
        ("_prelie_words", 5),
        ("through_partial", 8),
        ("bullet", 11),
    ]


def test_no_function_in_prelie_calls_itself():
    assert self_references(PRELIE.read_text(encoding="utf-8")) == []
