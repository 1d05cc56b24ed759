"""Exact linear algebra: the growing span basis, and solving for
coordinates by reducing through it."""

from __future__ import annotations

import ast
from fractions import Fraction
from pathlib import Path
from typing import Hashable, Mapping, Sequence

from comprelie.exactla import SpanBasis, rank_of
from comprelie.words import Rat


def express_in(
    vectors: Sequence[Mapping[Hashable, Rat]], target: Mapping[Hashable, Rat]
) -> list[Rat] | None:
    """Coefficients c with ``sum c_i * vectors[i] == target``, else None.

    When the vectors are dependent one valid solution is returned.
    """
    # each vector carries a marker key (1, i) after its keys (0, k); a
    # marker sorts after every basis key, so it becomes a pivot only once
    # no basis key is left, and the target's residue holds -c_i at (1, i)
    span = SpanBasis(
        {**{(0, k): c for k, c in v.items()}, (1, i): 1} for i, v in enumerate(vectors)
    )
    residue = span.reduce({(0, k): c for k, c in target.items()})
    if any(k[0] == 0 for k in residue):
        return None
    return [-residue.get((1, i), 0) for i in range(len(vectors))]


def combine(coeffs, vectors) -> dict:
    out: dict = {}
    for c, v in zip(coeffs, vectors):
        for k, x in v.items():
            out[k] = out.get(k, 0) + c * x
    return {k: x for k, x in out.items() if x}


def test_express_in_independent_vectors():
    vectors = [{"a": 1, "b": 1}, {"b": 2}, {"c": Fraction(1, 3)}]
    target = {"a": 2, "b": 4, "c": 1}
    assert express_in(vectors, target) == [2, 1, 3]


def test_express_in_dependent_vectors_recombine_to_the_target():
    vectors = [{"a": 1, "b": 1}, {"a": 2, "b": 2}, {"b": 1}, {"a": 1}]
    target = {"a": 3, "b": -1}
    coeffs = express_in(vectors, target)
    assert coeffs is not None and len(coeffs) == len(vectors)
    assert combine(coeffs, vectors) == target


def test_express_in_out_of_span_target():
    assert express_in([{"a": 1, "b": 1}, {"b": 1, "c": 1}], {"a": 1, "c": 1}) is None
    assert express_in([{"a": 1}], {"b": 1}) is None


def test_express_in_empty_inputs():
    assert express_in([], {}) == []
    assert express_in([], {"a": 1}) is None
    assert express_in([{"a": 1}, {"b": 2}], {}) == [0, 0]
    assert express_in([{"a": 1}], {"a": 0}) == [0]


def test_express_in_integral_solution_types():
    # integral pivots keep the solution integral; a fractional pivot makes
    # an exact Fraction
    coeffs = express_in([{"a": 1, "b": 3}, {"b": 1}], {"a": 2, "b": 7})
    assert coeffs == [2, 1] and all(type(c) is int for c in coeffs)
    coeffs = express_in([{"a": 2}], {"a": 3})
    assert coeffs == [Fraction(3, 2)] and type(coeffs[0]) is Fraction


def test_span_basis_rank_contains_reduce():
    span = SpanBasis()
    assert span.rank == 0 and span.contains({})
    assert span.add({"a": 2, "b": 2})
    assert span.add({"b": 1, "c": 1})
    assert not span.add({"a": 1, "c": -1})  # (a + b) - (b + c)
    assert span.rank == 2 == rank_of([{"a": 2, "b": 2}, {"b": 1, "c": 1}, {"a": 1, "c": -1}])
    assert span.contains({"a": 3, "b": 1, "c": -2})
    assert not span.contains({"c": 1})
    # the residue keeps no pivot key and differs from the input by the span
    residue = span.reduce({"a": 1, "c": 5, "d": 1})
    assert not set(residue) & set(span.rows)
    assert span.contains(combine([1, -1], [{"a": 1, "c": 5, "d": 1}, residue]))
    assert span.reduce({"a": 1, "b": 1}) == {}


# one elimination: only SpanBasis.add divides by a pivot; every other
# solver reduces through a SpanBasis
SRC = Path(__file__).resolve().parent.parent / "src" / "comprelie" / "exactla.py"


def div_callers(source: str) -> list[str]:
    """The enclosing ``Class.function`` (or function) of each ``_div`` call."""
    found: list[str] = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_div":
            found.append(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_the_detector_sees_a_division_outside_the_basis():
    hand_written = (
        "class SpanBasis:\n"
        "    def add(self, v):\n"
        "        return _div(1, 2)\n"
        "def solve(rows):\n"
        "    return [_div(c, 2) for c in rows]\n"
    )
    assert div_callers(hand_written) == ["SpanBasis.add", "solve"]


def test_only_span_basis_add_divides():
    assert set(div_callers(SRC.read_text(encoding="utf-8"))) == {"SpanBasis.add"}
