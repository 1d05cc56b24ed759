"""Exact linear algebra: the growing span basis against a reference with
Fraction rows, and solving for coordinates by reducing through it."""

from __future__ import annotations

import ast
import random
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Hashable, Iterable, Mapping, Sequence

from comprelie.exactla import SpanBasis, rank_of
from comprelie.words import Rat, _add_into, _Sum, word


def _div(a: Rat, b: Rat) -> Rat:
    # keep integers integral when the division is exact
    if isinstance(a, int) and isinstance(b, int):
        return a // b if a % b == 0 else Fraction(a, b)
    return a / b


class FractionSpanBasis:
    """The reference basis: rows kept fully reduced with rational entries,
    each pivot key in no other row and every pivot coefficient 1."""

    def __init__(self, vectors: Iterable[Mapping[Hashable, Rat]] = ()):
        self.rows: dict[Hashable, dict[Hashable, Rat]] = {}
        for v in vectors:
            self.add(v)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Mapping[Hashable, Rat]) -> dict[Hashable, Rat]:
        acc = _Sum(vec.items())
        # in reduced form a row holds no other pivot key, so a subtraction
        # neither changes nor reintroduces one: each pivot of the vector
        # is cleared by its own coefficient, in one pass
        for k, c in vec.items():
            if c and k in self.rows:
                _add_into(acc, self.rows[k].items(), -c)
        return acc.result()

    def contains(self, vec: Mapping[Hashable, Rat]) -> bool:
        return not self.reduce(vec)

    def add(self, vec: Mapping[Hashable, Rat]) -> bool:
        red = self.reduce(vec)
        if not red:
            return False
        pivot = min(red)
        inv = red[pivot]
        row = {k: _div(v, inv) for k, v in red.items()}
        for k, other in self.rows.items():
            c = other.get(pivot)
            if c:
                acc = _Sum(other.items())
                _add_into(acc, row.items(), -c)
                self.rows[k] = acc.result()
        self.rows[pivot] = row
        return True


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


KEY_FAMILIES = {
    "str": list("abcdef"),
    "Word": [word(w) for w in ("", "a", "b", "ab", "ba", "bb")],
    # express_in's keys: (0, basis key) before every marker (1, i)
    "marker": [(0, "a"), (0, "b"), (0, "c"), (1, 0), (1, 1), (1, 2)],
}
VALUES = (1, -1, 2, -3, 5, 0, Fraction(1, 2), Fraction(-2, 3), Fraction(4, 2), Fraction(-9, 3),
          Fraction(5, 7))


def random_vector(rng: random.Random, keys: list, earlier: list[dict]) -> dict:
    """A sparse rational vector, or now and then an empty one or a
    combination of two earlier vectors (so that some are dependent)."""
    roll = rng.random()
    if roll < 0.05:
        return {}
    if roll < 0.3 and len(earlier) >= 2:
        a, b = rng.sample(earlier, 2)
        ca, cb = rng.choice(VALUES), rng.choice(VALUES)
        acc = _Sum()
        _add_into(acc, a.items(), ca)
        _add_into(acc, b.items(), cb)
        return acc.result()
    return {k: rng.choice(VALUES) for k in rng.sample(keys, rng.randint(1, 4))}


def test_span_basis_matches_the_fraction_reference():
    rng = random.Random("span basis")
    vectors = 0
    for trial in range(36):
        family = ("str", "Word", "marker")[trial % 3]
        keys = KEY_FAMILIES[family]
        span, ref, seen = SpanBasis(), FractionSpanBasis(), []
        for _ in range(rng.randint(8, 24)):
            v = random_vector(rng, keys, seen)
            seen.append(v)
            vectors += 1
            assert span.add(v) == ref.add(v), (family, v)
            assert span.rank == ref.rank and set(span.rows) == set(ref.rows), (family, v)
            for probe in (v, random_vector(rng, keys, seen), {keys[0]: Fraction(-3, 1)}):
                got, want = span.reduce(probe), ref.reduce(probe)
                assert got == want, (family, probe)
                assert {k: type(c) for k, c in got.items()} == {k: type(c) for k, c in want.items()}
                assert all(type(c) is int for c in got.values() if c.denominator == 1)
                assert span.contains(probe) == ref.contains(probe) == (not want)
            # the rows are primitive integer vectors led by a positive pivot
            for pivot, row in span.rows.items():
                assert min(row) == pivot and row[pivot] > 0 and gcd(*row.values()) == 1
                assert all(type(c) is int for c in row.values())
    assert vectors >= 500


# one elimination: only SpanBasis divides, once, where reduce turns its
# integer residue into rationals; every other solver reduces through a
# SpanBasis
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


def test_only_span_basis_reduce_divides():
    assert div_callers(SRC.read_text(encoding="utf-8")) == ["SpanBasis.reduce"]
