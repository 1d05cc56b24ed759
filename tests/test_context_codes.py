"""Keys made once per context: the letter coding of a ``ComPreLieContext``
and the memos that hold its codes, behind ``span_dimension_of_products``
and ``prelie_closed``, and the engine memo that holds monomials, behind
``extend_bullet``, ``star``, ``closed_action`` and ``forest_star``.

Each result is checked against a route that keeps nothing between calls,
on warm and on cold contexts; a result handed out shares nothing that a
later call reads; the letter table is never started afresh without
every memo of codes, the product memo among them; and no module but the
context and the composition makes a letter table.
"""

from __future__ import annotations

import ast
import importlib
import itertools
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from comprelie.endo import Endo, fliess_channel
from comprelie.enveloping import SymMonomial, closed_action, extend_bullet, star
from comprelie.exactla import SpanBasis
from comprelie.forests import Forest, forest_star
from comprelie.prelie import ComPreLieContext, lie_bracket, prelie, prelie_closed, span_dimension_of_products
from comprelie.trees import parse_tree
from comprelie.words import Letter, Tensor, Word, parse_tensor, parse_word, shuffle

W, T = parse_word, parse_tensor
FULL3 = Endo.matrix(list("abc"), [[1, 2, -1], [Fraction(1, 2), 0, 3], [-2, 1, Fraction(1, 3)]])
UPPER3 = Endo.matrix(list("abc"), [[0, 1, Fraction(1, 2)], [0, 0, Fraction(-2, 3)], [0, 0, 0]])
MAPS = {"FULL3": FULL3, "UPPER3": UPPER3, "fliess(2,1)": fliess_channel(2, 1),
        "shift": Endo.biletter_shift()}
PRELIE = importlib.import_module("comprelie.prelie")  # the module, not its function
CODED = ("_words", "_products", "_shuffles")  # the memos that hold the context's codes


def letters_of(f: Endo) -> tuple[Letter, ...]:
    """The alphabet, or three letters under the biletter shift, which has none."""
    return f.alphabet or (Letter("d", 0), Letter("d", 1), Letter("e", 0))


def reference_span(f: Endo, generators: list[Tensor], degree: int, ops: tuple) -> int:
    """The generated span filled degree by degree on tensors of words, in a
    context of its own: every product of two basis vectors, in both orders."""
    ctx = ComPreLieContext(f)
    kernels = {"prelie": lambda a, b: prelie(ctx, a, b), "shuffle": shuffle}
    basis: dict[int, list[Tensor]] = {}
    for d in range(1, degree + 1):
        span = SpanBasis(g.graded_part(d).terms for g in generators)
        for e in range(1, d):
            for a, b in itertools.product(basis[e], basis[d - e]):
                for op in ops:
                    span.add(kernels[op](a, b).terms)
        basis[d] = [Tensor(row) for row in span.rows.values()]
    return span.rank


def random_generators(rng: random.Random, letters: tuple) -> list[Tensor]:
    values = (1, -1, 2, Fraction(1, 2), Fraction(-2, 3))
    return [
        Tensor({Word(tuple(rng.choice(letters) for _ in range(rng.choice((1, 1, 2, 3))))):
                rng.choice(values) for _ in range(rng.randint(1, 2))})
        for _ in range(rng.randint(1, 2))
    ]


@pytest.mark.parametrize("name", MAPS)
def test_the_span_matches_a_reference_that_makes_both_orders(name):
    f = MAPS[name]
    letters = letters_of(f)
    rng = random.Random(f"both orders {name}")
    x, y = letters[:2]
    # one letter: only the shuffles of a vector with itself fill the degrees
    cases = [([Tensor.of(Word((x,)))], 3, ("shuffle",)),
             ([Tensor.of(Word((x,))), Tensor.of(Word((y,)))], 3, ("shuffle",))]
    cases += [(random_generators(rng, letters), rng.choice((2, 3, 3, 4)), ops)
              for ops in (("shuffle",), ("prelie",), ("prelie", "shuffle")) for _ in range(4)]
    warm = ComPreLieContext(f)
    for gens, degree, ops in cases:
        expected = reference_span(f, gens, degree, ops)
        assert span_dimension_of_products(warm, gens, degree, ops) == expected, (gens, degree, ops)
        cold = ComPreLieContext(f)
        assert span_dimension_of_products(cold, gens, degree, ops) == expected, (gens, degree, ops)


def words_up_to(letters: tuple, n: int) -> list[Word]:
    return [Word(t) for k in range(n + 1) for t in itertools.product(letters, repeat=k)]


@pytest.mark.parametrize("name", MAPS)
def test_the_closed_form_is_the_product_on_every_short_pair(name):
    # every pair of total length <= 5, the calls dealt over two contexts
    # and interleaved with spans, which code and fill the same memos
    f = MAPS[name]
    letters = letters_of(f)
    words = words_up_to(letters, 5)
    contexts = (ComPreLieContext(f), ComPreLieContext(f))
    gens = [Tensor.of(Word(letters[:2])), Tensor({Word((letters[2],)): 1, Word(letters[1:2]): -2})]
    expected_span = reference_span(f, gens, 3, ("prelie", "shuffle"))
    pairs = [(u, v) for u, v in itertools.product(words, repeat=2) if len(u) + len(v) <= 5]
    assert len(pairs) == 2005
    for k, (u, v) in enumerate(pairs):
        ctx = contexts[k % 2]
        assert prelie_closed(ctx, u, v) == prelie(contexts[k % 3 % 2], u, v), (u, v)
        if k % 250 == 0:
            assert span_dimension_of_products(ctx, gens, 3) == expected_span


@pytest.mark.parametrize("f, left, right, bad, message", [
    (UPPER3, "ab", "c", "az", "letter z outside the alphabet of this endomorphism"),
    (UPPER3, "ab", "c", "zc", "letter z outside the alphabet of this endomorphism"),
    (MAPS["shift"], "0:a", "1:a", "0:a.b", "biletter shift needs indexed letters, got plain b"),
], ids=["second", "first", "shift"])
def test_a_letter_outside_the_alphabet_is_refused_as_before(f, left, right, bad, message):
    ctx = ComPreLieContext(f)
    assert prelie_closed(ctx, W(left), W(right)) == prelie(ctx, W(left), W(right))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        prelie_closed(ctx, W(bad), W(right))
    # f reads no letter of the right word, in the closed form as in the product
    assert prelie_closed(ctx, W(left), W("z")) == prelie(ctx, W(left), W("z"))
    assert prelie_closed(ctx, W(left), W(right)) == prelie(ctx, W(left), W(right))


def test_emptying_the_letter_table_empties_every_coded_memo(monkeypatch):
    f = UPPER3
    ctx = ComPreLieContext(f)
    span_dimension_of_products(ctx, [T("a + 2*c"), T("b")], 3)
    prelie_closed(ctx, W("abc"), W("ca"))
    assert all(getattr(ctx, name) for name in CODED)
    # the next coded call finds the table full: it starts a new one, and
    # new memos with it, as a fresh context would
    old = list(ctx._codes.letters)
    monkeypatch.setattr(PRELIE, "_MEMO_BOUND", len(old))
    got = [prelie_closed(ctx, W("cb"), W("a")), prelie(ctx, W("cb"), W("a"))]
    fresh = ComPreLieContext(f)
    assert got == [prelie_closed(fresh, W("cb"), W("a")), prelie(fresh, W("cb"), W("a"))]
    assert got[0] == got[1]
    # the new table codes the letters in another order: an old code would read wrong
    assert ctx._codes.letters == fresh._codes.letters != old
    for name in CODED:
        assert getattr(ctx, name) == getattr(fresh, name), name


@pytest.mark.parametrize("name", ["FULL3", "shift"])
def test_a_new_letter_table_comes_with_a_new_product_memo(name, monkeypatch):
    # the memos are filled with x, y, z coded 0, 1, 2; after the reset
    # z, y, x are, so the old key of (xy, z) is the new key of (zy, x)
    f = MAPS[name]
    x, y, z = letters_of(f)
    mono = SymMonomial.of

    def calls(ctx, u, v):
        return [prelie(ctx, u, v), lie_bracket(ctx, u, v), extend_bullet(ctx, mono(u), mono(v)),
                span_dimension_of_products(ctx, [Tensor.of(u), Tensor.of(v)], 3)]

    ctx = ComPreLieContext(f)
    calls(ctx, Word((x, y)), Word((z,)))
    assert ctx._codes.letters[:3] == [x, y, z] and ctx._products
    expected = calls(ComPreLieContext(f), Word((z, y)), Word((x,)))
    monkeypatch.setattr(PRELIE, "_MEMO_BOUND", len(ctx._codes.letters))
    assert calls(ctx, Word((z, y)), Word((x,))) == expected
    assert ctx._codes.letters[:3] == [z, y, x]
    assert ctx._products.kernel.args[1] is ctx._codes  # the memo codes with the new table


SRC = Path(PRELIE.__file__).resolve().parent


def coding_breaches(source: str, module: str) -> list[tuple[str, str, int]]:
    """(module, function, line) of each ``_Codes()`` built outside
    ``ComPreLieContext._coding`` and the composition (``characters``), and
    of each read or write of a ``_Sum``'s ``pos``, ``num`` or ``den``
    outside ``words``."""
    found: list[tuple[str, str, int]] = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call):
            callee = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
            if callee == "_Codes" and module != "characters" and scope != "ComPreLieContext._coding":
                found.append((module, scope, node.lineno))
        if isinstance(node, ast.Attribute) and node.attr in ("pos", "num", "den") and module != "words":
            found.append((module, scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_the_coding_detector_sees_a_hand_written_breach():
    hand_written = (
        "class ComPreLieContext:\n"
        "    def _coding(self):\n"
        "        self._codes = _Codes()\n"
        "def _word_brace(ctx, w):\n"
        "    codes = words._Codes()\n"
        "    acc = _Sum()\n"
        "    acc.den *= 6\n"
        "    return acc.pos, acc.num\n"
    )
    assert coding_breaches(hand_written, "prelie") == [
        ("prelie", "_word_brace", 5), ("prelie", "_word_brace", 7),
        ("prelie", "_word_brace", 8), ("prelie", "_word_brace", 8),
    ]
    assert [line for *_, line in coding_breaches(hand_written, "characters")] == [7, 8, 8]
    assert coding_breaches(hand_written, "words") == [("words", "_word_brace", 5)]


def test_one_letter_table_per_context_and_sums_read_only_in_words():
    breaches = [
        found
        for path in sorted(SRC.glob("*.py"))
        for found in coding_breaches(path.read_text(encoding="utf-8"), path.stem)
    ]
    assert breaches == []
def test_a_changed_result_changes_no_later_result():
    ctx = ComPreLieContext(UPPER3)
    a, b = SymMonomial.of(W("bc")), SymMonomial.of(W("cb"), W("b"))
    trees = Forest((parse_tree("a[b]"),)), Forest((parse_tree("b"), parse_tree("a")))
    calls = {
        "extend_bullet": lambda: extend_bullet(ctx, a, b),
        "star": lambda: star(ctx, a, b),
        "closed_action": lambda: closed_action(ctx, W("bcb"), [W("cb"), W("b")]),
        "forest_star": lambda: forest_star(*trees),
        "prelie_closed": lambda: prelie_closed(ctx, W("bc"), W("cb")),
    }
    for name, call in calls.items():
        first = call()
        expected = dict(first.terms)
        assert expected, name
        for key in first.terms:
            first.terms[key] += 1
        assert call().terms == expected, name
        first.terms.clear()
        assert call().terms == expected, name
