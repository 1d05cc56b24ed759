"""The linear-combination core shared by words, symmetric monomials,
partitioned trees and forests: one coefficient check, one term order and
one printer, which the expression parser reads back."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from comprelie.cli import parse_expression
from comprelie.enveloping import ONE, SymMonomial, SymTensor, pair_tensor, sym_pairing
from comprelie.forests import Forest, ForestPoly, pairing, parse_forest, symmetry_factor
from comprelie.trees import TreeTensor, all_partitioned_trees, parse_tree
from comprelie.words import Letter, Tensor, parse_word, word


@pytest.mark.parametrize(
    "cls,key",
    [
        (Tensor, parse_word("ab")),
        (SymTensor, SymMonomial.of(parse_word("a"), parse_word("b"))),
        (TreeTensor, parse_tree("a[b]")),
        (ForestPoly, Forest.of(parse_tree("a[b]"))),
    ],
    ids=["Tensor", "SymTensor", "TreeTensor", "ForestPoly"],
)
def test_float_coefficients_are_rejected(cls, key):
    with pytest.raises(TypeError):
        cls({key: 0.5})
    with pytest.raises(TypeError):
        cls.of(key, 0.5)
    with pytest.raises(TypeError):
        cls.of(key).scale(0.5)


def test_pairing_is_the_double_sum():
    # supports overlap without being equal, and monomials repeat factors
    S = lambda *ws: SymMonomial.of(*map(parse_word, ws))  # noqa: E731
    a = SymTensor([(S("a", "a"), 2), (S("e", "a", "a"), Fraction(-1, 3)), (S("ab"), 5), (ONE, 1)])
    b = SymTensor([(S("a", "a"), 3), (S("e", "a", "a"), 4), (S("b", "b", "b"), 7), (ONE, -2)])
    double = sum(ca * cb * sym_pairing(ma, mb) for ma, ca in a.items() for mb, cb in b.items())
    assert pair_tensor(a, b) == double == 2 * 3 * 2 - Fraction(1, 3) * 4 * 2 - 2
    f = ForestPoly([(parse_forest("d * d"), 2), (parse_forest("d[d,d] * d[d,d]"), 3),
                    (parse_forest("a[b]"), 1), (parse_forest("1"), 5)])
    g = ForestPoly([(parse_forest("d * d"), Fraction(1, 2)), (parse_forest("d[d,d] * d[d,d]"), -1),
                    (parse_forest("b[a]"), 1)])
    double = sum(
        cf * cg * symmetry_factor(x) for x, cf in f.items() for y, cg in g.items() if x == y
    )
    assert pairing(f, g) == double == 2 * Fraction(1, 2) * 2 - 3 * 8


def test_words_and_forests_share_the_monomial_layer():
    assert ONE != Forest() and Forest() != ONE
    a = SymMonomial.of(parse_word("a"))
    t = Forest.of(parse_tree("a"))
    assert a != t and str(a) == str(t) == "a"
    assert len({ONE, Forest(), a, t}) == 4
    assert type(a.times(a)) is SymMonomial and type(t.times(t)) is Forest
    assert type(ONE.times(a)) is SymMonomial and type(Forest().times(t)) is Forest
    assert str(SymTensor.of(a) * SymTensor.of(a, 2)) == "2*a * a"
    assert str(ForestPoly.of(t) * ForestPoly.of(t, 2)) == "2*a * a"
    assert type(ForestPoly.of(t) * ForestPoly.of(t)) is ForestPoly


def test_tree_tensor_prints_in_key_order():
    a, b = parse_tree("a[b]"), parse_tree("b[a]")
    one = TreeTensor([(a, 1), (b, -2)])
    two = TreeTensor([(b, -2), (a, 1)])
    assert str(one) == str(two) == "a[b] - 2*b[a]"


coeffs = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))
# the letter 2 makes a one-letter word that prints like a rational
words = st.lists(st.sampled_from(["a", "b", "x1", "2"]), max_size=3).map(word)
# a numeral letter name makes "2 * a" (the words 2 and a) look like a
# coefficient times a monomial
monomials = st.lists(
    st.lists(st.sampled_from(["a", "b", "2"]), max_size=2).map(word), max_size=3
).map(lambda ws: SymMonomial.of(*ws))
# every tree with two or more vertices prints a bracket, which is what
# tells the parser that an expression is a tree combination
trees = st.sampled_from(
    [t for n in (2, 3) for t in all_partitioned_trees(n, [Letter("a"), Letter("b")])]
)


@settings(max_examples=25)
@given(st.dictionaries(words, coeffs, max_size=4))
@example({word(["2"]): 1})
@example({word(["2"]): -1, word([]): 2})
def test_tensor_print_parse_round_trip(terms):
    t = Tensor(terms)
    assert parse_expression(str(t)) == t


@settings(max_examples=25)
@given(st.dictionaries(monomials, coeffs, min_size=1, max_size=4))
def test_sym_tensor_print_parse_round_trip(terms):
    # a combination without a two-factor monomial prints as words
    assume(any(len(m.factors) >= 2 for m in terms))
    s = SymTensor(terms)
    assert parse_expression(str(s)) == s


def test_numeral_first_factor_is_not_a_coefficient():
    two, a, b = word(["2"]), word(["a"]), word(["b"])
    assert parse_expression("2 * a") == SymTensor.of(SymMonomial.of(two, a))
    assert parse_expression("2*a * b") == SymTensor.of(SymMonomial.of(a, b), 2)
    assert parse_expression("3*2 * a") == SymTensor.of(SymMonomial.of(two, a), 3)


@settings(max_examples=25)
@given(st.dictionaries(trees, coeffs, min_size=1, max_size=4))
def test_tree_tensor_print_parse_round_trip(terms):
    t = TreeTensor(terms)
    assert parse_expression(str(t)) == t
