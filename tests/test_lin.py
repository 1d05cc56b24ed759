"""The linear-combination core shared by words, symmetric monomials,
partitioned trees and forests: one coefficient check, one term order and
one printer, which the expression parser reads back."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from comprelie.cli import parse_expression
from comprelie.enveloping import SymMonomial, SymTensor
from comprelie.forests import Forest, ForestPoly
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
