"""Shuffle / half-shuffle word algebra: pinned examples and algebraic laws."""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comprelie.words import (
    EMPTY_WORD,
    Letter,
    Tensor,
    Word,
    _fixed_prefix,
    concat,
    deconcatenate,
    half_shuffle,
    lyndon_words,
    parse_tensor,
    parse_word,
    rational_to_str,
    shuffle,
    tensor_to_str,
    word,
)

W = parse_word
T = parse_tensor


# ---------------------------------------------------------------------------
# pinned expansions
# ---------------------------------------------------------------------------

def test_shuffle_examples():
    assert shuffle(W("a"), W("bcd")) == T("abcd + bacd + bcad + bcda")
    assert shuffle(W("ab"), W("cd")) == T("abcd + acbd + acdb + cabd + cadb + cdab")
    assert shuffle(W("abc"), W("d")) == T("abcd + abdc + adbc + dabc")


def test_half_shuffle_examples():
    assert half_shuffle(W("a"), W("bcd")) == T("abcd")
    assert half_shuffle(W("ab"), W("cd")) == T("abcd + acbd + acdb")
    assert half_shuffle(W("abc"), W("d")) == T("abcd + abdc + adbc")


def test_shuffle_unit():
    for src in ("e", "a", "abc"):
        assert shuffle(W("e"), W(src)) == T(src)
        assert shuffle(W(src), W("e")) == T(src)


def test_half_shuffle_conventions():
    assert half_shuffle(W("e"), W("ab")) == Tensor.zero()
    assert half_shuffle(W("ab"), W("e")) == T("ab")
    with pytest.raises(ValueError):
        half_shuffle(W("e"), W("e"))
    # the undefined corner is also rejected through linear combinations
    with pytest.raises(ValueError):
        half_shuffle(T("e + a"), T("e"))


def test_shuffle_with_repeated_letters_merges():
    assert shuffle(W("a"), W("a")) == Tensor.of(W("aa"), 2)
    assert shuffle(W("aa"), W("a")) == Tensor.of(W("aaa"), 3)


def test_deconcatenate():
    assert deconcatenate(W("e")) == [(W("e"), W("e"))]
    assert deconcatenate(W("a")) == [(W("a"), W("e")), (W("e"), W("a"))]
    assert deconcatenate(W("ab")) == [
        (W("ab"), W("e")),
        (W("a"), W("b")),
        (W("e"), W("ab")),
    ]


def test_lyndon_words():
    ab = ["a", "b"]
    assert lyndon_words(ab, 2) == [W("a"), W("b"), W("ab")]
    assert lyndon_words(["a"], 3) == [W("a")]
    assert lyndon_words(ab, 3) == [W("a"), W("b"), W("ab"), W("aab"), W("abb")]


def test_lyndon_words_refuse_a_repeated_letter():
    # a letter named twice would list it twice, and aa, which is no Lyndon word
    for alphabet in (["a", "a"], ["a", "b", Letter("a")]):
        with pytest.raises(ValueError, match="^alphabet names a letter twice$"):
            lyndon_words(alphabet, 2)


def test_lyndon_brute_force_agreement():
    # a Lyndon word is lexicographically smaller than each proper suffix
    letters = [Letter("a"), Letter("b"), Letter("c")]
    expected = []
    for n in range(1, 5):
        for tup in itertools.product(letters, repeat=n):
            lex = tuple(x._key() for x in tup)
            if all(lex < lex[i:] for i in range(1, n)):
                expected.append(Word(tup))
    expected.sort()
    assert lyndon_words(letters, 4) == expected


def test_normalize():
    # the constructor merges duplicate words and drops zero coefficients
    assert Tensor([(W("ab"), 1), (W("cd"), 0)]) == T("ab")
    assert Tensor([(W("ab"), 1), (W("ab"), -1)]) == Tensor.zero()
    assert Tensor([(W("a"), 2), (W("a"), 3)]) == Tensor.of(W("a"), 5)


# ---------------------------------------------------------------------------
# grammar round trip
# ---------------------------------------------------------------------------

def test_parse_word_forms():
    assert W("e") == EMPTY_WORD
    assert W("abc") == word("abc")
    assert W("x0.x1.x1") == Word((Letter("x0"), Letter("x1"), Letter("x1")))
    assert W("0:a.1:a") == Word((Letter("a", 0), Letter("a", 1)))
    assert str(W("0:a.1:a")) == "0:a.1:a"
    assert str(W("abc")) == "abc"


def test_parse_tensor_forms():
    t = T("3/2*x0.x1 + x1")
    assert t.coefficient(W("x0.x1")) == Fraction(3, 2)
    assert t.coefficient(W("x1")) == 1
    assert T("2*a - a") == T("a")
    assert T("1/2*a + 1/2*a") == T("a")
    assert T("0") == Tensor.zero()
    assert T("2") == Tensor.of(EMPTY_WORD, 2)


def test_tensor_str_round_trip():
    for src in ("ab", "3/2*x0.x1 + x1", "a - b", "2*e - 1/3*abc", "0"):
        t = T(src)
        assert T(tensor_to_str(t)) == t


def test_rational_to_str():
    assert rational_to_str(Fraction(3, 2)) == "3/2"
    assert rational_to_str(5) == "5"
    assert rational_to_str(Fraction(-4, 2)) == "-2"


def test_rejects_float_coefficients():
    with pytest.raises(TypeError):
        Tensor.of(W("a"), 0.5)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# algebraic laws
# ---------------------------------------------------------------------------

short_words = st.lists(st.sampled_from("abc"), min_size=0, max_size=3).map(word)
nonempty_words = st.lists(st.sampled_from("abc"), min_size=1, max_size=3).map(word)


@given(short_words, short_words)
def test_shuffle_commutative(u, v):
    assert shuffle(u, v) == shuffle(v, u)


@settings(max_examples=50)
@given(short_words, short_words, short_words)
def test_shuffle_associative(u, v, w):
    assert shuffle(shuffle(u, v), w) == shuffle(u, shuffle(v, w))


@settings(max_examples=50)
@given(nonempty_words, nonempty_words, nonempty_words)
def test_zinbiel_law(u, v, w):
    assert half_shuffle(half_shuffle(u, v), w) == half_shuffle(u, shuffle(v, w))


@given(nonempty_words, nonempty_words)
def test_half_shuffle_splits_shuffle(u, v):
    assert half_shuffle(u, v) + half_shuffle(v, u) == shuffle(u, v)


@given(st.sampled_from("abc"), short_words, short_words)
def test_half_shuffle_recursion(x, u, v):
    xu = word(x) + u
    assert half_shuffle(xu, v) == concat(word(x), shuffle(u, v))


@given(st.sampled_from("ab"), short_words, st.sampled_from("ab"), short_words)
def test_shuffle_recursion(x, u, y, v):
    xu, yv = word(x) + u, word(y) + v
    lhs = shuffle(xu, yv)
    rhs = concat(word(x), shuffle(u, yv)) + concat(word(y), shuffle(xu, v))
    assert lhs == rhs


@given(short_words, short_words)
def test_shuffle_term_count(u, v):
    total = sum(abs(c) for _, c in shuffle(u, v).items())
    assert total == comb(len(u) + len(v), len(u))


def test_fixed_prefix():
    # the leading slots an interleaving leaves in place
    assert _fixed_prefix((0, 1, 4)) == 2
    assert _fixed_prefix((1, 2)) == 0
    assert _fixed_prefix((0, 1, 2)) == 3
    assert _fixed_prefix(()) == 0


def _coproduct(t: Tensor) -> dict[tuple[Word, Word], int]:
    acc: dict[tuple[Word, Word], int] = {}
    for w, c in t.items():
        for a, b in deconcatenate(w):
            acc[(a, b)] = acc.get((a, b), 0) + c
    return {k: v for k, v in acc.items() if v}


@given(short_words)
def test_deconcatenation_coassociative(w):
    left = {}
    right = {}
    for a, b in deconcatenate(w):
        for a1, a2 in deconcatenate(a):
            left[(a1, a2, b)] = left.get((a1, a2, b), 0) + 1
        for b1, b2 in deconcatenate(b):
            right[(a, b1, b2)] = right.get((a, b1, b2), 0) + 1
    assert left == right


@settings(max_examples=40)
@given(short_words, short_words)
def test_deconcatenation_is_shuffle_morphism(u, v):
    # Delta(u sh v) = Delta(u) sh Delta(v), componentwise
    lhs = _coproduct(shuffle(u, v))
    rhs: dict[tuple[Word, Word], int] = {}
    for u1, u2 in deconcatenate(u):
        for v1, v2 in deconcatenate(v):
            for w1, c1 in shuffle(u1, v1).items():
                for w2, c2 in shuffle(u2, v2).items():
                    key = (w1, w2)
                    rhs[key] = rhs.get(key, 0) + c1 * c2
    rhs = {k: v for k, v in rhs.items() if v}
    assert lhs == rhs


def test_canonical_order_is_length_lex():
    t = T("b + a + ab + e")
    assert t.support() == [W("e"), W("a"), W("b"), W("ab")]
