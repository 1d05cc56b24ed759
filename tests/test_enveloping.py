"""Extended pre-Lie action, enveloping product, dual coproduct, pairing."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from comprelie.endo import Endo, fliess_channel, iterate_endo_letter
from comprelie.enveloping import (
    ONE,
    SymMonomial,
    SymTensor,
    closed_action,
    closed_star,
    dual_coproduct,
    extend_bullet,
    full_coproduct,
    pair_tensor,
    star,
    sym_pairing,
)
from comprelie.prelie import ComPreLieContext, prelie
from comprelie.words import EMPTY_WORD, Tensor, Word, parse_word, shuffle

W = parse_word

NIL = Endo.matrix(["a", "b"], [[0, Fraction(1, 2)], [0, 0]])  # b -> a/2 -> 0
FLIESS = fliess_channel(1, 1)
# c -> a/2 - 2b/3 -> -2a/3 -> 0: nilpotency index 3, so the dual coproduct
# deals letters into two tail parts
UPPER3 = Endo.matrix(
    ["a", "b", "c"], [[0, 1, Fraction(1, 2)], [0, 0, Fraction(-2, 3)], [0, 0, 0]]
)


def S(*srcs: str) -> SymMonomial:
    return SymMonomial.of(*(W(s) for s in srcs))


def mono_tensor(m: SymMonomial, c=1) -> SymTensor:
    return SymTensor.of(m, c)


SMALL_MONOS = [
    ONE,
    S("e"),
    S("a"),
    S("b"),
    S("ab"),
    S("e", "e"),
    S("e", "a"),
    S("a", "b"),
    S("a", "a"),
]


# ---------------------------------------------------------------------------
# extended action
# ---------------------------------------------------------------------------

def test_action_on_unit_is_identity():
    ctx = ComPreLieContext(NIL)
    for m in SMALL_MONOS:
        assert extend_bullet(ctx, m, ONE) == mono_tensor(m)


def test_action_of_single_word_splits_over_factors():
    ctx = ComPreLieContext(NIL)
    u = W("b")
    for m in SMALL_MONOS:
        expected = SymTensor()
        for i, wi in enumerate(m.factors):
            rest = m.factors[:i] + m.factors[i + 1:]
            for w2, c in prelie(ctx, wi, u).items():
                expected = expected + SymTensor.of(SymMonomial(rest + (w2,)), c)
        assert extend_bullet(ctx, m, S("b")) == expected


def test_empty_word_kills_factor_monomials():
    ctx = ComPreLieContext(NIL)
    for m in (S("a"), S("a", "b"), S("e"), S("e", "ab")):
        assert extend_bullet(ctx, S("e"), m) == SymTensor()
    # but acting on the unit returns the empty word itself
    assert extend_bullet(ctx, S("e"), ONE) == mono_tensor(S("e"))


def test_unit_acts_as_zero_on_words():
    ctx = ComPreLieContext(NIL)
    assert extend_bullet(ctx, mono_tensor(ONE), S("a")) == SymTensor()
    assert extend_bullet(ctx, mono_tensor(ONE), ONE) == SymTensor.unit()


# ---------------------------------------------------------------------------
# closed formulas
# ---------------------------------------------------------------------------

def test_single_letter_closed_action():
    ctx = ComPreLieContext(NIL)
    for factors in ([W("a")], [W("a"), W("b")], [W("b"), W("b")], []):
        got = closed_action(ctx, W("b"), list(factors))
        sh = Tensor.of(EMPTY_WORD)
        for w in factors:
            sh = shuffle(sh, w)
        image = iterate_endo_letter(ctx.f, len(factors), W("b")[0])
        expected = Tensor()
        for y, cy in image.items():
            for w, c in sh.items():
                expected = expected + Tensor.of(Word((y,) + w.letters), cy * c)
        assert got == SymTensor.from_tensor(expected)


def test_two_letter_closed_action_single_factor():
    ctx = ComPreLieContext(NIL)
    x, w, w1 = W("b")[0], W("a"), W("ba")
    got = closed_action(ctx, Word((x,) + w.letters), [w1])
    fx = Tensor({Word((y,)): c for y, c in ctx.f.image_letter(x).items()})
    expected = SymTensor.from_tensor(
        Tensor({Word((x,) + t.letters): c for t, c in prelie(ctx, w, w1).items()})
        + Tensor(
            {
                Word((y,) + t.letters): cy * c
                for y, cy in ctx.f.image_letter(x).items()
                for t, c in shuffle(w, w1).items()
            }
        )
    )
    assert got == expected
    assert fx  # sanity: the endomorphism does move b


def test_closed_star_of_empty_word_prepends_factor():
    ctx = ComPreLieContext(NIL)
    factors = [W("a"), W("ba")]
    got = closed_star(ctx, W("e"), factors)
    assert got == mono_tensor(SymMonomial(tuple(factors) + (EMPTY_WORD,)))


WORDS_FOR_EQUIV = [W("e"), W("a"), W("b"), W("ab"), W("ba")]
FACTOR_LISTS = (
    [[]]
    + [[u] for u in WORDS_FOR_EQUIV]
    + [[u, v] for u in WORDS_FOR_EQUIV[:4] for v in WORDS_FOR_EQUIV[:4]]
)


def test_closed_action_matches_recursive_rules():
    ctx = ComPreLieContext(NIL)
    for w in WORDS_FOR_EQUIV:
        for factors in FACTOR_LISTS:
            lhs = closed_action(ctx, w, factors)
            rhs = extend_bullet(ctx, SymMonomial.of(w), SymMonomial(tuple(factors)))
            assert lhs == rhs, (w, factors)


def test_closed_star_matches_recursive_star():
    ctx = ComPreLieContext(NIL)
    for w in WORDS_FOR_EQUIV:
        for factors in FACTOR_LISTS:
            lhs = closed_star(ctx, w, factors)
            rhs = star(ctx, SymMonomial.of(w), SymMonomial(tuple(factors)))
            assert lhs == rhs, (w, factors)


# ---------------------------------------------------------------------------
# the enveloping product
# ---------------------------------------------------------------------------

def test_star_units():
    ctx = ComPreLieContext(NIL)
    for m in SMALL_MONOS:
        assert star(ctx, m, ONE) == mono_tensor(m)
        assert star(ctx, ONE, m) == mono_tensor(m)


def test_star_letter_with_word():
    ctx = ComPreLieContext(NIL)
    # x * w = f(x)w + x times w
    expected = SymTensor.from_tensor(
        Tensor.of(W("aa"), Fraction(1, 2))
    ) + mono_tensor(S("b", "a"))
    assert star(ctx, S("b"), S("a")) == expected


def test_star_associative():
    ctx = ComPreLieContext(NIL)
    monos = SMALL_MONOS
    for a, b, c in itertools.product(monos, repeat=3):
        lhs = star(ctx, star(ctx, a, b), c)
        rhs = star(ctx, a, star(ctx, b, c))
        assert lhs == rhs, (a, b, c)


def test_star_restricts_to_closed_action_on_words():
    # the word component of x1 * w1 with one factor matches the action
    ctx = ComPreLieContext(FLIESS)
    w, w1 = W("x1"), W("x0.x1")
    st = star(ctx, SymMonomial.of(w), SymMonomial.of(w1))
    bullet_part = extend_bullet(ctx, SymMonomial.of(w), SymMonomial.of(w1))
    for m, c in bullet_part.items():
        assert st.coefficient(m) == c


# ---------------------------------------------------------------------------
# dual coproduct
# ---------------------------------------------------------------------------

def test_delta_of_empty_word():
    ctx = ComPreLieContext(NIL)
    assert dual_coproduct(ctx, W("e")) == [(EMPTY_WORD, ONE, 1)]


def test_delta_of_single_letter():
    ctx = ComPreLieContext(NIL)
    # b maps to a/2, then to 0: delta(b) = b (x) 1 + a/2 (x) {e}
    got = dual_coproduct(ctx, W("b"))
    assert got == [
        (W("a"), S("e"), Fraction(1, 2)),
        (W("b"), ONE, 1),
    ]
    got_a = dual_coproduct(ctx, W("a"))
    assert got_a == [(W("a"), ONE, 1)]


def test_delta_of_two_letters():
    ctx = ComPreLieContext(NIL)
    # delta(b b) = sum f^i(b) f^j(b) (x) {e}^(i+j) + sum i f^i(b) (x) {b, e^(i-1)}
    got = dict(
        ((t, m), c) for t, m, c in dual_coproduct(ctx, W("bb"))
    )
    expected = {
        (W("bb"), ONE): 1,
        (W("ab"), S("e")): Fraction(1, 2),
        (W("ba"), S("e")): Fraction(1, 2),
        (W("aa"), S("e", "e")): Fraction(1, 4),
        (W("a"), S("b")): Fraction(1, 2),
    }
    assert got == expected


def test_delta_rejects_non_nilpotent():
    ctx = ComPreLieContext(Endo.diagonal({"a": 1}))
    with pytest.raises(ValueError, match="nilpotent"):
        dual_coproduct(ctx, W("a"))


def _pair_lin_eq(a, b):
    return {k: v for k, v in a.items() if v} == {k: v for k, v in b.items() if v}


def test_full_coproduct_coassociative():
    _assert_coassociative(
        ComPreLieContext(NIL), [ONE, S("e"), S("a"), S("b"), S("ab"), S("a", "b"), S("e", "b")]
    )


def test_full_coproduct_coassociative_index_three():
    # the f^2 term needs its 1/2!: without it 25 of these 40 words fail
    letters = UPPER3.alphabet
    words = [Word(t) for n in range(4) for t in itertools.product(letters, repeat=n)]
    assert len(words) == 40
    _assert_coassociative(ComPreLieContext(UPPER3), [SymMonomial.of(w) for w in words])


def _assert_coassociative(ctx, monos):
    for m in monos:
        left: dict = {}
        right: dict = {}
        for (a, b), c in full_coproduct(ctx, m).items():
            for (a1, a2), c2 in full_coproduct(ctx, a).items():
                key = (a1, a2, b)
                left[key] = left.get(key, 0) + c * c2
            for (b1, b2), c2 in full_coproduct(ctx, b).items():
                key = (a, b1, b2)
                right[key] = right.get(key, 0) + c * c2
        assert _pair_lin_eq(left, right), m


def test_full_coproduct_is_multiplicative():
    ctx = ComPreLieContext(NIL)
    pairs = [(S("a"), S("b")), (S("e"), S("ab")), (S("a", "b"), S("e"))]
    for m1, m2 in pairs:
        product = m1.times(m2)
        lhs = full_coproduct(ctx, product)
        rhs: dict = {}
        for (a1, b1), c1 in full_coproduct(ctx, m1).items():
            for (a2, b2), c2 in full_coproduct(ctx, m2).items():
                key = (a1.times(a2), b1.times(b2))
                rhs[key] = rhs.get(key, 0) + c1 * c2
        assert _pair_lin_eq(lhs, rhs)


def test_counit_property():
    # terms with unit on the left reproduce the monomial on the right
    ctx = ComPreLieContext(NIL)
    for m in (S("a"), S("ab"), S("a", "b")):
        left_unit = [
            (b, c) for (a, b), c in full_coproduct(ctx, m).items() if a == ONE
        ]
        assert left_unit == [(m, 1)]


# ---------------------------------------------------------------------------
# pairing and duality
# ---------------------------------------------------------------------------

def test_pairing_dual_basis():
    assert sym_pairing(S("ab"), S("ab")) == 1
    assert sym_pairing(S("ab"), S("ba")) == 0
    assert sym_pairing(S("a", "a"), S("a", "a")) == 2
    assert sym_pairing(S("a", "a", "a"), S("a", "a", "a")) == 6
    assert sym_pairing(S("a", "b"), S("a", "b")) == 1
    assert sym_pairing(ONE, ONE) == 1
    assert sym_pairing(ONE, S("e")) == 0
    assert sym_pairing(S("a"), S("a", "b")) == 0


def all_fliess_words(max_len: int) -> list[Word]:
    letters = FLIESS.alphabet
    out = [Word(())]
    for n in range(1, max_len + 1):
        out.extend(Word(t) for t in itertools.product(letters, repeat=n))
    return out


def test_star_is_dual_to_coproduct():
    # the product on the transposed side, paired against a word, equals the
    # coproduct of that word paired factorwise
    from comprelie.endo import transpose_endo

    ctx = ComPreLieContext(FLIESS)
    dual_ctx = ComPreLieContext(transpose_endo(FLIESS))
    words2 = all_fliess_words(2)
    dual_monos = [ONE] + [SymMonomial.of(w) for w in words2] + [
        SymMonomial.of(u, v) for u in words2[:4] for v in words2[:4]
    ]
    for w in all_fliess_words(3):
        cop = full_coproduct(ctx, SymMonomial.of(w))
        for u in dual_monos[:10]:
            for v in dual_monos[:10]:
                lhs = pair_tensor(
                    star(dual_ctx, u, v), SymTensor.of(SymMonomial.of(w))
                )
                rhs = 0
                for (a, b), c in cop.items():
                    pa = sym_pairing(u, a)
                    if pa:
                        pb = sym_pairing(v, b)
                        if pb:
                            rhs += c * pa * pb
                assert lhs == rhs, (u, v, w)


def test_star_is_dual_to_coproduct_index_three():
    # <u * v, w> = sum of c <u, a> <v, b> over the coproduct terms a (x) b
    # of w, for every one-factor u and every v that occur as legs; without
    # the 1/i! on the f^i term 196 of these 4,354 cases fail
    from comprelie.endo import transpose_endo

    ctx = ComPreLieContext(UPPER3)
    dual_ctx = ComPreLieContext(transpose_endo(UPPER3))
    cases = 0
    for n in range(4):
        for w in map(Word, itertools.product(UPPER3.alphabet, repeat=n)):
            cop = full_coproduct(ctx, SymMonomial.of(w))
            lefts = {a for a, _ in cop if len(a.factors) == 1}
            rights = {b for _, b in cop}
            for u in lefts:
                for v in rights:
                    lhs = pair_tensor(star(dual_ctx, u, v), SymMonomial.of(w))
                    rhs = sum(
                        c * sym_pairing(u, a) * sym_pairing(v, b) for (a, b), c in cop.items()
                    )
                    assert lhs == rhs, (u, v, w)
                    cases += 1
    assert cases == 4354
