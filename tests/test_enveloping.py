"""Extended pre-Lie action, enveloping product, dual coproduct, pairing."""

from __future__ import annotations

import itertools
import pickle
import random
from fractions import Fraction
from math import factorial

import pytest

from comprelie.characters import TruncatedSeries, inverse, tilde_compose
from comprelie.endo import Endo, fliess_channel, iterate_endo_letter, nilpotency_index
from comprelie.enveloping import (
    ONE,
    _delta_tilde_word,
    _splittings,
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
from comprelie.words import EMPTY_WORD, Letter, Tensor, Word, _add_into, _Sum, parse_word, shuffle

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


def delta_by_recursion(ctx: ComPreLieContext, w: Word) -> dict:
    """The reduced coproduct by the recursion on the first letter, one
    frame per letter: the f^i(x) term of ``x u`` deals u into a head,
    whose coproduct it extends, and i tail parts, with weight 1/i!."""
    if len(w) == 0:
        return {(EMPTY_WORD, ONE): 1}
    x, u = w[0], w[1:]
    acc = _Sum()
    for i in range(nilpotency_index(ctx.f)):
        image = iterate_endo_letter(ctx.f, i, x)
        if not image:
            break
        scale = 1 if i < 2 else Fraction(1, factorial(i))
        for parts in _splittings(u.letters, i + 1):
            tail = tuple(Word(t) for t in parts[1:])
            for (t, mono), c in delta_by_recursion(ctx, Word(parts[0])).items():
                merged = SymMonomial(mono.factors + tail)
                pairs = (((Word((y,) + t.letters), merged), cy) for y, cy in image.items())
                _add_into(acc, pairs, c * scale)
    return acc.result()


@pytest.mark.parametrize("f", [NIL, UPPER3, FLIESS, Endo.diagonal({"a": 0, "b": 0})])
def test_delta_matches_the_recursion_in_values_types_and_order(f):
    # NIL and UPPER3 send a to 0, as the zero map sends every letter, so
    # runs of leading zero-image letters are stripped in a loop
    rng = random.Random(f"delta {f.alphabet}")
    for _ in range(40):
        w = Word(tuple(rng.choice(f.alphabet) for _ in range(rng.randint(0, 5))))
        ctx = ComPreLieContext(f)
        got = [(k, type(c), c) for k, c in _delta_tilde_word(ctx, w).items()]
        assert got == [(k, type(c), c) for k, c in delta_by_recursion(ctx, w).items()]


def test_long_runs_of_zero_image_letters_need_no_recursion():
    # 3,000 letters, past the recursion limit: delta(x u) = x delta(u)
    # when f(x) = 0, one loop step per letter
    a, b = Letter("a"), Letter("b")
    w = Word((a,) * 3000)
    assert dual_coproduct(ComPreLieContext(Endo.diagonal({"a": 0})), w) == [(w, ONE, 1)]
    # f(a) = b, f(b) = 0: b^2000 a is b^2000 times delta(a)
    ctx = ComPreLieContext(Endo.matrix("ab", [[0, 0], [1, 0]]))
    got = dual_coproduct(ctx, Word((b,) * 2000 + (a,)))
    assert [(type(c), c) for _, _, c in got] == [(int, 1), (int, 1)]
    assert [(t, m) for t, m, _ in got] == [
        (Word((b,) * 2000 + (a,)), ONE),
        (Word((b,) * 2001), SymMonomial.of(EMPTY_WORD)),
    ]
    # the strip reads f(x), so it refuses a letter outside the alphabet even
    # under the zero map, whose index 1 keeps the recursion from reading it
    zero = ComPreLieContext(Endo.diagonal({"a": 0}))
    with pytest.raises(ValueError, match="outside the alphabet"):
        _delta_tilde_word(zero, Word((a, b, a)))
    with pytest.raises(ValueError, match="outside the alphabet"):
        dual_coproduct(ctx, Word((a, Letter("z"))))


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


@pytest.mark.parametrize("f", [UPPER3, FLIESS], ids=["index-3", "fliess(1,1)"])
def test_contexts_compare_and_pickle_by_their_map_alone(f):
    a, b = f.alphabet[:2]
    u, v = Word((a, b)), Word((b,))
    series = TruncatedSeries(3, Tensor({u: Fraction(1, 2), v: 3}))
    inner = TruncatedSeries(3, Tensor({Word((a,)): -1, u: 2}))

    def outputs(ctx):
        return [
            prelie(ctx, Tensor.of(u), Tensor.of(v)),
            star(ctx, SymMonomial.of(u), SymMonomial.of(v, u)),
            extend_bullet(ctx, SymMonomial.of(v), SymMonomial.of(u, v)),
            dual_coproduct(ctx, Word((a, b, b))),
            full_coproduct(ctx, SymMonomial.of(u, v)),
            tilde_compose(ctx, series, inner),
            inverse(ctx, series),
        ]

    ctx = ComPreLieContext(f)
    expected = outputs(ctx)
    assert ctx._products and ctx._coproducts and ctx._word_engine is not None
    assert ctx._nilpotency is not None  # every memo is filled
    fresh = ComPreLieContext(f)
    assert ctx == fresh and repr(ctx) == repr(fresh) == f"ComPreLieContext(f={f!r})"
    back = pickle.loads(pickle.dumps(ctx))
    assert len(pickle.dumps(ctx)) == len(pickle.dumps(fresh))
    assert back == ctx and back.f == f
    assert not back._products and not back._coproducts and back._word_engine is None
    assert "_nilpotency" not in vars(back)
    got = outputs(back)
    assert typed(got) == typed(expected)


def typed(x):
    """The outputs with each coefficient's type, in key order."""
    terms = getattr(x, "terms", getattr(getattr(x, "tensor", None), "terms", x))
    if isinstance(terms, dict):
        return [(k, typed(c)) for k, c in terms.items()]
    if isinstance(x, (list, tuple)):
        return [typed(e) for e in x]
    return (type(x), x)
