"""Pre-Lie product on words: recursion vs closed form, axioms, morphisms."""

from __future__ import annotations

import importlib
import itertools
import random
from fractions import Fraction
from functools import partial
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comprelie.endo import Endo, apply_endo, diagonal_weights, fliess_channel, image_span_letters
from comprelie.endo import iterate_endo_letter
from comprelie.exactla import SpanBasis
from comprelie.prelie import (
    ComPreLieContext,
    associativity_witness,
    graded_series,
    image_span_contains,
    induced_morphism,
    lie_bracket,
    prelie,
    prelie_closed,
    span_dimension_of_products,
)
from comprelie.words import (
    Letter,
    Tensor,
    Word,
    concat,
    deconcatenate,
    parse_tensor,
    parse_word,
    shuffle,
    word,
)

W = parse_word
T = parse_tensor


def apply_at(f, w, i):
    """Apply ``f`` to the letter at position ``i`` (0-based), linearly."""
    head, tail = w.letters[:i], w.letters[i + 1:]
    return Tensor({Word(head + (y,) + tail): c for y, c in f.image_letter(w[i]).items()})


# one fractional matrix and one square-zero matrix exercise different branches
FRAC = Endo.matrix(["a", "b"], [[1, Fraction(1, 2)], [Fraction(-1, 3), 2]])
NIL = Endo.matrix(["a", "b"], [[0, 1], [0, 0]])  # b -> a -> 0


def ctx_of(f: Endo) -> ComPreLieContext:
    return ComPreLieContext(f)


def fT(f: Endo, src: str) -> Tensor:
    return apply_endo(f, T(src))


# ---------------------------------------------------------------------------
# defining recursion
# ---------------------------------------------------------------------------

def test_empty_word_acts_as_zero():
    ctx = ctx_of(FRAC)
    for w in ("e", "a", "ab", "bab"):
        assert prelie(ctx, W("e"), W(w)) == Tensor.zero()


def test_single_letter_product():
    ctx = ctx_of(FRAC)
    for x in "ab":
        for w in ("e", "a", "ba"):
            assert prelie(ctx, W(x), W(w)) == concat(fT(FRAC, x), W(w))


def test_two_letter_expansion():
    ctx = ctx_of(FRAC)
    for x1, x2 in itertools.product("ab", repeat=2):
        for w in ("b", "ab"):
            expected = concat(W(x1), concat(fT(FRAC, x2), W(w))) + concat(
                fT(FRAC, x1), shuffle(W(x2), W(w))
            )
            assert prelie(ctx, W(x1 + x2), W(w)) == expected


def test_three_letter_expansion():
    ctx = ctx_of(FRAC)
    x1, x2, x3 = "a", "b", "a"
    w = W("b")
    expected = (
        concat(W(x1 + x2), concat(fT(FRAC, x3), w))
        + concat(W(x1), concat(fT(FRAC, x2), shuffle(W(x3), w)))
        + concat(fT(FRAC, x1), shuffle(W(x2 + x3), w))
    )
    assert prelie(ctx, W(x1 + x2 + x3), w) == expected


def test_action_of_empty_on_right():
    ctx = ctx_of(FRAC)
    u = W("aba")
    expected = sum(
        (apply_at(FRAC, u, i) for i in range(len(u))), Tensor.zero()
    )
    assert prelie(ctx, u, W("e")) == expected


def test_bilinearity():
    ctx = ctx_of(FRAC)
    a, b = T("2*a - 1/3*ab"), T("b + ba")
    expanded = (
        2 * prelie(ctx, W("a"), W("b"))
        + 2 * prelie(ctx, W("a"), W("ba"))
        - Fraction(1, 3) * prelie(ctx, W("ab"), W("b"))
        - Fraction(1, 3) * prelie(ctx, W("ab"), W("ba"))
    )
    assert prelie(ctx, a, b) == expanded


def recursive_prelie(f: Endo, u: Word, v: Word) -> dict:
    """The defining recursion ``xw . v = x(w . v) + f(x)(w sh v)``, run
    literally on a plain dict with Python's own arithmetic, each stored
    value an ``int`` exactly when it is integral and a key dropped when it
    cancels to exact zero: the reference for the runtime's unrolled sum."""
    out: dict = {}

    def add(t: Word, c) -> None:
        c2 = Fraction(out.get(t, 0) + c)
        if c2:
            out[t] = c2.numerator if c2.denominator == 1 else c2
        else:
            out.pop(t, None)

    if len(u) == 0:
        return out
    x, w = u[0], u[1:]
    for t, c in recursive_prelie(f, w, v).items():
        add(Word((x,) + t.letters), c)
    for y, cy in f.image_letter(x).items():
        for t, c in shuffle(w, v).items():
            add(Word((y,) + t.letters), cy * c)
    return out


def typed(d: dict) -> list:
    """Keys in order with each coefficient's value and exact type."""
    return [(k, type(c), c) for k, c in d.items()]


def test_the_unrolled_sum_matches_the_recursion():
    # 100 random rational maps on 1-3 letters, some entries zero (so some
    # letters are skipped) and some given as Fraction(n, 1); 4 pairs of
    # words each
    rng = random.Random("unrolled")
    values = (0, 0, 1, -2, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(4, 1))
    cases = 0
    for _ in range(100):
        names = ["a", "b", "c"][: rng.randint(1, 3)]
        f = Endo.matrix(names, [[rng.choice(values) for _ in names] for _ in names])
        ctx = ctx_of(f)
        letters = f.alphabet
        for _ in range(4):
            u = Word(tuple(rng.choice(letters) for _ in range(rng.randint(0, 5))))
            v = Word(tuple(rng.choice(letters) for _ in range(rng.randint(0, 4))))
            assert typed(prelie(ctx, u, v).terms) == typed(recursive_prelie(f, u, v)), (f, u, v)
            cases += 1
    assert cases >= 300


def test_a_long_left_word_is_computed():
    # one frame per letter would pass the interpreter's recursion limit
    x0, x1, x2 = (Letter(n) for n in ("x0", "x1", "x2"))
    ctx = ctx_of(fliess_channel(2, 1))  # x1 -> x0, x0 and x2 -> 0
    out = prelie(ctx, Word((x2,) * 2999 + (x1,)), Word((x2,)))
    assert typed(out.terms) == [(Word((x2,) * 2999 + (x0, x2)), int, 1)]


def test_the_memo_holds_only_the_pairs_asked_for():
    ctx = ctx_of(FRAC)

    def asked():  # the memo's keys, on coded words, read back as words
        return [(ctx._codes.words[u], ctx._codes.words[v]) for u, v in ctx._products]

    prelie(ctx, W("abba"), W("ba"))
    assert asked() == [(W("abba"), W("ba"))]
    prelie(ctx, T("a + 2*ab"), T("b"))
    assert asked() == [(W("abba"), W("ba")), (W("a"), W("b")), (W("ab"), W("b"))]


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------

def test_closed_form_empty_left():
    ctx = ctx_of(FRAC)
    assert prelie_closed(ctx, W("e"), W("ab")) == Tensor.zero()


def test_closed_form_empty_right():
    ctx = ctx_of(NIL)
    u = W("bba")
    expected = sum((apply_at(NIL, u, i) for i in range(3)), Tensor.zero())
    assert prelie_closed(ctx, u, W("e")) == expected


def test_powers_of_one_letter():
    lam = Fraction(3, 7)
    ctx = ctx_of(diagonal_weights({"x": lam}))
    for k, l in [(1, 1), (2, 1), (2, 3), (3, 2), (1, 4)]:
        xk, xl = word("x" * k), word("x" * l)
        expected = Tensor.of(word("x" * (k + l)), lam * comb(k + l, k - 1))
        assert prelie_closed(ctx, xk, xl) == expected
        assert prelie(ctx, xk, xl) == expected


def test_closed_form_adds_nothing_at_a_letter_of_zero_image(monkeypatch):
    # under fliess(2,1) only x1 has a nonzero image: of the positions of
    # x0^40 x1 x1 only the last two are ever written to, once per
    # interleaving that keeps them in place
    prelie_module = importlib.import_module("comprelie.prelie")  # not its function
    f = fliess_channel(2, 1)
    x0, x1, x2 = f.alphabet
    added: list[list] = []
    add_into = prelie_module._add_into

    def recording(acc, pairs):
        added.append(list(pairs))
        add_into(acc, added[-1])

    monkeypatch.setattr(prelie_module, "_add_into", recording)
    ctx = ComPreLieContext(f)
    u, v = Word((x0,) * 40 + (x1, x1)), Word((x2,))
    got = prelie_closed(ctx, u, v)
    assert added and all(added)
    assert len(added) == 1 + 2  # v last keeps both x1 in place, v between them the first
    monkeypatch.undo()
    assert got == prelie(ctx, u, v) and len(got.terms) == 3


def all_words(alphabet: str, max_len: int) -> list[Word]:
    out = [Word(())]
    for n in range(1, max_len + 1):
        out.extend(word(p) for p in itertools.product(alphabet, repeat=n))
    return out


def test_closed_form_matches_recursion():
    for f in (FRAC, NIL):
        ctx = ctx_of(f)
        for u in all_words("ab", 3):
            for v in all_words("ab", 2):
                assert prelie_closed(ctx, u, v) == prelie(ctx, u, v), (u, v)


# ---------------------------------------------------------------------------
# axioms
# ---------------------------------------------------------------------------

words3 = st.lists(st.sampled_from("ab"), min_size=0, max_size=3).map(word)
nonempty3 = st.lists(st.sampled_from("ab"), min_size=1, max_size=3).map(word)


@settings(max_examples=60)
@given(words3, words3, words3)
def test_shuffle_derivation_axiom(a, b, c):
    ctx = ctx_of(FRAC)
    lhs = prelie(ctx, shuffle(a, b), c)
    rhs = shuffle(prelie(ctx, a, c), b) + shuffle(a, prelie(ctx, b, c))
    assert lhs == rhs


@settings(max_examples=60)
@given(nonempty3, words3, words3)
def test_half_shuffle_derivation_axiom(a, b, c):
    from comprelie.words import half_shuffle

    ctx = ctx_of(FRAC)
    lhs = prelie(ctx, half_shuffle(a, b), c)
    rhs = half_shuffle(prelie(ctx, a, c), b) + half_shuffle(a, prelie(ctx, b, c))
    assert lhs == rhs


@settings(max_examples=60)
@given(words3, words3, words3)
def test_right_prelie_law(a, b, c):
    ctx = ctx_of(FRAC)
    lhs = prelie(ctx, prelie(ctx, a, b), c) - prelie(ctx, a, prelie(ctx, b, c))
    rhs = prelie(ctx, prelie(ctx, a, c), b) - prelie(ctx, a, prelie(ctx, c, b))
    assert lhs == rhs


def _pairs(t: Tensor, other: Tensor) -> dict:
    acc: dict = {}
    for w1, c1 in t.items():
        for w2, c2 in other.items():
            key = (w1, w2)
            acc[key] = acc.get(key, 0) + c1 * c2
    return {k: v for k, v in acc.items() if v}


@settings(max_examples=40)
@given(words3, words3)
def test_coproduct_compatibility(a, b):
    # deconcatenation coproduct of a product, against the two-sided expansion
    ctx = ctx_of(FRAC)
    lhs: dict = {}
    for w, c in prelie(ctx, a, b).items():
        for w1, w2 in deconcatenate(w):
            key = (w1, w2)
            lhs[key] = lhs.get(key, 0) + c
    lhs = {k: v for k, v in lhs.items() if v}
    rhs: dict = {}
    for a1, a2 in deconcatenate(a):
        for key, c in _pairs(Tensor.of(a1), prelie(ctx, a2, b)).items():
            rhs[key] = rhs.get(key, 0) + c
        for b1, b2 in deconcatenate(b):
            for key, c in _pairs(prelie(ctx, a1, b1), shuffle(a2, b2)).items():
                rhs[key] = rhs.get(key, 0) + c
    rhs = {k: v for k, v in rhs.items() if v}
    assert lhs == rhs


def test_homogeneity():
    ctx = ctx_of(FRAC)
    for u in all_words("ab", 3):
        for v in all_words("ab", 2):
            t = prelie(ctx, u, v)
            assert all(len(w) == len(u) + len(v) for w in t.terms)


def test_graded_degree_additivity():
    # letters a (degree 1), b (degree 3); f maps a to b, so f has degree 2
    f = Endo.matrix(["a", "b"], [[0, 0], [1, 0]])
    deg = {Letter("a"): 1, Letter("b"): 3}
    shift = 2

    def degree(w: Word) -> int:
        return sum(deg[x] for x in w) + shift

    ctx = ctx_of(f)
    for u in all_words("ab", 2):
        for v in all_words("ab", 2):
            if len(u) == 0:
                continue
            t = prelie(ctx, u, v)
            for w in t.terms:
                assert degree(w) == degree(u) + degree(v)


# ---------------------------------------------------------------------------
# triviality / associativity
# ---------------------------------------------------------------------------

def test_zero_endomorphism_gives_zero_product():
    ctx = ctx_of(Endo.matrix(["a", "b"], [[0, 0], [0, 0]]))
    for u in all_words("ab", 3):
        for v in all_words("ab", 3):
            assert prelie(ctx, u, v) == Tensor.zero()
    assert associativity_witness(ctx) is None


def test_nonzero_endomorphism_is_nonassociative():
    for f in (FRAC, NIL, diagonal_weights({"a": 1, "b": 0})):
        ctx = ctx_of(f)
        witness = associativity_witness(ctx)
        assert witness is not None
        a, b, c = witness
        assert prelie(ctx, prelie(ctx, a, b), c) != prelie(
            ctx, a, prelie(ctx, b, c)
        )


# ---------------------------------------------------------------------------
# bracket
# ---------------------------------------------------------------------------

def test_bracket_alternating():
    ctx = ctx_of(FRAC)
    for w in ("a", "ab", "bba"):
        assert lie_bracket(ctx, W(w), W(w)) == Tensor.zero()


def test_bracket_with_empty_word():
    ctx = ctx_of(FRAC)
    u = W("ab")
    expected = apply_at(FRAC, u, 0) + apply_at(FRAC, u, 1)
    assert lie_bracket(ctx, u, W("e")) == expected
    assert lie_bracket(ctx, W("e"), u) == -expected


@settings(max_examples=40)
@given(words3, words3, words3)
def test_jacobi_identity(a, b, c):
    ctx = ctx_of(NIL)
    total = (
        lie_bracket(ctx, lie_bracket(ctx, a, b), c)
        + lie_bracket(ctx, lie_bracket(ctx, b, c), a)
        + lie_bracket(ctx, lie_bracket(ctx, c, a), b)
    )
    assert total == Tensor.zero()


# ---------------------------------------------------------------------------
# image span
# ---------------------------------------------------------------------------

def test_products_lie_in_image_span():
    for f in (FRAC, NIL, fliess_channel(1, 1)):
        ctx = ctx_of(f)
        small = [Word(())] + [
            Word(t)
            for n in (1, 2)
            for t in itertools.product(f.alphabet, repeat=n)
        ]
        for u in small:
            for v in small:
                t = prelie(ctx, u, v)
                assert t.coefficient(Word(())) == 0
                assert image_span_contains(ctx, t)


def test_image_span_negative_case():
    ctx = ctx_of(diagonal_weights({"a": 1, "b": 0}))
    assert not image_span_contains(ctx, Tensor.of(W("bb")))
    assert image_span_contains(ctx, Tensor.of(W("ab")))


def enumerated_image_span_contains(ctx: ComPreLieContext, t: Tensor) -> bool:
    """Membership by enumerating the test space: in degree n it is spanned,
    for each position i, by the words with an Im(f) basis vector at i and
    any letters elsewhere.  The reference for the runtime's letterwise
    residue."""
    if not t:
        return True
    if t.coefficient(Word(())):
        return False
    seen = SpanBasis()
    image_vectors = [v for v in image_span_letters(ctx.f) if seen.add(v.terms)]
    for n in sorted({len(w) for w in t.terms}):
        part = t.graded_part(n)
        span = SpanBasis()
        for i in range(n):
            for v in image_vectors:
                for rest in itertools.product(ctx.alphabet, repeat=n - 1):
                    span.add({Word(rest[:i] + yw.letters + rest[i:]): c for yw, c in v.items()})
        if not span.contains(part.terms):
            return False
    return True


# a rank-2 map of nilpotency index 3 on three letters: c -> b -> a -> 0
INDEX3 = Endo.matrix(list("abc"), [[0, 1, Fraction(1, 2)], [0, 0, Fraction(-2, 3)], [0, 0, 0]])


def random_map(rng: random.Random, names: str) -> Endo:
    values = (0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3))
    return Endo.matrix(list(names), [[rng.choice(values) for _ in names] for _ in names])


def test_the_letterwise_residue_matches_the_enumeration():
    # 50 maps on 1-3 letters (random ones, the zero map, a diagonal map and
    # INDEX3), 24 tensors each: half of them sums of words with an Im(f)
    # vector put at one position, so that many are members
    rng = random.Random("residue")
    maps = [INDEX3, NIL, FRAC, diagonal_weights({"a": 1, "b": 0, "c": 0}),
            Endo.matrix(["a", "b"], [[0, 0], [0, 0]])]
    maps += [random_map(rng, "abc"[: rng.randint(1, 3)]) for _ in range(45)]
    values = (1, -1, 2, Fraction(1, 3), Fraction(-3, 2))
    cases = members = 0
    for f in maps:
        ctx = ctx_of(f)
        letters = f.alphabet
        images = image_span_letters(f)

        def random_word(n: int) -> Word:
            return Word(tuple(rng.choice(letters) for _ in range(n)))

        for k in range(24):
            t = Tensor({})
            for _ in range(rng.randint(1, 3)):
                n = rng.randint(1, 3)
                if k % 2 and images:
                    i = rng.randrange(n)
                    v, rest = rng.choice(images), random_word(n - 1)
                    t = t + rng.choice(values) * concat(concat(rest[:i], v), rest[i:])
                else:
                    t = t + Tensor.of(random_word(n), rng.choice(values))
            expected = enumerated_image_span_contains(ctx, t)
            assert image_span_contains(ctx, t) == expected, (f, t)
            cases += 1
            members += expected
    assert cases >= 1000 and 300 <= members < cases


def test_image_span_edge_answers_are_kept():
    for f in (INDEX3, diagonal_weights({"a": 1, "b": 0})):
        ctx = ctx_of(f)
        for t in (Tensor({}), Tensor.of(Word(())), T("a + 2*e"), Tensor.of(W("az")), T("za")):
            assert image_span_contains(ctx, t) == enumerated_image_span_contains(ctx, t), t
        assert image_span_contains(ctx, Tensor({}))
        assert not image_span_contains(ctx, Tensor.of(Word(())))
        assert not image_span_contains(ctx, Tensor.of(W("az")))  # z is outside the alphabet
    # the enumeration needs a finite alphabet; the residue route answers
    shift = ctx_of(Endo.biletter_shift(["d"]))
    with pytest.raises(ValueError):
        enumerated_image_span_contains(shift, Tensor.of(Word((Letter("d", 1),))))
    assert image_span_contains(shift, Tensor.of(Word((Letter("d", 1),))))


@pytest.mark.parametrize("decorations", [(), ("a", "b")], ids=["any", "declared"])
def test_image_span_under_the_biletter_shift(decorations):
    # Im f is spanned by the letters of shift >= 1: a member is a
    # combination in which every word has one
    ctx = ctx_of(Endo.biletter_shift(decorations))
    a0, a1, b0 = Letter("a", 0), Letter("a", 1), Letter("b", 0)
    product = prelie(ctx, Tensor.of(Word((a0,))), Tensor.of(Word((b0,))))
    assert product == Tensor.of(Word((a1, b0)))  # 0:a . 0:b = 1:a.0:b
    for member in (Tensor.of(Word((a1,))), product, T("1:a - 2*0:b.2:a.0:a")):
        assert image_span_contains(ctx, member), member
    for other in (Tensor.of(Word((a0,))), T("1:a + 0:a.0:b"), Tensor.of(Word(())), T("a.1:a")):
        assert not image_span_contains(ctx, other), other
    # an undeclared decoration is outside the alphabet
    assert image_span_contains(ctx, T("1:c")) == (not decorations)


# ---------------------------------------------------------------------------
# induced morphisms
# ---------------------------------------------------------------------------

def test_identity_morphism():
    ident = Endo.matrix(["a", "b"], [[1, 0], [0, 1]])
    t = T("3/2*ab + b - a")
    assert induced_morphism(ident, t) == t


def test_kernel_letter_kills_words():
    proj = Endo.matrix(["a", "b"], [[1, 0], [0, 0]])  # b -> 0
    assert induced_morphism(proj, T("ab + ba + bb")) == Tensor.zero()
    assert induced_morphism(proj, T("aa + ab")) == T("aa")


def test_morphism_respects_products_when_intertwining():
    # F = f itself intertwines f with f, so F(a.b) = F(a).F(b)
    f = FRAC
    ctx = ctx_of(f)
    for u in all_words("ab", 2):
        for v in all_words("ab", 2):
            lhs = induced_morphism(f, prelie(ctx, u, v), source=f, target=f)
            rhs = prelie(ctx, induced_morphism(f, u), induced_morphism(f, v))
            assert lhs == rhs
            assert induced_morphism(f, shuffle(u, v)) == shuffle(
                induced_morphism(f, u), induced_morphism(f, v)
            )


def test_intertwining_violation_raises():
    F = Endo.matrix(["a", "b"], [[0, 0], [1, 0]])  # a -> b, b -> 0
    f1 = diagonal_weights({"a": 1, "b": 1})
    f2 = diagonal_weights({"a": 2, "b": 2})
    with pytest.raises(ValueError):
        induced_morphism(F, T("ab"), source=f1, target=f2)


def specialization_map(f: Endo, assignment: dict):
    """The letter map sending the indexed letter ``k:d`` to f^k(assignment[d]).

    Composing with the word extension turns upper-word/decoration pairs into
    concrete elements of the target algebra.
    """
    assign = {
        d: x if isinstance(x, Letter) else Letter(x) for d, x in assignment.items()
    }

    def F(x: Letter) -> dict:
        if x.shift is None:
            raise ValueError(f"specialization expects indexed letters, got {x}")
        if x.name not in assign:
            raise ValueError(f"no assignment for decoration {x.name!r}")
        return iterate_endo_letter(f, x.shift, assign[x.name])

    return F


def test_specialization_map():
    # send k:d to f^k(x_d) for the two-step nilpotent f
    F = specialization_map(NIL, {"d": "b"})
    t = induced_morphism(F, W("0:d.1:d"))
    assert t == T("ba")
    assert induced_morphism(F, W("2:d")) == Tensor.zero()


# ---------------------------------------------------------------------------
# dimension series
# ---------------------------------------------------------------------------

def test_series_fliess_dimensions():
    for n in (1, 2, 3):
        gs = graded_series([0, n, 1], 1, 6)
        assert gs.dimension(0) == 0
        assert gs.dimension(1) == 1
        assert gs.dimension(2) == n
        assert gs.dimension(3) == n * n + 1
        assert gs.dimension(4) == n * (n * n + 2)
        assert gs.dimension(5) == n**4 + 3 * n * n + 1


def test_series_shift_zero_counts_words():
    gs = graded_series([0, 2], 0, 5)
    assert gs.coefficients == [1, 2, 4, 8, 16, 32]


def test_series_bigraded_refinement():
    gs = graded_series([0, 2, 1], 3, 8)
    # (degree, word count): degree = letter degrees + 3
    assert gs.bigraded[(3, 0)] == 1  # the empty word
    assert gs.bigraded[(4, 1)] == 2
    assert gs.bigraded[(5, 1)] == 1
    assert gs.bigraded[(5, 2)] == 4
    assert gs.bigraded[(6, 2)] == 4
    # degree sums of the power table match the recurrence's coefficients
    for args in (([0, 2, 1], 3, 8), ([0, 1, 1], 1, 12), ([0, 0, 3, 1], 0, 10)):
        gs = graded_series(*args)
        for d in range(args[2] + 1):
            assert gs.coefficients[d] == sum(
                v for (deg, _k), v in gs.bigraded.items() if deg == d
            )


def test_series_rejects_degree_zero_letters():
    with pytest.raises(ValueError):
        graded_series([1, 2], 0, 3)


# ---------------------------------------------------------------------------
# generated spans
# ---------------------------------------------------------------------------

def letters_of(f: Endo) -> list[Tensor]:
    return [Tensor.of(Word((x,))) for x in f.alphabet]


def test_span_surjective_f_fills_degree_two():
    f = Endo.matrix(["a", "b"], [[0, 1], [1, 0]])  # swap, surjective
    ctx = ctx_of(f)
    assert span_dimension_of_products(ctx, letters_of(f), 2) == 4


def test_span_zero_f_gives_symmetric_square():
    f = Endo.matrix(["a", "b"], [[0, 0], [0, 0]])
    ctx = ctx_of(f)
    assert span_dimension_of_products(ctx, letters_of(f), 2) == 3


def test_span_large_cokernel_misses_degree_two():
    f = diagonal_weights({"a": 1, "b": 0, "c": 0})  # cokernel dimension 2
    ctx = ctx_of(f)
    assert span_dimension_of_products(ctx, letters_of(f), 2) == 8 < 9


def test_span_prelie_only_vs_full():
    f = diagonal_weights({"a": 1, "b": 1})  # surjective
    ctx = ctx_of(f)
    full = span_dimension_of_products(ctx, letters_of(f), 2)
    prelie_only = span_dimension_of_products(
        ctx, letters_of(f), 2, ops=("prelie",)
    )
    assert full == 4
    assert prelie_only == 4  # images f(x)y already fill degree 2 here


def fixpoint_span_dimension(
    ctx: ComPreLieContext, generators: list[Tensor], degree: int, ops=("prelie", "shuffle")
) -> int:
    """The generated subalgebra by a batch fixpoint: the graded parts of the
    generators are closed under the products, pairing each new independent
    vector with every independent vector of a degree that fits, until no
    degree grows.  The reference for the runtime's degree-by-degree fill."""
    spans = {d: SpanBasis() for d in range(1, degree + 1)}
    fresh: dict[int, list[Tensor]] = {d: [] for d in range(1, degree + 1)}
    independent: dict[int, list[Tensor]] = {d: [] for d in range(1, degree + 1)}

    def feed(t: Tensor) -> None:
        for d in range(1, degree + 1):
            part = t.graded_part(d)
            if part and spans[d].add(part.terms):
                fresh[d].append(part)

    for g in generators:
        feed(g)
    while any(fresh.values()):
        batch, fresh = fresh, {d: [] for d in range(1, degree + 1)}
        for d, vecs in batch.items():
            independent[d].extend(vecs)
        for d1, vecs1 in independent.items():
            for d2, vecs2 in independent.items():
                if d1 + d2 > degree:
                    continue
                for a in vecs1:
                    for b in vecs2:
                        if a not in batch.get(d1, ()) and b not in batch.get(d2, ()):
                            continue  # at least one factor must be new
                        if "prelie" in ops:
                            feed(prelie(ctx, a, b))
                        if "shuffle" in ops:
                            feed(shuffle(a, b))
    return spans[degree].rank


# the bench's dense rational map: its entries' least common denominator is 6
FULL3 = Endo.matrix(list("abc"), [[1, 2, -1], [Fraction(1, 2), 0, 3], [-2, 1, Fraction(1, 3)]])
SHIFT = Endo.biletter_shift()  # an infinite alphabet, coded by first use


def test_the_degree_by_degree_fill_matches_the_fixpoint():
    # 6 maps (INDEX3, FULL3 and the biletter shift among them) x 3 op sets
    # x 18 generator sets, at degrees 2-4: generators mix lengths 0-5, so
    # some parts fall outside
    rng = random.Random("fill")
    maps = [INDEX3, FRAC, NIL, diagonal_weights({"a": 1, "b": 0, "c": 2}), FULL3, SHIFT]
    values = (1, -1, 2, Fraction(1, 2), Fraction(-2, 3))
    cases = 0
    for f in maps:
        ctx = ctx_of(f)
        letters = f.alphabet or (Letter("d", 0), Letter("d", 2), Letter("e", 1))
        for ops in (("prelie",), ("shuffle",), ("prelie", "shuffle")):
            for k in range(18):
                degree = (2, 3, 3, 4)[k % 4] if len(letters) < 3 or k % 3 else 3
                gens = []
                for _ in range(rng.randint(1, 3)):
                    terms = {}
                    for _ in range(rng.randint(1, 3)):
                        n = rng.choice((0, 1, 1, 1, 2, 2, 3, 5))
                        terms[Word(tuple(rng.choice(letters) for _ in range(n)))] = rng.choice(values)
                    gens.append(Tensor(terms))
                expected = fixpoint_span_dimension(ctx, gens, degree, ops)
                assert span_dimension_of_products(ctx, iter(gens), degree, ops) == expected, (
                    f, ops, gens, degree
                )
                cases += 1
    assert cases >= 300


def test_a_span_refuses_a_letter_outside_a_matrix_alphabet():
    ctx = ctx_of(FULL3)
    with pytest.raises(ValueError, match="outside the alphabet"):
        span_dimension_of_products(ctx, [T("a + z")], 2)
    # the shuffle alone reads no image of f
    assert span_dimension_of_products(ctx, [T("a + z")], 2, ops=("shuffle",)) == 1


def untouched_generators():
    raise AssertionError("the generators were read")
    yield  # a generator function: calling it reads nothing


@pytest.mark.parametrize("degree, ops", [(0, ("prelie",)), (-1, ("shuffle",)),
                                         (2, ("prelie", "brace")), (0, ("lie",))])
def test_a_span_refuses_its_arguments_before_any_work(degree, ops):
    ctx = ctx_of(FULL3)
    with pytest.raises(ValueError, match="degree must be|unknown ops"):
        span_dimension_of_products(ctx, untouched_generators(), degree, ops)
    assert not ctx._products


def test_a_scaled_product_that_is_not_integral_raises():
    # under FRAC, D = 6: a planted scale of 2 leaves the 1/3 of an image of
    # f fractional, and the product and the span refuse it rather than
    # truncate it, storing nothing
    ctx = ctx_of(FRAC)
    kernel = ctx._products.kernel
    assert kernel.args == (FRAC, ctx._codes, 6)
    ctx._products.kernel = partial(kernel.func, FRAC, ctx._codes, 2)
    with pytest.raises(ArithmeticError, match="not an integer"):
        prelie(ctx, W("ab"), W("b"))
    with pytest.raises(ArithmeticError, match="not an integer"):
        span_dimension_of_products(ctx, [T("a"), T("b")], 2, ops=("prelie",))
    assert not ctx._products
