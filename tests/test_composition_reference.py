"""The int-coded composition against the Word-level route it replaced.

``characters`` composes series on words coded as tuples of small ints.
The reference below is the earlier route on ``Word`` keys: a recursion
over the suffixes of each word of the left operand, a ``step`` per letter
and the public ``shuffle``, cut at L - 1 letters.  Both must give the same terms with
the same coefficient types (``int`` or ``Fraction``), since the printed
output and every later product depend on both.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable

import pytest

from comprelie.characters import (
    FliessElement,
    TruncatedSeries,
    _letter_index,
    fliess_tilde,
    inverse,
    tilde_compose,
)
from comprelie.endo import Endo, fliess_channel, iterate_endo_letter
from comprelie.prelie import ComPreLieContext, _require_nilpotent
from comprelie.words import EMPTY_WORD, Letter, Rat, Tensor, Word, _add_into, _linear, _Sum
from comprelie.words import shuffle

UPPER3 = Endo.matrix(
    list("abc"), [[0, 1, Fraction(1, 2)], [0, 0, Fraction(-2, 3)], [0, 0, 0]]
)
FLIESS = fliess_channel(2, 1)
# a Fraction equal to an integer stays a Fraction, and halves cancel often
COEFFS = (1, -1, 2, 3, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 1), Fraction(-2, 3))


def _compose_words(series: TruncatedSeries, step: Callable[[Letter, Tensor], dict]) -> Tensor:
    memo: dict[Word, Tensor] = {EMPTY_WORD: Tensor.unit()}

    def rec(w: Word) -> Tensor:
        hit = memo.get(w)
        if hit is None:
            hit = memo[w] = Tensor._from_clean(step(w[0], rec(w[1:])))
        return hit

    return Tensor._from_clean(_linear(lambda w: rec(w).items(), series.items()))


def _cut_shuffle(a: Tensor, b: Tensor, n: int) -> Tensor:
    """The shuffle of a and b without its words longer than n."""
    return Tensor._from_clean({w: c for w, c in shuffle(a, b).items() if len(w) <= n})


def _prepend(image: dict, tail: Tensor, acc: _Sum) -> None:
    for y, cy in image.items():
        _add_into(acc, ((Word((y,) + t.letters), c) for t, c in tail.items()), cy)


def reference_tilde_compose(ctx, u: TruncatedSeries, v: TruncatedSeries) -> TruncatedSeries:
    L = u.trunc
    N = _require_nilpotent(ctx)
    v_pows = [Tensor.unit()]
    for i in range(1, N):
        power = _cut_shuffle(v_pows[-1], v.tensor, L - 1)
        v_pows.append(power if i == 1 else power.scale(Fraction(1, i)))

    def step(x: Letter, base: Tensor) -> dict[Word, Rat]:
        acc = _Sum((Word((x,) + t.letters), c) for t, c in base.items() if len(t) < L)
        for i in range(1, N):
            image = iterate_endo_letter(ctx.f, i, x)
            if not image:
                break
            _prepend(image, _cut_shuffle(base, v_pows[i], L - 1), acc)
        return acc.result()

    return TruncatedSeries(L, _compose_words(u, step))


def reference_fliess_tilde(c: FliessElement, d) -> TruncatedSeries:
    i, L = c.channel, c.series.trunc
    di = d[i - 1]

    def step(x: Letter, base: Tensor) -> dict[Word, Rat]:
        acc = _Sum((Word((x,) + t.letters), cf) for t, cf in base.items() if len(t) < L)
        if _letter_index(x) == i:
            _prepend({Letter("x0"): 1}, _cut_shuffle(base, di.tensor, L - 1), acc)
        return acc.result()

    return TruncatedSeries(L, _compose_words(c.series, step))


def reference_inverse(ctx, u: TruncatedSeries) -> TruncatedSeries:
    v = TruncatedSeries.zero(0)
    for n in range(u.trunc + 1):
        composed = reference_tilde_compose(
            ctx, TruncatedSeries(n, u.tensor), TruncatedSeries(n, v.tensor)
        )
        v = -composed
    return v


def typed(s: TruncatedSeries) -> dict:
    return {w: (type(c), c) for w, c in s.items()}


def random_series(L: int, alphabet, rng: random.Random, terms: int, empty: bool) -> TruncatedSeries:
    acc: dict[Word, Rat] = {EMPTY_WORD: rng.choice(COEFFS)} if empty else {}
    for _ in range(terms):
        n = rng.randint(1, L)
        acc[Word(tuple(rng.choice(alphabet) for _ in range(n)))] = rng.choice(COEFFS)
    return TruncatedSeries(L, acc)


# x0 and x2 under fliess(2,1), and a under UPPER3, have f-image zero
CASES = [(FLIESS, Letter("x2")), (UPPER3, Letter("a"))]


@pytest.mark.parametrize("f, zero_image", CASES, ids=["fliess(2,1)", "UPPER3"])
def test_composition_matches_the_word_route(f, zero_image):
    ctx = ComPreLieContext(f)
    assert not f.image_letter(zero_image)
    rng = random.Random(len(f.alphabet))
    for L in range(1, 6):
        for k in range(4):
            terms = 3 if L == 5 else 5
            u = random_series(L, ctx.alphabet, rng, terms, empty=k % 2 == 1)
            v = random_series(L, ctx.alphabet, rng, terms, empty=k < 2)
            u = u + TruncatedSeries(L, Tensor.of(Word((zero_image,) * min(L, 2))))
            got, want = tilde_compose(ctx, u, v), reference_tilde_compose(ctx, u, v)
            assert typed(got) == typed(want)
            assert list(got.items())  # the comparison saw terms


@pytest.mark.parametrize("f, zero_image", CASES, ids=["fliess(2,1)", "UPPER3"])
def test_inverse_matches_the_word_route(f, zero_image):
    ctx = ComPreLieContext(f)
    rng = random.Random(10 + len(f.alphabet))
    for L in range(1, 6):
        for empty in (False, True):
            u = random_series(L, ctx.alphabet, rng, 3, empty)
            u = u + TruncatedSeries(L, Tensor.of(Word((zero_image,))))
            assert typed(inverse(ctx, u)) == typed(reference_inverse(ctx, u))


def test_fliess_tilde_matches_the_word_route():
    rng = random.Random(5)
    alphabet = FLIESS.alphabet
    for L in range(1, 6):
        for k in range(4):
            terms = 3 if L == 5 else 5
            c = random_series(L, alphabet, rng, terms, empty=k % 2 == 1)
            d = tuple(random_series(L, alphabet, rng, terms, empty=k < 2) for _ in range(2))
            for channel in (1, 2):
                element = FliessElement(channel, c)
                got = fliess_tilde(element, d)
                assert got.channel == channel
                assert typed(got.series) == typed(reference_fliess_tilde(element, d))
