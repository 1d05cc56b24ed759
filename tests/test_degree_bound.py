"""Degree-bounded shuffles: ``characters._bounded_pairs(L)``, the memoized
shuffle behind its length cut, gives exactly the truncated shuffle, and
truncated composition, its Fliess-operator form and the inverse never
interleave two words whose lengths sum past the truncation."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comprelie import characters, words
from comprelie.characters import (
    FliessElement,
    TruncatedSeries,
    fliess_tilde,
    inverse,
    tilde_compose,
)
from comprelie.endo import Endo, fliess_channel
from comprelie.prelie import ComPreLieContext
from comprelie.words import Tensor, Word, shuffle, word

# strictly upper triangular with f^2 != 0: the divided power v^(sh 2)/2! runs
INDEX3 = Endo.matrix(
    ["a", "b", "c"], [[0, 1, Fraction(1, 2)], [0, 0, Fraction(-2, 3)], [0, 0, 0]]
)
MAPS = [fliess_channel(2, 1), INDEX3]


def truncated(t: Tensor, L: int) -> Tensor:
    return Tensor({w: c for w, c in t.items() if len(w) <= L})


def random_tensor(max_len: int, alphabet, rng: random.Random, terms: int = 6) -> Tensor:
    # lengths are drawn uniformly, so short words are as common as long ones
    def draw() -> tuple[Word, Fraction]:
        w = Word(tuple(rng.choice(alphabet) for _ in range(rng.randint(0, max_len))))
        return w, Fraction(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 3))

    return Tensor(draw() for _ in range(terms))


coeffs = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))
short_words = st.lists(st.sampled_from("abc"), max_size=4).map(word)
tensors = st.dictionaries(short_words, coeffs, max_size=4).map(Tensor)


@settings(max_examples=60)
@given(tensors, tensors, st.integers(-1, 9))
def test_bounded_shuffle_is_the_truncated_shuffle(a, b, L):
    bounded = characters._bounded_pairs(L)
    pa, pb = ([(w.letters, c) for w, c in t.items()] for t in (a, b))
    # the pairs twice over, so that the second pass reads the memo
    for _ in range(2):
        got = Tensor((Word(t), c) for t, c in words._bilinear(bounded, pa, pb).items())
        assert got == truncated(shuffle(a, b), L)


@pytest.mark.parametrize("f", MAPS, ids=["fliess(2,1)", "index-3"])
@pytest.mark.parametrize("L", [1, 2, 3])
def test_results_are_compatible_with_truncation(f, L):
    # the result at L is the result at L+2 cut back to L; inputs carry
    # words up to L+2, so a bound that is one too loose or too tight shows
    ctx = ComPreLieContext(f)
    rng = random.Random(100 * L + len(f.alphabet))
    for _ in range(3):
        u, v = (random_tensor(L + 2, ctx.alphabet, rng) for _ in range(2))
        short = tilde_compose(ctx, TruncatedSeries(L, u), TruncatedSeries(L, v))
        long = tilde_compose(ctx, TruncatedSeries(L + 2, u), TruncatedSeries(L + 2, v))
        assert short.tensor == truncated(long.tensor, L)
        short_inv = inverse(ctx, TruncatedSeries(L, u))
        long_inv = inverse(ctx, TruncatedSeries(L + 2, u))
        assert short_inv.tensor == truncated(long_inv.tensor, L)
        if f is not INDEX3:
            d_long = (TruncatedSeries(L + 2, v), TruncatedSeries(L + 2, u))
            d_short = tuple(TruncatedSeries(L, s.tensor) for s in d_long)
            short_fl = fliess_tilde(FliessElement(1, TruncatedSeries(L, u)), d_short)
            long_fl = fliess_tilde(FliessElement(1, TruncatedSeries(L + 2, u)), d_long)
            assert short_fl.series.tensor == truncated(long_fl.series.tensor, L)


@pytest.mark.parametrize("f", MAPS, ids=["fliess(2,1)", "index-3"])
def test_no_shuffled_pair_is_longer_than_the_truncation(f, monkeypatch):
    # the composition shuffles int-coded words through the tuple kernel
    pair_lengths: list[int] = []
    inner = words._shuffle_tuples

    def counting(u, v):
        pair_lengths.append(len(u) + len(v))
        return inner(u, v)

    monkeypatch.setattr(characters, "_shuffle_tuples", counting)
    ctx = ComPreLieContext(f)
    rng = random.Random(len(f.alphabet))
    L = 4
    u, v = (TruncatedSeries(L, random_tensor(L, ctx.alphabet, rng)) for _ in range(2))
    ops = [lambda: tilde_compose(ctx, u, v), lambda: inverse(ctx, u)]
    if f is not INDEX3:
        ops.append(lambda: fliess_tilde(FliessElement(1, u), (v, u)))
    for op in ops:
        pair_lengths.clear()
        op()
        # each shuffled pair lands behind a prepended letter, so no pair
        # needs more than L - 1 letters (tighter than |u| + |v| <= L)
        assert pair_lengths and max(pair_lengths) <= L - 1


@pytest.mark.parametrize("f", MAPS, ids=["fliess(2,1)", "index-3"])
def test_composition_never_shuffles_by_the_unit(f, monkeypatch):
    # f^0(x) = x only prepends x: with no empty word in v, no shuffle has
    # an empty right operand
    right_operands: list[tuple] = []
    inner = words._shuffle_tuples

    def counting(u, v):
        right_operands.append(v)
        return inner(u, v)

    monkeypatch.setattr(characters, "_shuffle_tuples", counting)
    ctx = ComPreLieContext(f)
    rng = random.Random(7 + len(f.alphabet))
    for L in (2, 3, 4):
        u, v = (random_tensor(L, ctx.alphabet, rng) for _ in range(2))
        v = Tensor({w: c for w, c in v.items() if len(w)})
        tilde_compose(ctx, TruncatedSeries(L, u), TruncatedSeries(L, v))
    assert right_operands and all(len(w) for w in right_operands)


def test_inverse_runs_its_diamond_check(monkeypatch):
    ctx = ComPreLieContext(INDEX3)
    u = TruncatedSeries(3, Tensor.of(word("ca"), Fraction(1, 2)))
    assert characters.diamond(ctx, u, inverse(ctx, u)) == TruncatedSeries.zero(3)
    nonzero = TruncatedSeries(3, Tensor.of(word("a")))
    monkeypatch.setattr(characters, "diamond", lambda ctx, x, y: nonzero)
    with pytest.raises(RuntimeError, match="internal error"):
        inverse(ctx, u)
