"""Truncated composition groups and the input-output series instance."""

from __future__ import annotations

import ast
import gc
import itertools
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from comprelie import characters
from comprelie.characters import (
    FliessElement,
    TruncatedSeries,
    diamond,
    fibonacci_dims,
    fliess_diamond,
    fliess_tilde,
    inverse,
    tilde_compose,
)
from comprelie.endo import (
    Endo,
    fliess_channel,
    iterate_endo_letter,
    nilpotency_index,
    transpose_endo,
)
from comprelie.enveloping import SymMonomial, closed_action, dual_coproduct, star
from comprelie.forests import delta_cobracket
from comprelie.prelie import ComPreLieContext, prelie, span_dimension_of_products
from comprelie.words import EMPTY_WORD, Letter, Tensor, Word, half_shuffle, parse_tensor, parse_word
from comprelie.words import shuffle

W = parse_word
T = parse_tensor
SRC = Path(__file__).resolve().parent.parent / "src" / "comprelie"

NIL = Endo.matrix(["a", "b"], [[0, Fraction(1, 2)], [0, 0]])
F11 = fliess_channel(1, 1)


def series(trunc: int, src: str) -> TruncatedSeries:
    return TruncatedSeries(trunc, T(src))


def random_series(trunc: int, alphabet, rng: random.Random, terms: int = 4) -> TruncatedSeries:
    words = [Word(())]
    for n in range(1, trunc + 1):
        words.extend(Word(t) for t in itertools.product(alphabet, repeat=n))
    acc = {}
    for _ in range(terms):
        w = rng.choice(words)
        acc[w] = acc.get(w, 0) + Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return TruncatedSeries(trunc, acc)


# ---------------------------------------------------------------------------
# composition basics
# ---------------------------------------------------------------------------

def test_empty_word_composes_to_itself():
    ctx = ComPreLieContext(NIL)
    v = series(4, "a + 2*ab")
    assert tilde_compose(ctx, series(4, "e"), v) == series(4, "e")


def test_single_letter_composition():
    ctx = ComPreLieContext(NIL)
    v = series(4, "a + 1/2*bb")
    got = tilde_compose(ctx, series(4, "b"), v)
    # sum over i of f^i(x) prepended to the i-th shuffle power of v
    expected = Tensor.of(W("b")) + Tensor(
        {
            Word((W("a")[0],) + t.letters): Fraction(1, 2) * c
            for t, c in v.tensor.items()
        }
    )
    assert got == TruncatedSeries(4, expected)


def test_nested_formula_for_word_composition():
    ctx = ComPreLieContext(NIL)
    N = 2
    v = series(5, "a + ab - 1/3*b")
    L = 5
    for letters in ("bb", "ba", "bab"):
        u = W(letters)
        expected = Tensor.of(EMPTY_WORD)
        # build inside-out over the reversed letters
        for x in reversed(u.letters):
            acc = Tensor()
            pow_v = Tensor.of(EMPTY_WORD)
            for i in range(N):
                image = iterate_endo_letter(ctx.f, i, x)
                mixed = shuffle(expected, pow_v)
                for y, cy in image.items():
                    for t, c in mixed.items():
                        if len(t) + 1 <= L:
                            acc = acc + Tensor.of(Word((y,) + t.letters), cy * c)
                pow_v = shuffle(pow_v, v.tensor)
            expected = acc
        got = tilde_compose(ctx, TruncatedSeries(L, Tensor.of(u)), v)
        assert got == TruncatedSeries(L, expected), letters


def test_compose_with_zero_is_identity():
    ctx = ComPreLieContext(NIL)
    u = series(4, "ab + 3*b - e")
    assert tilde_compose(ctx, u, TruncatedSeries.zero(4)) == u
    assert diamond(ctx, u, TruncatedSeries.zero(4)) == u


def test_zero_left_operand():
    ctx = ComPreLieContext(NIL)
    v = series(4, "a + ab")
    assert tilde_compose(ctx, TruncatedSeries.zero(4), v) == TruncatedSeries.zero(4)
    assert diamond(ctx, TruncatedSeries.zero(4), v) == v


def test_rejects_non_nilpotent():
    ctx = ComPreLieContext(Endo.diagonal({"a": 1}))
    with pytest.raises(ValueError, match="nilpotent"):
        tilde_compose(ctx, series(3, "a"), series(3, "a"))


def test_rejects_mismatched_truncation():
    ctx = ComPreLieContext(NIL)
    with pytest.raises(ValueError, match="truncation"):
        tilde_compose(ctx, series(3, "a"), series(4, "a"))


def test_diamond_associative_on_random_series():
    ctx = ComPreLieContext(NIL)
    rng = random.Random(7)
    for _ in range(6):
        u = random_series(4, ctx.alphabet, rng)
        v = random_series(4, ctx.alphabet, rng)
        w = random_series(4, ctx.alphabet, rng)
        lhs = diamond(ctx, diamond(ctx, u, v), w)
        rhs = diamond(ctx, u, diamond(ctx, v, w))
        assert lhs == rhs


def test_inverse_roundtrip():
    ctx = ComPreLieContext(NIL)
    rng = random.Random(40)
    zero = TruncatedSeries.zero(4)
    assert inverse(ctx, zero) == zero
    for _ in range(5):
        u = random_series(4, ctx.alphabet, rng)
        v = inverse(ctx, u)
        assert diamond(ctx, u, v) == zero
        assert diamond(ctx, v, u) == zero
        assert inverse(ctx, v) == u


def test_index_three_map_group_law():
    # f^2 != 0 on c, so words starting with c absorb the divided power
    # v^(sh 2)/2! of v: associativity and inversion both depend on the 1/2!
    f = Endo.matrix(["a", "b", "c"], [[0, 1, Fraction(1, 2)], [0, 0, Fraction(-2, 3)], [0, 0, 0]])
    assert nilpotency_index(f) == 3
    ctx = ComPreLieContext(f)
    rng = random.Random(5)

    def draw(support):
        coeff = lambda: rng.choice((-1, 1)) * Fraction(rng.randint(1, 4), rng.randint(1, 3))
        return TruncatedSeries(3, {W(w): coeff() for w in support})

    for _ in range(2):
        u, v, w = draw(["c", "cb", "a", "bc"]), draw(["a", "b", "c", "ab"]), draw(["b", "c", "ca"])
        assert diamond(ctx, diamond(ctx, u, v), w) == diamond(ctx, u, diamond(ctx, v, w))
    zero = TruncatedSeries.zero(3)
    x = inverse(ctx, u)
    assert diamond(ctx, u, x) == zero and diamond(ctx, x, u) == zero
    assert inverse(ctx, x) == u


def test_composition_matches_dual_coproduct_evaluation():
    # coefficient of w in u comp v, against evaluating u (x) v on the dual
    # coproduct of w taken with the transposed endomorphism
    ctx = ComPreLieContext(F11)
    dual_ctx = ComPreLieContext(transpose_endo(F11))
    rng = random.Random(11)
    words2 = [Word(())] + [
        Word(t) for n in (1, 2) for t in itertools.product(F11.alphabet, repeat=n)
    ]
    for _ in range(4):
        u = random_series(3, F11.alphabet, rng)
        v = random_series(3, F11.alphabet, rng)
        comp = tilde_compose(ctx, u, v)
        for w in words2:
            expected = 0
            for t, mono, c in dual_coproduct(dual_ctx, w):
                val = u.coefficient(t)
                if not val:
                    continue
                for factor in mono.factors:
                    val *= v.coefficient(factor)
                    if not val:
                        break
                expected += c * val
            assert comp.coefficient(w) == expected, w


# ---------------------------------------------------------------------------
# input-output tuples
# ---------------------------------------------------------------------------

def x_alphabet(n: int):
    return [parse_word(f"x{j}")[0] for j in range(n + 1)]


def test_fliess_empty_word():
    d = (series(3, "x1 + x0.x2"), series(3, "x2"))
    c = FliessElement(1, series(3, "e"))
    assert fliess_tilde(c, d).series == series(3, "e")


def test_fliess_channel_gate():
    # on channel 1 the letter x1 fires the gate, x2 does not
    d = (series(3, "x2"), series(3, "x1"))
    got = fliess_tilde(FliessElement(1, series(3, "x1")), d)
    assert got.series == series(3, "x1 + x0.x2")
    got2 = fliess_tilde(FliessElement(1, series(3, "x2")), d)
    assert got2.series == series(3, "x2")


def test_fliess_matches_generic_composition_on_channel():
    # each channel paired with its own endomorphism: the two image rules
    # over the one composition kernel agree, for every channel of n <= 3
    rng = random.Random(3)
    for n in (1, 2, 3):
        alphabet = x_alphabet(n)
        for i in range(1, n + 1):
            ctx = ComPreLieContext(fliess_channel(n, i))
            for _ in range(4):
                u = random_series(3, alphabet, rng)
                v = random_series(3, alphabet, rng)
                d = tuple(
                    v if j == i else TruncatedSeries.zero(3) for j in range(1, n + 1)
                )
                lhs = fliess_tilde(FliessElement(i, u), d).series
                rhs = tilde_compose(ctx, u, v)
                assert lhs == rhs, (n, i)


def test_a_left_operand_of_zero_image_letters_makes_no_shuffle_lookup(monkeypatch):
    # x0 and x2 have no image under fliess(2,1): every word of u only
    # prepends its letters, so no divided power of v is built and no pair
    # is shuffled, warm or cold, and u comes back as it is
    lookups = []
    bounded = characters._bounded_pairs

    def recording(memo, bound):
        pair = bounded(memo, bound)
        return lambda a, b: lookups.append((a, b)) or pair(a, b)

    monkeypatch.setattr(characters, "_bounded_pairs", recording)
    ctx = ComPreLieContext(fliess_channel(2, 1))
    rng = random.Random(5)
    for L in (2, 3, 4):
        u = random_series(L, x_alphabet(2)[::2], rng, terms=6)
        v = random_series(L, x_alphabet(2), rng, terms=6)
        assert tilde_compose(ctx, u, v) == u
        assert fliess_tilde(FliessElement(1, u), (v, v)).series == u
    assert lookups == []
    # the same pairs with x1 in u are shuffled: the recording sees them
    assert tilde_compose(ctx, series(3, "x1.x2"), series(3, "x2")) != series(3, "x1.x2")
    assert lookups


def test_cross_channel_composition_is_trivial():
    n = 2
    alphabet = x_alphabet(n)
    rng = random.Random(9)
    for i, j in ((1, 2), (2, 1)):
        for _ in range(3):
            u = random_series(3, alphabet, rng)
            v = random_series(3, alphabet, rng)
            d = tuple(
                v if kk == j else TruncatedSeries.zero(3)
                for kk in range(1, n + 1)
            )
            assert fliess_tilde(FliessElement(i, u), d).series == u


def test_fliess_diamond_direct_product():
    # elements supported on different channels just add
    n = 2
    u = series(3, "x1.x2 + x0")
    v = series(3, "x2 - x0.x1")
    zero = TruncatedSeries.zero(3)
    c = (u, zero)
    d = (zero, v)
    got = fliess_diamond(c, d)
    assert got == (u, v)


def test_fliess_diamond_identity():
    n = 2
    zero = TruncatedSeries.zero(3)
    c = (series(3, "x1 + x0.x2"), series(3, "x2.x2"))
    assert fliess_diamond(c, (zero, zero)) == c
    assert fliess_diamond((zero, zero), c) == c


def test_fliess_diamond_single_channel_agrees_with_diamond():
    ctx = ComPreLieContext(fliess_channel(1, 1))
    rng = random.Random(21)
    alphabet = x_alphabet(1)
    for _ in range(4):
        u = random_series(3, alphabet, rng)
        v = random_series(3, alphabet, rng)
        got = fliess_diamond((u,), (v,))
        assert got == (diamond(ctx, u, v),)


# ---------------------------------------------------------------------------
# dimension audit
# ---------------------------------------------------------------------------

def test_fibonacci_dims_sequences():
    assert fibonacci_dims(1, 8) == [0, 1, 1, 2, 3, 5, 8, 13, 21]
    assert fibonacci_dims(2, 5) == [0, 1, 2, 5, 12, 29]
    for n in (1, 2, 3):
        dims = fibonacci_dims(n, 5)
        assert dims[3] == n * n + 1
        assert dims[4] == n * (n * n + 2)
        assert dims[5] == n**4 + 3 * n * n + 1


def test_fibonacci_dims_count_graded_words():
    # degree of a word = length + number of x0 letters + 1
    for n in (1, 2, 3):
        alphabet = x_alphabet(n)
        x0 = alphabet[0]
        counts = [0] * 9
        for m in range(8):
            for tup in itertools.product(alphabet, repeat=m):
                deg = m + sum(1 for x in tup if x == x0) + 1
                if deg <= 8:
                    counts[deg] += 1
        assert counts == fibonacci_dims(n, 8)


def test_fibonacci_dims_memory_is_linear_in_the_degree():
    # the plain series needs no (degree, word count) table
    import tracemalloc

    tracemalloc.start()
    try:
        dims = fibonacci_dims(2, 600)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dims[:6] == [0, 1, 2, 5, 12, 29]
    assert peak < 2 * 1024 * 1024


def test_fibonacci_rejects_bad_input():
    with pytest.raises(ValueError):
        fibonacci_dims(0, 3)


def test_nilpotency_index_is_computed_once_per_context(monkeypatch):
    import sys

    import comprelie.endo as endo_mod

    calls = []
    real = endo_mod.nilpotency_index

    def counting(f):
        calls.append(f)
        return real(f)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "comprelie" and getattr(mod, "nilpotency_index", None) is real:
            monkeypatch.setattr(mod, "nilpotency_index", counting)
    ctx = ComPreLieContext(fliess_channel(2, 1))
    u = TruncatedSeries(3, parse_tensor("x1 + 2*x2.x1"))
    v = TruncatedSeries(3, parse_tensor("x0 - x1.x2"))
    for w in ("x1.x2", "x2.x1.x1", "x1.x0.x2.x1"):
        tilde_compose(ctx, u, v)
        inverse(ctx, u)
        dual_coproduct(ctx, parse_word(w))
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# long words and process-wide caches
# ---------------------------------------------------------------------------

def test_long_words_compose_without_recursion():
    # one frame per letter would pass the default recursion limit
    ctx = ComPreLieContext(fliess_channel(2, 1))
    x1, x2 = Word((Letter("x1"),)), Word((Letter("x2"),) * 1200)
    u, v = TruncatedSeries(1200, Tensor.of(x2)), TruncatedSeries(1200, Tensor.of(x1))
    assert tilde_compose(ctx, u, v) == u  # f(x2) = 0: each x2 only prepends itself
    element = FliessElement(1, u)
    assert fliess_tilde(element, (v, v)) == element  # x2 is off channel 1


UPPER3 = Endo.matrix(
    ["a", "b", "c"], [[0, 1, Fraction(1, 2)], [0, 0, Fraction(-2, 3)], [0, 0, 0]]
)
F21 = fliess_channel(2, 1)


def _letters(src: str, n: int) -> Word:
    return Word((Letter(src),) * n)


def _compositions(n: int) -> None:
    ctx = ComPreLieContext(F21)
    u = TruncatedSeries(n, parse_tensor("x1.x2 + 1/2*x2.x1.x1 - x0.x1"))
    v = TruncatedSeries(n, parse_tensor("2 + x1 - 3*x2.x1"))
    tilde_compose(ctx, u, v)
    inverse(ctx, u)
    fliess_tilde(FliessElement(1, u), (v, u))


STARS = [(("cab", "bc"), ("ca", "cbc")), (("ccb", "cbc"), ("bca", "cab"))]


def _star(n: int) -> None:
    a, b = (SymMonomial(tuple(map(W, m))) for m in STARS[n])
    star(ComPreLieContext(UPPER3), a, b)


def _span(n: int) -> None:
    ctx = ComPreLieContext(F21)
    span_dimension_of_products(ctx, [T("x1"), T("x2 + x0"), T("x1.x2")], n)


def _prelie(n: int) -> None:
    prelie(ComPreLieContext(F21), _letters("x1", 10 * n), _letters("x2", 1))


def _closed_action(n: int) -> None:
    closed_action(ComPreLieContext(UPPER3), _letters("c", n), [W("b"), W("a")])


# each case runs once on a small n to warm the interpreter, then on a larger
# one under tracemalloc
RETENTION = {
    "prelie": (_prelie, 1, 4),
    "compositions": (_compositions, 2, 5),
    "closed_action": (_closed_action, 2, 12),
    "star": (_star, 0, 1),
    "span": (_span, 2, 4),
    "shuffle": (lambda n: shuffle(W("abcab"[:n]), W("bcabca"[:n + 1])), 2, 5),
    "half_shuffle": (lambda n: half_shuffle(W("abcab"[:n]), W("bcabca"[:n + 1])), 2, 5),
    # one word under a new weight map on the second run: t elements kept
    # past the call would stay behind; the trees it cuts are normalised
    # with no memo, so they leave nothing either
    "projected_cobracket": (
        lambda n: delta_cobracket(W("abbaba"), {"a": Fraction(n, 7), "b": Fraction(-5, 3)},
                                  mode="projected"),
        2, 3,
    ),
}


@pytest.mark.parametrize("case", RETENTION)
def test_an_operation_leaves_no_memo_behind(case):
    # every memo ends with its call or with the context built for it
    op, warm, n = RETENTION[case]
    op(warm)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        op(n)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 64 * 1024, f"{case} left {retained} bytes"


def lru_caches(source: str) -> list[int]:
    """The line of each use of ``functools.lru_cache`` or ``functools.cache``,
    by either name, as a decorator, a call or an import."""
    names = {"lru_cache", "cache"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [node.lineno for alias in node.names if alias.name in names]
        elif (isinstance(node, ast.Attribute) and node.attr in names
              and isinstance(node.value, ast.Name) and node.value.id == "functools"):
            found.append(node.lineno)
    return found


def test_the_detector_sees_a_process_wide_cache():
    hand_written = (
        "import functools\n"
        "from functools import cache, partial\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def f(u, v):\n"
        "    return u\n"
        "g = functools.cache(f)\n"
        "h = partial(f, 1)\n"
    )
    assert lru_caches(hand_written) == [2, 3, 6]


def test_no_module_keeps_a_process_wide_function_cache():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    seen = [(path.name, line) for path in paths
            for line in lru_caches(path.read_text(encoding="utf-8"))]
    assert seen == []
