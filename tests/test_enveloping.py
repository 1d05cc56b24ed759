"""Extended pre-Lie action, enveloping product, dual coproduct, pairing."""

from __future__ import annotations

import gc
import importlib
import inspect
import itertools
import pickle
import random
import types
from fractions import Fraction
from math import factorial

import pytest

from comprelie.characters import TruncatedSeries, inverse, tilde_compose
from comprelie.endo import Endo, fliess_channel, iterate_endo_letter, nilpotency_index
from comprelie import enveloping
from comprelie.enveloping import (
    ONE,
    _delta_tilde_word,
    _sorted,
    _splittings,
    _word_brace,
    SymMonomial,
    SymTensor,
    closed_action,
    dual_coproduct,
    extend_bullet,
    full_coproduct,
    pair_tensor,
    star,
    sym_pairing,
)
from comprelie.forests import Forest, ForestPoly, forest_bullet, forest_star
from comprelie.prelie import ComPreLieContext, prelie, prelie_closed
from comprelie.trees import all_rooted_trees, free_bullet
from comprelie.words import EMPTY_WORD, BasisKey, Letter, Tensor, Word, _add_into, _Sum, parse_word
from comprelie.words import shuffle

PRELIE = importlib.import_module("comprelie.prelie")  # the module, not its function
W = parse_word

NIL = Endo.matrix(["a", "b"], [[0, Fraction(1, 2)], [0, 0]])  # b -> a/2 -> 0
FLIESS = fliess_channel(1, 1)
# c -> a/2 - 2b/3 -> -2a/3 -> 0: nilpotency index 3, so the dual coproduct
# deals letters into two tail parts
UPPER3 = Endo.matrix(
    ["a", "b", "c"], [[0, 1, Fraction(1, 2)], [0, 0, Fraction(-2, 3)], [0, 0, 0]]
)
FULL3 = Endo.matrix(
    ["a", "b", "c"], [[1, 2, 0], [Fraction(1, 2), 0, -1], [0, 3, Fraction(-1, 3)]]
)
_rng = random.Random("a random rational map")
RANDOM2 = Endo.matrix(
    ["a", "b"], [[Fraction(_rng.randint(-3, 3), _rng.randint(1, 4)) for _ in "ab"] for _ in "ab"]
)


class RecursiveOudomGuin:
    """The reference extension, from a binary pre-Lie product ``base``:
    the action of one element splits over the factors of the left
    operand, and A . (B u) = (A . B) . u - A . (B . u) peels the right
    operand one factor at a time.  Its cost grows quickly with the factors
    of the right operand; the engine deals them through the brace.  It
    keeps its own recursion and memo on factor tuples, and wraps only its
    output in ``cls``'s monomials."""

    def __init__(self, base):
        self.base = base
        self._cache = {}

    def bullet(self, cls, a, b):
        return self._extend(self._bullet_mono, cls, a, b)

    def star(self, cls, a, b):
        return self._extend(self._star_mono, cls, a, b)

    @staticmethod
    def _extend(mono_op, cls, a, b):
        acc = _Sum()
        for ma, ca in cls._coerce(a).items():
            for mb, cb in cls._coerce(b).items():
                _add_into(acc, mono_op(ma.factors, mb.factors), ca * cb)
        return cls({cls.monomial(m): c for m, c in acc.result().items()})

    def _star_mono(self, a, b):
        acc = _Sum()
        for outside, inside in _splittings(b, 2):
            _add_into(acc, ((_sorted(m + outside), c) for m, c in self._bullet_mono(a, inside)))
        return acc.result().items()

    def _bullet_mono(self, a, b):
        key = (a, b)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        if len(b) == 0:
            out = ((a, 1),)
        elif len(b) == 1:
            out = tuple(self._bullet_mono_elem(a, b[0]).items())
        else:
            rest, last = b[:-1], b[-1]
            acc = _Sum()
            for m, c in self._bullet_mono(a, rest):
                _add_into(acc, self._bullet_mono(m, (last,)), c)
            for m, c in self._bullet_mono_elem(rest, last).items():
                _add_into(acc, self._bullet_mono(a, m), -c)
            out = tuple(acc.result().items())
        self._cache[key] = out
        return out

    def _bullet_mono_elem(self, a, u) -> dict:
        acc = _Sum()
        for i, ai in enumerate(a):
            rest = a[:i] + a[i + 1:]
            _add_into(acc, ((_sorted(rest + (e,)), c) for e, c in self.base(ai, u)))
        return acc.result()


def closed_base(f: Endo):
    """The pre-Lie product of two words by its closed form, on a context
    of its own: a base product for :class:`RecursiveOudomGuin` that shares
    no memo with the engine under test."""
    ctx = ComPreLieContext(f)
    return lambda u, v: prelie_closed(ctx, u, v).items()


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


def test_star_of_empty_word_prepends_factor():
    ctx = ComPreLieContext(NIL)
    factors = (W("a"), W("ba"))
    got = star(ctx, SymMonomial.of(W("e")), SymMonomial(factors))
    assert got == mono_tensor(SymMonomial(factors + (EMPTY_WORD,)))


WORDS_FOR_EQUIV = [W("e"), W("a"), W("b"), W("ab"), W("ba")]
FACTOR_LISTS = (
    [[]]
    + [[u] for u in WORDS_FOR_EQUIV]
    + [[u, v] for u in WORDS_FOR_EQUIV[:4] for v in WORDS_FOR_EQUIV[:4]]
)


def test_closed_action_matches_recursive_rules():
    ctx = ComPreLieContext(NIL)
    ref = RecursiveOudomGuin(closed_base(ctx.f))
    for w in WORDS_FOR_EQUIV:
        for factors in FACTOR_LISTS:
            lhs = closed_action(ctx, w, factors)
            rhs = ref.bullet(SymTensor, SymMonomial.of(w), SymMonomial(tuple(factors)))
            assert lhs == rhs, (w, factors)


def test_closed_action_is_one_combination_for_both_factor_orders():
    # the second call, with the factors reversed, reads what the first left
    # in the context's engine
    ctx = ComPreLieContext(UPPER3)
    w, factors = W("bcb"), [W("cb"), W("b")]
    typed = lambda t: {m: (type(c), c) for m, c in t.items()}
    first = closed_action(ctx, w, factors)
    second = closed_action(ctx, w, factors[::-1])
    assert typed(first) == typed(second)
    a, b = SymMonomial.of(w), SymMonomial(tuple(factors))
    assert typed(first) == typed(extend_bullet(ctx, a, b))
    assert first == RecursiveOudomGuin(closed_base(ctx.f)).bullet(SymTensor, a, b)
    assert {type(c) for _, c in first.items()} == {int, Fraction}


def test_star_matches_the_reference_star():
    ctx = ComPreLieContext(NIL)
    ref = RecursiveOudomGuin(closed_base(ctx.f))
    for w in WORDS_FOR_EQUIV:
        for factors in FACTOR_LISTS:
            a, b = SymMonomial.of(w), SymMonomial(tuple(factors))
            assert star(ctx, a, b) == ref.star(SymTensor, a, b), (w, factors)


def _sample_monomial(rng: random.Random, letters, max_factors: int) -> SymMonomial:
    """Up to ``max_factors`` words of 0-2 letters, the first repeated now
    and then, so that the unit, empty-word factors and repeated factors
    all occur."""
    words = [Word(tuple(rng.choice(letters) for _ in range(rng.randint(0, 2))))
             for _ in range(rng.randint(0, max_factors))]
    if words and rng.random() < 0.3:
        words.append(words[0])
    return SymMonomial(tuple(words))


@pytest.mark.parametrize(
    "f", [FULL3, UPPER3, fliess_channel(2, 1), RANDOM2],
    ids=["FULL3", "UPPER3", "fliess(2,1)", "random"],
)
def test_the_brace_engine_matches_the_reference_recursion(f):
    ctx = ComPreLieContext(f)
    ref = RecursiveOudomGuin(closed_base(ctx.f))
    rng = random.Random(f"brace {f.alphabet}")
    # the unit and empty-word factors, then random monomials
    samples = [(ONE, ONE), (ONE, S("e")), (S("e"), ONE), (S("e", "e"), S("e", "e"))]
    samples += [(_sample_monomial(rng, f.alphabet, 3), _sample_monomial(rng, f.alphabet, 3))
                for _ in range(60)]
    x, y = f.alphabet[:2]
    samples.append((SymMonomial.of(Word((x, y))), SymMonomial.of(*[Word((y,))] * 3)))
    for a, b in samples:
        assert extend_bullet(ctx, a, b) == ref.bullet(SymTensor, a, b), (a, b)
        assert star(ctx, a, b) == ref.star(SymTensor, a, b), (a, b)


def test_forest_products_match_the_reference_recursion():
    ref = RecursiveOudomGuin(lambda t1, t2: free_bullet(t1, t2).items())
    ab = [Letter("a"), Letter("b")]
    pool = [t for n in (1, 2, 3) for t in all_rooted_trees(n, ab)]
    rng = random.Random("forest brace")
    cases = 0
    while cases < 60:
        a = Forest(tuple(rng.choice(pool) for _ in range(rng.randint(0, 2))))
        b = Forest(tuple(rng.choice(pool[:6]) for _ in range(rng.randint(0, 3))))
        if rng.random() < 0.3 and b.trees:
            b = Forest(b.trees + b.trees[:1])  # a repeated factor
        if a.n_vertices + b.n_vertices > 5:
            continue
        assert forest_bullet(a, b) == ref.bullet(ForestPoly, a, b), (a, b)
        assert forest_star(a, b) == ref.star(ForestPoly, a, b), (a, b)
        cases += 1


def shuffled_pairs(f: Endo, w: Word, factors: tuple, skip_zero_deals: bool) -> set:
    """The distinct (word, factor) pairs that the brace w{factors} shuffles,
    found deal by deal through the public ``shuffle``."""
    pairs = set()
    for blocks in _splittings(factors, len(w)):
        at = [j for j, block in enumerate(blocks) if block]
        images = [iterate_endo_letter(f, len(blocks[j]), w[j]) for j in at]
        if skip_zero_deals and not all(images):
            continue
        t = Tensor.of(w[at[-1] + 1:])
        for i in range(len(at) - 1, -1, -1):
            for u in blocks[at[i]]:
                pairs.update((x, u) for x in t.terms)
                t = shuffle(t, u)
            between = w.letters[at[i - 1] + 1 if i else 0:at[i]]
            t = Tensor((Word(between + (y,) + x.letters), cy * c)
                       for y, cy in images[i].items() for x, c in t.items())
    return pairs


@pytest.mark.parametrize("f", [NIL, UPPER3], ids=["index-2", "index-3"])
def test_a_deal_with_a_zero_letter_image_is_never_shuffled(f):
    calls = []

    def counted(kernel):
        def wrapper(*args):
            calls.append(args)
            return kernel(*args)
        return wrapper

    rng = random.Random(f"zero deals {f.alphabet}")
    shuffled = dealt = 0
    for _ in range(20):
        w = Word(tuple(rng.choice(f.alphabet) for _ in range(rng.randint(1, 3))))
        factors = tuple(Word((rng.choice(f.alphabet),)) for _ in range(rng.randint(2, 3)))
        # the brace reads its shuffled pairs from the context's memo and
        # shuffles no share whose power is 0: on a fresh context the
        # memo's kernel runs at most once for each distinct pair of the
        # deals in which every letter keeps a nonzero image (fewer where
        # the shares of several deals are summed first)
        calls.clear()
        ctx = ComPreLieContext(f)
        ctx._codes.shuffles.kernel = counted(ctx._codes.shuffles.kernel)
        got = _word_brace(ctx, w, factors)
        assert len(calls) <= len(shuffled_pairs(f, w, factors, skip_zero_deals=True)), (w, factors)
        shuffled += len(calls)
        dealt += len(shuffled_pairs(f, w, factors, skip_zero_deals=False))
        ref = RecursiveOudomGuin(closed_base(f))
        assert SymTensor({SymMonomial.of(x): c for x, c in got}) == ref.bullet(
            SymTensor, SymMonomial.of(w), SymMonomial(factors)
        )
    assert 0 < shuffled < dealt  # some pairs were never shuffled, and some were


@pytest.mark.parametrize("f", [UPPER3, fliess_channel(2, 1)], ids=["index-3", "fliess(2,1)"])
def test_a_factor_repeated_three_or_four_times_matches_the_reference(f):
    # under fliess(2,1) only x1 takes a factor, one at most: its words are
    # drawn with x1 twice as often, so that some braces are nonzero
    letters = f.alphabet + f.alphabet[1:2]
    rng = random.Random(f"repeated factors {f.alphabet}")
    nonzero = 0
    for _ in range(16):
        w = Word(tuple(rng.choice(letters) for _ in range(rng.randint(3, 5))))
        u = Word(tuple(rng.choice(letters) for _ in range(rng.randint(1, 2))))
        factors = [u] * rng.randint(3, 4) + [Word((rng.choice(letters),))] * rng.randint(0, 1)
        got = closed_action(ComPreLieContext(f), w, factors)
        ref = RecursiveOudomGuin(closed_base(f))
        assert got == ref.bullet(SymTensor, SymMonomial.of(w), SymMonomial(factors)), (w, factors)
        nonzero += bool(got)
    assert nonzero >= 4


def test_a_long_word_is_never_dealt_over_its_letters(monkeypatch):
    # under fliess(2,1) only the two x1 of x0^600 x1 x1 can take a factor:
    # the splits the brace kernel enumerates stay linear in the length of
    # the word (all deals of the two factors over its letters are 602^2),
    # and the kernel's own frames nest no deeper than one per factor
    f = fliess_channel(2, 1)
    x0, x1, x2 = f.alphabet
    w, factors = Word((x0,) * 600 + (x1, x1)), (Word((x2,)), Word((x2,)))
    bound = 2 ** len(factors) * len(w)
    splits, depths = [], []
    enumerate_splits = PRELIE._splittings

    def counted(items, k):
        frame, depth = inspect.currentframe(), 0
        while frame is not None:  # the functions of the module, not its comprehensions
            code = frame.f_code
            depth += code.co_filename == PRELIE.__file__ and not code.co_name.startswith("<")
            frame = frame.f_back
        depths.append(depth)
        for split in enumerate_splits(items, k):
            splits.append(split)
            assert len(splits) <= bound, "the brace deals over the letters of the word"
            yield split

    monkeypatch.setattr(PRELIE, "_splittings", counted)
    got = _word_brace(ComPreLieContext(f), w, factors)
    assert len(got) == 2
    assert 0 < len(splits) <= bound
    assert 0 < max(depths) <= 1 + len(factors)
    ref = RecursiveOudomGuin(closed_base(f))
    assert SymTensor({SymMonomial.of(x): c for x, c in got}) == ref.bullet(
        SymTensor, SymMonomial.of(w), SymMonomial(factors)
    )


@pytest.mark.parametrize("f", [UPPER3, fliess_channel(2, 1)], ids=["index-3", "fliess(2,1)"])
def test_a_cold_product_builds_one_word_per_output_term(f, monkeypatch):
    # the kernels work on coded letters and build a Word only for a term
    # of their output, not for the terms they sum on the way: each on a
    # cold context of its own, whose word memo holds none of them yet
    x0, x1, x2 = f.alphabet
    u, v = Word((x2, x1, x2)), Word((x1, x2))
    w, factors = Word((x1, x2, x1, x1)), (Word((x1,)), Word((x2, x1)), Word((x1, x2)))
    for_product, for_brace = ComPreLieContext(f), ComPreLieContext(f)
    built = []
    init = Word.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Word, "__init__", counted)
    product = prelie(for_product, u, v)
    assert product and len(built) == len(product.terms)
    built.clear()
    brace = _word_brace(for_brace, w, factors)
    assert brace and len(built) == len(brace)


def test_a_cold_brace_computes_each_power_of_a_letter_once(monkeypatch):
    # c^6 acting on b, a, ba gives each of its six letters, at each suffix
    # brace, every nonempty share of the three factors, each share of m
    # factors asking for f^m(c) with m <= 3: the call computes each of
    # those powers once, whatever it reads them through, and scales and
    # codes each nonzero one once, one entry at a time
    a, b, c = UPPER3.alphabet
    w, factors = Word((c,) * 6), [Word((b,)), Word((a,)), Word((b, a))]
    expected = closed_action(ComPreLieContext(UPPER3), w, factors)
    images, scaled = [], []

    def tap(powers):
        for image in powers:
            images.append(image)
            yield image

    def counted(fn):
        def wrapper(*args):
            out = fn(*args)
            if isinstance(out, types.GeneratorType):
                return tap(out)
            images.append(out)
            return out
        return wrapper

    for name, fn in list(vars(PRELIE).items()):
        if inspect.isfunction(fn) and fn.__module__ == "comprelie.endo":
            monkeypatch.setattr(PRELIE, name, counted(fn))
    scale = PRELIE._scaled

    def counted_scale(c, d):
        scaled.append((c, d))
        return scale(c, d)

    monkeypatch.setattr(PRELIE, "_scaled", counted_scale)
    assert closed_action(ComPreLieContext(UPPER3), w, factors) == expected
    assert 0 < len(images) <= 4  # f^0(c), ..., f^3(c) at most
    # the entries of the nonzero powers among f^1(c), ..., f^3(c), each once
    nonzero = [(cy, 6 ** m) for m, image in enumerate(images[1:4], 1) for cy in image.values()]
    assert 0 < len(scaled) == len(nonzero) and sorted(scaled) == sorted(nonzero)


def test_a_brace_frees_its_suffix_memo_when_it_returns():
    # the suffix-brace memo and its kernel refer to each other: the memos
    # are emptied before the call returns, or the collector would free
    # about 310,000 objects after this one brace
    a, b, c = UPPER3.alphabet
    ctx = ComPreLieContext(UPPER3)
    gc.collect()
    gc.disable()
    try:
        out = _word_brace(ctx, Word((c,) * 7), [Word((b,)), Word((a,)), Word((b, a))])
        assert out and gc.collect() < 1000
    finally:
        gc.enable()


def test_a_cold_brace_accumulates_only_ints(monkeypatch):
    # D * f is integral under UPPER3 (D = 6), and the kernel scales each
    # f^m by D^m: every coefficient it puts after a prefix, of an image or
    # of the suffix it is put before, is an int; the brace divides by D^3
    # once, at the end
    a, b, c = UPPER3.alphabet
    w, factors = Word((c,) * 6), [Word((b,)), Word((a,)), Word((b, a))]
    expected = closed_action(ComPreLieContext(UPPER3), w, factors)
    seen = []
    prepend = PRELIE._prepend

    def typed(image, tails, acc, head=()):
        image, tails = list(image), list(tails)
        seen.extend(type(c) for _, c in image + tails)
        prepend(image, tails, acc, head)

    monkeypatch.setattr(PRELIE, "_prepend", typed)
    got = closed_action(ComPreLieContext(UPPER3), w, factors)
    assert got == expected and {type(c) for _, c in got.items()} == {int, Fraction}
    assert seen and set(seen) == {int}


@pytest.mark.parametrize("op", [extend_bullet, star], ids=["extend_bullet", "star"])
def test_a_cold_engine_runs_the_kernel_once_per_brace_and_stores_only_products(op, monkeypatch):
    # the engine's memo keeps every brace, so the kernel runs once for each
    # (word, factors) key; a brace of one factor is a product, read from
    # the product memo (a pair prelie asked for is not run again), and no
    # other brace is stored there: the memo keeps two-word keys only
    kernel, keys = PRELIE._prelie_words, []

    def counted(f, codes, scale, u, *factors):
        keys.append((u, *factors))
        return kernel(f, codes, scale, u, *factors)

    monkeypatch.setattr(PRELIE, "_prelie_words", counted)
    ctx = ComPreLieContext(UPPER3)
    prelie(ctx, W("bc"), W("cb"))
    asked = set(keys)
    assert len(asked) == 1
    keys.clear()
    a = SymTensor({S("bc"): 1, S("cb", "a"): Fraction(1, 2)})
    b = SymTensor({S("cb", "b", "a"): 1, S("cb"): -2, S("b", "b"): 3, S("e", "c"): 1})
    ref = RecursiveOudomGuin(closed_base(UPPER3))
    expected = (ref.bullet if op is extend_bullet else ref.star)(SymTensor, a, b)
    assert op(ctx, a, b) == expected
    assert op(ctx, a, b) == expected  # warm: every brace is read from the engine
    assert keys and len(keys) == len(set(keys)) and not asked & set(keys)
    assert {len(key) for key in keys} == {1, 2, 3, 4}  # no factor up to three
    assert set(ctx._products) == asked | {key for key in keys if len(key) == 2}


SHIFT = Endo.biletter_shift()


@pytest.mark.parametrize(
    "f", [NIL, FLIESS, UPPER3, fliess_channel(2, 1), RANDOM2, FULL3, SHIFT],
    ids=["index-2", "fliess(1,1)", "index-3", "fliess(2,1)", "random", "FULL3", "shift"],
)
def test_the_one_factor_brace_is_the_product_term_for_term(f):
    # one kernel: the brace of one factor is the product, in the same term
    # order and coefficient types; both are the closed form, which reads f
    letters = f.alphabet or (Letter("d", 0), Letter("d", 1), Letter("e", 2))
    rng = random.Random(f"one factor {letters}")
    ctx, closed = ComPreLieContext(f), ComPreLieContext(f)
    typed = lambda items: [(x, type(c), c) for x, c in items]
    nonzero = 0
    for _ in range(60):
        u = Word(tuple(rng.choice(letters) for _ in range(rng.randint(0, 4))))
        v = Word(tuple(rng.choice(letters) for _ in range(rng.randint(0, 3))))
        brace = typed(_word_brace(ctx, u, [v]))
        assert brace == typed(prelie(ctx, u, v).items()), (u, v)
        assert sorted(brace) == sorted(typed(prelie_closed(closed, u, v).items())), (u, v)
        nonzero += bool(brace)
    assert nonzero >= 20


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
        # the canonical order: the word's key, then the monomial's
        want = sorted(delta_by_recursion(ctx, w).items(), key=_canonical)
        assert got == [(k, type(c), c) for k, c in want]


def _canonical(term):
    (t, m), _ = term
    return (t._key(), m._key())


def test_a_warm_dual_coproduct_computes_no_sort_key(monkeypatch):
    ctx = ComPreLieContext(UPPER3)
    words = [Word(w) for w in itertools.product(UPPER3.alphabet, repeat=4)]
    cold = [dual_coproduct(ctx, w) for w in words]
    calls = []
    key = BasisKey._key

    def counted(self):
        calls.append(self)
        return key(self)

    monkeypatch.setattr(BasisKey, "_key", counted)
    assert [dual_coproduct(ctx, w) for w in words] == cold
    assert calls == []


def test_changing_a_dual_coproduct_leaves_the_next_one_as_it_was():
    ctx = ComPreLieContext(UPPER3)
    w = W("cab")
    first = dual_coproduct(ctx, w)
    want = list(first)
    first.append((w, ONE, 7))
    assert dual_coproduct(ctx, w) == want
    dual_coproduct(ctx, w).clear()
    assert dual_coproduct(ctx, w) == want
    assert dual_coproduct(ctx, w) is not dual_coproduct(ctx, w)


def test_a_stripped_zero_image_run_keeps_the_canonical_order():
    # f(a) = 0 under UPPER3: delta(aacb) is aa delta(cb), read from the memo
    ctx = ComPreLieContext(UPPER3)
    w = W("aacb")
    got = dual_coproduct(ctx, w)
    entry = list(ctx._coproducts[w,].items())
    assert len(entry) > 2 and entry == sorted(entry, key=_canonical)
    assert [(t, m, c) for (t, m), c in entry] == got
    assert dict(entry) == delta_by_recursion(ctx, w)


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
