"""The exact accumulator behind every kernel (``words._Sum``/``_add_into``)
against plain ``int``/``Fraction`` dict arithmetic with each stored value
made an ``int`` exactly when it is integral: the same values, the same
coefficient types and the same key order."""

from __future__ import annotations

import importlib
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import comprelie as cp
from comprelie import forests
from comprelie.enveloping import OudomGuin
from comprelie.trees import _tree_brace
from comprelie.words import Letter, Word, _add_into, _Sum


def canonical(q):
    """q as an ``int`` when it is integral, else as a ``Fraction``."""
    q = Fraction(q)
    return q.numerator if q.denominator == 1 else q


class RefSum:
    """The reference accumulation: a plain dict summed with Python's own
    arithmetic, each stored value made canonical, a key dropped when it
    cancels to exact zero."""

    def __init__(self, pairs=None):
        self.terms: dict = {}
        if pairs is not None:
            ref_add_into(self, pairs)

    def result(self, divisor: int = 1) -> dict:
        """The terms, each divided by ``divisor`` once and made canonical."""
        if divisor == 1:
            return self.terms
        return {k: canonical(Fraction(c, divisor)) for k, c in self.terms.items()}


def ref_add_into(acc: RefSum, pairs, scale=1) -> None:
    terms = acc.terms
    for k, c in pairs:
        c2 = terms.get(k, 0) + scale * c
        if c2:
            terms[k] = canonical(c2)
        elif k in terms:
            del terms[k]


def typed(d: dict) -> list:
    """Keys in order with each coefficient's value and exact type."""
    return [(k, type(c), c) for k, c in d.items()]


def typed_deep(x):
    """The typed form of a library output: combinations, dicts, lists,
    tuples and scalars, recursively."""
    terms = getattr(x, "terms", None)
    if isinstance(terms, dict):
        return (type(x).__name__, typed(terms))
    inner = getattr(x, "tensor", None)
    if inner is not None:
        return (type(x).__name__, x.trunc, typed_deep(inner))
    if isinstance(x, dict):
        return typed(x)
    if isinstance(x, (list, tuple)):
        return [typed_deep(e) for e in x]
    return (type(x), x)


KEYS = st.sampled_from("abcde")
INTS = st.integers(-3, 3)
FRACTIONS = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2, 3, 4, 6)))
RATS = st.one_of(INTS, FRACTIONS)
CALLS = st.lists(st.tuples(RATS, st.lists(st.tuples(KEYS, RATS), max_size=6)), max_size=8)


@settings(max_examples=400, deadline=None)
@given(CALLS)
# a key cancels to exact zero through a Fraction, then comes back with ints
@example([(1, [("a", Fraction(1, 2)), ("a", Fraction(-1, 2))]), (1, [("a", 3), ("b", 1)])])
# a new denominator arrives after pure ints and forces a rescale
@example([(2, [("a", 1), ("b", -5)]), (Fraction(1, 3), [("b", 2), ("c", 1)]), (1, [("a", 1)])])
# Fraction(n, 1), as a value and as a scale, gives an int
@example([(1, [("a", Fraction(2, 1)), ("b", 2)]), (Fraction(3, 1), [("c", 1)])])
# a key cancels, a new denominator rescales the numerators (the cancelled
# key's dead slot too), and the key comes back last
@example([(1, [("a", Fraction(1, 2)), ("b", 1), ("a", Fraction(-1, 2))]),
          (Fraction(1, 3), [("c", 1)]), (1, [("a", 5)])])
# a zero Fraction term leaves an int coefficient an int
@example([(1, [("a", 2)]), (Fraction(0), [("a", 1)]), (1, [("b", Fraction(0)), ("a", 0)])])
def test_the_accumulator_matches_plain_arithmetic(calls):
    acc, ref = _Sum(), RefSum()
    for scale, pairs in calls:
        _add_into(acc, pairs, scale)
        ref_add_into(ref, pairs, scale)
        assert typed(acc.result()) == typed(ref.result())


TERMS = st.lists(st.tuples(KEYS, RATS, RATS), max_size=16)


def _summed(calls) -> dict:
    """The result of one ``_add_into`` per (scale, pairs) call."""
    acc = _Sum()
    for scale, pairs in calls:
        _add_into(acc, pairs, scale)
    return acc.result()


def _grouped(terms, cuts) -> list:
    """The (key, coefficient, scale) terms as ``_add_into`` calls: a run of
    terms between two cuts that share a scale goes into one call."""
    calls = []
    for i, (k, c, s) in enumerate(terms):
        if calls and i not in cuts and calls[-1][0] == s:
            calls[-1][1].append((k, c))
        else:
            calls.append((s, [(k, c)]))
    return calls


@settings(max_examples=300, deadline=None)
@given(TERMS, st.integers(0, 16), st.randoms(use_true_random=False), st.sets(st.integers(0, 32)))
# 1/2, -1/2, 3 in one call against 3, -1/2, 1/2 (the reversed order): a
# type that followed the Fractions would make the second 3 a Fraction
@example([("a", Fraction(1, 2), 1), ("a", Fraction(-1, 2), 1), ("a", 3, 1)], 0, random.Random(0), set())
def test_the_coefficient_types_depend_on_the_values_alone(terms, cancelled, rng, cuts):
    # some terms come back negated, so that their keys may cancel to zero
    terms = terms + [(k, -c, s) for k, c, s in terms[:cancelled]]
    shuffled = terms.copy()
    rng.shuffle(shuffled)
    one_call_each = _summed([(s, [(k, c)]) for k, c, s in terms])
    want = sorted(typed(one_call_each))
    for order in (terms, shuffled, shuffled[::-1]):
        assert sorted(typed(_summed(_grouped(order, cuts)))) == want
    # every integral coefficient comes out an int
    assert all(type(c) is int for c in one_call_each.values() if c.denominator == 1)


class CountedKey:
    """A key that counts the calls to its ``__hash__``."""

    hashes = 0

    def __init__(self, name: str):
        self.name = name

    def __hash__(self) -> int:
        CountedKey.hashes += 1
        return hash(self.name)

    def __eq__(self, other) -> bool:
        return isinstance(other, CountedKey) and self.name == other.name


def _hashes(action) -> int:
    CountedKey.hashes = 0
    action()
    return CountedKey.hashes


def test_a_term_hashes_its_key_once_and_a_rescale_none():
    a, b, c = (CountedKey(x) for x in "abc")
    acc = _Sum()
    # a new key, a present key, an int, a Fraction: one hash per term
    assert _hashes(lambda: _add_into(acc, [(a, 1), (b, Fraction(1, 2)), (a, 2)])) == 3
    assert _hashes(lambda: _add_into(acc, [(a, 3), (b, 1), (a, Fraction(1, 2))], 2)) == 3
    # a new denominator forces a rescale of every numerator held
    assert _hashes(lambda: _add_into(acc, [(b, Fraction(1, 7))])) == 1
    assert _hashes(lambda: _add_into(acc, [(a, 1)], Fraction(1, 5))) == 1
    assert acc.den == 70
    assert _hashes(lambda: acc._grow(3)) == 0
    # b cancels and leaves a dead slot; c is live
    _add_into(acc, [(b, -acc.result()[b]), (c, 1)])
    assert list(acc.result()) == [a, c]
    assert _hashes(lambda: acc.result()) <= 2
    assert acc.result() == {a: Fraction(51, 5), c: 1}
    # a sum of one value copies its key map with the hashes stored there
    alike = _Sum([(a, 2), (b, 2)])
    assert _hashes(lambda: alike.result()) == 0
    assert alike.result() == {a: 2, b: 2}


def test_the_accumulator_rejects_floats():
    with pytest.raises(TypeError):
        _Sum([("a", 0.5)])
    with pytest.raises(TypeError):
        _add_into(_Sum(), [("a", 1)], 0.5)


# ---------------------------------------------------------------------------
# end to end: every kernel on the accumulator, then on the reference
# ---------------------------------------------------------------------------

FULL3 = [[1, 2, -1], [Fraction(1, 2), 0, 3], [-2, 1, Fraction(1, 3)]]
UPPER3 = [[0, 1, Fraction(1, 2)], [0, 0, Fraction(-2, 3)], [0, 0, 0]]


def _maps():
    # built afresh for every run: an Endo keeps its letter powers
    return {
        "FULL3": cp.Endo.matrix(list("abc"), FULL3),
        "UPPER3": cp.Endo.matrix(list("abc"), UPPER3),
        "fliess(2,1)": cp.fliess_channel(2, 1),
    }


def _sample(name: str, f: cp.Endo) -> list:
    """Seeded outputs of every accumulating operation under ``f``."""
    rng = random.Random(f"accumulator:{name}")
    ctx = cp.ComPreLieContext(f)
    letters = f.alphabet

    def word(n):
        return Word(tuple(rng.choice(letters) for _ in range(n)))

    def coeff():
        return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))

    def combo(n_terms, max_len):
        return cp.Tensor({word(rng.randint(1, max_len)): coeff() for _ in range(n_terms)})

    def mono(*ws):
        return cp.SymMonomial.of(*ws)

    out = []
    for _ in range(3):
        u, v = word(rng.randint(1, 3)), word(rng.randint(1, 2))
        x, y = combo(3, 2), combo(3, 2)
        a, b = mono(word(1), word(2)), mono(word(1), word(1))
        w, factors = word(2), [word(1), word(2)]
        out += [
            cp.prelie(ctx, x, y),
            cp.lie_bracket(ctx, x, y),
            cp.prelie_closed(ctx, u, v),
            cp.star(ctx, a, b),
            cp.extend_bullet(ctx, mono(w), mono(*factors)),
            cp.closed_action(ctx, w, factors),
        ]
    g = cp.Tensor({Word((z,)): rng.choice((-2, -1, 1, 2)) for z in letters})
    out.append(cp.span_dimension_of_products(ctx, [g, g.scale(Fraction(1, 2))], 3))
    if cp.nilpotency_index(f) is not None:
        for _ in range(2):
            out.append(cp.dual_coproduct(ctx, word(4)))
            s = cp.TruncatedSeries(4, {word(rng.randint(1, 3)): coeff() for _ in range(4)})
            t = cp.TruncatedSeries(4, {word(rng.randint(1, 3)): coeff() for _ in range(3)})
            out += [cp.tilde_compose(ctx, s, t), cp.inverse(ctx, s)]
    if name.startswith("fliess"):
        s, t, r = (cp.TruncatedSeries(4, {word(rng.randint(1, 3)): coeff() for _ in range(4)})
                   for _ in range(3))
        out.append(cp.fliess_tilde(cp.FliessElement(1, s), (t, r)).series)
    # the tree-side sums, on trees decorated by a and b
    ab = [Letter("a"), Letter("b")]
    pool = [t for n in (1, 2, 3) for t in cp.all_rooted_trees(n, ab)]

    def forest(k):
        return cp.Forest(tuple(rng.choice(pool) for _ in range(k)))

    lam = {"a": coeff(), "b": Fraction(rng.randint(1, 4), rng.randint(1, 3))}
    for _ in range(2):
        fa = cp.ForestPoly({forest(2): coeff(), forest(1): coeff()})
        fb = cp.ForestPoly({forest(rng.randint(1, 2)): coeff()})
        out += [
            cp.forest_star(fa, fb),
            cp.ck_coproduct(fa),
            forests.tree_coproduct(rng.choice(pool)),
            cp.delta_cobracket(Word(tuple(rng.choice(ab) for _ in range(4))), lam, mode="closed"),
        ]
    return out


REFERENCES = {"_Sum": RefSum, "_add_into": ref_add_into}


def _reference_route(monkeypatch) -> None:
    """Put the reference accumulation behind every kernel: each comprelie
    module looks ``_Sum`` and ``_add_into`` up at call time, and each
    name is replaced on the modules that have it.  The layers load lazily,
    so each is imported first: the sample may not have reached every one
    of them yet."""
    for layer in ("words", "prelie", "enveloping", "characters", "forests"):
        importlib.import_module(f"comprelie.{layer}")
    patched = set()
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("comprelie"):
            continue
        for name, reference in REFERENCES.items():
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, reference)
                patched.add(mod.__name__)
    assert {"comprelie.words", "comprelie.prelie", "comprelie.enveloping",
            "comprelie.characters"} <= patched
    assert "comprelie.forests" in patched


@pytest.mark.parametrize("name", ["FULL3", "UPPER3", "fliess(2,1)"])
def test_every_kernel_matches_the_reference_accumulation(name, monkeypatch):
    # forest products are kept by one engine for the process: start both
    # routes from an empty one
    with monkeypatch.context() as m:
        m.setattr(forests, "_TREE_ENGINE", OudomGuin(_tree_brace, cp.ForestPoly))
        fast = _sample(name, _maps()[name])
    with monkeypatch.context() as m:
        m.setattr(forests, "_TREE_ENGINE", OudomGuin(_tree_brace, cp.ForestPoly))
        _reference_route(m)
        slow = _sample(name, _maps()[name])
    assert typed_deep(fast) == typed_deep(slow)
    # the sample reaches both coefficient types
    flat = repr(typed_deep(fast))
    assert "Fraction" in flat and "<class 'int'>" in flat
