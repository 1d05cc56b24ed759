"""Every cache filled on lookup is one memo type, and those that outlive
their call are bounded.

``words._Memo`` computes a missing key with its kernel and stores it in
``__missing__``; the kernels only compute.  The memos that outlive a call,
a context's coproducts, its memos on its letter codes (coded words, the
one product memo and shuffles), and every Oudom-Guin engine's action,
among them the process-wide ``forests._TREE_ENGINE`` and the engine of
``trees._BILETTER_CTX``, hold at most ``words._MEMO_BOUND`` entries.  The
product memo's kernel does not hold its context, so a dropped context that
built no engine and no coproduct memo is freed without the cyclic collector.
"""

from __future__ import annotations

import ast
import gc
import itertools
import random
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from comprelie import forests, trees
from comprelie.characters import TruncatedSeries, inverse, tilde_compose
from comprelie.endo import Endo, fliess_channel
from comprelie.enveloping import (
    OudomGuin,
    SymMonomial,
    SymTensor,
    _coproducts_of,
    _engine_of,
    dual_coproduct,
    star,
)
from comprelie.forests import Forest, ForestPoly
from comprelie.prelie import ComPreLieContext, lie_bracket, prelie, prelie_closed, span_dimension_of_products
from comprelie.trees import _tree_brace, all_rooted_trees, parse_tree, phi_cpl
from comprelie.words import _MEMO_BOUND, Letter, Tensor, Word, _Memo

SRC = Path(__file__).resolve().parent.parent / "src" / "comprelie"
MEMOS = {"_products", "_coproducts", "_cache", "words", "shuffles"}
UPPER3 = Endo.matrix(["a", "b", "c"], [[0, 1, Fraction(1, 2)], [0, 0, Fraction(-2, 3)], [0, 0, 0]])


def memo_stores(source: str) -> list[tuple[str, int]]:
    """(function, line) of each subscript store into an attribute named
    in ``MEMOS``."""
    found: list[tuple[str, int]] = []

    def visit(node: ast.AST, func: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        elif (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Attribute) and node.value.attr in MEMOS):
            found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), "<module>")
    return found


def test_the_detector_sees_a_hand_written_store():
    hand_written = (
        "def _prelie_words(ctx, u, v):\n"
        "    hit = ctx._products.get((u, v))\n"
        "    out = ctx._products[u, v] = ()\n"
        "    return ctx._products[u, v]\n"
        "class Engine:\n"
        "    def _bullet_mono(self, a, b):\n"
        "        self._cache[a, b] = self._cache[a, ()]\n"
        "        memo = {}\n"
        "        memo[a] = self.braces[a] = 1\n"
        "def delta(ctx, w):\n"
        "    ctx._coproducts[w] += 1\n"
        "def span(ctx, u, v):\n"
        "    ctx._codes.words[u], ctx._products[u, v], ctx._codes.shuffles[u, v] = (), (), ()\n"
    )
    assert memo_stores(hand_written) == [
        ("_prelie_words", 3), ("_bullet_mono", 7), ("delta", 11), ("span", 13), ("span", 13), ("span", 13)
    ]


def test_only_the_memo_stores_into_a_cross_call_memo():
    seen = [
        (path.name, func)
        for path in sorted(SRC.glob("*.py"))
        for func, _ in memo_stores(path.read_text(encoding="utf-8"))
    ]
    assert seen == []


def counted(kernel, calls: list):
    def wrapper(*key):
        calls.append(key)
        return kernel(*key)
    return wrapper


def test_a_memo_computes_each_key_once():
    calls = []
    memo = _Memo(counted(lambda u, v: u + v, calls))
    assert memo[1, 2] == memo(1, 2) == memo[1, 2] == 3
    assert memo(2, 1) == 3
    assert calls == [(1, 2), (2, 1)] and memo == {(1, 2): 3, (2, 1): 3}


def test_a_raising_kernel_leaves_no_entry():
    def kernel(n: int) -> int:
        if n < 0:
            raise ValueError("negative")
        return n

    memo = _Memo(kernel, 2)
    memo(1), memo(2)
    with pytest.raises(ValueError, match="negative"):
        memo(-1)
    # a full memo is not emptied by a key that stores nothing
    assert memo == {(1,): 1, (2,): 2}


def test_the_store_past_the_bound_empties_the_memo_first():
    calls = []
    memo = _Memo(counted(lambda n: n * n, calls), 3)
    for n in (1, 2, 3):
        memo(n)
    memo(2)  # a hit: nothing is stored or evicted
    assert memo == {(1,): 1, (2,): 4, (3,): 9}
    assert memo(4) == 16 and memo == {(4,): 16}
    assert memo(1) == 1 and calls == [(1,), (2,), (3,), (4,), (1,)]
    assert _Memo(abs).bound is None  # a memo for one call takes no bound


def test_every_cross_call_memo_carries_the_bound():
    ctx = ComPreLieContext(UPPER3)
    a, b, c = UPPER3.alphabet
    dual_coproduct(ctx, Word((a, b, c)))
    prelie_closed(ctx, Word((a, b)), Word((c,)))
    span_dimension_of_products(ctx, [Tensor.of(Word((c,)))], 2)
    phi_cpl(parse_tree("a[b,c]"), mode="recursive")
    memos = [
        ctx._products,
        ctx._coproducts,
        ctx._codes.words,
        ctx._codes.shuffles,
        _engine_of(ctx)._cache,
        forests._TREE_ENGINE._cache,
        trees._BILETTER_CTX._products,
        trees._BILETTER_CTX._word_engine._cache,
    ]
    assert all(type(m) is _Memo and m.bound == _MEMO_BOUND for m in memos)


def test_evicting_memos_change_no_result():
    # a bound of 3 empties the memos in the middle of their recursions
    rng = random.Random("evicting memos")
    f = fliess_channel(2, 1)
    words = [Word(tuple(rng.choice(f.alphabet) for _ in range(rng.randint(1, 3)))) for _ in range(12)]
    small, full = ComPreLieContext(f), ComPreLieContext(f)
    coded = (small._codes.words, small._products, small._codes.shuffles)
    for memo in (_coproducts_of(small), _engine_of(small)._cache, *coded):
        memo.bound = 3
    for u, v, w in zip(words, words[1:], words[2:]):
        a, b = SymTensor.of(SymMonomial.of(u, v)), SymTensor.of(SymMonomial.of(w, u))
        assert star(small, a, b).terms == star(full, a, b).terms
        assert prelie(small, u, w).terms == prelie(full, u, w).terms
        assert dual_coproduct(small, u + w) == dual_coproduct(full, u + w)
        assert prelie_closed(small, u, w).terms == prelie_closed(full, u, w).terms
        gens = [Tensor.of(u), Tensor({v: 1, w: -2})]
        assert span_dimension_of_products(small, gens, 4) == span_dimension_of_products(full, gens, 4)
    memos = (small._coproducts, small._word_engine._cache, *coded)
    assert max(map(len, memos)) <= 3
    for f in (fliess_channel(2, 1), UPPER3):
        small, full = ComPreLieContext(f), ComPreLieContext(f)
        small._codes.shuffles.bound = 3
        words = [Word(tuple(rng.choice(f.alphabet) for _ in range(rng.randint(1, 3)))) for _ in range(18)]
        series = [TruncatedSeries(4, {w: Fraction(2 * k - 3, 2) for k, w in enumerate(words[i:i + 3])})
                  for i in range(0, 18, 3)]
        for u, v in zip(series, series[1:]):
            assert tilde_compose(small, u, v) == tilde_compose(full, u, v)
            assert inverse(small, u) == inverse(full, u)
        assert 0 < len(small._codes.shuffles) <= 3
    engine, reference = OudomGuin(_tree_brace, ForestPoly), OudomGuin(_tree_brace, ForestPoly)
    engine._cache.bound = 3
    rooted = [t for n in (1, 2, 3) for t in all_rooted_trees(n, [Letter("a"), Letter("b")])]
    for s, t, u in itertools.islice(zip(rooted, rooted[3:], rooted[5:]), 8):
        a, b = Forest((s, t)), Forest((u, s))
        assert engine.star(a, b).terms == reference.star(a, b).terms
        assert len(engine._cache) <= 3


def test_a_dropped_context_is_freed_without_the_cyclic_collector():
    # the product memo's kernel binds f, the codes and D, not the context:
    # with the collector off, reference counting alone frees the context
    f = Endo.matrix(list("abc"), [[1, 2, -1], [Fraction(1, 2), 0, 3], [-2, 1, Fraction(1, 3)]])
    u, v = Word(f.alphabet[:2]), Word(f.alphabet[2:])
    gc.collect()
    gc.disable()
    try:
        ctx = ComPreLieContext(f)
        assert prelie(ctx, u, v) and lie_bracket(ctx, u, v) and prelie_closed(ctx, u, v)
        assert span_dimension_of_products(ctx, [Tensor.of(u), Tensor.of(v)], 4) > 0
        assert ctx._products and ctx._codes.words and ctx._codes.shuffles
        dropped = weakref.ref(ctx)
        del ctx
        assert dropped() is None
    finally:
        gc.enable()
