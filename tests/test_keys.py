"""The basis keys (letters, words, monomials, forests, partitioned trees)
hash and sort through values each computes once: the hash is the one the
dataclass formula gives, the order is the one the uncached keys give, and
the public forest constructors still check their factors."""

from __future__ import annotations

import dataclasses
import itertools
import pickle

import pytest

from comprelie.enveloping import SymMonomial, SymTensor
from comprelie.forests import Forest, ForestPoly, n_d, parse_forest
from comprelie.trees import PartitionedTree, all_partitioned_trees, all_rooted_trees, parse_tree
from comprelie.words import Letter, Word, parse_word, word

A, B, A1 = Letter("a"), Letter("b"), Letter("a", 1)
WORDS = [Word(t) for n in range(4) for t in itertools.product((A, B, A1), repeat=n)]
MONOMIALS = [SymMonomial(c) for k in range(3) for c in itertools.combinations_with_replacement(WORDS, k)]
TREES = [t for n in range(1, 5) for t in all_partitioned_trees(n, [A, B])]
ROOTED = [t for n in range(1, 5) for t in all_rooted_trees(n, [A, B])]
FORESTS = [
    Forest(c)
    for k in range(5)
    for c in itertools.combinations_with_replacement(ROOTED, k)
    if sum(t.size for t in c) <= 4
]


def dataclass_hash(x) -> int:
    """The hash a frozen dataclass generates: its compared fields, as a tuple."""
    return hash(tuple(getattr(x, f.name) for f in dataclasses.fields(x) if f.compare))


def reference_key(x) -> tuple:
    """The sort keys as computed before they were cached, nested and uncached."""
    if isinstance(x, Letter):
        return (x.name, -1 if x.shift is None else x.shift)
    if isinstance(x, Word):
        return (len(x), tuple(map(reference_key, x.letters)))
    if isinstance(x, PartitionedTree):
        return (x.size, str(x))
    if isinstance(x, Forest):
        return (x.n_vertices, tuple(map(reference_key, x.factors)))
    return (len(x.factors), tuple(map(reference_key, x.factors)))


@pytest.mark.parametrize(
    "keys", [WORDS, MONOMIALS, TREES, FORESTS], ids=["words", "monomials", "trees", "forests"]
)
def test_cached_key_order_is_the_reference_order(keys):
    assert len(set(keys)) == len(keys)
    ordered = sorted(keys, key=reference_key)
    # the cached keys agree on every neighbour pair of the reference
    # order, ties included, so both order the keys alike
    for x, y in zip(ordered, ordered[1:]):
        assert (x._key() < y._key()) == (reference_key(x) < reference_key(y))
        assert (x._key() == y._key()) == (reference_key(x) == reference_key(y))
    assert sorted(reversed(keys), key=lambda k: k._key()) == ordered
    assert all(x._key() is x._key() for x in keys)  # computed once, then kept


@pytest.mark.parametrize(
    "keys", [[A, B, A1], WORDS, MONOMIALS, TREES, FORESTS],
    ids=["letters", "words", "monomials", "trees", "forests"],
)
def test_hash_is_the_dataclass_formula(keys):
    for x in keys:
        assert hash(x) == dataclass_hash(x)
        assert hash(x) == dataclass_hash(x)  # the cached value, second time


def test_equal_keys_built_apart_hash_alike():
    pairs = [
        (Letter("a", 1), parse_word("1:a").letters[0]),
        (parse_word("ab"), word(["a", "b"])),
        (parse_word("ab"), parse_word("a") + parse_word("b")),
        (SymMonomial.of(parse_word("b"), parse_word("a")), SymMonomial.of(parse_word("a"), parse_word("b"))),
        (parse_tree("a[b,{c,d}]"), parse_tree("a[{d,c},b]")),
        (parse_tree("a[b]"), PartitionedTree.build([Letter("a"), Letter("b")], [None, 1], [[1], [2]])),
        (parse_forest("a[b] * c"), parse_forest("c * a[b]")),
    ]
    for x, y in pairs:
        hash(x)  # one side cached, the other not yet
        assert x == y and hash(x) == hash(y) and x._key() == y._key()
        assert {x: 1}[y] == 1


def test_word_keys_share_the_letter_keys():
    w = parse_word("aba")
    assert w._key()[1] is w.letters[0]._key() and w._key()[2] is w.letters[1]._key()


def test_sym_monomial_never_equals_forest():
    t = parse_tree("a[b]")
    assert SymMonomial() != Forest() and Forest() != SymMonomial()
    assert SymMonomial((t,)) != Forest((t,))
    assert len({SymMonomial(): 1, Forest(): 2, SymMonomial((t,)): 3, Forest((t,)): 4}) == 4
    with pytest.raises(TypeError):
        SymMonomial().times(Forest())


def test_pickle_drops_the_caches():
    for x in (A1, parse_word("ab"), MONOMIALS[-1], TREES[-1], FORESTS[-1]):
        before = pickle.dumps(x)
        hash(x), x._key()
        assert pickle.dumps(x) == before
        assert pickle.loads(before) == x


def count_letter_hashes(monkeypatch) -> list:
    calls: list = []
    letter_hash = Letter.__hash__

    def counting(self):
        calls.append(self)
        return letter_hash(self)

    monkeypatch.setattr(Letter, "__hash__", counting)
    return calls


def test_counter_sees_letter_hashes(monkeypatch):
    # control: without a cached word hash, every hash of the letters counts
    calls = count_letter_hashes(monkeypatch)
    letters = (Letter("x"), Letter("y"), Letter("x", 2))
    for _ in range(100):
        hash(letters)
    assert len(calls) == 300


def test_word_hash_hashes_each_letter_once(monkeypatch):
    calls = count_letter_hashes(monkeypatch)
    w = Word((Letter("x"), Letter("y"), Letter("x", 2)))
    for _ in range(100):
        hash(w)
    assert 0 < len(calls) <= 3


def test_public_forest_constructors_keep_their_checks():
    for bad in ("a[{b,c}]", "{a,b}", "1:a[b]", "a[1:b]"):
        with pytest.raises(ValueError):
            Forest((parse_tree(bad),))
        with pytest.raises(ValueError):
            parse_forest(f"{bad} * a")
        with pytest.raises(ValueError):
            ForestPoly.parse(f"2*{bad} - a")
    with pytest.raises(ValueError):
        n_d(ForestPoly.of(parse_forest("a")), Letter("a", 1), {"a": 1})


def test_trusted_forests_are_sorted():
    t, u = parse_tree("b"), parse_tree("a[b]")
    assert Forest._from_clean((u, t)) == Forest((t, u)) == Forest._from_clean((t, u))
    assert SymTensor.of(SymMonomial._from_clean((parse_word("b"), parse_word("a")))) == SymTensor.parse("a * b")
