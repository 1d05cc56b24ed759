"""The basis keys (letters, words, monomials, forests, partitioned trees)
hash and sort through values each computes once: the hash is the one the
dataclass formula gives, the order is the one the uncached keys give, and
the public forest constructors still check their factors.  One base class,
``words.BasisKey``, defines the hash, the sort key, the order and the
pickle for all of them, and their first use raises no exception."""

from __future__ import annotations

import ast
import itertools
import pickle
import sys
from pathlib import Path

import pytest

from comprelie.enveloping import Monomial, SymMonomial, SymTensor
from comprelie.forests import Forest, ForestPoly, n_d, parse_forest
from comprelie.trees import PartitionedTree, all_partitioned_trees, all_rooted_trees, parse_tree
from comprelie.words import BasisKey, Letter, Word, parse_word, word

SRC = Path(__file__).resolve().parent.parent / "src" / "comprelie"

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


COMPARED = {Letter: ("name", "shift"), Word: ("letters",), PartitionedTree: ("root",)}


def dataclass_hash(x) -> int:
    """The hash a frozen dataclass generates: its compared fields, in
    order, as a tuple (a monomial or forest compares its factors)."""
    names = COMPARED.get(type(x), ("factors",))
    return hash(tuple(getattr(x, name) for name in names))


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


def exception_events(fn) -> list[tuple[str, str]]:
    """(function, exception type) of every exception raised in Python code
    while ``fn`` runs, caught or not."""
    events: list[tuple[str, str]] = []

    def tracer(frame, event, arg):
        if event == "exception":
            events.append((frame.f_code.co_name, arg[0].__name__))
        return tracer

    before = sys.gettrace()
    sys.settrace(tracer)
    try:
        fn()
    finally:
        sys.settrace(before)
    return events


def test_the_tracer_sees_a_caught_exception():
    def caught():
        try:
            return Letter("a").missing
        except AttributeError:
            return None

    assert exception_events(caught) == [("caught", "AttributeError")]


def test_first_use_of_fresh_keys_raises_nothing():
    def first_uses():
        # names no other test uses, so every key and letter here is new
        w = Word((Letter("p"), Letter("q", 3)))
        m = SymMonomial.of(parse_word("qp"), Word((Letter("r"),)))
        t = parse_tree("p[q,{r,s}]")
        f = Forest((parse_tree("s[p]"), parse_tree("q")))
        for key in (w, m, t, f):
            hash(key), key._key()
        t.parents

    assert exception_events(first_uses) == []


@pytest.mark.parametrize("cls", [Letter, Word, Monomial, SymMonomial, Forest, PartitionedTree])
def test_one_definition_of_hash_and_key(cls):
    # a frozen dataclass that loses ``__hash__ = BasisKey.__hash__`` gets
    # the uncached field hash back: equal values, so only this sees it
    assert cls.__hash__ is BasisKey.__hash__
    assert cls._key is BasisKey._key
    assert cls.__lt__ is BasisKey.__lt__ and cls.__reduce__ is BasisKey.__reduce__


def test_keys_of_different_types_do_not_order():
    with pytest.raises(TypeError):
        Letter("a") < Word(())
    with pytest.raises(TypeError):
        SymMonomial() <= Forest()


def cache_idioms(source: str) -> list[tuple[str, int]]:
    """(what, line) of each ``except AttributeError`` handler, alone or in
    a tuple, and each call of a function named ``_cache``."""
    found: list[tuple[str, int]] = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(isinstance(t, ast.Name) and t.id == "AttributeError" for t in types):
                found.append(("except AttributeError", node.lineno))
        elif isinstance(node, ast.Call):
            f = node.func
            if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == "_cache":
                found.append(("_cache()", node.lineno))
    return found


def test_the_detector_sees_the_old_idiom():
    hand_written = (
        "def _cache():\n"
        "    return field(init=False)\n"
        "class K:\n"
        "    _hash: int = _cache()\n"
        "    def __hash__(self):\n"
        "        try:\n"
        "            return self._hash\n"
        "        except (KeyError, AttributeError):\n"
        "            return 0\n"
    )
    assert cache_idioms(hand_written) == [("_cache()", 4), ("except AttributeError", 8)]


def test_no_cache_idiom_is_left_in_the_package():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    seen = [
        (path.name, what)
        for path in paths
        for what, _ in cache_idioms(path.read_text(encoding="utf-8"))
    ]
    assert seen == []
