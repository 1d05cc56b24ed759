"""The value classes of the package keep their protocols: the basis keys
(``Letter``, ``Word``, the monomials and ``PartitionedTree``), ``Endo``,
``ComPreLieContext``, ``GradedSeries``, ``DyckPath`` and ``FliessElement``
compare, hash, print and pickle as they always have, the frozen ones
refuse assignment, and the validating constructors keep their errors."""

from __future__ import annotations

import pickle

import pytest

from comprelie.admissible import DyckPath
from comprelie.characters import FliessElement, TruncatedSeries
from comprelie.endo import Endo, fliess_channel
from comprelie.enveloping import Monomial, SymMonomial
from comprelie.forests import Forest, parse_forest
from comprelie.prelie import ComPreLieContext, GradedSeries, graded_series
from comprelie.trees import PartitionedTree, parse_tree
from comprelie.words import Letter, Word, parse_tensor, parse_word

A, A1, B = Letter("a"), Letter("a", 1), Letter("b")
AB = parse_word("ab")
TREE = parse_tree("a[b,{c,d}]")
MAP = Endo.matrix("ab", [[0, 1], [0, 0]])


def frozen_cases():
    """(instance, a field name) of every frozen class."""
    return [
        (A1, "name"),
        (AB, "letters"),
        (Monomial(), "factors"),
        (SymMonomial.of(AB), "factors"),
        (parse_forest("a[b]"), "factors"),
        (TREE, "root"),
        (MAP, "kind"),
        (DyckPath("RU"), "steps"),
        (FliessElement(1, TruncatedSeries(2, parse_tensor("x1"))), "channel"),
    ]


def test_keys_equal_by_value_and_type():
    assert Letter("a", 1) == A1 and A1 != A and Letter("a", None) == A
    assert Word((A, B)) == AB and AB != parse_word("ba") and Word() == Word(())
    assert SymMonomial.of(parse_word("b"), AB) == SymMonomial((AB, parse_word("b")))
    assert parse_tree("a[{d,c},b]") == TREE != parse_tree("a[b]")
    # distinct key types never compare equal, even with equal fields
    assert A != Word((A,)) and Word() != SymMonomial() and Word() != Monomial()
    assert SymMonomial() != Forest() and Forest() != SymMonomial() and Monomial() != SymMonomial()
    assert Monomial() == Monomial() and Forest() == Forest()
    assert A.__eq__("a") is NotImplemented and AB.__eq__((A, B)) is NotImplemented
    assert TREE.__eq__(TREE.root) is NotImplemented


def test_keys_hash_their_compared_fields():
    keys = [A, A1, AB, Word(), Monomial(), SymMonomial.of(AB), parse_forest("a[b] * c"), TREE]
    for x in keys:
        assert hash(x) == hash(x._fields())
    assert hash(A1) == hash(("a", 1)) and hash(AB) == hash(((A, B),))
    assert hash(TREE) == hash((TREE.root,))


def test_reprs():
    assert repr(A) == "Letter('a')" and repr(A1) == "Letter('1:a')"
    assert repr(AB) == "Word('ab')" and repr(Word()) == "Word('e')"
    assert repr(Monomial()) == "Monomial('1')"
    assert repr(SymMonomial.of(AB, parse_word("c"))) == "SymMonomial('c * ab')"
    assert repr(parse_forest("a[b]")) == "Forest('a[b]')"
    assert repr(parse_tree("a[b]")) == "PartitionedTree(root=((Letter('a'), (((Letter('b'), ()),),)),))"
    assert repr(MAP) == "<Endo matrix on 2 letters>"
    assert repr(ComPreLieContext(fliess_channel(2, 1))) == "ComPreLieContext(f=<Endo matrix on 3 letters>)"
    assert repr(graded_series([0, 1, 1], 1, 4)) == (
        "GradedSeries(coefficients=[0, 1, 1, 2, 3], truncation=4, letters={1: 1, 2: 1}, shift=1)"
    )
    assert repr(DyckPath("RRUU")) == "DyckPath(steps='RRUU')"
    fe = FliessElement(1, TruncatedSeries(3, parse_tensor("x1")))
    assert repr(fe) == "FliessElement(channel=1, series=<TruncatedSeries L=3 x1>)"


@pytest.mark.parametrize("x, field", frozen_cases(), ids=lambda v: type(v).__name__)
def test_frozen_classes_refuse_assignment(x, field):
    before = getattr(x, field)
    with pytest.raises(AttributeError):
        setattr(x, field, before)
    with pytest.raises(AttributeError):
        delattr(x, field)
    assert getattr(x, field) is before


def test_frozen_classes_refuse_new_attributes():
    for x, _ in frozen_cases():
        # TypeError is what a slotted frozen dataclass raised here
        with pytest.raises((AttributeError, TypeError)):
            x.extra = 1


def test_maps_and_contexts_are_unhashable_and_compare_by_value():
    twin = Endo.matrix(["a", "b"], [[0, 1], [0, 0]])
    assert MAP == twin and MAP != Endo.matrix("ab", [[0, 0], [1, 0]])
    assert MAP != Endo.diagonal({"a": 0, "b": 0}) and MAP.__eq__("matrix") is NotImplemented
    ctx = ComPreLieContext(MAP)
    assert ctx == ComPreLieContext(twin) and ctx != ComPreLieContext(Endo.diagonal({"a": 1}))
    assert ctx.__eq__(MAP) is NotImplemented and ctx != MAP
    for x in (MAP, ctx, graded_series([0, 1], 0, 3)):
        with pytest.raises(TypeError):
            hash(x)


def test_context_memos_are_outside_equality_and_pickle():
    ctx = ComPreLieContext(MAP)
    assert (ctx._products, ctx._coproducts, ctx._word_engine) == ({}, {}, None)
    ctx._products[(AB, AB)] = "cached"
    assert ctx == ComPreLieContext(MAP)
    copy = pickle.loads(pickle.dumps(ctx))
    assert copy == ctx and copy._products == {} and copy._word_engine is None
    assert ctx._nilpotency == 2 and ComPreLieContext(MAP).f is MAP


def test_graded_series_compares_its_fields_only():
    g, h = graded_series([0, 1, 1], 1, 5), graded_series([0, 1, 1], 1, 5)
    g.bigraded
    assert g == h and g != graded_series([0, 1, 1], 1, 4)
    assert GradedSeries(g.coefficients, 5, g.letters, 1) == h
    assert g.__eq__(g.coefficients) is NotImplemented
    assert pickle.loads(pickle.dumps(g)) == g


def test_paths_and_fliess_elements():
    assert DyckPath("RU") == DyckPath("RU") != DyckPath("RRUU") and DyckPath("RU") != "RU"
    assert hash(DyckPath("RRUU")) == hash(("RRUU",)) and len({DyckPath(""), DyckPath("")}) == 1
    s = TruncatedSeries(3, parse_tensor("x1 + 2*x0.x2"))
    fe = FliessElement(1, s)
    assert fe == FliessElement(1, TruncatedSeries(3, parse_tensor("2*x0.x2 + x1")))
    assert fe != FliessElement(2, s) and fe != (1, s)
    with pytest.raises(TypeError):  # the series is unhashable, so the pair is
        hash(fe)


@pytest.mark.parametrize(
    "x",
    [
        A, A1, AB, Word(), Monomial(), SymMonomial.of(AB, AB), parse_forest("a[b] * c"), TREE,
        MAP, Endo.diagonal({"a": 2}), Endo.biletter_shift(["d"]), ComPreLieContext(MAP),
        graded_series([0, 2, 1], 1, 5), DyckPath("RRUU"),
        FliessElement(2, TruncatedSeries(2, parse_tensor("x0 - 1/2*x1.x2"))),
        TruncatedSeries(3, parse_tensor("2/3*x1.x0 + x2")),
    ],
    ids=lambda v: type(v).__name__,
)
def test_pickle_round_trip(x):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(x, protocol))
        assert type(copy) is type(x) and copy == x and repr(copy) == repr(x)


def test_constructors_keep_their_checks():
    for bad in ("UR", "RUU", "RRU", "RX"):
        with pytest.raises(ValueError):
            DyckPath(bad)
    for channel in (0, -1):
        with pytest.raises(ValueError):
            FliessElement(channel, TruncatedSeries(1))
    with pytest.raises(ValueError):
        Endo("rotation", (A,))
    with pytest.raises(ValueError):
        Forest((parse_tree("{a,b}"),))


def test_keyword_construction():
    assert Letter(name="a", shift=1) == A1 and Word(letters=(A, B)) == AB
    assert SymMonomial(factors=(AB,)) == SymMonomial.of(AB) and PartitionedTree(root=TREE.root) == TREE
    assert Endo(kind="diagonal", alphabet=(A,), columns={A: {A: 2}}) == Endo.diagonal({"a": 2})
    assert ComPreLieContext(f=MAP) == ComPreLieContext(MAP)
    assert DyckPath(steps="RU") == DyckPath("RU")
    assert GradedSeries(coefficients=[1], truncation=0, letters={}, shift=0).dimension(0) == 1
    s = TruncatedSeries(1)
    assert FliessElement(channel=1, series=s) == FliessElement(1, s)


def test_endo_columns_are_read_only_copies():
    cols = {A: {A: 1}}
    f = Endo("diagonal", (A,), cols)
    cols[A][A] = 5
    assert f.image_letter(A) == {A: 1}
    with pytest.raises(TypeError):
        f.columns[A] = {}
