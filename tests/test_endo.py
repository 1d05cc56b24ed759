"""Endomorphism representations: images, iteration, nilpotency, transpose."""

from __future__ import annotations

import itertools
import json
import pickle
import random
from fractions import Fraction

import pytest

from comprelie.endo import (
    Endo,
    apply_endo,
    diagonal_weights,
    endo_from_json,
    endo_to_json,
    fliess_channel,
    image_span_letters,
    iterate_endo,
    iterate_endo_letter,
    letter_iterates,
    nilpotency_index,
    transpose_endo,
)
from comprelie.prelie import ComPreLieContext, prelie
from comprelie.words import Letter, Tensor, Word, parse_tensor, parse_word

W = parse_word
T = parse_tensor


def test_diagonal_action():
    f = diagonal_weights({"a": 2, "b": Fraction(1, 3)})
    assert apply_endo(f, T("a")) == Tensor.of(W("a"), 2)
    assert apply_endo(f, T("b")) == Tensor.of(W("b"), Fraction(1, 3))
    assert apply_endo(f, T("a + b")) == T("2*a + 1/3*b")


def test_biletter_shift_action():
    f = Endo.biletter_shift()
    assert apply_endo(f, T("0:d")) == T("1:d")
    assert iterate_endo(f, 3, T("0:d")) == T("3:d")
    with pytest.raises(ValueError):
        apply_endo(f, T("a"))  # plain letters carry no index to raise


def test_fliess_channel_matrix():
    f = fliess_channel(2, 1)
    assert apply_endo(f, T("x1")) == T("x0")
    assert apply_endo(f, T("x0")) == Tensor.zero()
    assert apply_endo(f, T("x2")) == Tensor.zero()
    assert iterate_endo(f, 2, T("x1")) == Tensor.zero()
    assert nilpotency_index(f) == 2


def test_iterate_zero_is_identity():
    f = fliess_channel(3, 2)
    v = T("x0 + 5*x2")
    assert iterate_endo(f, 0, v) == v


def test_iterate_additivity():
    f = Endo.matrix(["a", "b", "c"], [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    v = T("a + b + c")
    for a in range(4):
        for b in range(4):
            assert iterate_endo(f, a + b, v) == iterate_endo(f, a, iterate_endo(f, b, v))


def test_nilpotency_cases():
    zero = Endo.matrix(["a", "b"], [[0, 0], [0, 0]])
    assert nilpotency_index(zero) == 1
    ident = Endo.matrix(["a", "b"], [[1, 0], [0, 1]])
    assert nilpotency_index(ident) is None
    shift3 = Endo.matrix(["a", "b", "c"], [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert nilpotency_index(shift3) == 3
    assert nilpotency_index(diagonal_weights({"a": 0, "b": 0})) == 1
    assert nilpotency_index(diagonal_weights({"a": 1})) is None
    assert nilpotency_index(Endo.biletter_shift()) is None


def test_nilpotency_witness():
    f = Endo.matrix(["a", "b", "c"], [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    n = nilpotency_index(f)
    assert n == 3
    for x in f.alphabet:
        assert iterate_endo(f, n, Tensor.of(Word((x,)))) == Tensor.zero()
    assert any(
        iterate_endo(f, n - 1, Tensor.of(Word((x,)))) for x in f.alphabet
    )


def test_transpose():
    f = fliess_channel(2, 1)
    g = transpose_endo(f)
    assert apply_endo(g, T("x0")) == T("x1")
    assert apply_endo(g, T("x1")) == Tensor.zero()
    d = diagonal_weights({"a": 5})
    assert transpose_endo(d) == d
    sym = Endo.matrix(["a", "b"], [[1, 2], [2, 3]])
    assert transpose_endo(sym) == sym
    with pytest.raises(ValueError):
        transpose_endo(Endo.biletter_shift())
    # transposing twice returns to the original matrix
    m = Endo.matrix(["a", "b"], [[1, 2], [3, 4]])
    assert transpose_endo(transpose_endo(m)) == m


def test_matrix_vector_agreement():
    entries = [[1, 2], [Fraction(1, 2), 0]]
    f = Endo.matrix(["a", "b"], entries)
    # f(b) = 2a + 0b reads down column 1
    assert apply_endo(f, T("b")) == T("2*a")
    assert apply_endo(f, T("a")) == T("a + 1/2*b")


def test_a_map_names_each_letter_once():
    # (a, a) with f(a) = a would turn a nilpotent matrix into a map that
    # is not nilpotent; a weight given twice would silently replace one
    with pytest.raises(ValueError, match="twice"):
        Endo.matrix(["a", "a"], [[0, 1], [0, 0]])
    with pytest.raises(ValueError, match="twice"):
        Endo.matrix(["a", Letter("b"), "b"], [[0] * 3] * 3)
    with pytest.raises(ValueError, match="twice"):
        endo_from_json('{"kind": "matrix", "alphabet": ["a", "a"], "matrix": [["0", "1"], ["0", "0"]]}')
    with pytest.raises(ValueError, match="twice"):
        Endo.diagonal({"a": 1, Letter("a"): 2})
    # a shifted letter and the plain one of the same name are two letters
    assert Endo.matrix(["a", "0:a"], [[0, 1], [0, 0]]).alphabet == (Letter("a"), Letter("a", 0))


def test_letter_outside_alphabet():
    f = fliess_channel(1, 1)
    with pytest.raises(ValueError):
        apply_endo(f, T("y"))


def test_image_span_letters():
    f = fliess_channel(2, 1)
    assert image_span_letters(f) == [T("x0")]


def test_iterate_letter():
    f = Endo.biletter_shift(["d"])
    assert iterate_endo_letter(f, 4, Letter("d", 0)) == {Letter("d", 4): 1}


def test_json_round_trip():
    for f in (
        fliess_channel(2, 2),
        diagonal_weights({"a": Fraction(3, 2), "b": -1}),
        Endo.biletter_shift(["d", "q"]),
        Endo.matrix(["a", "b"], [[Fraction(1, 3), 2], [0, -5]]),
    ):
        assert endo_from_json(endo_to_json(f)) == f


@pytest.mark.parametrize(
    "src",
    [
        '{"kind": "diagonal", "weights": {"a": "1", "a": "2"}}',
        '{"kind": "diagonal", "kind": "matrix", "alphabet": ["a"], "matrix": [["0"]]}',
        '{"kind": "diagonal", "weights": {"a": "1"}, "weights": {"b": "1"}}',
        '{"kind": "matrix", "alphabet": ["a"], "matrix": [["0"]], "alphabet": ["b"]}',
    ],
    ids=["weight", "kind", "weights", "alphabet"],
)
def test_a_json_key_given_twice_is_refused(src):
    with pytest.raises(ValueError, match="twice"):
        endo_from_json(src)


@pytest.mark.parametrize(
    "alphabet", [["a", "b"], [], ["b"], ["a", "a"], ["a", "b", "c"]],
)
def test_a_diagonal_alphabet_names_exactly_the_weighted_letters(alphabet):
    src = json.dumps({"kind": "diagonal", "alphabet": alphabet, "weights": {"a": "1", "c": "2"}})
    with pytest.raises(ValueError, match="exactly"):
        endo_from_json(src)


def test_a_diagonal_alphabet_in_any_order_or_none_loads():
    f = diagonal_weights({"c": 2, "a": Fraction(1, 2)})
    for alphabet in (["a", "c"], ["c", "a"], None):
        doc = {"kind": "diagonal", "weights": {"c": "2", "a": "1/2"}}
        if alphabet is not None:
            doc["alphabet"] = alphabet
        assert endo_from_json(json.dumps(doc)) == f


def test_json_schema_fields():
    import json

    doc = json.loads(endo_to_json(fliess_channel(1, 1)))
    assert doc["kind"] == "matrix"
    assert doc["alphabet"] == ["x0", "x1"]
    # entry [i][j] is the coefficient of letter i in f(letter j)
    assert doc["matrix"] == [["0", "1"], ["0", "0"]]


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        Endo.matrix(["a", "b"], [[1, 0]])
    with pytest.raises(ValueError):
        Endo.matrix([], [])


def test_images_are_read_only():
    f = fliess_channel(2, 1)
    x0, x1, x2 = (Letter(f"x{i}") for i in range(3))
    with pytest.raises(TypeError):
        f.image_letter(x1)[x2] = 7
    with pytest.raises(TypeError):
        f.columns[x1] = {}
    assert f.image_letter(x1) == {x0: 1}
    assert f == fliess_channel(2, 1)
    d = diagonal_weights({"a": 2})
    with pytest.raises(TypeError):
        d.weights[Letter("a")] = 5
    with pytest.raises(TypeError):
        d.image_letter(Letter("a"))[Letter("a")] = 5
    assert d.image_letter(Letter("a")) == {Letter("a"): 2}


def test_fields_cannot_be_rebound():
    # contexts cache products under the map, so the map itself is frozen
    f = fliess_channel(2, 1)
    for name, value in (("kind", "diagonal"), ("alphabet", ()), ("columns", {})):
        with pytest.raises(AttributeError):
            setattr(f, name, value)
    assert f == fliess_channel(2, 1)
    with pytest.raises(TypeError):
        hash(f)


def test_diagonal_maps_store_a_column_table():
    a, b = Letter("a"), Letter("b")
    assert diagonal_weights({"a": 2, "b": 0}).columns == {a: {a: 2}, b: {}}


UPPER = [[0, 1, Fraction(1, 2)], [0, 0, Fraction(-2, 3)], [0, 0, 0]]


def test_letter_powers_are_computed_per_call_and_handed_out_fresh():
    f = Endo.matrix(list("abc"), UPPER)
    a, b, c = Letter("a"), Letter("b"), Letter("c")
    first = iterate_endo_letter(f, 2, c)
    assert first == {a: Fraction(-2, 3)}
    first[b] = 5  # a caller's copy: the next call does not see it
    assert iterate_endo_letter(f, 2, c) == {a: Fraction(-2, 3)}
    assert iterate_endo_letter(f, 3, c) == {}
    assert f == Endo.matrix(list("abc"), UPPER)
    with pytest.raises(ValueError):
        iterate_endo_letter(f, 1, Letter("z"))
    shift = Endo.biletter_shift()
    assert iterate_endo_letter(shift, 2, Letter("d", 0)) == {Letter("d", 2): 1}
    # past the nilpotency index every power is zero
    assert iterate_endo_letter(f, 10, c) == {}
    g = diagonal_weights({"a": 2})
    assert iterate_endo_letter(g, 5, a) == {a: 32}
    assert iterate_endo_letter(g, 0, a) == iterate_endo_letter(g, -1, a) == {a: 1}
    # the iterates step f once each and stop after the last nonzero power
    powers = list(letter_iterates(f, c))
    assert powers == [{c: 1}, {a: Fraction(1, 2), b: Fraction(-2, 3)}, {a: Fraction(-2, 3)}]
    assert len(set(map(id, powers))) == 3
    assert list(itertools.islice(letter_iterates(g, a), 4)) == [{a: 1}, {a: 2}, {a: 4}, {a: 8}]
    for x in (a, b, c):
        iterates = list(letter_iterates(f, x))
        assert iterates == [iterate_endo_letter(f, k, x) for k in range(len(iterates))]
        assert iterate_endo_letter(f, len(iterates), x) == {}


def test_maps_and_contexts_pickle_by_their_columns():
    maps = [
        Endo.matrix("ab", [[0, 1], [0, 0]]),
        Endo.matrix(list("abc"), UPPER),
        diagonal_weights({"a": 2, "b": Fraction(1, 3), "c": 0}),
        fliess_channel(2, 1),
        Endo.biletter_shift(),
        Endo.biletter_shift(["d"]),
    ]
    for f in maps:
        letters = f.alphabet if f.columns is not None else (Letter("d", 0), Letter("d", 3))
        for x in letters:
            iterate_endo_letter(f, 2, x)  # reading powers first changes nothing
        g = pickle.loads(pickle.dumps(f))
        assert g == f and g.kind == f.kind and g.alphabet == f.alphabet
        for x in letters:
            assert g.image_letter(x) == f.image_letter(x)
            for k in range(4):
                assert iterate_endo_letter(g, k, x) == iterate_endo_letter(f, k, x)
        if g.columns is not None:
            with pytest.raises(TypeError):  # still read-only
                g.columns[letters[0]][letters[0]] = 1
    ctx = ComPreLieContext(Endo.matrix(list("abc"), UPPER))
    x, y = Tensor({W("ab"): Fraction(1, 2), W("c"): 3}), Tensor.of(W("bc"))
    expected = prelie(ctx, x, y)
    back = pickle.loads(pickle.dumps(ctx))
    assert back == ctx
    assert prelie(back, x, y) == expected == prelie(ComPreLieContext(ctx.f), x, y)


def _matrix_power_index(f: Endo) -> int | None:
    """The least k <= n with M^k = 0 for the map's n x n matrix, by plain
    matrix products; None when no such k exists."""
    letters = f.alphabet
    m = [[f.columns[y].get(x, 0) for y in letters] for x in letters]
    n = len(letters)
    power = m
    for k in range(1, n + 1):
        if not any(any(row) for row in power):
            return k
        power = [[sum(power[i][l] * m[l][j] for l in range(n)) for j in range(n)]
                 for i in range(n)]
    return None


def test_nilpotency_index_matches_matrix_powers():
    rng = random.Random(5)
    maps = [fliess_channel(2, 1), fliess_channel(3, 2), Endo.matrix(list("abc"), UPPER),
            diagonal_weights({"a": 0, "b": 0}), diagonal_weights({"a": 0, "b": 2}),
            Endo.diagonal({"a": Fraction(1, 2)})]
    for _ in range(40):
        n = rng.randint(1, 4)
        entries = [[Fraction(rng.randint(-2, 2), rng.randint(1, 3)) if j > i else 0
                    for j in range(n)] for i in range(n)]
        f = Endo.matrix([f"l{i}" for i in range(n)], entries)
        maps += [f, transpose_endo(f)]
    indices = set()
    for f in maps:
        expected = _matrix_power_index(f)
        assert nilpotency_index(f) == expected
        assert nilpotency_index(pickle.loads(pickle.dumps(f))) == expected
        indices.add(expected)
    assert {None, 1, 2, 3, 4} <= indices
