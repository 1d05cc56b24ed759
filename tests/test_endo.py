"""Endomorphism representations: images, iteration, nilpotency, transpose."""

from __future__ import annotations

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
    nilpotency_index,
    transpose_endo,
)
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
    assert d.image_letter(Letter("a")) == {Letter("a"): 2}
