"""Admissible upper words, the Dyck bijection and Catalan counts."""

from __future__ import annotations

import itertools
from math import comb

import pytest

from comprelie.admissible import (
    DyckPath,
    admissible_words,
    count_admissible,
    count_sigma,
    from_dyck,
    is_admissible,
    is_sigma_admissible,
    parse_upper,
    sigma_admissible_words,
    to_dyck,
    upper_to_str,
)
from comprelie.endo import Endo
from comprelie.prelie import ComPreLieContext, prelie
from comprelie.words import Letter, Tensor, Word, shuffle


def biword(upper) -> Word:
    return Word(tuple(Letter("d", a) for a in upper))


def upper_of(w: Word) -> tuple:
    return tuple(x.shift for x in w)


def test_admissible_examples():
    assert is_admissible(parse_upper("110"))
    assert not is_admissible((0, 1))
    assert not is_admissible(())
    four = {upper_to_str(w) for w in admissible_words(4)}
    assert four == {"3000", "2100", "1200", "2010", "1110"}


def test_admissible_small_lists():
    assert [upper_to_str(w) for w in admissible_words(1)] == ["0"]
    assert {upper_to_str(w) for w in admissible_words(2)} == {"10"}
    assert {upper_to_str(w) for w in admissible_words(3)} == {"200", "110"}


def test_sigma_admissible_examples():
    assert {upper_to_str(w) for w in sigma_admissible_words(3)} == {
        "000", "100", "200", "010", "110"
    }
    assert is_sigma_admissible(parse_upper("110"))
    assert not is_sigma_admissible((0, 0, 2))
    assert {upper_to_str(w) for w in sigma_admissible_words(4)} == {
        "0000", "1000", "2000", "3000", "0100", "1100", "2100",
        "0200", "1200", "0010", "1010", "2010", "0110", "1110",
    }


def sigma_factorize(w) -> list[tuple[int, ...]] | None:
    """Split into the unique sequence of admissible factors, or None.

    The first factor must end at the first position where the prefix sum
    falls behind the position count by exactly one; any longer admissible
    prefix would contain a suffix violating its own bound.
    """
    w = tuple(w)
    out: list[tuple[int, ...]] = []
    start = 0
    running = 0
    for i, a in enumerate(w):
        running += a
        if running == i - start:
            factor = w[start : i + 1]
            if not is_admissible(factor):
                return None
            out.append(factor)
            start = i + 1
            running = 0
    if start != len(w):
        return None
    return out


def test_factorization_examples():
    assert sigma_factorize(parse_upper("1010")) == [(1, 0), (1, 0)]
    assert sigma_factorize((0,)) == [(0,)]
    assert sigma_factorize((2, 0)) is None
    assert sigma_factorize(()) == []
    assert sigma_factorize((2, 0, 0, 1, 0, 0)) == [(2, 0, 0), (1, 0), (0,)]


def test_factorization_iff_suffix_bounds():
    for n in range(7):
        for w in itertools.product(range(4), repeat=n):
            factors = sigma_factorize(w)
            assert (factors is not None) == is_sigma_admissible(w)
            if factors is not None:
                assert all(is_admissible(f) for f in factors)
                assert tuple(itertools.chain.from_iterable(factors)) == w
    for n in range(9):
        for w in sigma_admissible_words(n):
            assert sigma_factorize(w) is not None


def test_factor_count():
    # the number of factors is pinned by the total of the digits
    for n in range(1, 8):
        for w in sigma_admissible_words(n):
            assert len(sigma_factorize(w)) == n - sum(w)


def test_dyck_examples():
    assert to_dyck((0,)).steps == ""
    assert to_dyck((1, 0)).steps == "RU"
    assert to_dyck((2, 0, 0)).steps == "RRUU"
    assert str(to_dyck((0,))) == "."
    with pytest.raises(ValueError):
        to_dyck((0, 1))


def test_dyck_path_validation():
    with pytest.raises(ValueError):
        DyckPath("UR")
    with pytest.raises(ValueError):
        DyckPath("RRU")
    with pytest.raises(ValueError):
        DyckPath("RX")


def test_dyck_roundtrip():
    for n in range(1, 9):
        for w in admissible_words(n):
            path = to_dyck(w)
            assert path.semilength == n - 1
            assert from_dyck(path) == w
    # and the other way around, over all paths of semilength <= 7
    def paths(r, u, prefix):
        if r == 0 and u == 0:
            yield DyckPath(prefix)
            return
        if r:
            yield from paths(r - 1, u, prefix + "R")
        if u > r:
            yield from paths(r, u - 1, prefix + "U")

    for m in range(8):
        seen = list(paths(m, m, ""))
        assert len(seen) == comb(2 * m, m) // (m + 1)
        for p in seen:
            assert to_dyck(from_dyck(p)) == p


def test_catalan_counts():
    for n in range(1, 9):
        assert count_admissible(n) == comb(2 * n - 2, n - 1) // n
    for n in range(9):
        assert count_sigma(n) == comb(2 * n, n) // (n + 1)
    assert count_admissible(4) == 5
    assert count_admissible(5) == 14
    assert count_sigma(4) == 14


def test_closed_form_counts_match_enumeration():
    for n in range(1, 10):
        assert len(admissible_words(n)) == count_admissible(n)
    for n in range(10):
        assert len(sigma_admissible_words(n)) == count_sigma(n)


def test_prepend_budget_digit():
    # a suffix-bounded word becomes admissible after prepending its slack
    for n in range(8):
        for w in sigma_admissible_words(n):
            assert is_admissible((n - sum(w),) + w)


def test_length_errors():
    with pytest.raises(ValueError):
        admissible_words(0)
    with pytest.raises(ValueError):
        sigma_admissible_words(-1)


def test_parse_round_trip():
    assert parse_upper("2010") == (2, 0, 1, 0)
    assert parse_upper("") == ()
    assert upper_to_str((1, 1, 0)) == "110"
    assert upper_to_str((12, 0)) == "12.0"
    with pytest.raises(ValueError):
        parse_upper("2a0")


def test_closure_under_shuffle_and_grafting():
    # products of sigma-admissible biwords only produce sigma-admissible
    # biwords, checked exhaustively up to combined length 5
    ctx = ComPreLieContext(Endo.biletter_shift())
    pool = {
        n: [biword(w) for w in sigma_admissible_words(n)] for n in range(1, 5)
    }
    for nu in range(1, 5):
        for nv in range(1, 6 - nu):
            for u in pool[nu]:
                for v in pool[nv]:
                    for w in shuffle(Tensor.of(u), Tensor.of(v)).support():
                        assert is_sigma_admissible(upper_of(w))
                    for w in prelie(ctx, Tensor.of(u), Tensor.of(v)).support():
                        assert is_sigma_admissible(upper_of(w))
