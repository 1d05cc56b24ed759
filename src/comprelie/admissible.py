"""Admissible upper words, the words that split into them, and Dyck paths.

An upper word is the top row of a biword: a finite sequence of naturals.
It is *admissible* when every suffix starting at position i sums to at
most n - i and the whole word sums to exactly n - 1; it is
*sigma-admissible* when it splits into a concatenation of admissible
words.  Both families are counted by Catalan numbers: the counting
functions return the closed forms, and the tests check them against
the enumerations here.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, log10, pi
from typing import Iterable, Sequence

from .words import Frozen, _set

UpperWord = tuple[int, ...]


def parse_upper(text: str) -> UpperWord:
    """Read an upper word from a digit string such as ``"2010"``."""
    text = text.strip()
    if not text.isdigit() and text != "":
        raise ValueError(f"not a digit string: {text!r}")
    return tuple(int(ch) for ch in text)


def upper_to_str(w: Sequence[int]) -> str:
    if any(a > 9 for a in w):
        # double-digit entries would be ambiguous in the compact form
        return ".".join(str(a) for a in w)
    return "".join(str(a) for a in w)


def _suffix_bounded(w: Sequence[int]) -> bool:
    total = 0
    for i in range(len(w) - 1, -1, -1):
        total += w[i]
        if total > len(w) - 1 - i:
            return False
    return True


def is_admissible(w: Sequence[int]) -> bool:
    n = len(w)
    return n >= 1 and sum(w) == n - 1 and _suffix_bounded(w)


def is_sigma_admissible(w: Sequence[int]) -> bool:
    """Suffix-bound test; equivalent to admitting a factorization."""
    return _suffix_bounded(w)


class DyckPath(Frozen):
    """A lattice path of R (right) and U (up) steps staying weakly below
    the diagonal, from (0,0) to (n,n).  Paths are frozen, compare and
    hash by their steps."""

    def __init__(self, steps: str):
        height = 0
        for ch in steps:
            if ch == "R":
                height += 1
            elif ch == "U":
                height -= 1
                if height < 0:
                    raise ValueError("path rises above the diagonal")
            else:
                raise ValueError(f"steps must be 'R' or 'U', got {ch!r}")
        if height != 0:
            raise ValueError("path does not end on the diagonal")
        _set(self, "steps", steps)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.steps == other.steps

    def __hash__(self) -> int:
        return hash((self.steps,))

    def __repr__(self) -> str:
        return f"DyckPath(steps={self.steps!r})"

    @property
    def semilength(self) -> int:
        return len(self.steps) // 2

    def __str__(self) -> str:
        return self.steps or "."


def to_dyck(w: Sequence[int]) -> DyckPath:
    """The bijection sending an admissible word of length n+1 to a path
    of semilength n: one R per letter but the last, the i-th R followed
    by a_{n+1-i} U steps (the digits are consumed in reverse)."""
    if not is_admissible(w):
        raise ValueError(f"not an admissible upper word: {list(w)}")
    chunks = ["R" + "U" * a for a in reversed(tuple(w)[:-1])]
    return DyckPath("".join(chunks))


def from_dyck(p: DyckPath) -> UpperWord:
    rises: list[int] = []
    for ch in p.steps:
        if ch == "R":
            rises.append(0)
        else:
            rises[-1] += 1
    return tuple(reversed(rises)) + (0,)


def _suffix_bounded_words(n: int) -> Iterable[UpperWord]:
    """All length-n words satisfying the suffix bounds, built right to
    left so each new digit is capped by the remaining budget."""
    words: list[tuple[UpperWord, int]] = [((), 0)]
    for j in range(1, n + 1):
        words = [
            ((a,) + w, s + a)
            for w, s in words
            for a in range(j - s)
        ]
    return (w for w, _ in words)


def admissible_words(n: int) -> list[UpperWord]:
    if n < 1:
        raise ValueError("admissible words have length >= 1")
    return [w for w in _suffix_bounded_words(n) if sum(w) == n - 1]


def sigma_admissible_words(n: int) -> list[UpperWord]:
    if n < 0:
        raise ValueError("length must be >= 0")
    return list(_suffix_bounded_words(n))


def count_admissible(n: int) -> int:
    if n < 1:
        raise ValueError("admissible words have length >= 1")
    return comb(2 * n - 2, n - 1) // n


def count_sigma(n: int) -> int:
    if n < 0:
        raise ValueError("length must be >= 0")
    return comb(2 * n, n) // (n + 1)


def _catalan_digits(n: int) -> int:
    """The digits of ``count_admissible(n) + count_sigma(n)`` = C_n (1 + (n+1)/(4n-2)),
    or one more, never fewer: C_n lies within 1 - 9/(8n) below 4**n / (n**1.5
    sqrt(pi)).  n times a Fraction, as a huge n overflows a float."""
    tail = 1.5 * log10(max(n, 1)) + log10(pi) / 2 - log10(1 + (n + 1) / (4 * n - 2))
    return int(n * Fraction(log10(4)) - Fraction(tail)) + 1
