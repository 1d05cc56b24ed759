"""Incremental exact linear algebra on sparse vectors.

Vectors are mappings ``basis key -> rational`` with orderable, hashable keys
(words, monomials, tree isoclasses...).  :class:`SpanBasis` keeps a reduced
row-echelon set of rows so that rank growth, membership, and residues are
cheap to query while vectors stream in.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Iterable, Mapping

from .words import Rat, _add_into, _Sum


def _div(a: Rat, b: Rat) -> Rat:
    # keep integers integral when the division is exact; it is much faster
    if isinstance(a, int) and isinstance(b, int):
        return a // b if a % b == 0 else Fraction(a, b)
    return a / b


class SpanBasis:
    """A growing basis of the span of the vectors added so far.

    Rows are kept fully reduced: each row's pivot key appears in no other
    row, and pivot coefficients are 1.  ``add`` reports whether the vector
    enlarged the span.
    """

    def __init__(self, vectors: Iterable[Mapping[Hashable, Rat]] = ()):
        self.rows: dict[Hashable, dict[Hashable, Rat]] = {}
        for v in vectors:
            self.add(v)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Mapping[Hashable, Rat]) -> dict[Hashable, Rat]:
        """The residue of ``vec`` modulo the current span."""
        acc = _Sum(vec.items())
        # in reduced form a subtraction never reintroduces a pivot key,
        # so one pass over the pivots initially present is enough
        for k in [k for k in acc.keys() if k in self.rows]:
            c = acc.get(k)
            if c:
                _add_into(acc, self.rows[k].items(), -c)
        return acc.result()

    def contains(self, vec: Mapping[Hashable, Rat]) -> bool:
        return not self.reduce(vec)

    def add(self, vec: Mapping[Hashable, Rat]) -> bool:
        """Insert ``vec``; True iff the rank grew."""
        red = self.reduce(vec)
        if not red:
            return False
        pivot = min(red)
        inv = red[pivot]
        row = {k: _div(v, inv) for k, v in red.items()}
        for k, other in self.rows.items():
            c = other.get(pivot)
            if c:
                acc = _Sum(other.items())
                _add_into(acc, row.items(), -c)
                self.rows[k] = acc.result()
        self.rows[pivot] = row
        return True


def rank_of(vectors: Iterable[Mapping[Hashable, Rat]]) -> int:
    return SpanBasis(vectors).rank
