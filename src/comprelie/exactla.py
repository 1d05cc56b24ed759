"""Incremental exact linear algebra on sparse vectors.

Vectors are mappings ``basis key -> rational`` with orderable, hashable keys
(words, monomials, tree isoclasses...).  :class:`SpanBasis` keeps the span as
primitive integer rows in echelon form, so that rank growth, membership, and
residues are cheap to query while vectors stream in.  It is fraction-free: a
vector's denominators are cleared once, and the elimination runs in ``int``.
"""

from __future__ import annotations

from bisect import insort
from math import gcd, lcm
from typing import Hashable, Iterable, Mapping

from .words import Rat, _div, check_coefficient


class SpanBasis:
    """A growing basis of the span of the vectors added so far.

    ``rows`` maps each pivot key to its row, a primitive integer vector
    whose least key is the pivot, with a positive coefficient there.  Rows
    are never rewritten: a row may hold the pivots of later rows.  ``add``
    reports whether the vector enlarged the span.
    """

    def __init__(self, vectors: Iterable[Mapping[Hashable, Rat]] = ()):
        self.rows: dict[Hashable, dict[Hashable, int]] = {}
        self._pivots: list = []  # the keys of ``rows``, ascending
        for v in vectors:
            self.add(v)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _eliminate(self, vec: Mapping[Hashable, Rat]) -> tuple[dict[Hashable, int], int]:
        """(r, s): an integer vector r free of pivot keys, with r / s the
        residue of ``vec`` modulo the span."""
        s = lcm(*(check_coefficient(c).denominator for c in vec.values() if type(c) is not int))
        r = {k: c.numerator * (s // c.denominator) for k, c in vec.items() if c}
        # a row brings in only keys after its pivot, so one pass over the
        # pivots in increasing order clears them all
        for p in self._pivots:
            c = r.get(p)
            if c:
                row = self.rows[p]
                g = gcd(row[p], c)
                a, c = row[p] // g, c // g
                if a != 1:  # r <- a * r, so that c * row clears p in int
                    s *= a
                    r = {k: x * a for k, x in r.items()}
                for k, x in row.items():
                    r[k] = r.get(k, 0) - c * x
        return {k: x for k, x in r.items() if x}, s

    def reduce(self, vec: Mapping[Hashable, Rat]) -> dict[Hashable, Rat]:
        """The residue of ``vec`` modulo the current span, unique once no
        pivot key is left; each value is an ``int`` where it is integral."""
        r, s = self._eliminate(vec)
        return {k: _div(x, s) for k, x in r.items()}

    def contains(self, vec: Mapping[Hashable, Rat]) -> bool:
        return not self._eliminate(vec)[0]

    def add(self, vec: Mapping[Hashable, Rat]) -> bool:
        """Insert ``vec``; True iff the rank grew."""
        r = self._eliminate(vec)[0]
        if r:
            pivot = min(r)
            g = gcd(*r.values()) * (1 if r[pivot] > 0 else -1)
            self.rows[pivot] = {k: x // g for k, x in r.items()}
            insort(self._pivots, pivot)
        return bool(r)


def rank_of(vectors: Iterable[Mapping[Hashable, Rat]]) -> int:
    return SpanBasis(vectors).rank
