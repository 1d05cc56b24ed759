"""Incremental exact linear algebra on sparse vectors.

Vectors are mappings ``basis key -> rational`` with orderable, hashable keys
(words, monomials, tree isoclasses...).  :class:`SpanBasis` keeps a reduced
row-echelon set of rows so that rank growth, membership, and coordinates are
cheap to query while vectors stream in.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Iterable, Mapping, Sequence

from .words import Rat, _add_into


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
        out = {k: v for k, v in vec.items() if v}
        # in reduced form a subtraction never reintroduces a pivot key,
        # so one pass over the pivots initially present is enough
        for k in [k for k in out if k in self.rows]:
            c = out.get(k)
            if c:
                _add_into(out, self.rows[k].items(), -c)
        return out

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
        for other in self.rows.values():
            c = other.get(pivot)
            if c:
                _add_into(other, row.items(), -c)
        self.rows[pivot] = row
        return True


def rank_of(vectors: Iterable[Mapping[Hashable, Rat]]) -> int:
    return SpanBasis(vectors).rank


def express_in(
    vectors: Sequence[Mapping[Hashable, Rat]], target: Mapping[Hashable, Rat]
) -> list[Rat] | None:
    """Coefficients c with ``sum c_i * vectors[i] == target``, else None.

    When the vectors are dependent one valid solution is returned.
    """
    n = len(vectors)
    # row i is reduced by all earlier rows, so eliminating pivots in
    # insertion order never reintroduces an earlier pivot
    rows: list[tuple[dict, list[Rat]]] = []  # (reduced vector, combination)
    for i, v in enumerate(vectors):
        vec = {k: c for k, c in v.items() if c}
        combo: list[Rat] = [0] * n
        combo[i] = 1
        for rvec, rcombo in rows:
            c = vec.get(min(rvec), 0)
            if c:
                _add_into(vec, rvec.items(), -c)
                for j, rc in enumerate(rcombo):
                    if rc:
                        combo[j] -= c * rc
        if vec:
            inv = vec[min(vec)]
            vec = {k: _div(c, inv) for k, c in vec.items()}
            combo = [_div(c, inv) if c else 0 for c in combo]
            rows.append((vec, combo))
    tgt = {k: c for k, c in target.items() if c}
    out: list[Rat] = [0] * n
    for rvec, rcombo in rows:
        c = tgt.get(min(rvec), 0)
        if c:
            _add_into(tgt, rvec.items(), -c)
            for j, rc in enumerate(rcombo):
                if rc:
                    out[j] += c * rc
    return None if tgt else out
