"""Composition groups of truncated word series.

A character is modeled as a series truncated at word length L.  The
composition follows the recursion ``xu comp v = sum_i f^i(x)((u comp v) sh
v^(sh i)/i!)``, over the divided shuffle powers of v — finite because the
letter endomorphism must be nilpotent —
and the group law is ``u diamond v = u comp v + v`` with the zero series as
identity.  Because every operation only adds length, truncation is exact
for the coefficients retained.

The input-output (Fliess-operator) groups of control theory are the
special case over the alphabet {x0, ..., xn}: an element carries an output
channel i, its composition gates the ``x0`` correction by whether a
letter's index matches the channel, and the full group is the direct
product over channels.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .endo import iterate_endo_letter
from .prelie import ComPreLieContext, _prepend_image, _require_nilpotent, graded_series
from .words import EMPTY_WORD, Frozen, Letter, Rat, Tensor, Word, _add_into, _linear, _set, _Sum
from .words import shuffle


class TruncatedSeries:
    """A rational word series with all words longer than L discarded."""

    __slots__ = ("trunc", "tensor")

    def __init__(self, trunc: int, terms: Tensor | Mapping[Word, Rat] | Iterable[tuple[Word, Rat]] = ()):
        if trunc < 0:
            raise ValueError("truncation length must be >= 0")
        t = terms if isinstance(terms, Tensor) else Tensor(terms)
        self.trunc = trunc
        self.tensor = _truncate(t, trunc)

    @classmethod
    def zero(cls, trunc: int) -> "TruncatedSeries":
        return cls(trunc)

    def coefficient(self, w: Word) -> Rat:
        return self.tensor.coefficient(w)

    def items(self):
        return self.tensor.items()

    def __bool__(self) -> bool:
        return bool(self.tensor)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.trunc == other.trunc and self.tensor == other.tensor

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_compatible(other)
        return TruncatedSeries(self.trunc, self.tensor + other.tensor)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_compatible(other)
        return TruncatedSeries(self.trunc, self.tensor - other.tensor)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.trunc, self.tensor.scale(-1))

    def _check_compatible(self, other: "TruncatedSeries") -> None:
        if self.trunc != other.trunc:
            raise ValueError(
                f"mismatched truncations: {self.trunc} vs {other.trunc}"
            )

    def __str__(self) -> str:
        return str(self.tensor)

    def __repr__(self) -> str:
        return f"<TruncatedSeries L={self.trunc} {self.tensor}>"

    def __reduce__(self):
        # slots without __getstate__ do not pickle below protocol 2
        return type(self), (self.trunc, self.tensor)


def _truncate(t: Tensor, L: int) -> Tensor:
    return Tensor._from_clean({w: c for w, c in t.items() if len(w) <= L})


def _compose_words(series: TruncatedSeries, step: Callable[[Letter, Tensor], dict]) -> Tensor:
    """The linear extension over ``series`` of the map on words that sends
    e to 1 and xw to step(x, image of w), memoized on the suffixes."""
    memo: dict[Word, Tensor] = {EMPTY_WORD: Tensor.unit()}

    def rec(w: Word) -> Tensor:
        hit = memo.get(w)
        if hit is None:
            hit = memo[w] = Tensor._from_clean(step(w[0], rec(w[1:])))
        return hit

    return Tensor._from_clean(_linear(lambda w: rec(w).items(), series.items()))


def tilde_compose(
    ctx: ComPreLieContext, u: TruncatedSeries, v: TruncatedSeries
) -> TruncatedSeries:
    """The reduced composition; linear in the left argument."""
    u._check_compatible(v)
    L = u.trunc
    N = _require_nilpotent(ctx)
    # divided powers v^(sh i)/i!, built as v_pows[i-1] sh v / i; rec only
    # shuffles them into words of length <= L-1, so longer words are skipped
    v_pows = [Tensor.unit()]
    for i in range(1, N):
        power = shuffle(v_pows[-1], v.tensor, max_len=L - 1)
        v_pows.append(power if i == 1 else power.scale(Fraction(1, i)))

    def step(x: Letter, base: Tensor) -> dict[Word, Rat]:
        # i = 0: f^0(x) = x before base, the unit shuffle left out
        acc = _Sum((Word((x,) + t.letters), c) for t, c in base.items() if len(t) < L)
        for i in range(1, N):
            image = iterate_endo_letter(ctx.f, i, x)
            if not image:
                break
            _prepend_image(image, shuffle(base, v_pows[i], max_len=L - 1).items(), acc)
        return acc.result()

    return TruncatedSeries(L, _compose_words(u, step))


def diamond(
    ctx: ComPreLieContext, u: TruncatedSeries, v: TruncatedSeries
) -> TruncatedSeries:
    """The group law: reduced composition plus the right operand."""
    return tilde_compose(ctx, u, v) + v


def inverse(ctx: ComPreLieContext, u: TruncatedSeries) -> TruncatedSeries:
    """The diamond-inverse of ``u`` at its truncation.

    Solves v = -(u comp v) one word length at a time.  The length-n part
    of ``u comp v`` reads only the parts of v shorter than n, so one
    composition at truncation n, fed the solution at truncation n-1,
    fixes v up to length n.  The closing check that both diamond products
    vanish guards the solver: failure indicates a bug, not bad input.
    """
    _require_nilpotent(ctx)
    L = u.trunc
    v = TruncatedSeries.zero(0)
    for n in range(L + 1):
        v = -tilde_compose(ctx, TruncatedSeries(n, u.tensor), TruncatedSeries(n, v.tensor))
    if diamond(ctx, u, v).tensor or diamond(ctx, v, u).tensor:
        raise RuntimeError("inverse iteration failed to converge; internal error")
    return v


# ---------------------------------------------------------------------------
# input-output series over {x0, ..., xn}
# ---------------------------------------------------------------------------

class FliessElement(Frozen):
    """A single-channel input-output series: the component index together
    with a scalar series over {x0, ..., xn}.  Elements compare by both."""

    def __init__(self, channel: int, series: TruncatedSeries):
        if channel < 1:
            raise ValueError(f"channel must be >= 1, got {channel}")
        _set(self, "channel", channel)
        _set(self, "series", series)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.channel, self.series) == (other.channel, other.series)

    def __hash__(self) -> int:
        return hash((self.channel, self.series))

    def __repr__(self) -> str:
        return f"FliessElement(channel={self.channel!r}, series={self.series!r})"


def _letter_index(x: Letter) -> int:
    if x.shift is None and x.name.startswith("x") and x.name[1:].isdigit():
        return int(x.name[1:])
    raise ValueError(f"expected an input-alphabet letter x0..xn, got {x}")


def fliess_tilde(c: FliessElement, d: Sequence[TruncatedSeries]) -> FliessElement:
    """Reduced composition of a single-channel series with an n-tuple.

    Each letter x_j of a word prepends itself; when j matches the channel
    the word also absorbs one shuffle copy of the channel component of
    ``d`` behind a new x0.  Letters x_j with j > len(d) are allowed only in
    the outer series, not as gates (the gate only fires on the channel).
    """
    n = len(d)
    i = c.channel
    if i > n:
        raise ValueError(f"channel {i} outside the {n}-tuple of inner series")
    L = c.series.trunc
    di = d[i - 1]
    if di.trunc != L:
        raise ValueError(f"mismatched truncations: {di.trunc} vs {L}")
    x0 = Letter("x0")

    def step(x: Letter, base: Tensor) -> dict[Word, Rat]:
        acc = _Sum((Word((x,) + t.letters), cf) for t, cf in base.items() if len(t) < L)
        if _letter_index(x) == i:
            mixed = shuffle(base, di.tensor, max_len=L - 1)
            _add_into(acc, ((Word((x0,) + t.letters), cf) for t, cf in mixed.items()))
        return acc.result()

    return FliessElement(i, TruncatedSeries(L, _compose_words(c.series, step)))


def fliess_diamond(
    c: Sequence[TruncatedSeries], d: Sequence[TruncatedSeries]
) -> tuple[TruncatedSeries, ...]:
    """Componentwise group law on n-tuples of series."""
    if len(c) != len(d):
        raise ValueError(f"tuple sizes differ: {len(c)} vs {len(d)}")
    out = []
    for i, ci in enumerate(c, start=1):
        composed = fliess_tilde(FliessElement(i, ci), d)
        out.append(composed.series + d[i - 1])
    return tuple(out)


def fibonacci_dims(n: int, k_max: int) -> list[int]:
    """Coefficients d_0..d_kmax of X / (1 - nX - X^2).

    These are the homogeneous dimensions of the single-channel series
    algebra when the n plain input letters have degree 1 and x0 degree 2,
    with every word shifted by one; n = 1 gives the Fibonacci numbers and
    n = 2 the Pell numbers.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    return graded_series([0, n, 1], 1, k_max).coefficients
