"""Composition groups of truncated word series.

A character is modeled as a series truncated at word length L.  The
composition follows the recursion ``xu comp v = sum_i f^i(x)((u comp v) sh
v^(sh i)/i!)``, over the divided shuffle powers of v — finite because the
letter endomorphism must be nilpotent —
and the group law is ``u diamond v = u comp v + v`` with the zero series as
identity.  Because every operation only adds length, truncation is exact
for the coefficients retained.

A composition codes the letters of its operands, of ``x0`` and of the f^i
images (each f^i(x) stepped once from f^(i-1)(x)) as small ints with
``words._Codes``, like the pre-Lie product and the brace of words, and
prepends through ``words._prepend``; the images of suffixes and the
divided powers are memos that live for that call alone, and a ``Word`` is
built only for each term of the output.  Its shuffles go through
``_bounded_pairs(L - 1)``, as a letter is prepended to every shuffled word.

The input-output (Fliess-operator) groups of control theory are the
special case over the alphabet {x0, ..., xn}: an element carries an output
channel i, its composition gates the ``x0`` correction by whether a
letter's index matches the channel, and the full group is the direct
product over channels.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .endo import letter_iterates
from .prelie import ComPreLieContext, _require_nilpotent, graded_series
from .words import Frozen, Letter, Rat, Tensor, Word, _add_into, _bilinear, _linear, _prepend, _set
from .words import _Codes, _div, _Memo, _shuffle_tuples, _Sum


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


def _bounded_pairs(bound: int):
    """The shuffle of two coded words in a ``words._Memo`` for one call, and
    nothing, before any lookup, for a pair of more than ``bound`` letters."""
    memo = _Memo(_shuffle_tuples)
    return lambda u, v: memo[u, v] if len(u) + len(v) <= bound else ()


def _compose_codes(codes: _Codes, words: dict, branches: Sequence, pair, L: int) -> TruncatedSeries:
    """The series at truncation L of the linear extension over the coded
    ``words`` of the map that sends e to 1 and xw to xW + sum over x's
    branches (image, partner) of image (W sh partner), where W is the image
    of w, an image is a tuple of (code, coefficient) pairs and a partner a
    coded series.  The images of suffixes are filled shortest first, in a
    loop, so a word of any length composes without recursion."""
    memo: dict[tuple, dict] = {(): {(): 1}}
    for w in words:
        for j in range(len(w) - 1, -1, -1):
            suffix = w[j:]
            if suffix in memo:
                continue
            x, base = w[j], memo[w[j + 1:]]
            # f^0(x) = x only prepends x: the unit shuffle is left out; with
            # no branch the prepended words are distinct and need no sum
            head = (x,)
            if not branches[x]:
                memo[suffix] = {head + t: c for t, c in base.items() if len(t) < L}
                continue
            acc = _Sum()
            _add_into(acc, ((head + t, c) for t, c in base.items() if len(t) < L))
            for image, partner in branches[x]:
                _prepend(image, _bilinear(pair, base.items(), partner.items()).items(), acc)
            memo[suffix] = acc.result()
    composed = _linear(lambda w: memo[w].items(), words.items())
    out = TruncatedSeries.__new__(TruncatedSeries)  # its words are already cut at L
    out.trunc, out.tensor = L, Tensor._from_clean(dict(codes.decode(composed.items())))
    return out


def tilde_compose(
    ctx: ComPreLieContext, u: TruncatedSeries, v: TruncatedSeries
) -> TruncatedSeries:
    """The reduced composition; linear in the left argument."""
    u._check_compatible(v)
    L = u.trunc
    N = _require_nilpotent(ctx)
    codes = _Codes()
    words = codes.terms(u.tensor)
    heads = list(codes.letters)
    pair = _bounded_pairs(L - 1)
    # divided powers v^(sh i)/i!, built as powers[i-1] sh (v / i); they are
    # only shuffled into words of length <= L-1, so longer words are skipped
    coded_v = codes.terms(v.tensor)
    powers = [{(): 1}]
    for i in range(1, N):
        v_over_i = [(t, _div(c.numerator, c.denominator * i)) for t, c in coded_v.items()]
        powers.append(_bilinear(pair, powers[-1].items(), v_over_i))

    def branches(x: Letter) -> list[tuple]:
        # f^i(x) for 1 <= i < N, stepped once each, up to the first zero
        images = itertools.islice(letter_iterates(ctx.f, x), 1, None)
        return [(codes.image(image), power) for power, image in zip(powers[1:], images)]

    return _compose_codes(codes, words, [branches(x) for x in heads], pair, L)


def _compose_terms(letters: int, trunc: int, lu: int, lv: int, stop: int) -> int:
    """At most how many terms ``tilde_compose`` and ``diamond`` return: the
    number of words of length 1..E over ``letters`` letters, counted only
    until it passes ``stop``.  E is the truncation or, if shorter, the
    longest word the composition can build from words of length at most
    ``lu`` (left) and ``lv`` (right): each left letter brings at most one
    right word per power of the map below its nilpotency index, and a map
    on n letters has index at most n."""
    longest = min(trunc, max(lv, lu * (1 + (letters - 1) * lv)))
    total, power = 0, 1
    for _ in range(longest):
        power *= letters
        total += power
        if total > stop:
            break
    return total


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

    __hash__ = None  # equal elements compare equal, but a series has no hash

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
    codes = _Codes()
    words = codes.terms(c.series.tensor)
    heads = list(codes.letters)
    # a letter on the channel writes x0 before one shuffle copy of d_i
    gate = [(((codes.code(Letter("x0")), 1),), codes.terms(di.tensor))]
    branches = [gate if _letter_index(x) == i else [] for x in heads]
    pair = _bounded_pairs(L - 1)
    return FliessElement(i, _compose_codes(codes, words, branches, pair, L))


def fliess_diamond(
    c: Sequence[TruncatedSeries], d: Sequence[TruncatedSeries]
) -> tuple[TruncatedSeries, ...]:
    """The group law on n-tuples of series, the direct product of the n
    single-channel groups: component i is ``fliess_tilde`` of c_i, which
    reads d_i alone and is ``tilde_compose`` under ``fliess_channel(n, i)``
    (``test_fliess_matches_generic_composition_on_channel``), plus d_i."""
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


def _log_r(n: int) -> float:
    """log10 of r = (n + sqrt(n^2 + 4)) / 2, the growth rate of
    ``fibonacci_dims``: d_k = (r**k - (-1/r)**k) / sqrt(n^2 + 4)."""
    return math.log10(n) + math.log10((1 + math.sqrt(1 + 4 / (n * n))) / 2)


def _series_chars(n: int, k_max: int) -> int:
    """About how many characters ``fibonacci_dims(n, k_max)`` prints in:
    the last dimension has about k_max * log10(r) digits and all of them
    half of k_max**2 * log10(r), a float product until it could overflow."""
    log_r = _log_r(n) if k_max < 10 ** 150 else Fraction(_log_r(n))
    return round(k_max * k_max * log_r / 2)


def _series_digits(n: int, k_max: int) -> int:
    """About how many digits the last of ``fibonacci_dims(n, k_max)`` has:
    d_k is within 1 of r**k / sqrt(n^2 + 4)."""
    return int(k_max * _log_r(n) - math.log10(n * n + 4) / 2) + 1
