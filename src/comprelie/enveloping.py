"""The enveloping algebra on symmetric monomials of words.

A pre-Lie product on a vector space extends canonically to its symmetric
algebra: the extension obeys

1. ``A . 1 = A``;
2. ``A . (B x u) = (A . B) . u - A . (B . u)``;
3. the action of a single element splits over the factors of ``A``.

With the extended action the product ``A * B = (A . B') x B''`` (sum over
splittings of B's factor multiset) is associative — the enveloping algebra
of the underlying Lie algebra.  The engine below implements that recursion
for any basis-level pre-Lie product; the rest of the module instantiates it
on words, adds the closed one-pass formulas for a word acting on a factor
list, and builds the dual coproduct that exists when the letter
endomorphism is locally nilpotent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial
from typing import Callable, Hashable, Iterator, Mapping

from .endo import iterate_endo_letter, nilpotency_index
from .prelie import ComPreLieContext, _prepend_image, prelie
from .words import EMPTY_WORD, Letter, Lin, Rat, Tensor, Word, _add_into, shuffle, word_to_str

# ---------------------------------------------------------------------------
# generic Oudom-Guin engine
# ---------------------------------------------------------------------------

Elem = Hashable  # basis elements: words here, decorated trees elsewhere
Mono = tuple  # sorted tuple of Elem
Raw = dict  # Elem -> Rat or Mono -> Rat


class OudomGuin:
    """Extends a basis-level pre-Lie product to sorted-tuple monomials.

    ``base(a, b)`` must return the product of two basis elements as an
    element -> coefficient mapping.  Monomials are kept sorted, so the
    basis elements must be totally ordered.
    """

    def __init__(self, base: Callable[[Elem, Elem], Mapping[Elem, Rat]]):
        self.base = base
        self._cache: dict[tuple[Mono, Mono], tuple[tuple[Mono, Rat], ...]] = {}

    def bullet(self, a: Mapping[Mono, Rat], b: Mapping[Mono, Rat]) -> Raw:
        out: Raw = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                _add_into(out, self._bullet_mono(ma, mb), ca * cb)
        return out

    def star(self, a: Mapping[Mono, Rat], b: Mapping[Mono, Rat]) -> Raw:
        out: Raw = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                _add_into(out, self._star_mono(ma, mb), ca * cb)
        return out

    def _bullet_mono(self, a: Mono, b: Mono) -> tuple[tuple[Mono, Rat], ...]:
        key = (a, b)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        if len(b) == 0:
            out = ((a, 1),)
        elif len(b) == 1:
            out = tuple(self._bullet_mono_elem(a, b[0]).items())
        else:
            rest, last = b[:-1], b[-1]
            acc: Raw = {}
            for m, c in self._bullet_mono(a, rest):
                _add_into(acc, self._bullet_mono(m, (last,)), c)
            for m, c in self._bullet_mono_elem(rest, last).items():
                _add_into(acc, self._bullet_mono(a, m), -c)
            out = tuple(acc.items())
        self._cache[key] = out
        return out

    def _bullet_mono_elem(self, a: Mono, u: Elem) -> Raw:
        """Split the action of one element over the factors of ``a``."""
        acc: Raw = {}
        for i, ai in enumerate(a):
            rest = a[:i] + a[i + 1:]
            _add_into(acc, ((tuple(sorted(rest + (e,))), c) for e, c in self.base(ai, u).items()))
        return acc

    def _star_mono(self, a: Mono, b: Mono) -> tuple[tuple[Mono, Rat], ...]:
        acc: Raw = {}
        k = len(b)
        for mask in range(1 << k):
            inside = tuple(b[j] for j in range(k) if mask >> j & 1)
            outside = tuple(b[j] for j in range(k) if not mask >> j & 1)
            _add_into(
                acc, ((tuple(sorted(m + outside)), c) for m, c in self._bullet_mono(a, inside))
            )
        return tuple(acc.items())


# ---------------------------------------------------------------------------
# symmetric monomials of words
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class SymMonomial:
    """A multiset of words; the empty multiset is the unit, distinct from
    the one-factor monomial on the empty word."""

    factors: tuple[Word, ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self, "factors", tuple(sorted(self.factors, key=lambda w: w._key()))
        )

    @staticmethod
    def of(*factors: Word) -> "SymMonomial":
        return SymMonomial(tuple(factors))

    def times(self, other: "SymMonomial") -> "SymMonomial":
        return SymMonomial(self.factors + other.factors)

    def total_letters(self) -> int:
        return sum(len(w) for w in self.factors)

    def _key(self):
        return (len(self.factors), tuple(w._key() for w in self.factors))

    def __lt__(self, other: "SymMonomial") -> bool:
        return self._key() < other._key()

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return " * ".join(word_to_str(w) for w in self.factors)

    def __repr__(self) -> str:
        return f"SymMonomial({str(self)!r})"


ONE = SymMonomial()


class SymTensor(Lin):
    """A rational linear combination of symmetric monomials."""

    __slots__ = ()

    @classmethod
    def unit(cls) -> "SymTensor":
        return cls.of(ONE)

    @classmethod
    def from_tensor(cls, t: Tensor) -> "SymTensor":
        """Embed a combination of words as one-factor monomials."""
        return cls._from_clean({SymMonomial.of(w): c for w, c in t.items()})


def _engine(ctx: ComPreLieContext) -> OudomGuin:
    eng = ctx.extras.get("oudom_guin")
    if eng is None:
        def base(u: Word, v: Word) -> Mapping[Word, Rat]:
            return prelie(ctx, u, v).terms

        eng = OudomGuin(base)
        ctx.extras["oudom_guin"] = eng
    return eng


def _raw(a: SymTensor | SymMonomial) -> dict[tuple, Rat]:
    return {m.factors: c for m, c in SymTensor._coerce(a).items()}


def _wrap(d: Mapping[tuple, Rat]) -> SymTensor:
    return SymTensor._from_clean({SymMonomial(m): c for m, c in d.items()})


def extend_bullet(ctx: ComPreLieContext, a: SymTensor | SymMonomial, b: SymTensor | SymMonomial) -> SymTensor:
    """The pre-Lie action of monomials on monomials."""
    return _wrap(_engine(ctx).bullet(_raw(a), _raw(b)))


def star(ctx: ComPreLieContext, a: SymTensor | SymMonomial, b: SymTensor | SymMonomial) -> SymTensor:
    """The associative enveloping product."""
    return _wrap(_engine(ctx).star(_raw(a), _raw(b)))


# ---------------------------------------------------------------------------
# closed formulas for a word acting on a list of word factors
# ---------------------------------------------------------------------------

def _distribute(
    ctx: ComPreLieContext, w: Word, factors: list[Word], shares: int
) -> Iterator[tuple[Tensor, tuple[Word, ...]]]:
    """Every assignment of the factors to ``shares`` shares, the first
    ``len(w)`` of them being the letters of ``w``: yields the word
    combination in which each letter absorbs its share through an iterated
    shuffle, with the letter endomorphism applied once per absorbed factor,
    nesting from the last letter outward; and the factors of any further
    share, which pass through unchanged."""
    i = len(w)
    for assignment in itertools.product(range(shares), repeat=len(factors)):
        blocks: list[list[Word]] = [[] for _ in range(shares)]
        for u, b in zip(factors, assignment):
            blocks[b].append(u)
        t = Tensor.unit()
        for b in range(i - 1, -1, -1):
            for u in blocks[b]:
                t = shuffle(t, u)
            acc: dict[Word, Rat] = {}
            _prepend_image(iterate_endo_letter(ctx.f, len(blocks[b]), w[b]), t.terms.items(), acc)
            t = Tensor._from_clean(acc)
        yield t, tuple(u for block in blocks[i:] for u in block)


def closed_action(ctx: ComPreLieContext, w: Word, factors: list[Word]) -> SymTensor:
    """One-pass formula for ``w`` acting on ``w1 x ... x wk``.

    The factors are distributed in all ways over the letters of ``w``; each
    letter absorbs its share through an iterated shuffle, with the letter
    endomorphism applied as many times as the share size, nesting from the
    last letter outward.
    """
    if len(w) == 0:
        return SymTensor() if factors else SymTensor.of(SymMonomial.of(EMPTY_WORD))
    acc: dict[Word, Rat] = {}
    for t, _ in _distribute(ctx, w, factors, len(w)):
        _add_into(acc, t.items())
    return SymTensor.from_tensor(Tensor._from_clean(acc))


def closed_star(ctx: ComPreLieContext, w: Word, factors: list[Word]) -> SymTensor:
    """One-pass formula for ``w * (w1 x ... x wk)``: as the closed action,
    with one extra share of factors passing through unchanged."""
    if len(w) == 0:
        return SymTensor.of(SymMonomial(tuple(factors) + (EMPTY_WORD,)))
    acc: dict[SymMonomial, Rat] = {}
    for t, passthrough in _distribute(ctx, w, factors, len(w) + 1):
        _add_into(acc, ((SymMonomial((x,) + passthrough), c) for x, c in t.items()))
    return SymTensor._from_clean(acc)


# ---------------------------------------------------------------------------
# dual coproduct
# ---------------------------------------------------------------------------

def _require_nilpotent(ctx: ComPreLieContext) -> int:
    n = nilpotency_index(ctx.f)
    if n is None:
        raise ValueError(
            "the dual coproduct is only defined for a locally nilpotent letter "
            "endomorphism; this one has no nilpotency index"
        )
    return n


def _delta_tilde_word(ctx: ComPreLieContext, w: Word) -> dict[tuple[Word, SymMonomial], Rat]:
    cache = ctx.extras.setdefault("delta_tilde", {})
    hit = cache.get(w)
    if hit is not None:
        return hit
    n = _require_nilpotent(ctx)
    if len(w) == 0:
        out = {(EMPTY_WORD, ONE): 1}
        cache[w] = out
        return out
    x, u = w[0], w[1:]
    acc: dict[tuple[Word, SymMonomial], Rat] = {}
    for i in range(n):
        image = iterate_endo_letter(ctx.f, i, x)
        if not image:
            break
        # unshuffle u into i+1 ordered (possibly empty) parts — the adjoint
        # of the iterated shuffle product, so each letter position picks a
        # part independently; the head part feeds the recursion, the tail
        # parts multiply into the monomial leg
        for assignment in itertools.product(range(i + 1), repeat=len(u)):
            parts: list[tuple[Letter, ...]] = [() for _ in range(i + 1)]
            for pos, p in enumerate(assignment):
                parts[p] = parts[p] + (u[pos],)
            head = Word(parts[0])
            tail = tuple(Word(t) for t in parts[1:])
            for (t_word, mono), c in _delta_tilde_word(ctx, head).items():
                merged = SymMonomial(mono.factors + tail)
                _add_into(
                    acc,
                    (((Word((y,) + t_word.letters), merged), cy) for y, cy in image.items()),
                    c,
                )
    cache[w] = acc
    return acc


def dual_coproduct(ctx: ComPreLieContext, w: Word) -> list[tuple[Word, SymMonomial, Rat]]:
    """The reduced coproduct of a word, as (word, monomial, coefficient)
    triples; the full coproduct adds the term 1 (x) w."""
    return sorted(
        ((t, m, c) for (t, m), c in _delta_tilde_word(ctx, w).items()),
        key=lambda x: (x[0]._key(), x[1]._key()),
    )


PairLin = dict[tuple[SymMonomial, SymMonomial], Rat]


def full_coproduct(ctx: ComPreLieContext, m: SymMonomial) -> PairLin:
    """The multiplicative extension of word -> delta(word) + 1 (x) word."""
    acc: PairLin = {(ONE, ONE): 1}
    for w in m.factors:
        delta_w: PairLin = {(ONE, SymMonomial.of(w)): 1}
        _add_into(
            delta_w,
            (((SymMonomial.of(t), mono), c) for (t, mono), c in _delta_tilde_word(ctx, w).items()),
        )
        nxt: PairLin = {}
        for (a1, b1), c1 in acc.items():
            _add_into(
                nxt, (((a1.times(a2), b1.times(b2)), c2) for (a2, b2), c2 in delta_w.items()), c1
            )
        acc = nxt
    return acc


# ---------------------------------------------------------------------------
# pairing
# ---------------------------------------------------------------------------

def sym_pairing(a: SymMonomial, b: SymMonomial) -> Rat:
    """Dual-basis pairing of monomials: factor multisets must match, and
    repeated factors contribute their matching count."""
    if len(a.factors) != len(b.factors):
        return 0
    if a.factors != b.factors:  # both are sorted
        return 0
    out = 1
    run = 1
    for i in range(1, len(a.factors)):
        if a.factors[i] == a.factors[i - 1]:
            run += 1
        else:
            out *= factorial(run)
            run = 1
    out *= factorial(run)
    return out


def pair_tensor(a: SymTensor, b: SymTensor) -> Rat:
    out: Rat = 0
    for ma, ca in a.items():
        for mb, cb in b.items():
            p = sym_pairing(ma, mb)
            if p:
                out += ca * cb * p
    return out
