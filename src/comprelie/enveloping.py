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

The monomial type, the commutative product, the multiplicative extension
of a coproduct and the diagonal pairing are shared with the forests.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import partial
from math import factorial
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from .endo import iterate_endo_letter
from .prelie import ComPreLieContext, _prelie_words, _prepend_image, _require_nilpotent
from .words import EMPTY_WORD, Lin, Rat, Tensor, Word, _add_into, _bilinear, _Sum, shuffle
from .words import BasisKey, _set, _split_coeff, parse_word

# ---------------------------------------------------------------------------
# generic Oudom-Guin engine
# ---------------------------------------------------------------------------

Elem = Hashable  # basis elements: words here, decorated trees elsewhere
Mono = tuple  # sorted tuple of Elem
Raw = dict  # Elem -> Rat or Mono -> Rat


def _splittings(items: Sequence, k: int) -> Iterator[tuple[tuple, ...]]:
    """Every assignment of the items to ``k`` ordered slots, each item
    choosing its slot independently: ``k ** len(items)`` tuples of ``k``
    parts, every part keeping the items' order."""
    for assignment in itertools.product(range(k), repeat=len(items)):
        parts: list[list] = [[] for _ in range(k)]
        for x, slot in zip(items, assignment):
            parts[slot].append(x)
        yield tuple(map(tuple, parts))


class OudomGuin:
    """Extends a basis-level pre-Lie product to sorted-tuple monomials.

    ``base(a, b)`` must return the product of two basis elements as
    (element, coefficient) pairs.  Monomials are kept sorted, so the
    basis elements must be totally ordered.  The public products take and
    return combinations of one :class:`SymLin` subclass.
    """

    def __init__(self, base: Callable[[Elem, Elem], Iterable[tuple[Elem, Rat]]]):
        self.base = base
        self._cache: dict[tuple[Mono, Mono], tuple[tuple[Mono, Rat], ...]] = {}

    def bullet(self, cls: type[SymLin], a, b) -> SymLin:
        """The extended action on combinations of ``cls``'s monomials."""
        return self._extend(self._bullet_mono, cls, a, b)

    def star(self, cls: type[SymLin], a, b) -> SymLin:
        """The enveloping product on combinations of ``cls``'s monomials."""
        return self._extend(self._star_mono, cls, a, b)

    @staticmethod
    def _extend(mono_op: Callable[[Mono, Mono], Iterable], cls: type[SymLin], a, b) -> SymLin:
        """A product of factor tuples, extended bilinearly; the output
        tuples are wrapped back into ``cls``'s monomials."""
        a, b = cls._coerce(a), cls._coerce(b)
        out = _bilinear(lambda ma, mb: mono_op(ma.factors, mb.factors), a.items(), b.items())
        return cls._from_clean({cls.monomial._from_clean(m): c for m, c in out.items()})

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
            acc = _Sum()
            for m, c in self._bullet_mono(a, rest):
                _add_into(acc, self._bullet_mono(m, (last,)), c)
            for m, c in self._bullet_mono_elem(rest, last).items():
                _add_into(acc, self._bullet_mono(a, m), -c)
            out = tuple(acc.result().items())
        self._cache[key] = out
        return out

    def _bullet_mono_elem(self, a: Mono, u: Elem) -> Raw:
        """Split the action of one element over the factors of ``a``."""
        acc = _Sum()
        for i, ai in enumerate(a):
            rest = a[:i] + a[i + 1:]
            _add_into(acc, ((_sorted(rest + (e,)), c) for e, c in self.base(ai, u)))
        return acc.result()

    def _star_mono(self, a: Mono, b: Mono) -> tuple[tuple[Mono, Rat], ...]:
        acc = _Sum()
        for outside, inside in _splittings(b, 2):
            _add_into(
                acc, ((_sorted(m + outside), c) for m, c in self._bullet_mono(a, inside))
            )
        return tuple(acc.result().items())


# ---------------------------------------------------------------------------
# symmetric monomials and their combinations
# ---------------------------------------------------------------------------

def _sorted(factors: tuple) -> tuple:
    """A factor tuple in its canonical order, by the factors' cached keys."""
    return tuple(sorted(factors, key=BasisKey._key)) if len(factors) > 1 else factors


class Monomial(BasisKey):
    """A multiset of basis elements, kept sorted by the elements' ``_key``;
    the empty multiset is the unit.  Subclasses fix the element type, and
    monomials of different subclasses never compare equal."""

    __slots__ = ("factors",)

    def __init__(self, factors: Iterable = ()):
        _set(self, "factors", _sorted(tuple(factors)))

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.factors == other.factors

    __hash__ = BasisKey.__hash__

    @classmethod
    def _from_clean(cls, factors: tuple):
        """Wrap factors already checked by the caller (kernel output):
        sorted, not validated again."""
        out = object.__new__(cls)
        _set(out, "factors", _sorted(factors))
        return out

    @classmethod
    def of(cls, *factors):
        return cls(factors)

    def _fields(self) -> tuple:
        return (self.factors,)

    def times(self, other):
        """The product: the union of two factor multisets of one class,
        both already checked, so the result is not checked again."""
        if type(other) is not type(self):
            raise TypeError(f"cannot multiply {type(self).__name__} by {type(other).__name__}")
        return self._from_clean(self.factors + other.factors)

    def symmetry(self, of_factor: Callable[[Elem], int] = lambda x: 1) -> int:
        """The product of m! * of_factor(x) ** m over the distinct factors x,
        m being the multiplicity of x: permutations of equal factors times
        the symmetries ``of_factor`` counts inside each factor."""
        out = 1
        for x, m in Counter(self.factors).items():
            out *= factorial(m) * of_factor(x) ** m
        return out

    def _degree(self) -> int:
        """The first entry of the sort key: the number of factors."""
        return len(self.factors)

    def _make_key(self) -> tuple:
        return (self._degree(), *[x._key() for x in self.factors])

    # a factor printed as 1 would read back as the unit: subclasses print
    # it in a form their factor reader maps back to the factor
    one_factor = "1"

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return " * ".join(self.one_factor if str(x) == "1" else str(x) for x in self.factors)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r})"


class SymMonomial(Monomial):
    """A multiset of words; the empty multiset is the unit, distinct from
    the one-factor monomial on the empty word."""

    __slots__ = ()
    one_factor = "1."

    def total_letters(self) -> int:
        return sum(len(w) for w in self.factors)


ONE = SymMonomial()


class SymLin(Lin):
    """A rational combination of monomials with the commutative product,
    which multiplies monomials by joining their factor multisets.
    Subclasses name the monomial class and ``_read_factor``, the reader
    of one printed factor."""

    __slots__ = ()
    monomial: type[Monomial] = Monomial

    def __mul__(self, other):
        return self._from_clean(
            _bilinear(lambda m, n: ((m.times(n), 1),), self.items(), other.items())
        )

    @classmethod
    def _read_term(cls, term: str) -> tuple[Monomial, Rat]:
        # factors first: in "2 * a" the 2 is a factor, in "2*a * b" a coefficient
        first, *rest = term.split(" * ")
        coeff, first = _split_coeff(first)
        factors = [f.strip() for f in (first, *rest)]
        return cls.monomial.of(*(cls._read_factor(f) for f in factors if f != "1")), coeff


class SymTensor(SymLin):
    """A rational linear combination of symmetric monomials of words."""

    __slots__ = ()
    monomial = SymMonomial
    _read_factor = staticmethod(parse_word)

    @classmethod
    def unit(cls) -> "SymTensor":
        return cls.of(ONE)

    @classmethod
    def from_tensor(cls, t: Tensor) -> "SymTensor":
        """Embed a combination of words as one-factor monomials."""
        return cls._from_clean({SymMonomial.of(w): c for w, c in t.items()})


def _engine_of(ctx: ComPreLieContext) -> OudomGuin:
    """The context's engine over its pre-Lie product of words."""
    if ctx._word_engine is None:
        ctx._word_engine = OudomGuin(partial(_prelie_words, ctx))
    return ctx._word_engine


def extend_bullet(ctx: ComPreLieContext, a: SymTensor | SymMonomial, b: SymTensor | SymMonomial) -> SymTensor:
    """The pre-Lie action of monomials on monomials."""
    return _engine_of(ctx).bullet(SymTensor, a, b)


def star(ctx: ComPreLieContext, a: SymTensor | SymMonomial, b: SymTensor | SymMonomial) -> SymTensor:
    """The associative enveloping product."""
    return _engine_of(ctx).star(SymTensor, a, b)


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
    for blocks in _splittings(factors, shares):
        t = Tensor.unit()
        for b in range(i - 1, -1, -1):
            for u in blocks[b]:
                t = shuffle(t, u)
            acc = _Sum()
            _prepend_image(iterate_endo_letter(ctx.f, len(blocks[b]), w[b]), t.terms.items(), acc)
            t = Tensor._from_clean(acc.result())
        yield t, tuple(u for block in blocks[i:] for u in block)


def closed_action(ctx: ComPreLieContext, w: Word, factors: list[Word]) -> SymTensor:
    """One-pass formula for ``w`` acting on ``w1 x ... x wk``.

    The factors are distributed in all ways over the letters of ``w``; each
    letter absorbs its share through an iterated shuffle, with the letter
    endomorphism applied as many times as the share size, nesting from the
    last letter outward.
    """
    acc = _Sum()
    for t, _ in _distribute(ctx, w, factors, len(w)):
        _add_into(acc, t.items())
    return SymTensor.from_tensor(Tensor._from_clean(acc.result()))


def closed_star(ctx: ComPreLieContext, w: Word, factors: list[Word]) -> SymTensor:
    """One-pass formula for ``w * (w1 x ... x wk)``: as the closed action,
    with one extra share of factors passing through unchanged."""
    acc = _Sum()
    for t, passthrough in _distribute(ctx, w, factors, len(w) + 1):
        _add_into(acc, ((SymMonomial((x,) + passthrough), c) for x, c in t.items()))
    return SymTensor._from_clean(acc.result())


# ---------------------------------------------------------------------------
# dual coproduct
# ---------------------------------------------------------------------------

def _delta_tilde_word(ctx: ComPreLieContext, w: Word) -> dict[tuple[Word, SymMonomial], Rat]:
    hit = ctx._coproducts.get(w)
    if hit is not None:
        return hit
    n = _require_nilpotent(ctx)
    # a leading letter x with f(x) = 0 has only its i = 0 term, so
    # delta(x u) = x delta(u): strip a run of them in one loop, not one
    # recursion each (reading f(x) refuses a letter outside the alphabet)
    k = 0
    for x in w.letters:
        if ctx.f.image_letter(x):
            break
        k += 1
    if k:
        prefix = w.letters[:k]
        rest = _delta_tilde_word(ctx, Word(w.letters[k:])).items()
        out = ctx._coproducts[w] = {(Word(prefix + t.letters), m): c for (t, m), c in rest}
        return out
    if len(w) == 0:
        return {(EMPTY_WORD, ONE): 1}
    x, u = w[0], w[1:]
    acc = _Sum()
    for i in range(n):
        image = iterate_endo_letter(ctx.f, i, x)
        if not image:
            break
        # unshuffle u into i+1 ordered (possibly empty) parts, the adjoint
        # of the iterated shuffle product; the head part feeds the
        # recursion, the tail parts multiply into the monomial leg
        scale = 1 if i < 2 else Fraction(1, factorial(i))
        for parts in _splittings(u.letters, i + 1):
            head = Word(parts[0])
            tail = tuple(Word(t) for t in parts[1:])
            for (t_word, mono), c in _delta_tilde_word(ctx, head).items():
                merged = SymMonomial(mono.factors + tail)
                _add_into(
                    acc,
                    (((Word((y,) + t_word.letters), merged), cy) for y, cy in image.items()),
                    c * scale,
                )
    out = ctx._coproducts[w] = acc.result()
    return out


def dual_coproduct(ctx: ComPreLieContext, w: Word) -> list[tuple[Word, SymMonomial, Rat]]:
    """The reduced coproduct of a word, as (word, monomial, coefficient)
    triples; the full coproduct adds the term 1 (x) w.

    For ``w = xu``, the f^i(x) term deals the letters of ``u`` into a head,
    whose coproduct it extends, and i tail parts, which join the monomial;
    it carries 1/i!, as the monomial forgets the order of the tail parts.
    """
    return sorted(
        ((t, m, c) for (t, m), c in _delta_tilde_word(ctx, w).items()),
        key=lambda x: (x[0]._key(), x[1]._key()),
    )


PairLin = dict[tuple[Monomial, Monomial], Rat]


def multiplicative_coproduct(m: Monomial, delta_of_factor: Callable[[Elem], PairLin]) -> PairLin:
    """The coproduct of a monomial as the product of its factors'
    coproducts, as a (left, right) -> coefficient mapping."""
    one = type(m)()
    acc: PairLin = {(one, one): 1}
    for x in m.factors:
        acc = _bilinear(
            lambda p, q: (((p[0].times(q[0]), p[1].times(q[1])), 1),),
            acc.items(),
            delta_of_factor(x).items(),
        )
    return acc


def full_coproduct(ctx: ComPreLieContext, m: SymMonomial) -> PairLin:
    """The multiplicative extension of word -> delta(word) + 1 (x) word."""

    def delta_of_word(w: Word) -> PairLin:
        acc = _Sum((((ONE, SymMonomial.of(w)), 1),))
        _add_into(
            acc,
            (((SymMonomial.of(t), mono), c) for (t, mono), c in _delta_tilde_word(ctx, w).items()),
        )
        return acc.result()

    return multiplicative_coproduct(m, delta_of_word)


# ---------------------------------------------------------------------------
# pairing
# ---------------------------------------------------------------------------

def diagonal_pairing(a: Lin, b: Lin, weight: Callable[[Hashable], Rat]) -> Rat:
    """The bilinear pairing in which distinct basis elements are orthogonal
    and ``k`` pairs with itself to ``weight(k)``."""
    total: Rat = 0
    for k, c in a.terms.items():
        c2 = b.terms.get(k)
        if c2:
            total += c * c2 * weight(k)
    return total


def pair_tensor(a: SymTensor | SymMonomial, b: SymTensor | SymMonomial) -> Rat:
    """Dual-basis pairing of monomial combinations: a monomial pairs with
    itself to the number of permutations of its equal factors."""
    return diagonal_pairing(SymTensor._coerce(a), SymTensor._coerce(b), SymMonomial.symmetry)


def sym_pairing(a: SymMonomial, b: SymMonomial) -> Rat:
    """The pairing of two monomials: the weight of the diagonal pairing."""
    return a.symmetry() if a == b else 0
