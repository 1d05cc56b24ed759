"""The enveloping algebra on symmetric monomials of words.

A pre-Lie product on a vector space extends canonically to its symmetric
algebra: the extension obeys

1. ``A . 1 = A``;
2. ``A . (B x u) = (A . B) . u - A . (B . u)``;
3. the action of a single element splits over the factors of ``A``.

One element acting on a monomial is the symmetric brace ``a{b1,...,bk}``.
With the extended action the product ``A * B = (A . B') x B''`` (sum over
splittings of B's factor multiset) is associative — the enveloping algebra
of the underlying Lie algebra.  The engine below builds both from any
brace.  The brace of words is the pre-Lie product's sum with each letter
taking a share of the factors; the dual coproduct exists when the letter
endomorphism is locally nilpotent.

The monomial type, the commutative product, the multiplicative extension
of a coproduct and the diagonal pairing are shared with the forests.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import partial
from math import comb, factorial
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from .endo import letter_iterates
from .prelie import ComPreLieContext, _require_nilpotent, prelie
from .words import EMPTY_WORD, Lin, Rat, Tensor, Word, _add_into, _bilinear, _prepend, _Sum
from .words import _MEMO_BOUND, BasisKey, _div, _Memo, _set, _split_coeff, parse_word

# ---------------------------------------------------------------------------
# generic Oudom-Guin engine
# ---------------------------------------------------------------------------

Elem = Hashable  # basis elements: words here, decorated trees elsewhere
Mono = tuple  # sorted tuple of Elem


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
    """Extends a pre-Lie product to the monomials of ``cls``, a
    :class:`SymLin` subclass, through its symmetric brace: ``brace(a,
    factors)`` returns ``a{b1,...,bk}``, one basis element acting on a
    tuple of them, as (element, coefficient) pairs with distinct elements
    and nonzero coefficients.  A monomial deals the right operand between
    its first factor and the rest; the unit acts as zero on every monomial
    but the unit.  Monomials are kept sorted, so the basis elements must be
    totally ordered.  ``_cache``, a ``words._Memo`` of ``_bullet_mono``
    bounded at ``words._MEMO_BOUND`` entries, keeps the action on factor
    tuples as (monomial of ``cls``, coefficient) pairs: a hit builds none."""

    def __init__(self, brace: Callable[[Elem, Mono], Iterable[tuple[Elem, Rat]]], cls: type[SymLin]):
        self.brace, self.cls = brace, cls
        self._cache = _Memo(self._bullet_mono, _MEMO_BOUND)

    def bullet(self, a, b) -> SymLin:
        """The extended action on combinations of ``cls``'s monomials."""
        return self._extend(lambda ma, mb: self._cache[ma.factors, mb.factors], a, b)

    def star(self, a, b) -> SymLin:
        """The enveloping product on combinations of ``cls``'s monomials."""
        return self._extend(self._star_mono, a, b)

    def _extend(self, mono_op: Callable[[Monomial, Monomial], Iterable], a, b) -> SymLin:
        """A product of monomials, extended bilinearly; its terms are summed unwrapped."""
        a, b = self.cls._coerce(a), self.cls._coerce(b)
        return self.cls._from_clean(_bilinear(mono_op, a.items(), b.items()))

    def _bullet_mono(self, a: Mono, b: Mono) -> tuple[tuple[Monomial, Rat], ...]:
        mono = self.cls.monomial._from_clean
        if len(a) == 1:
            return tuple((mono((e,)), c) for e, c in self.brace(a[0], b))
        if not a:
            return () if b else ((mono(()), 1),)
        acc = _Sum()
        for left, right in _splittings(b, 2):
            first, rest = self._cache[a[:1], left], self._cache[a[1:], right]
            _bilinear(lambda m, n: ((mono(m.factors + n.factors), 1),), first, rest, acc)
        return tuple(acc.result().items())

    def _star_mono(self, ma: Monomial, mb: Monomial) -> tuple[tuple[Monomial, Rat], ...]:
        # the split that keeps no factor outside adds the memo entry as it is
        mono, acc = self.cls.monomial._from_clean, _Sum()
        for outside, inside in _splittings(mb.factors, 2):
            terms = self._cache[ma.factors, inside]
            _add_into(acc, ((mono(m.factors + outside), c) for m, c in terms) if outside else terms)
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
    """The context's engine over its pre-Lie product of words, after its letter coding."""
    ctx._coding()
    if ctx._word_engine is None:
        ctx._word_engine = OudomGuin(partial(_word_brace, ctx), SymTensor)
    return ctx._word_engine


def extend_bullet(ctx: ComPreLieContext, a: SymTensor | SymMonomial, b: SymTensor | SymMonomial) -> SymTensor:
    """The pre-Lie action of monomials on monomials."""
    return _engine_of(ctx).bullet(a, b)


def star(ctx: ComPreLieContext, a: SymTensor | SymMonomial, b: SymTensor | SymMonomial) -> SymTensor:
    """The associative enveloping product."""
    return _engine_of(ctx).star(a, b)


# ---------------------------------------------------------------------------
# the brace of words
# ---------------------------------------------------------------------------

def _word_brace(ctx: ComPreLieContext, w: Word, factors: Sequence[Word]) -> tuple:
    """``w{B}`` for the factors B: the pre-Lie product's sum over the letters
    w_i, unrolled over the nonempty shares T of B, of ``w[:i] f^|T|(w_i)
    (w[i+1:]{B - T} sh T)``, with ``w[i+1:]{} = w[i+1:]``.  A share whose
    power is 0 is never shuffled; the recursion nests at most k deep for k
    factors.  The call codes each nonzero f^m(x) once and keeps each suffix's
    brace, on the context's letter codes and its ``_shuffles``; each output
    ``Word`` is read from its ``_words``.  One factor's brace is ``prelie``."""
    if len(factors) < 2:
        return prelie(ctx, w, factors[0]).items() if factors else ((w, 1),)
    codes, pair = ctx._codes, ctx._shuffles
    letters = codes.word(w)
    powers = {}  # (letter code, m) -> coded f^m(letter) when nonzero, m <= k
    for x in dict.fromkeys(letters):
        images = itertools.islice(letter_iterates(ctx.f, codes.letters[x]), 1, len(factors) + 1)
        powers.update(((x, m), codes.image(image)) for m, image in enumerate(images, 1))

    def brace(i: int, rest: tuple) -> dict:  # letters[i:]{rest}
        acc = _Sum()
        splits = [s for s in _splittings(rest, 2) if s[1]]
        for j, (left, share) in itertools.product(range(i, len(letters)), splits):
            image = powers.get((letters[j], len(share)))
            if image:
                t = braces[j + 1, left] if left else {letters[j + 1:]: 1}
                for u in share:
                    t = _bilinear(pair, t.items(), ((u, 1),))
                _prepend(image, t.items(), acc, letters[i:j])
        return acc.result()

    braces = _Memo(brace)
    top = braces[0, tuple(sorted(map(codes.word, factors)))]
    braces.clear()  # the memo and its kernel form a cycle: free the suffix braces now
    return tuple((ctx._words[t], c) for t, c in top.items())


def closed_action(ctx: ComPreLieContext, w: Word, factors: list[Word]) -> SymTensor:
    """``w`` acting on ``w1 x ... x wk``: the brace ``w{w1,...,wk}``, read
    from the context's engine, whose memo entry ``extend_bullet`` shares, in
    a fresh dict."""
    return SymTensor._from_clean(dict(_engine_of(ctx)._cache[(w,), _sorted(tuple(factors))]))


# ---------------------------------------------------------------------------
# dual coproduct
# ---------------------------------------------------------------------------

def _coproducts_of(ctx: ComPreLieContext) -> _Memo:
    """The context's memo of ``_delta_tilde_word``, built on first use."""
    if ctx._coproducts is None:
        ctx._coproducts = _Memo(partial(_delta_tilde_word, ctx), _MEMO_BOUND)
    return ctx._coproducts


def _delta_tilde_word(ctx: ComPreLieContext, w: Word) -> dict[tuple[Word, SymMonomial], Rat]:
    """The reduced dual coproduct of ``w``, its terms in canonical order
    (the word's ``_key``, then the monomial's), sorted once per word."""
    n = _require_nilpotent(ctx)
    delta = _coproducts_of(ctx)
    # a leading letter x with f(x) = 0 has only its i = 0 term, so delta(x u)
    # = x delta(u), in the same order: strip a run of them in one loop, not
    # one recursion each (reading f(x) refuses a letter outside the alphabet)
    k = 0
    for x in w.letters:
        if ctx.f.image_letter(x):
            break
        k += 1
    if k:
        prefix = w.letters[:k]
        rest = delta(Word(w.letters[k:])).items()
        return {(Word(prefix + t.letters), m): c for (t, m), c in rest}
    if len(w) == 0:
        return {(EMPTY_WORD, ONE): 1}
    x, u = w[0], w[1:]
    acc = _Sum()
    for i, image in zip(range(n), letter_iterates(ctx.f, x)):
        # unshuffle u into i+1 ordered (possibly empty) parts, the adjoint
        # of the iterated shuffle product; the head part feeds the
        # recursion, the tail parts multiply into the monomial leg; the
        # f^i term carries 1/i!, put on the image once
        image = [(y, _div(cy.numerator, cy.denominator * factorial(i))) for y, cy in image.items()]
        for parts in _splittings(u.letters, i + 1):
            head = Word(parts[0])
            tail = tuple(Word(t) for t in parts[1:])
            for (t_word, mono), c in delta(head).items():
                merged = SymMonomial(mono.factors + tail)
                pairs = (((Word((y,) + t_word.letters), merged), cy) for y, cy in image)
                _add_into(acc, pairs, c)
    return dict(sorted(acc.result().items(), key=lambda kv: (kv[0][0]._key(), kv[0][1]._key())))


def _coproduct_terms(ctx: ComPreLieContext, words: Iterable[Word], stop: int) -> int:
    """At most how many terms the dual coproducts of the words have: the
    sum over the words of G(|w|), the number of terms ``_delta_tilde_word``
    generates.  G(0) = 1 and G(n) = sum_{i<N} m_i sum_h C(n-1, h)
    i^(n-1-h) G(h): the f^i term of a word deals its other n-1 letters
    into a head of h letters, whose terms it extends, and i tail parts; N
    is the nilpotency index of the map and m_i the most letters in an
    image of f^i.  Counted only until it passes ``stop``."""
    lengths = [len(w) for w in words]
    if not lengths:
        return 0  # no word: nothing to bound, whatever the map
    N = _require_nilpotent(ctx)
    m = [0] * N
    for x in ctx.alphabet:
        for i, image in zip(range(N), letter_iterates(ctx.f, x)):
            m[i] = max(m[i], len(image))
    g, longest = [1], max(lengths)
    # G is nondecreasing (its i = 0 term is G(n-1)), so its last value
    # bounds every longer word once it passes ``stop``
    while len(g) <= longest and g[-1] <= stop:
        n = len(g)
        g.append(m[0] * g[-1] + sum(
            m[i] * sum(comb(n - 1, h) * i ** (n - 1 - h) * g[h] for h in range(n))
            for i in range(1, len(m))
        ))
    total = 0
    for n in lengths:
        total += g[min(n, len(g) - 1)]
        if total > stop:
            break
    return total


def dual_coproduct(ctx: ComPreLieContext, w: Word) -> list[tuple[Word, SymMonomial, Rat]]:
    """The reduced coproduct of a word, as (word, monomial, coefficient)
    triples; the full coproduct adds the term 1 (x) w.

    For ``w = xu``, the f^i(x) term deals the letters of ``u`` into a head,
    whose coproduct it extends, and i tail parts, which join the monomial;
    it carries 1/i!, as the monomial forgets the order of the tail parts.
    Terms come in the memo's canonical order, in a list fresh every call.
    """
    return [(t, m, c) for (t, m), c in _coproducts_of(ctx)(w).items()]


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
        terms = _coproducts_of(ctx)(w).items()
        _add_into(acc, (((SymMonomial.of(t), mono), c) for (t, mono), c in terms))
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
    return _div(total.numerator, total.denominator)


def pair_tensor(a: SymTensor | SymMonomial, b: SymTensor | SymMonomial) -> Rat:
    """Dual-basis pairing of monomial combinations: a monomial pairs with
    itself to the number of permutations of its equal factors."""
    return diagonal_pairing(SymTensor._coerce(a), SymTensor._coerce(b), SymMonomial.symmetry)


def sym_pairing(a: SymMonomial, b: SymMonomial) -> Rat:
    """The pairing of two monomials: the weight of the diagonal pairing."""
    return a.symmetry() if a == b else 0
