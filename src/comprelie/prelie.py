"""The Com-Pre-Lie structure induced on words by a letter endomorphism.

The product is defined by a recursion on the left word: the empty word acts
as zero, and ``xw . w' = x(w . w') + f(x)(w sh w')``; it is computed by the
unrolled sum ``u . v = sum_j u[:j] f(u_j) (u[j+1:] sh v)``: one kernel
computes it as the one-factor case of the brace ``u{v1,...,vk}``.  A closed
form expands the same product over shuffle position-subsets with a
fixed-point-prefix count; both are exposed and cross-checked.  The module
also provides the antisymmetrized bracket, letterwise induced morphisms,
Hilbert-style dimension series, and rank computations for generated spans.
"""

from __future__ import annotations

import itertools
from functools import cached_property, partial
from math import comb, lcm
from typing import Callable, Iterable, Mapping, Sequence

from .endo import Endo, _compose_image, image_span_letters, letter_iterates, nilpotency_index
from .exactla import SpanBasis
from .words import Letter, Rat, Tensor, Word, _add_into, _bilinear, _fixed_prefix, _interleavings
from .words import _MEMO_BOUND, _Codes, _linear, _Memo, _prepend, _splittings, _Sum

LetterMap = Callable[[Letter], Mapping[Letter, Rat]]


class ComPreLieContext:
    """A letter endomorphism ``f`` and what it induces: the letter coding
    of :meth:`_coding` with its memos and the product memo, whose kernel
    the brace of words runs too; the memo of dual coproducts and the
    Oudom-Guin engine on words, built by ``enveloping`` on first use; each
    memo bounded at ``words._MEMO_BOUND`` entries; and the nilpotency
    index of ``f``.  Equality, repr and pickle see ``f`` alone: a pickled
    copy starts with no memos.  Unhashable, as f is."""

    def __init__(self, f: Endo):
        self.f = f
        self._coproducts = self._word_engine = self._codes = None
        self._scale = lcm(*(c.denominator for col in (f.columns or {}).values() for c in col.values()))
        self._coding()

    def _coding(self) -> _Codes:
        """The letter codes (``words._Codes``, with their word and shuffle
        memos), read once at the start of a public call, and ``_products``,
        D * (u . v) in ``int`` on them, D = ``_scale`` the least common
        denominator of f's entries, its kernel binding f, the codes and D,
        not the context.  Made with the context, and afresh together once
        the codes hold ``_MEMO_BOUND`` letters: a stale code decodes wrong."""
        if self._codes is None or len(self._codes.letters) >= _MEMO_BOUND:
            self._codes = codes = _Codes(_MEMO_BOUND)
            self._products = _Memo(partial(_prelie_words, self.f, codes, self._scale), _MEMO_BOUND)
        return self._codes

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.f == other.f

    def __repr__(self) -> str:
        return f"ComPreLieContext(f={self.f!r})"

    def __reduce__(self):
        return type(self), (self.f,)

    @property
    def alphabet(self) -> tuple[Letter, ...]:
        return self.f.alphabet

    @cached_property
    def _nilpotency(self) -> int | None:
        return nilpotency_index(self.f)


def _require_nilpotent(ctx: ComPreLieContext) -> int:
    """The nilpotency index of ``ctx.f``; raises when it is not nilpotent."""
    n = ctx._nilpotency
    if n is None:
        raise ValueError(
            "series composition and the dual coproduct need a nilpotent letter "
            "endomorphism (their sums over powers of f would not terminate)"
        )
    return n


def _prelie_words(f: Endo, codes: _Codes, scale: int, u: tuple, *factors: tuple) -> tuple:
    """``scale**k * u{v1,...,vk}`` in ``int`` on coded words: the brace of k
    factors and, for one, the pre-Lie product.  It sums ``u[:j] f^|T|(u_j)
    (u[j+1:]{rest} sh T)`` over the letters u_j, last first, and the nonempty
    shares T of the factors, rest the others and ``w{} = w``, each f^m(x)
    stepped once per distinct letter and scaled by scale**m; a zero power
    is never shuffled, and the suffix braces live for the call."""
    powers = {}  # (letter code, m) -> coded scale**m * f^m(letter) when nonzero
    for x in dict.fromkeys(reversed(u)):
        for m, image in enumerate(itertools.islice(letter_iterates(f, codes.letters[x]), 1, len(factors) + 1), 1):
            powers[x, m] = [(codes.code(y), _scaled(c, scale ** m)) for y, c in image.items()]
    shuffles = codes.shuffles

    def brace(i: int, rest: tuple) -> dict:  # scale**|rest| * u[i:]{rest}
        if not rest:
            return {u[i:]: 1}
        acc, splits = _Sum(), [s for s in _splittings(rest, 2) if s[1]]
        for j, (left, share) in itertools.product(range(len(u) - 1, i - 1, -1), splits):
            image = powers.get((u[j], len(share)))
            if image:
                if left:
                    t = braces[j + 1, left].items()
                else:  # a bare suffix: its first shuffle is read from the memo
                    t, share = shuffles[u[j + 1:], share[0]], share[1:]
                for v in share:
                    t = _bilinear(shuffles, t, ((v, 1),)).items()
                _prepend(image, t, acc, u[i:j])
        return acc.result()

    braces = _Memo(brace)
    out = braces[0, factors]
    braces.clear()  # the memo and its kernel form a cycle: free the suffix braces now
    return tuple(out.items())


def _prelie_letters(ctx: ComPreLieContext, pairs: Iterable, stop: int) -> int:
    """At most how many letters the pre-Lie products of the word pairs
    write: for each pair (u, v) and each letter u_j, ``_prelie_words``
    with one factor feeds its accumulator |f(u_j)| * C(|u|-1-j+|v|, |v|)
    words of |u|+|v| letters.  Counted only until it passes ``stop``."""
    total = 0
    for u, v in pairs:
        for j, x in enumerate(u):
            images = len(ctx.f.image_letter(x))
            if images:
                total += images * comb(len(u) - 1 - j + len(v), len(v)) * (len(u) + len(v))
                if total > stop:
                    return total
    return total


def prelie(ctx: ComPreLieContext, a: Word | Tensor, b: Word | Tensor) -> Tensor:
    """The pre-Lie product, extended bilinearly: the context's memo entries
    D * (u . v) of the coded words, summed, divided by D once and decoded."""
    codes = ctx._coding()
    acc = _bilinear(ctx._products, codes.terms(a).items(), codes.terms(b).items(), _Sum())
    return Tensor._from_clean(codes.decode(acc.result(ctx._scale)))


def prelie_closed(ctx: ComPreLieContext, u: Word, v: Word) -> Tensor:
    """Closed form of the product of two words.

    Sum over the position subsets realizing the (k,l)-shuffles of ``uv``;
    each shuffle contributes one term per leading position of ``u`` kept in
    place (the fixed-point prefix), with ``f`` applied there.  It reads
    ``f``, not the product memo, so it cross-checks :func:`prelie`."""
    codes = ctx._coding()
    images = [codes.image(ctx.f.image_letter(x)) for x in u.letters]  # the prefix is u's
    live = [i for i, image in enumerate(images) if image]  # a zero image adds nothing
    acc = _Sum()
    for positions, out in _interleavings(codes.word(u), codes.word(v)):
        prefix = _fixed_prefix(positions)
        for i in live:
            if i >= prefix:
                break
            _add_into(acc, ((out[:i] + (y,) + out[i + 1:], cy) for y, cy in images[i]))
    return Tensor._from_clean(codes.decode(acc.result()))


def lie_bracket(ctx: ComPreLieContext, a: Word | Tensor, b: Word | Tensor) -> Tensor:
    """Antisymmetrization of the pre-Lie product, ``a . b - b . a``: ``b . a``,
    a's coefficients negated, joins the sum of ``a . b``, divided by D once."""
    codes = ctx._coding()
    ta, tb = codes.terms(a).items(), codes.terms(b).items()
    acc = _bilinear(ctx._products, ta, tb, _Sum())
    _bilinear(ctx._products, tb, [(k, -c) for k, c in ta], acc)
    return Tensor._from_clean(codes.decode(acc.result(ctx._scale)))


# ---------------------------------------------------------------------------
# letterwise morphisms
# ---------------------------------------------------------------------------

def _as_letter_map(fmap: Endo | LetterMap) -> LetterMap:
    if isinstance(fmap, Endo):
        return fmap.image_letter
    return fmap


def induced_morphism(
    fmap: Endo | LetterMap,
    t: Word | Tensor,
    source: Endo | None = None,
    target: Endo | None = None,
) -> Tensor:
    """Apply a letter map to every position: x1...xn -> F(x1)...F(xn).

    When ``source`` and ``target`` endomorphisms are supplied, the
    intertwining F(source(x)) = target(F(x)) is verified on each letter
    actually touched; this is what makes the letterwise map respect the
    products, so a violation raises.
    """
    F = _as_letter_map(fmap)
    tt = Tensor._coerce(t)
    if source is not None and target is not None:
        for w in tt.terms:
            for x in w:
                _check_intertwining(F, source, target, x)
    return Tensor._from_clean(_linear(lambda w: _letterwise(F(x) for x in w).items(), tt.items()))


def _letterwise(images: Iterable[Mapping[Letter, Rat]]) -> dict[Word, Rat]:
    """The words spelled by a sequence of letter combinations, one letter
    from each, multilinearly; stops at the first image that makes it 0."""
    acc: dict[tuple[Letter, ...], Rat] = {(): 1}
    for image in images:
        acc = _bilinear(lambda p, y: ((p + (y,), 1),), acc.items(), image.items())
        if not acc:
            break
    return {Word(p): c for p, c in acc.items()}


def _check_intertwining(F: LetterMap, source: Endo, target: Endo, x: Letter) -> None:
    lhs = _linear(lambda y: F(y).items(), source.image_letter(x).items())
    if lhs != _compose_image(target, F(x)):
        raise ValueError(f"letter map does not intertwine the endomorphisms at {x}")


# ---------------------------------------------------------------------------
# dimension series
# ---------------------------------------------------------------------------

class GradedSeries:
    """Dimensions by degree, plus the (degree, word count) refinement.

    ``letters`` maps each letter degree to the dimension of its letter
    space (nonzero entries up to the truncation); ``shift`` is N.  Series
    compare by these four fields and are unhashable.
    """

    def __init__(
        self, coefficients: list[int], truncation: int, letters: dict[int, int], shift: int
    ):
        self.coefficients = coefficients
        self.truncation = truncation
        self.letters = letters
        self.shift = shift

    def _fields(self) -> tuple:
        return (self.coefficients, self.truncation, self.letters, self.shift)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return (
            f"GradedSeries(coefficients={self.coefficients!r}, "
            f"truncation={self.truncation!r}, letters={self.letters!r}, shift={self.shift!r})"
        )

    def dimension(self, degree: int) -> int:
        if not 0 <= degree <= self.truncation:
            raise ValueError(f"degree {degree} outside truncation {self.truncation}")
        return self.coefficients[degree]

    @cached_property
    def bigraded(self) -> dict[tuple[int, int], int]:
        """(degree, word count) -> number of words, read off the powers of
        F_V(X) on first use; its degree sums are the coefficients."""
        trunc = self.truncation
        bigraded: dict[tuple[int, int], int] = {}
        power = [0] * (trunc + 1)  # F_V(X)^k, coefficient list
        power[0] = 1
        k = 0
        while any(power):
            for d in range(trunc + 1):
                if power[d] and d + self.shift <= trunc:
                    bigraded[(d + self.shift, k)] = power[d]
            k += 1
            nxt = [0] * (trunc + 1)
            for d1 in range(trunc + 1):
                if power[d1]:
                    for d2, n in self.letters.items():
                        if d1 + d2 <= trunc:
                            nxt[d1 + d2] += power[d1] * n
            power = nxt
        return bigraded


def graded_series(dims_of_v: Sequence[int], n_shift: int, trunc: int) -> GradedSeries:
    """Expand X^N / (1 - F_V(X) Y) to the given truncation.

    ``dims_of_v[d]`` is the dimension of the degree-d letter space; the
    degree-0 slot must be 0 (otherwise word count would not bound degree and
    the coefficients would diverge).  ``n_shift`` is the common degree shift
    N added to every word (the empty word has degree exactly N).  Setting
    Y = 1 gives the plain degree series, computed by the recurrence
    c_d = [d = N] + sum_e F_V[e] c_(d-e) over the letter degrees e.
    """
    if dims_of_v and dims_of_v[0] != 0:
        raise ValueError("degree-0 letters are not allowed (dims_of_v[0] must be 0)")
    letters = {e: n for e, n in enumerate(dims_of_v[: trunc + 1]) if n}
    coeffs: list[int] = []
    for d in range(trunc + 1):
        below = sum(n * coeffs[d - e] for e, n in letters.items() if e <= d)
        coeffs.append(int(d == n_shift) + below)
    return GradedSeries(coeffs, trunc, letters, n_shift)


# ---------------------------------------------------------------------------
# generated spans
# ---------------------------------------------------------------------------

def span_dimension_of_products(
    ctx: ComPreLieContext,
    generators: Iterable[Tensor],
    degree: int,
    ops: Sequence[str] = ("prelie", "shuffle"),
) -> int:
    """Dimension of the degree-``degree`` part of the generated subalgebra.

    Both products add word length, so the degree-d part is spanned by the
    generators' degree-d parts and the products ``op(a, b)`` of basis
    vectors a, b of the degrees d1 + d2 = d below it: the degrees are
    filled once each, from 1 up, by exact row reduction, each from the
    integer rows of the degrees below.  ``generators`` is iterated once.
    Intended for small degrees (<= 5); the bases grow quickly with the
    alphabet.  The call reads the context's memos of coded shuffles and
    products as they are, in ``int`` only: a product entry is D * (u . v),
    and a vector and its D-fold span the same line.
    ``a sh b`` is made for (e, i) <= (d - e, j) only, i and j the indices
    of a and b in the bases of degrees e and d - e: its twin ``b sh a``,
    the same vector made later, would add no row.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    unknown = set(ops) - {"prelie", "shuffle"}
    if unknown:
        raise ValueError(f"unknown ops: {sorted(unknown)}")
    codes = ctx._coding()
    kernels = {"prelie": (ctx._products, False), "shuffle": (codes.shuffles, True)}
    products = [kernels[name] for name in kernels if name in ops]
    parts: dict[int, list[dict]] = {d: [] for d in range(1, degree + 1)}
    for g in generators:
        for d, found in parts.items():
            part = g.graded_part(d)
            if part:
                found.append(codes.terms(part))
    basis: dict[int, list[dict]] = {}
    for d, found in parts.items():
        made = (_bilinear(op, a.items(), b.items()) for e in range(1, d)
                for i, a in enumerate(basis[e]) for j, b in enumerate(basis[d - e])
                for op, commutes in products if not commutes or (e, i) <= (d - e, j))
        span = SpanBasis(itertools.chain(found, made))
        basis[d] = list(span.rows.values())
    return span.rank


def _scaled(c: Rat, scale: int) -> int:
    """``scale * c`` as an int: raised, never truncated, unless integral."""
    q, r = divmod(c.numerator * scale, c.denominator)
    if r:
        raise ArithmeticError(f"{scale} * {c} is not an integer")
    return q


def image_span_contains(ctx: ComPreLieContext, t: Tensor) -> bool:
    """Membership in the span of words with >= 1 position inside Im(f).

    That span is the kernel of the letterwise projection modulo Im(f):
    reducing a letter by a basis of Im(f) is a projection of the letter
    space with kernel Im(f), so t is a member exactly when its letterwise
    residue is 0.  Under the biletter shift Im(f) is spanned by the letters
    of shift >= 1, so a member is a combination in which every word has
    one.  The zero tensor is a member; a nonzero degree-0 part never is,
    nor is a word with a letter outside the alphabet (under the shift, a
    plain letter or an undeclared decoration).
    """
    if not t or t.coefficient(Word(())):
        return not t
    f = ctx.f
    if f.columns is None:
        declared = set(f.alphabet)
        return all(
            all(x.shift is not None and (not declared or Letter(x.name) in declared) for x in w)
            and any(x.shift for x in w)
            for w in t.terms
        )
    image = SpanBasis(v.terms for v in image_span_letters(f))
    residue = {
        x: {w[0]: c for w, c in image.reduce({Word((x,)): 1}).items()} for x in ctx.alphabet
    }
    if any(x not in residue for w in t.terms for x in w):
        return False
    return not _linear(lambda w: _letterwise(residue[x] for x in w).items(), t.items())


def associativity_witness(
    ctx: ComPreLieContext, max_len: int = 3
) -> tuple[Word, Word, Word] | None:
    """A triple (a, b, c) with (a.b).c != a.(b.c), if one exists.

    Searched over all words of length <= max_len, smallest total length
    first.  Returns None when the product is associative on that range —
    which happens exactly when it is trivial.
    """
    words: list[Word] = [Word(())]
    for n in range(1, max_len + 1):
        words.extend(Word(t) for t in itertools.product(ctx.alphabet, repeat=n))
    triples = sorted(
        itertools.product(words, repeat=3), key=lambda abc: sum(len(w) for w in abc)
    )
    for a, b, c in triples:
        left = prelie(ctx, prelie(ctx, a, b), c)
        right = prelie(ctx, a, prelie(ctx, b, c))
        if left != right:
            return (a, b, c)
    return None
