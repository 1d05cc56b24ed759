"""The Com-Pre-Lie structure induced on words by a letter endomorphism.

The product is defined by a recursion on the left word: the empty word acts
as zero, and ``xw . w' = x(w . w') + f(x)(w sh w')``; it is computed by the
unrolled sum ``u . v = sum_j u[:j] f(u_j) (u[j+1:] sh v)``.  A closed form
expands the same product over shuffle position-subsets with a
fixed-point-prefix count; both are exposed and cross-checked.  The module
also provides the antisymmetrized bracket, letterwise induced morphisms,
Hilbert-style dimension series, and rank computations for generated spans.
"""

from __future__ import annotations

import itertools
from functools import cached_property, partial
from typing import Callable, Iterable, Mapping, Sequence

from .endo import Endo, _compose_image, image_span_letters, iterate_endo_letter, nilpotency_index
from .exactla import SpanBasis
from .words import Letter, Rat, Tensor, Word, _add_into, _bilinear, _fixed_prefix, _interleavings
from .words import _linear, _shuffle_words, _Sum, shuffle

LetterMap = Callable[[Letter], Mapping[Letter, Rat]]


class ComPreLieContext:
    """A letter endomorphism ``f`` and the memos of what it induces, each
    filled on first use: the pre-Lie products of words, the reduced dual
    coproducts of words and the Oudom-Guin engine on words (the last two
    kept by ``enveloping``), and the nilpotency index of ``f``.  Equality,
    repr and pickle see ``f`` alone: a pickled copy starts with no memos.
    A context is unhashable, as its map is."""

    def __init__(self, f: Endo):
        self.f = f
        self._products: dict = {}
        self._coproducts: dict = {}
        self._word_engine: object = None

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


def _prepend_image(
    image: Mapping[Letter, Rat], tail_terms: Iterable[tuple[Word, Rat]], acc: _Sum,
    head: tuple[Letter, ...] = (),
) -> None:
    """acc += head (sum_y image[y] * y) concatenated before each tail term;
    ``tail_terms`` is iterated once per letter of the image."""
    for y, cy in image.items():
        front = head + (y,)
        _add_into(acc, ((Word(front + w.letters), c) for w, c in tail_terms), cy)


def _prelie_words(ctx: ComPreLieContext, u: Word, v: Word) -> tuple[tuple[Word, Rat], ...]:
    hit = ctx._products.get((u, v))
    if hit is not None:
        return hit
    acc = _Sum()
    # u[:j] f(u_j) (u[j+1:] sh v), last letter first: the recursion's order
    for j in range(len(u) - 1, -1, -1):
        image = ctx.f.image_letter(u[j])
        if image:
            _prepend_image(image, _shuffle_words(u[j + 1:], v), acc, u.letters[:j])
    out = ctx._products[u, v] = tuple(acc.result().items())
    return out


def prelie(ctx: ComPreLieContext, a: Word | Tensor, b: Word | Tensor) -> Tensor:
    """The pre-Lie product, extended bilinearly."""
    ta, tb = Tensor._coerce(a), Tensor._coerce(b)
    return Tensor._from_clean(_bilinear(partial(_prelie_words, ctx), ta.items(), tb.items()))


def apply_at(f: Endo, w: Word, i: int) -> Tensor:
    """Apply ``f`` to the letter at position ``i`` (0-based), linearly."""
    acc: dict[Word, Rat] = {}
    for y, c in f.image_letter(w[i]).items():
        acc[Word(w.letters[:i] + (y,) + w.letters[i + 1:])] = c
    return Tensor(acc)


def prelie_closed(ctx: ComPreLieContext, u: Word, v: Word) -> Tensor:
    """Closed form of the product of two words.

    Sum over the position subsets realizing the (k,l)-shuffles of ``uv``;
    each shuffle contributes one term per leading position of ``u`` kept in
    place (the fixed-point prefix), with ``f`` applied there.
    """
    acc = _Sum()
    for positions, out in _interleavings(u, v):
        for i in range(_fixed_prefix(positions)):
            _add_into(
                acc,
                (
                    (Word(out[:i] + (y,) + out[i + 1:]), cy)
                    for y, cy in ctx.f.image_letter(out[i]).items()
                ),
            )
    return Tensor._from_clean(acc.result())


def lie_bracket(ctx: ComPreLieContext, a: Word | Tensor, b: Word | Tensor) -> Tensor:
    """Antisymmetrization of the pre-Lie product."""
    return prelie(ctx, a, b) - prelie(ctx, b, a)


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


def specialization_map(f: Endo, assignment: Mapping[str, Letter | str]) -> LetterMap:
    """The letter map sending the indexed letter ``k:d`` to f^k(assignment[d]).

    Composing with the word extension turns upper-word/decoration pairs into
    concrete elements of the target algebra.
    """
    assign = {
        d: x if isinstance(x, Letter) else Letter(x) for d, x in assignment.items()
    }

    def F(x: Letter) -> Mapping[Letter, Rat]:
        if x.shift is None:
            raise ValueError(f"specialization expects indexed letters, got {x}")
        if x.name not in assign:
            raise ValueError(f"no assignment for decoration {x.name!r}")
        return iterate_endo_letter(f, x.shift, assign[x.name])

    return F


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
    filled once each, from 1 up, by exact row reduction.  ``generators``
    is iterated once.  Intended for small degrees (<= 5); the bases grow
    quickly with the alphabet.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    unknown = set(ops) - {"prelie", "shuffle"}
    if unknown:
        raise ValueError(f"unknown ops: {sorted(unknown)}")
    products = [op for name, op in (("prelie", partial(prelie, ctx)), ("shuffle", shuffle))
                if name in ops]
    parts: dict[int, list[Tensor]] = {d: [] for d in range(1, degree + 1)}
    for g in generators:
        for d, found in parts.items():
            part = g.graded_part(d)
            if part:
                found.append(part)
    basis: dict[int, list[Tensor]] = {}
    for d, found in parts.items():
        span = SpanBasis()
        made = (op(a, b) for e in range(1, d) for a in basis[e] for b in basis[d - e]
                for op in products)
        basis[d] = [t for t in itertools.chain(found, made) if span.add(t.terms)]
    return span.rank


def image_span_contains(ctx: ComPreLieContext, t: Tensor) -> bool:
    """Membership in the span of words with >= 1 position inside Im(f).

    That span is the kernel of the letterwise projection modulo Im(f):
    reducing a letter by a basis of Im(f) is a projection of the letter
    space with kernel Im(f), so t is a member exactly when its letterwise
    residue is 0.  The zero tensor is a member; a nonzero degree-0 part
    never is, nor is a word with a letter outside the alphabet.
    """
    if not t or t.coefficient(Word(())):
        return not t
    image = SpanBasis(v.terms for v in image_span_letters(ctx.f))
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
