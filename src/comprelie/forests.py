"""Decorated rooted forests and the diagonal-eigenvalue word elements.

The free commutative algebra on symbol-decorated rooted trees carries the
admissible-cut coproduct, and the pairing that weights each forest by its
symmetry count puts it in duality with the enveloping algebra of the free
pre-Lie algebra on the symbols.  When every symbol carries an eigenvalue,
iterated leaf grafting produces elements t_w indexed by words; their span
is closed under the coproduct, and the induced cobracket dualizes to the
weighted-interleaving pre-Lie product on words.  Both routes to the
cobracket read one deshuffle list; the closed one transposes ``prelie_closed``
under the diagonal map, the projected one reads the cuts of t_w's path trees.
Rescaling the one-symbol row recovers the Faa di Bruno bracket
[y_k, y_l] = (k-l) y_{k+l}.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import factorial, prod
from typing import Iterable, Iterator, Mapping

from .endo import Endo, diagonal_weights
from .enveloping import (
    Monomial,
    OudomGuin,
    SymLin,
    _splittings,
    diagonal_pairing,
    multiplicative_coproduct,
)
from .prelie import ComPreLieContext, prelie, prelie_closed
from .trees import PartitionedTree, _from_nested, _grafts, _nodes, _tree_brace, parse_tree, singleton
from .words import Letter, Rat, Tensor, Word, _add_into, _fixed_prefix, _linear, _Memo, _Sum
from .words import check_coefficient, parse_word


def _as_letters(w) -> tuple[Letter, ...]:
    if isinstance(w, str):
        return parse_word(w).letters
    if isinstance(w, Word):
        return w.letters
    return tuple(w)


def _weight(wmap: Mapping[Letter, Rat], x: Letter) -> Rat:
    try:
        return wmap[x]
    except KeyError:
        raise ValueError(f"no weight supplied for symbol {x}") from None


# ---------------------------------------------------------------------------
# forests
# ---------------------------------------------------------------------------

def _check_factor(t) -> None:
    """Raise unless ``t`` is a rooted tree decorated by plain symbols."""
    # one walk of the nodes serves both checks, the rooted one first
    nodes = list(_nodes(t.root)) if isinstance(t, PartitionedTree) else None
    if nodes is None or len(t.root) != 1 or any(len(b) != 1 for _, bs in nodes for b in bs):
        raise ValueError("forest factors must be rooted trees (all blocks singletons)")
    for dec, _ in nodes:
        if not isinstance(dec, Letter) or dec.shift is not None:
            raise ValueError(f"forest decorations must be plain symbols, got {dec!r}")


class Forest(Monomial):
    """A multiset of decorated rooted trees; the empty forest is the unit
    of the product.  Forests order by vertex count first.  The public
    constructor checks every factor; the kernels, whose factors are grafts
    and cuts of checked trees, build through ``_from_clean``."""

    __slots__ = ()
    one_factor = "{1}"

    def __init__(self, factors: Iterable[PartitionedTree] = ()):
        factors = tuple(factors)
        for t in factors:
            _check_factor(t)
        super().__init__(factors)

    @property
    def trees(self) -> tuple[PartitionedTree, ...]:
        return self.factors

    @property
    def n_vertices(self) -> int:
        return sum(t.size for t in self.factors)

    def is_tree(self) -> bool:
        return len(self.factors) == 1

    def _degree(self) -> int:
        return self.n_vertices


class ForestPoly(SymLin):
    """A finitely supported rational combination of forests."""

    __slots__ = ()
    monomial = Forest
    _read_factor = staticmethod(parse_tree)

    @classmethod
    def _coerce(cls, x):
        """As for any combination, with a tree read as a one-tree forest."""
        return super()._coerce(Forest.of(x) if isinstance(x, PartitionedTree) else x)


def parse_forest(text: str) -> Forest:
    """One term of :class:`ForestPoly` with coefficient 1: ``"a[b] * c"`` is
    the two-tree forest, ``"1"`` the empty one."""
    forest, coeff = ForestPoly._read_term(text.strip())
    if coeff != 1:
        raise ValueError(f"a forest takes no coefficient, got {text!r}")
    return forest


# ---------------------------------------------------------------------------
# admissible cuts
# ---------------------------------------------------------------------------

def _cuts(node) -> Iterator[tuple[tuple, tuple]]:
    """Admissible cuts below ``node``: pairs (trunk node, cut-off root
    blocks).  Each child edge is either cut, sending the whole child
    right, or kept, with the child cut recursively below it."""
    dec, child_blocks = node
    choices = [
        [((), (b,))] + [(((trunk,),), branches) for trunk, branches in _cuts(b[0])]
        for b in child_blocks
    ]
    for picked in itertools.product(*choices):
        yield (dec, sum((k for k, _ in picked), ())), sum((c for _, c in picked), ())


def _edge_cuts(node) -> Iterator[tuple[tuple, tuple]]:
    """The cuts of ``_cuts`` that cut one edge, in its order, as (trunk
    node, cut-off block) pairs: child by child, its edge, then the edges
    below it.  (``_cuts`` yields its empty cut last.)"""
    dec, blocks = node
    for i, b in enumerate(blocks):
        head, tail = blocks[:i], blocks[i + 1:]
        yield (dec, head + tail), b
        for k, c in _edge_cuts(b[0]):
            yield (dec, head + ((k,),) + tail), c


def tree_coproduct(t: PartitionedTree) -> dict[tuple[Forest, Forest], Rat]:
    """Admissible cuts of one tree: antichains of edges.  The root side
    goes left, the cut-off branches right; the empty cut and the total
    cut give the two unit terms.  Cut-off branches are subtrees of a
    canonical tree, hence canonical; only the trunk is normalized."""
    acc = _Sum((((Forest(), Forest.of(t)), 1),))
    for trunk, branches in _cuts(t.root[0]):
        cut_off = Forest._from_clean(tuple(map(PartitionedTree, branches)))
        _add_into(acc, (((Forest._from_clean((_from_nested((trunk,)),)), cut_off), 1),))
    return acc.result()


def ck_coproduct(x) -> dict[tuple[Forest, Forest], Rat]:
    """The admissible-cut coproduct, multiplicative over forest factors;
    returned as a (left forest, right forest) -> coefficient mapping."""
    return _linear(
        lambda f: multiplicative_coproduct(f, tree_coproduct).items(), ForestPoly._coerce(x).items()
    )


# ---------------------------------------------------------------------------
# the symmetry pairing
# ---------------------------------------------------------------------------

def _tree_sym(t: PartitionedTree) -> int:
    _, child_blocks = t.root[0]
    return Forest._from_clean(tuple(map(PartitionedTree, child_blocks))).symmetry(_tree_sym)


def symmetry_factor(x: Forest | PartitionedTree) -> int:
    """Order of the decoration-preserving automorphism group."""
    f = x if isinstance(x, Forest) else Forest.of(x)
    return f.symmetry(_tree_sym)


def pairing(a, b) -> Rat:
    """Bilinear pairing that is diagonal on forests, weighted by the
    symmetry factor."""
    return diagonal_pairing(ForestPoly._coerce(a), ForestPoly._coerce(b), symmetry_factor)


# ---------------------------------------------------------------------------
# grafting operators and the t elements
# ---------------------------------------------------------------------------

def _graft_leaf(x: ForestPoly, leaf: PartitionedTree, wmap: Mapping[Letter, Rat]) -> ForestPoly:
    """``leaf`` grafted at every vertex of ``x``, each graft weighted by
    ``wmap`` at the host vertex's symbol: the one grafting kernel of
    ``n_d``, ``t_word`` and the projected cobracket."""

    def grafts(f: Forest):
        for i, t in enumerate(f.factors):
            rest = f.factors[:i] + f.factors[i + 1:]
            for (dec, _), g in zip(_nodes(t.root), _grafts(t, leaf)):  # both in vertex order
                w = _weight(wmap, dec)
                if w:
                    yield Forest._from_clean(rest + (g,)), w

    return ForestPoly._from_clean(_linear(grafts, x.items()))


def n_d(x, d: Letter | str, lam: Mapping) -> ForestPoly:
    """Graft one ``d``-decorated leaf at every vertex, each graft weighted
    by the eigenvalue of the host vertex's symbol.  A derivation."""
    leaf = singleton(Letter(d) if isinstance(d, str) else d)
    _check_factor(leaf)
    return _graft_leaf(ForestPoly._coerce(x), leaf, Endo.diagonal(lam).weights)


def _t_elements(wmap: Mapping[Letter, Rat]) -> _Memo:
    """``memo[letters]``, t of nonempty letters under one resolved weight
    map, each distinct prefix grafted once: t(u x) = n_x(t(u))."""

    def t_of(*letters: Letter) -> ForestPoly:
        grown = memo[letters[:-1]] if len(letters) > 1 else None
        leaf = singleton(letters[-1])
        _check_factor(leaf)
        return ForestPoly.of(Forest.of(leaf)) if grown is None else _graft_leaf(grown, leaf, wmap)

    memo = _Memo(t_of)
    return memo


def t_word(w, lam: Mapping) -> ForestPoly:
    """The tree combination of a word: start from the one-vertex tree on
    the first symbol and graft the remaining symbols one by one."""
    letters = _as_letters(w)
    if not letters:
        raise ValueError("t elements need a nonempty word")
    t_of = _t_elements(Endo.diagonal(lam).weights)
    for k in range(1, len(letters) + 1):  # prefixes shortest first, one recursion level each
        t = t_of[letters[:k]]
    t_of.clear()  # the memo and its kernel form a cycle: free the forests now
    return t


def _t_word_trees(n: int, stop: int) -> int:
    """At most how many trees t_w of n letters has, (n - 1)!, as the k-th
    grafted letter has k hosts; past ``stop``, only some k! > ``stop``."""
    return factorial(min(max(n - 1, 0), stop.bit_length() + 1))


# ---------------------------------------------------------------------------
# the cobracket on t elements and its dual product
# ---------------------------------------------------------------------------

def _chain(letters: tuple[Letter, ...]) -> Forest:
    """The path tree x1 -> ... -> xn as a one-tree forest (canonical as built)."""
    node = (letters[-1], ())
    for x in reversed(letters[:-1]):
        node = (x, ((node,),))
    return Forest._from_clean((PartitionedTree((node,)),))


def delta_cobracket(w, lam: Mapping, mode: str = "closed") -> dict[tuple[Word, Word], Rat]:
    """Cobracket of ``t_w``, expressed in the t basis as a
    (left word, right word) -> coefficient mapping.

    Both modes read one sequence: the splittings of the positions of w into
    two nonempty parts, the subwords u and v.  The closed mode weights
    each by the eigenvalues of w along the prefix that u keeps in place;
    it is the transpose of ``prelie_closed`` under the diagonal map of
    the eigenvalues (see :func:`dual_prelie_coeff`).  The projected mode
    cuts one edge of each tree of t_w (the tree x tree part of its cut
    coproduct) and reads the coordinate of (u, v) off chain(u) x chain(v):
    the path chain(u) is in t(u), with coefficient Lambda(u) (the weights
    of u but its last letter multiplied), and in no other t of |u| letters.
    Rebuilding the cuts checks only that they lie in the span of the
    t(u) x t(v), which a lost cut may still do (for 3 letters any one
    does); comparing with the closed mode, as the tests and ``verify`` do,
    catches it.  Types match across modes.
    """
    letters = _as_letters(w)
    if not letters:
        raise ValueError("t elements need a nonempty word")
    wmap = Endo.diagonal(lam).weights
    splittings = filter(all, _splittings(tuple(range(len(letters))), 2))  # read once, lazily

    def words(parts: tuple[tuple[int, ...], ...]) -> tuple[Word, ...]:
        return tuple(Word(tuple(letters[p] for p in part)) for part in parts)

    if mode == "closed":
        acc = _Sum()
        for s in splittings:
            weight = sum(_weight(wmap, letters[i]) for i in range(_fixed_prefix(s[0])))
            if weight:
                _add_into(acc, ((words(s), weight),))
        return acc.result()
    if mode != "projected":
        raise ValueError(f"unknown mode {mode!r}")
    if not all(_weight(wmap, x) for x in letters):
        raise ValueError("projected mode needs nonzero weights")
    t_of = _t_elements(wmap)

    def tree_tree_cuts(f: Forest):  # f is one tree; its tree x tree cuts cut one edge
        return Counter(
            (Forest._from_clean((_from_nested((k,)),)), Forest._from_clean((PartitionedTree(c),)))
            for k, c in _edge_cuts(f.factors[0].root[0])
        ).items()

    def t_tensor_t(pair: tuple[Word, Word]):  # t(u) x t(v)
        tu, tv = (t_of[x.letters].items() for x in pair)
        return (((f, g), a * b) for f, a in tu for g, b in tv)

    target = _linear(tree_tree_cuts, t_of[letters].items())
    # v's root hangs below a letter of w before it (else no coordinate)
    coords = {}
    for u, v in dict.fromkeys(words(s) for s in splittings if s[1][0]):
        c = target.get((_chain(u.letters), _chain(v.letters)))
        if c:
            path_weights = prod(wmap[x] for x in u.letters[:-1] + v.letters[:-1])
            coords[u, v] = check_coefficient(Fraction(c) / path_weights)
    rebuilt = _linear(t_tensor_t, coords.items())
    t_of.clear()  # as in ``t_word``
    if rebuilt != target:
        raise RuntimeError("cobracket landed outside the t basis; internal error")
    return coords


def _delta_splittings(n: int, stop: int) -> int:
    """How many splittings of n letters into two nonempty parts the closed
    cobracket reads, 2^n - 2; past ``stop``, only some 2^k - 2 > ``stop``."""
    return max(2 ** min(n, stop.bit_length() + 1) - 2, 0)


def dual_prelie_coeff(lam: Mapping, u, v) -> Tensor:
    """The product dual to the cobracket on the t basis: interleave the
    two words every way, weighting each interleaving by the eigenvalues of
    the left word's letters along the initial run it keeps.  This is the
    closed pre-Lie product under the diagonal map of the eigenvalues."""
    ctx = ComPreLieContext(diagonal_weights(lam))
    return prelie_closed(ctx, Word(_as_letters(u)), Word(_as_letters(v)))


def y_bracket_check(lam: Rat, k: int, l: int, symbol: str = "x") -> tuple[Tensor, Tensor]:
    """One-symbol bracket after the factorial rescaling y_m = (m+1)!/lam x^m:
    returns (computed, expected) with expected = (k-l) y_{k+l}, raising if
    the two disagree."""
    check_coefficient(lam)
    if not lam:
        raise ValueError("the eigenvalue must be nonzero")
    if k < 1 or l < 1:
        raise ValueError("bracket indices start at 1")
    ctx = ComPreLieContext(Endo.diagonal({symbol: lam}))

    def y(m: int) -> Tensor:
        return Tensor.of(Word((Letter(symbol),) * m), Fraction(factorial(m + 1)) / lam)

    computed = prelie(ctx, y(k), y(l)) - prelie(ctx, y(l), y(k))
    expected = y(k + l).scale(k - l)
    if computed != expected:
        raise RuntimeError("bracket check failed; internal error")
    return computed, expected


# ---------------------------------------------------------------------------
# the enveloping product on forests
# ---------------------------------------------------------------------------

_TREE_ENGINE = OudomGuin(_tree_brace, ForestPoly)


def forest_bullet(a, b) -> ForestPoly:
    """Grafting extended to forests through the derivation rules."""
    return _TREE_ENGINE.bullet(a, b)


def forest_star(a, b) -> ForestPoly:
    """The associative enveloping product on forests, dual to the
    admissible-cut coproduct under the symmetry pairing."""
    return _TREE_ENGINE.star(a, b)
