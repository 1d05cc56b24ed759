"""Decorated rooted forests and the diagonal-eigenvalue word elements.

The free commutative algebra on symbol-decorated rooted trees carries the
admissible-cut coproduct, and the pairing that weights each forest by its
symmetry count puts it in duality with the enveloping algebra of the free
pre-Lie algebra on the symbols.  When every symbol carries an eigenvalue,
iterated leaf grafting produces elements t_w indexed by words; their span
is closed under the coproduct, and the induced cobracket dualizes to the
weighted-interleaving pre-Lie product on words.  Rescaling the one-symbol
row recovers the Faa di Bruno bracket [y_k, y_l] = (k-l) y_{k+l}.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Iterable, Mapping

from .endo import Endo, diagonal_weights
from .enveloping import (
    Monomial,
    OudomGuin,
    SymLin,
    diagonal_pairing,
    multiplicative_coproduct,
)
from .exactla import express_in
from .prelie import ComPreLieContext, prelie, prelie_closed
from .trees import PartitionedTree, free_bullet, graft_at, parse_tree, singleton
from .words import Letter, Rat, Tensor, Word, _add_into, check_coefficient, parse_word


def _as_letters(w) -> tuple[Letter, ...]:
    if isinstance(w, str):
        return parse_word(w).letters
    if isinstance(w, Word):
        return w.letters
    return tuple(w)


def _weight_map(lam: Mapping) -> dict[Letter, Rat]:
    out: dict[Letter, Rat] = {}
    for k, v in lam.items():
        x = Letter(k) if isinstance(k, str) else k
        out[x] = check_coefficient(v)
    return out


def _weight(wmap: Mapping[Letter, Rat], x: Letter) -> Rat:
    try:
        return wmap[x]
    except KeyError:
        raise ValueError(f"no weight supplied for symbol {x}") from None


# ---------------------------------------------------------------------------
# forests
# ---------------------------------------------------------------------------

class Forest(Monomial):
    """A multiset of decorated rooted trees; the empty forest is the unit
    of the product.  Forests order by vertex count first."""

    __slots__ = ()

    def __post_init__(self):
        for t in self.factors:
            if not isinstance(t, PartitionedTree) or not t.is_rooted_tree():
                raise ValueError("forest factors must be rooted trees (all blocks singletons)")
            for dec in t.decorations:
                if not isinstance(dec, Letter) or dec.shift is not None:
                    raise ValueError(f"forest decorations must be plain symbols, got {dec!r}")
        super().__post_init__()

    @property
    def trees(self) -> tuple[PartitionedTree, ...]:
        return self.factors

    @property
    def n_vertices(self) -> int:
        return sum(t.size for t in self.factors)

    def is_tree(self) -> bool:
        return len(self.factors) == 1

    def _key(self):
        return (self.n_vertices, tuple(t._key() for t in self.factors))


def parse_forest(text: str) -> Forest:
    """``"a[b] * c"`` is the two-tree forest; ``"1"`` is the empty one."""
    text = text.strip()
    if text == "1":
        return Forest()
    return Forest(tuple(parse_tree(tok) for tok in text.split("*")))


class ForestPoly(SymLin):
    """A finitely supported rational combination of forests."""

    __slots__ = ()
    monomial = Forest

    @classmethod
    def _coerce(cls, x):
        """As for any combination, with a tree read as a one-tree forest."""
        return super()._coerce(Forest.of(x) if isinstance(x, PartitionedTree) else x)


# ---------------------------------------------------------------------------
# admissible cuts
# ---------------------------------------------------------------------------

def _children_map(t: PartitionedTree) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {v: [] for v in range(1, t.size + 1)}
    for v in range(1, t.size + 1):
        p = t.parents[v - 1]
        if p is not None:
            kids[p].append(v)
    return kids


def _descendants(kids: Mapping[int, list[int]], v: int) -> list[int]:
    out, stack = [], [v]
    while stack:
        u = stack.pop()
        out.append(u)
        stack.extend(kids[u])
    return out


def _part(t: PartitionedTree, vertices: Iterable[int]) -> PartitionedTree:
    """The induced subtree on a downward-closed vertex set with one top."""
    vs = sorted(vertices)
    index = {v: i + 1 for i, v in enumerate(vs)}
    parents = []
    for v in vs:
        p = t.parents[v - 1]
        parents.append(index.get(p) if p is not None else None)
    return PartitionedTree.build(
        tuple(t.decorations[v - 1] for v in vs),
        tuple(parents),
        tuple((i,) for i in range(1, len(vs) + 1)),
    )


def tree_coproduct(t: PartitionedTree) -> dict[tuple[Forest, Forest], Rat]:
    """Admissible cuts of one tree: antichains of edges, each named by its
    lower vertex.  The root side goes left, the cut-off branches right;
    the empty cut and the total cut give the two unit terms."""
    kids = _children_map(t)
    nonroot = [v for v in range(1, t.size + 1) if t.parents[v - 1] is not None]
    below_edge = {v: _descendants(kids, v) for v in nonroot}
    out: dict[tuple[Forest, Forest], Rat] = {(Forest(), Forest.of(t)): 1}
    for k in range(len(nonroot) + 1):
        for cut in itertools.combinations(nonroot, k):
            branches = [below_edge[v] for v in cut]
            below = {u for b in branches for u in b}
            if len(below) < sum(map(len, branches)):
                continue  # one cut edge lies below another
            trunk = _part(t, (v for v in range(1, t.size + 1) if v not in below))
            cut_off = Forest(tuple(_part(t, b) for b in branches))
            _add_into(out, [((Forest.of(trunk), cut_off), 1)])
    return out


def ck_coproduct(x) -> dict[tuple[Forest, Forest], Rat]:
    """The admissible-cut coproduct, multiplicative over forest factors;
    returned as a (left forest, right forest) -> coefficient mapping."""
    out: dict[tuple[Forest, Forest], Rat] = {}
    for f, c in ForestPoly._coerce(x).items():
        _add_into(out, multiplicative_coproduct(f, tree_coproduct).items(), c)
    return out


# ---------------------------------------------------------------------------
# the symmetry pairing
# ---------------------------------------------------------------------------

def _tree_sym(t: PartitionedTree) -> int:
    kids = _children_map(t)
    branches = Forest(tuple(_part(t, _descendants(kids, c)) for c in kids[t.root_block[0]]))
    return branches.symmetry(_tree_sym)


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

def n_d(x, d: Letter | str, lam: Mapping) -> ForestPoly:
    """Graft one ``d``-decorated leaf at every vertex, each graft weighted
    by the eigenvalue of the host vertex's symbol.  A derivation."""
    leaf = singleton(Letter(d) if isinstance(d, str) else d)
    wmap = _weight_map(lam)
    acc: dict[Forest, Rat] = {}
    for f, c in ForestPoly._coerce(x).items():
        for i, t in enumerate(f.factors):
            rest = f.factors[:i] + f.factors[i + 1:]
            weights = [_weight(wmap, dec) for dec in t.decorations]
            grafts = (
                (Forest(rest + (graft_at(t, v, leaf),)), w) for v, w in enumerate(weights, 1) if w
            )
            _add_into(acc, grafts, c)
    return ForestPoly._from_clean(acc)


def phi_lambda(x, lam: Mapping) -> ForestPoly:
    """Scale each forest by the eigenvalue sum over its vertices."""
    wmap = _weight_map(lam)
    acc: dict[Forest, Rat] = {}
    for f, c in ForestPoly._coerce(x).items():
        total = sum(_weight(wmap, dec) for t in f.factors for dec in t.decorations)
        if total:
            acc[f] = c * total
    return ForestPoly._from_clean(acc)


def tree_projection(x) -> ForestPoly:
    """Keep the single-tree forests; the unit and proper products go to 0."""
    return ForestPoly._from_clean({f: c for f, c in ForestPoly._coerce(x).items() if f.is_tree()})


def t_word(w, lam: Mapping) -> ForestPoly:
    """The tree combination of a word: start from the one-vertex tree on
    the first symbol and graft the remaining symbols one by one."""
    letters = _as_letters(w)
    if not letters:
        raise ValueError("t elements need a nonempty word")
    acc = ForestPoly.of(Forest.of(singleton(letters[0])))
    for d in letters[1:]:
        acc = n_d(acc, d, lam)
    return acc


# ---------------------------------------------------------------------------
# the cobracket on t elements and its dual product
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IndexSubset:
    """Strictly increasing 1-based positions in a word.  ``prefix_reach``
    is the largest i with 1..i all selected (0 when 1 is missing)."""

    positions: tuple[int, ...]

    def __post_init__(self):
        if list(self.positions) != sorted(set(self.positions)) or (
            self.positions and self.positions[0] < 1
        ):
            raise ValueError("positions must be strictly increasing and 1-based")

    @property
    def prefix_reach(self) -> int:
        m = 0
        for i, p in enumerate(self.positions, start=1):
            if p != i:
                break
            m = i
        return m

    def subword(self, letters: tuple[Letter, ...]) -> Word:
        return Word(tuple(letters[p - 1] for p in self.positions))

    def complement(self, n: int) -> "IndexSubset":
        chosen = set(self.positions)
        return IndexSubset(tuple(p for p in range(1, n + 1) if p not in chosen))


def delta_cobracket(w, lam: Mapping, mode: str = "closed") -> dict[tuple[Word, Word], Rat]:
    """Cobracket of ``t_w``, expressed in the t basis as a
    (left word, right word) -> coefficient mapping.

    The closed mode sums over proper position subsets, weighting each by
    the eigenvalues along its initial run.  The projected mode cuts the
    tree expansion of t_w, keeps the tree x tree part and solves for the
    t-basis coordinates; it needs all weights nonzero so the t elements
    stay independent.
    """
    letters = _as_letters(w)
    n = len(letters)
    if n == 0:
        raise ValueError("t elements need a nonempty word")
    wmap = _weight_map(lam)
    positions = range(1, n + 1)
    subsets = [IndexSubset(s) for k in range(1, n) for s in itertools.combinations(positions, k)]

    def words(sub: IndexSubset) -> tuple[Word, Word]:
        return sub.subword(letters), sub.complement(n).subword(letters)

    if mode == "closed":
        out: dict[tuple[Word, Word], Rat] = {}
        for sub in subsets:
            weight = sum(_weight(wmap, letters[i]) for i in range(sub.prefix_reach))
            if weight:
                _add_into(out, [(words(sub), weight)])
        return out
    if mode != "projected":
        raise ValueError(f"unknown mode {mode!r}")
    for x in letters:
        if not _weight(wmap, x):
            raise ValueError("projected mode needs nonzero weights")
    target: dict[tuple[Forest, Forest], Rat] = {}
    for (left, right), c in ck_coproduct(t_word(letters, wmap)).items():
        if left.is_tree() and right.is_tree():
            target[(left, right)] = c
    pairs = list(dict.fromkeys(map(words, subsets)))
    vectors = []
    for u, v in pairs:
        tu, tv = t_word(u, wmap), t_word(v, wmap)
        vectors.append(
            {(f, g): a * b for f, a in tu.items() for g, b in tv.items()}
        )
    coeffs = express_in(vectors, target)
    if coeffs is None:
        raise RuntimeError("cobracket landed outside the t basis; internal error")
    return {pair: c for pair, c in zip(pairs, coeffs) if c}


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

def _tree_base(t1: PartitionedTree, t2: PartitionedTree) -> Mapping[PartitionedTree, Rat]:
    return free_bullet(t1, t2).terms


_TREE_ENGINE = OudomGuin(_tree_base)


def forest_bullet(a, b) -> ForestPoly:
    """Grafting extended to forests through the derivation rules."""
    return _TREE_ENGINE.bullet(ForestPoly, a, b)


def forest_star(a, b) -> ForestPoly:
    """The associative enveloping product on forests, dual to the
    admissible-cut coproduct under the symmetry pairing."""
    return _TREE_ENGINE.star(ForestPoly, a, b)
