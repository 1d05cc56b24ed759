"""Partitioned trees and the free Com-Pre-Lie algebra they span.

A partitioned tree is a rooted forest together with a partition of its
vertices into blocks; vertices sharing a block are either all roots or
children of one common vertex, and all roots share one block.  Grafting
and the root-block merge make the span of these trees the free
Com-Pre-Lie algebra on the decoration set, and evaluating every linear
extension turns a tree into a combination of words in indexed letters.

A tree is held as its root block in a canonical nested form: a node is
``(decoration, tuple of child blocks)``, a block is a tuple of nodes, and
both are sorted by a recursive encoding, so isomorphic trees compare
equal.  Grafts, joins, the root-block merge and the admissible cuts are
recursions on this form; the word maps are one fold over it, which sums
the linear extensions by shuffling subtrees.  The parent and block
arrays are views derived from it, built only for the public accessors.

Normalising keeps one memo, ``_ENCODINGS``, keyed by each canonical block
(the nested tuple itself) and holding its encoding.  An operation hands
the untouched blocks of its operands on by reference, so they are found
there and only the path it touched is re-encoded and re-sorted; the
result shares the untouched blocks with its operands.  A hit returns the
caller's own block, not the stored one: ``vec({a: 2})`` and
``vec({a: Fraction(2)})`` are equal, and each tree keeps its own
coefficient types.  The memo is emptied once it holds
``_ENCODINGS_BOUND`` blocks.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import prod
from typing import Iterable, Iterator, Mapping, Sequence

from .endo import Endo, iterate_endo_letter
from .enveloping import SymTensor, extend_bullet
from .exactla import rank_of
from .prelie import ComPreLieContext
from .words import (
    BasisKey,
    Letter,
    Lin,
    Rat,
    Tensor,
    Word,
    _bilinear,
    _linear,
    _set,
    _split_coeff,
    _split_signed,
    check_coefficient,
    concat,
    parse_letter,
    shuffle,
)


def vec(mapping: Mapping[Letter, Rat]) -> tuple[tuple[Letter, Rat], ...]:
    """Normalize a linear-combination decoration to a sorted tuple."""
    items = [(x, check_coefficient(c)) for x, c in mapping.items() if c]
    items.sort(key=lambda p: p[0]._key())
    return tuple(items)


def _dec_enc(d) -> tuple:
    if isinstance(d, Letter):
        return (0, d.name, -1 if d.shift is None else d.shift)
    enc = []
    for x, c in d:
        q = Fraction(c)
        enc.append((x.name, -1 if x.shift is None else x.shift, q.numerator, q.denominator))
    return (1, tuple(enc))


def _norm_node(dec, child_blocks):
    normed = sorted((_norm_block(b) for b in child_blocks), key=lambda p: p[0])
    enc = (_dec_enc(dec), tuple(e for e, _ in normed))
    struct = (dec, tuple(s for _, s in normed))
    return enc, struct


_ENCODINGS: dict[tuple, tuple] = {}
_ENCODINGS_BOUND = 2**16


def _norm_block(nodes):
    """The encoding and canonical form of the block ``nodes``.  A block
    equal to one in ``_ENCODINGS`` is canonical, so it comes back as it
    is, sharing its objects with the caller; only a new block is sorted."""
    enc = _ENCODINGS.get(nodes)
    if enc is not None:
        return enc, nodes
    normed = sorted((_norm_node(dec, bs) for dec, bs in nodes), key=lambda p: p[0])
    enc = tuple(e for e, _ in normed)
    struct = tuple(s for _, s in normed)
    if len(_ENCODINGS) >= _ENCODINGS_BOUND:
        _ENCODINGS.clear()
    _ENCODINGS[struct] = enc
    return enc, struct


def _nodes(block) -> Iterator[tuple]:
    """The nodes under ``block`` in vertex-number order: the block's own
    nodes, then the subtree of each of their child blocks in turn."""
    yield from block
    for _, child_blocks in block:
        for b in child_blocks:
            yield from _nodes(b)


class PartitionedTree(BasisKey):
    """Canonical partitioned tree: ``root`` is its root block, in the
    nested form of the module docstring.

    ``decorations``, ``parents`` and ``blocks`` are views computed once
    on demand, with vertices numbered in the order of :func:`_nodes`:
    ``decorations[i]`` belongs to vertex i+1, ``parents[i]`` is its parent
    vertex (None for roots) and ``blocks`` lists the partition, root block
    first.  The sort key is the size and the printed form.  :meth:`build`
    and :func:`parse_tree` validate their input; the raw constructor
    trusts that its argument is canonical.
    """

    __slots__ = ("root", "_views")

    def __init__(self, root: tuple):
        _set(self, "root", root)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.root == other.root

    __hash__ = BasisKey.__hash__

    def __repr__(self) -> str:
        return f"PartitionedTree(root={self.root!r})"

    def _fields(self) -> tuple:
        return (self.root,)

    @classmethod
    def build(
        cls,
        decorations: Sequence,
        parents: Sequence[int | None],
        blocks: Iterable[Sequence[int]],
    ) -> "PartitionedTree":
        m = len(decorations)
        if m == 0:
            raise ValueError("a partitioned tree needs at least one vertex")
        if len(parents) != m:
            raise ValueError("decorations and parents disagree on the vertex count")
        for v, p in enumerate(parents, start=1):
            if p is None:
                continue
            if not 1 <= p <= m or p == v:
                raise ValueError(f"bad parent {p} for vertex {v}")
        # acyclicity: walking up from any vertex must reach a root
        for v in range(1, m + 1):
            seen = 0
            cur: int | None = v
            while cur is not None:
                cur = parents[cur - 1]
                seen += 1
                if seen > m:
                    raise ValueError("parent relation has a cycle")
        blocks = [tuple(b) for b in blocks]
        flat = [v for b in blocks for v in b]
        if sorted(flat) != list(range(1, m + 1)):
            raise ValueError("blocks do not partition the vertices")
        root_blocks = 0
        for b in blocks:
            ps = {parents[v - 1] for v in b}
            if len(ps) != 1:
                raise ValueError(f"block {b} mixes different parents")
            if ps == {None}:
                root_blocks += 1
        if root_blocks != 1:
            raise ValueError("the roots must form exactly one block")
        return _from_nested(_nested_from_arrays(decorations, parents, blocks))

    # -- shape access -------------------------------------------------------

    def _arrays(self) -> tuple[tuple, tuple, tuple]:
        if getattr(self, "_views", None) is None:
            _set(self, "_views", _arrays_of(self.root))
        return self._views

    @property
    def decorations(self) -> tuple:
        return self._arrays()[0]

    @property
    def parents(self) -> tuple:
        return self._arrays()[1]

    @property
    def blocks(self) -> tuple:
        return self._arrays()[2]

    @property
    def size(self) -> int:
        return self._key()[0]

    @property
    def n_blocks(self) -> int:
        return 1 + sum(len(child_blocks) for _, child_blocks in _nodes(self.root))

    @property
    def root_block(self) -> tuple:
        return self.blocks[0]

    def decoration(self, v: int):
        return self.decorations[v - 1]

    def fertility(self, v: int) -> int:
        """Number of blocks hanging directly under vertex ``v``."""
        return sum(1 for b in self.blocks if self.parents[b[0] - 1] == v)

    def is_rooted_tree(self) -> bool:
        return self.n_blocks == self.size

    def __str__(self) -> str:
        return self._key()[1]

    def _make_key(self) -> tuple:
        return (sum(1 for _ in _nodes(self.root)), tree_to_str(self))


def _arrays_of(root) -> tuple[tuple, tuple, tuple]:
    """The decoration, parent and block arrays of the tree on ``root``."""
    decorations: list = []
    parents: list = []
    blocks: list = []

    def assign(block, parent: int | None) -> None:
        ids = tuple(range(len(decorations) + 1, len(decorations) + len(block) + 1))
        blocks.append(ids)
        decorations.extend(dec for dec, _ in block)
        parents.extend(parent for _ in block)
        for vid, (_, child_blocks) in zip(ids, block):
            for b in child_blocks:
                assign(b, vid)

    assign(root, None)
    return tuple(decorations), tuple(parents), tuple(blocks)


def _nested_from_arrays(decorations, parents, blocks):
    under: dict[int | None, list] = {}
    for b in blocks:
        under.setdefault(parents[b[0] - 1], []).append(b)

    def node(v: int):
        return (decorations[v - 1], tuple(block(b) for b in under.get(v, ())))

    def block(b):
        return tuple(node(v) for v in b)

    return block(under[None][0])


def _from_nested(root_block) -> PartitionedTree:
    """The tree on the canonical form of ``root_block``; sub-blocks that
    are already canonical, found in ``_ENCODINGS``, are kept as they are."""
    return PartitionedTree(_norm_block(root_block)[1])


def singleton(dec) -> PartitionedTree:
    return PartitionedTree(((dec, ()),))


# ---------------------------------------------------------------------------
# tree literals
# ---------------------------------------------------------------------------

_DELIMS = set("[]{},")


def parse_tree(text: str) -> PartitionedTree:
    """Read ``d[child,...]`` / ``{t1,t2}`` notation, e.g. ``a[{b[c],d}]``;
    a decoration ``(2*a+-1/2*b)`` is the vector ``vec({a: 2, b: -1/2})``."""
    pos = 0

    def skip_ws() -> None:
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def parse_name():
        nonlocal pos
        start = pos
        if text[pos : pos + 1] == "(":  # a vector decoration, as printed
            pos = text.find(")", start) + 1
            if not pos:
                raise ValueError(f"unclosed decoration at position {start} in {text!r}")
            combo: dict[Letter, Rat] = {}
            for sign, term in _split_signed(text[start + 1 : pos - 1]):
                c, name = _split_coeff(term)
                x = parse_letter(name)
                combo[x] = combo.get(x, 0) + sign * c
            return vec(combo)
        while pos < len(text) and not text[pos].isspace() and text[pos] not in _DELIMS:
            pos += 1
        if pos == start:
            raise ValueError(f"expected a decoration at position {start} in {text!r}")
        return parse_letter(text[start:pos])

    def parse_node():
        nonlocal pos
        skip_ws()
        dec = parse_name()
        child_blocks = []
        skip_ws()
        if pos < len(text) and text[pos] == "[":
            pos += 1
            skip_ws()
            while text[pos : pos + 1] != "]":
                child_blocks.append(parse_block_or_singleton())
                skip_ws()
                if text[pos : pos + 1] == ",":
                    pos += 1
                elif text[pos : pos + 1] != "]":
                    raise ValueError(f"expected ',' or ']' at position {pos} in {text!r}")
            pos += 1
        return (dec, tuple(child_blocks))

    def parse_block() -> tuple:
        nonlocal pos
        pos += 1  # consume '{'
        nodes = [parse_node()]
        skip_ws()
        while text[pos : pos + 1] == ",":
            pos += 1
            nodes.append(parse_node())
            skip_ws()
        if text[pos : pos + 1] != "}":
            raise ValueError(f"unclosed block in {text!r}")
        pos += 1
        return tuple(nodes)

    def parse_block_or_singleton() -> tuple:
        skip_ws()
        if text[pos : pos + 1] == "{":
            return parse_block()
        return (parse_node(),)

    root = parse_block_or_singleton()
    skip_ws()
    if pos != len(text):
        raise ValueError(f"trailing input at position {pos} in {text!r}")
    return _from_nested(root)


def tree_to_str(t: PartitionedTree) -> str:
    def dec_str(dec) -> str:
        if isinstance(dec, Letter):
            return str(dec)
        return "(" + "+".join(f"{c}*{x}" for x, c in dec) + ")"

    def node_str(node) -> str:
        dec, child_blocks = node
        if not child_blocks:
            return dec_str(dec)
        return dec_str(dec) + "[" + ",".join(block_str(b) for b in child_blocks) + "]"

    def block_str(block) -> str:
        if len(block) == 1:
            return node_str(block[0])
        return "{" + ",".join(node_str(x) for x in block) + "}"

    return block_str(t.root)


# ---------------------------------------------------------------------------
# the Com-Pre-Lie operations
# ---------------------------------------------------------------------------

def _rewrites(block, at_block) -> Iterator[tuple]:
    """``block`` with one block of its subtree, itself included, replaced
    by each block that ``at_block`` makes of it.  Blocks are visited in
    vertex-number order; the results are not canonical."""
    yield from at_block(block)
    for i, (dec, child_blocks) in enumerate(block):
        for j, b in enumerate(child_blocks):
            for new in _rewrites(b, at_block):
                kids = child_blocks[:j] + (new,) + child_blocks[j + 1:]
                yield block[:i] + ((dec, kids),) + block[i + 1:]


def _grafted(block, branch) -> Iterator[tuple]:
    """``block`` with ``branch`` hung under each of its nodes in turn."""
    for i, (dec, child_blocks) in enumerate(block):
        yield block[:i] + ((dec, child_blocks + (branch,)),) + block[i + 1:]


def graft_at(t: PartitionedTree, s: int, t2: PartitionedTree) -> PartitionedTree:
    """Graft every root of ``t2`` onto vertex ``s`` of ``t``; the blocks of
    both trees survive unchanged."""
    if not 1 <= s <= t.size:
        raise ValueError(f"vertex {s} outside 1..{t.size}")
    raw = _rewrites(t.root, lambda b: _grafted(b, t2.root))
    return _from_nested(next(itertools.islice(raw, s - 1, None)))


def tree_shuffle(t: PartitionedTree, t2: PartitionedTree) -> PartitionedTree:
    """Disjoint union with the two root blocks merged into one."""
    return _from_nested(t.root + t2.root)


class TreeTensor(Lin):
    """A finitely supported rational combination of partitioned trees."""

    __slots__ = ()

    @classmethod
    def _read_term(cls, term: str) -> tuple[PartitionedTree, Rat]:
        coeff, body = _split_coeff(term)
        return parse_tree(body), coeff


def free_bullet(a, b) -> TreeTensor:
    """The free pre-Lie product: graft the right operand at every vertex
    of the left one, bilinearly."""
    a, b = TreeTensor._coerce(a), TreeTensor._coerce(b)
    return TreeTensor._from_clean(
        _bilinear(lambda t, t2: ((g, 1) for g in _grafts(t, t2)), a.items(), b.items())
    )


def _grafts(t: PartitionedTree, t2: PartitionedTree) -> Iterator[PartitionedTree]:
    """``t2`` grafted at each vertex of ``t`` in turn."""
    return map(_from_nested, _rewrites(t.root, lambda b: _grafted(b, t2.root)))


def shuffle_trees(a, b) -> TreeTensor:
    a, b = TreeTensor._coerce(a), TreeTensor._coerce(b)
    return TreeTensor._from_clean(
        _bilinear(lambda t, t2: ((tree_shuffle(t, t2), 1),), a.items(), b.items())
    )


# ---------------------------------------------------------------------------
# linear extensions and the word images
# ---------------------------------------------------------------------------

def linear_extensions(t: PartitionedTree) -> list[tuple[int, ...]]:
    """All vertex orders listing every parent before its children."""
    m = t.size
    out: list[tuple[int, ...]] = []

    def rec(placed: tuple[int, ...], remaining: frozenset) -> None:
        if not remaining:
            out.append(placed)
            return
        for v in sorted(remaining):
            p = t.parents[v - 1]
            if p is None or p not in remaining:
                rec(placed + (v,), remaining - {v})

    rec((), frozenset(range(1, m + 1)))
    return out


def _fold(block, node_value) -> Tensor:
    """A block's value: the shuffle of its nodes' values; a node's value is
    ``node_value(decoration, [value of each child block])``.  A forest's
    linear extensions interleave its trees', so writing each node's letter
    before the shuffle of its child values sums the linear extensions."""
    values = (node_value(dec, [_fold(b, node_value) for b in bs]) for dec, bs in block)
    return functools.reduce(shuffle, values)


def _headed(image: Mapping[Letter, Rat], kids: list[Tensor]) -> Tensor:
    """The letter combination ``image`` before the shuffle of ``kids``."""
    head = Tensor._from_clean({Word((y,)): c for y, c in image.items()})
    return concat(head, functools.reduce(shuffle, kids, Tensor.unit()))


def _symbol_name(dec) -> str:
    if not isinstance(dec, Letter) or dec.shift is not None:
        raise ValueError(f"expected a plain symbol decoration, got {dec!r}")
    return dec.name


_BILETTER_CTX = ComPreLieContext(Endo.biletter_shift())


def phi_cpl(t: PartitionedTree, mode: str = "direct") -> Tensor:
    """The word image of a symbol-decorated tree: one biword per linear
    extension, pairing each vertex's symbol with its fertility.  The
    direct mode folds the tree: a node writes that letter before the
    shuffle of its subtrees' values.

    ``mode="recursive"`` instead evaluates the universal morphism sending
    the one-vertex tree on d to the indexed letter 0:d, exercising the
    generic pre-Lie machinery; both modes agree.
    """
    if mode not in ("direct", "recursive"):
        raise ValueError(f"unknown mode {mode!r}")
    # read in vertex order, so the first bad decoration is the one reported
    names = {dec: _symbol_name(dec) for dec, _ in _nodes(t.root)}
    if mode == "recursive":
        images = {Letter(n): Tensor.of(Word((Letter(n, 0),))) for n in names.values()}
        return universal_eval(_BILETTER_CTX, t, images)
    return _fold(t.root, lambda dec, kids: _headed({Letter(names[dec], len(kids)): 1}, kids))


def universal_eval(
    ctx: ComPreLieContext, t: PartitionedTree, images: Mapping[Letter, Tensor]
) -> Tensor:
    """Evaluate the Com-Pre-Lie morphism fixed by the decoration images.

    A fold of the tree: a node is its decoration's image acting, through
    ``extend_bullet``, on the product of its child blocks' values; the
    nodes of a block combine through the shuffle.
    """

    def image_of_letter(x: Letter):
        if x not in images:
            raise ValueError(f"no image supplied for decoration {x}")
        return images[x].items()

    def node_value(dec, kids: list[Tensor]) -> Tensor:
        pairs = ((dec, 1),) if isinstance(dec, Letter) else dec
        head = Tensor._from_clean(_linear(image_of_letter, pairs))
        if not kids:
            return head
        factors = prod(map(SymTensor.from_tensor, kids), start=SymTensor.unit())
        out = extend_bullet(ctx, SymTensor.from_tensor(head), factors)
        if any(len(m.factors) != 1 for m in out.terms):
            raise ValueError("expected a combination of single words")
        return Tensor._from_clean({m.factors[0]: c for m, c in out.items()})

    return _fold(t.root, node_value)


def phi_into(t: PartitionedTree, ctx: ComPreLieContext) -> Tensor:
    """Evaluate a vector-decorated tree in the word algebra of ``ctx``:
    each linear extension contributes the product of f^fertility applied
    to the vertex decorations, multilinearly.  A fold of the tree, in
    which a node writes f^k of its decoration, k its fertility."""

    def node_value(dec, kids: list[Tensor]) -> Tensor:
        pairs = ((dec, 1),) if isinstance(dec, Letter) else dec
        image = _linear(lambda x: iterate_endo_letter(ctx.f, len(kids), x).items(), pairs)
        return _headed(image, kids)

    return _fold(t.root, node_value)


# ---------------------------------------------------------------------------
# enumeration and rank certificates
# ---------------------------------------------------------------------------

def _grow(n: int, decorations: Sequence[Letter], step) -> list[PartitionedTree]:
    """The trees with ``n`` vertices grown from the one-vertex trees, one
    vertex at a time: ``step(t, d)`` yields the trees that one new
    ``d``-decorated vertex makes from ``t``.  Deduplicated, sorted by
    printed form."""
    if n < 1:
        raise ValueError("trees have at least one vertex")
    level: set[PartitionedTree] = {singleton(d) for d in decorations}
    for _ in range(n - 1):
        level = {g for t in level for d in decorations for g in step(t, d)}
    return sorted(level, key=str)


def _leaf_grafts_or_joins(t: PartitionedTree, d) -> Iterator[PartitionedTree]:
    """A new ``d``-decorated vertex as a leaf in its own block under any
    vertex, or as one more member of any block."""
    leaf = (d, ())
    grown = _rewrites(t.root, lambda b: (*_grafted(b, (leaf,)), b + (leaf,)))
    return map(_from_nested, grown)


def all_partitioned_trees(n: int, decorations: Sequence[Letter]) -> list[PartitionedTree]:
    """Every decorated partitioned tree with ``n`` vertices, canonical and
    deduplicated.  Grown one vertex at a time: a new leaf either starts
    its own block under some vertex or joins an existing block."""
    return _grow(n, decorations, _leaf_grafts_or_joins)


def all_rooted_trees(n: int, decorations: Sequence[Letter]) -> list[PartitionedTree]:
    """Every decorated rooted tree (all blocks singletons) with ``n``
    vertices."""
    return _grow(n, decorations, lambda t, d: _grafts(t, singleton(d)))


def injectivity_rank(degree: int, symbol: str = "d") -> tuple[int, int]:
    """Exact rank of the word images of all rooted trees with ``degree``
    vertices on one symbol; full rank certifies injectivity there."""
    trees = all_rooted_trees(degree, [Letter(symbol)])
    rows = [dict(phi_cpl(t).items()) for t in trees]
    return rank_of(rows), len(trees)
