"""Partitioned trees and the free Com-Pre-Lie algebra they span.

A partitioned tree is a rooted forest together with a partition of its
vertices into blocks; vertices sharing a block are either all roots or
children of one common vertex, and all roots share one block.  Grafting
and the root-block merge make the span of these trees the free
Com-Pre-Lie algebra on the decoration set, and evaluating every linear
extension turns a tree into a combination of words in indexed letters.

Trees are kept in a canonical form: child blocks of every vertex, and
vertices inside every block, are sorted by a recursive encoding, and
vertices are renumbered along a fixed traversal.  Isomorphic trees
therefore compare equal structurally.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Iterable, Mapping, Sequence

from .endo import Endo, iterate_endo_letter
from .enveloping import SymTensor, extend_bullet
from .exactla import rank_of
from .prelie import ComPreLieContext
from .words import (
    Letter,
    Lin,
    Rat,
    Tensor,
    Word,
    _add_into,
    check_coefficient,
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


# nested working form: a node is (decoration, tuple of child blocks), a
# block is a tuple of nodes; both are kept sorted by their encoding


def _norm_node(dec, child_blocks):
    normed = sorted((_norm_block(b) for b in child_blocks), key=lambda p: p[0])
    enc = (_dec_enc(dec), tuple(e for e, _ in normed))
    struct = (dec, tuple(s for _, s in normed))
    return enc, struct


def _norm_block(nodes):
    normed = sorted((_norm_node(dec, bs) for dec, bs in nodes), key=lambda p: p[0])
    enc = tuple(e for e, _ in normed)
    struct = tuple(s for _, s in normed)
    return enc, struct


@dataclass(frozen=True)
class PartitionedTree:
    """Canonical partitioned tree.

    ``decorations[i]`` belongs to vertex i+1, ``parents[i]`` is its parent
    vertex (None for roots) and ``blocks`` lists the partition, root block
    first.  Instances should be produced by :meth:`build`, :func:`parse_tree`
    or the algebra operations, which canonicalize; the raw constructor
    trusts its arguments.
    """

    decorations: tuple
    parents: tuple
    blocks: tuple

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

    @property
    def size(self) -> int:
        return len(self.decorations)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def root_block(self) -> tuple:
        return self.blocks[0]

    def decoration(self, v: int):
        return self.decorations[v - 1]

    def fertility(self, v: int) -> int:
        """Number of blocks hanging directly under vertex ``v``."""
        return sum(1 for b in self.blocks if self.parents[b[0] - 1] == v)

    def is_rooted_tree(self) -> bool:
        return all(len(b) == 1 for b in self.blocks)

    def __str__(self) -> str:
        return tree_to_str(self)

    def _key(self):
        return (self.size, str(self))

    def __lt__(self, other: "PartitionedTree") -> bool:
        if not isinstance(other, PartitionedTree):
            return NotImplemented
        return self._key() < other._key()


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
    _, struct = _norm_block(root_block)
    decorations: list = []
    parents: list = []
    blocks: list = []

    def assign(block_struct, parent: int | None) -> None:
        ids = []
        for dec, _ in block_struct:
            decorations.append(dec)
            parents.append(parent)
            ids.append(len(decorations))
        blocks.append(tuple(ids))
        for vid, (_, child_blocks) in zip(ids, block_struct):
            for cb in child_blocks:
                assign(cb, vid)

    assign(struct, None)
    return PartitionedTree(tuple(decorations), tuple(parents), tuple(blocks))


def singleton(dec) -> PartitionedTree:
    return PartitionedTree((dec,), (None,), ((1,),))


# ---------------------------------------------------------------------------
# tree literals
# ---------------------------------------------------------------------------

_DELIMS = set("[]{},")


def parse_tree(text: str) -> PartitionedTree:
    """Read ``d[child,...]`` / ``{t1,t2}`` notation, e.g. ``a[{b[c],d}]``."""
    pos = 0

    def skip_ws() -> None:
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def parse_name() -> Letter:
        nonlocal pos
        start = pos
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
    nested = _nested_from_arrays(t.decorations, t.parents, t.blocks)

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

    return block_str(nested)


# ---------------------------------------------------------------------------
# the Com-Pre-Lie operations
# ---------------------------------------------------------------------------

def graft_at(t: PartitionedTree, s: int, t2: PartitionedTree) -> PartitionedTree:
    """Graft every root of ``t2`` onto vertex ``s`` of ``t``; the blocks of
    both trees survive unchanged."""
    if not 1 <= s <= t.size:
        raise ValueError(f"vertex {s} outside 1..{t.size}")
    off = t.size
    decorations = t.decorations + t2.decorations
    parents = t.parents + tuple(
        s if p is None else p + off for p in t2.parents
    )
    blocks = t.blocks + tuple(tuple(v + off for v in b) for b in t2.blocks)
    return PartitionedTree.build(decorations, parents, blocks)


def tree_shuffle(t: PartitionedTree, t2: PartitionedTree) -> PartitionedTree:
    """Disjoint union with the two root blocks merged into one."""
    off = t.size
    decorations = t.decorations + t2.decorations
    parents = t.parents + tuple(
        None if p is None else p + off for p in t2.parents
    )
    shifted = tuple(tuple(v + off for v in b) for b in t2.blocks)
    blocks = (t.blocks[0] + shifted[0],) + t.blocks[1:] + shifted[1:]
    return PartitionedTree.build(decorations, parents, blocks)


class TreeTensor(Lin):
    """A finitely supported rational combination of partitioned trees."""

    __slots__ = ()


def free_bullet(a, b) -> TreeTensor:
    """The free pre-Lie product: graft the right operand at every vertex
    of the left one, bilinearly."""
    a, b = TreeTensor._coerce(a), TreeTensor._coerce(b)
    acc: dict[PartitionedTree, Rat] = {}
    for ta, ca in a.items():
        for tb, cb in b.items():
            c = ca * cb
            _add_into(acc, ((graft_at(ta, s, tb), c) for s in range(1, ta.size + 1)))
    return TreeTensor._from_clean(acc)


def shuffle_trees(a, b) -> TreeTensor:
    a, b = TreeTensor._coerce(a), TreeTensor._coerce(b)
    acc: dict[PartitionedTree, Rat] = {}
    for ta, ca in a.items():
        _add_into(acc, ((tree_shuffle(ta, tb), cb) for tb, cb in b.items()), ca)
    return TreeTensor._from_clean(acc)


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


def _symbol_name(dec) -> str:
    if not isinstance(dec, Letter) or dec.shift is not None:
        raise ValueError(f"expected a plain symbol decoration, got {dec!r}")
    return dec.name


_BILETTER_CTX = ComPreLieContext(Endo.biletter_shift())


def phi_cpl(t: PartitionedTree, mode: str = "direct") -> Tensor:
    """The word image of a symbol-decorated tree: one biword per linear
    extension, pairing each vertex's symbol with its fertility.

    ``mode="recursive"`` instead evaluates the universal morphism sending
    the one-vertex tree on d to the indexed letter 0:d, exercising the
    generic pre-Lie machinery; both modes agree.
    """
    if mode == "recursive":
        images = {
            Letter(_symbol_name(dec)): Tensor.of(Word((Letter(_symbol_name(dec), 0),)))
            for dec in t.decorations
        }
        return universal_eval(_BILETTER_CTX, t, images)
    if mode != "direct":
        raise ValueError(f"unknown mode {mode!r}")
    fert = [t.fertility(v) for v in range(1, t.size + 1)]
    names = [_symbol_name(dec) for dec in t.decorations]
    acc: dict[Word, Rat] = {}
    for sigma in linear_extensions(t):
        w = Word(tuple(Letter(names[v - 1], fert[v - 1]) for v in sigma))
        acc[w] = acc.get(w, 0) + 1
    return Tensor(acc)


def _single_factor_tensor(s: SymTensor) -> Tensor:
    if any(len(m.factors) != 1 for m in s.terms):
        raise ValueError("expected a combination of single words")
    return Tensor._from_clean({m.factors[0]: c for m, c in s.items()})


def universal_eval(
    ctx: ComPreLieContext, t: PartitionedTree, images: Mapping[Letter, Tensor]
) -> Tensor:
    """Evaluate the Com-Pre-Lie morphism fixed by the decoration images.

    A single-rooted tree is its root acting on the product of its child
    blocks; several roots split off one at a time through the shuffle.
    """

    def image_of(dec) -> Tensor:
        if isinstance(dec, Letter):
            if dec not in images:
                raise ValueError(f"no image supplied for decoration {dec}")
            return images[dec]
        acc = Tensor()
        for x, c in dec:
            if x not in images:
                raise ValueError(f"no image supplied for decoration {x}")
            acc = acc + images[x].scale(c)
        return acc

    def eval_node(node) -> Tensor:
        dec, child_blocks = node
        head = image_of(dec)
        if not child_blocks:
            return head
        blocks = (SymTensor.from_tensor(eval_block(b)) for b in child_blocks)
        factors = prod(blocks, start=SymTensor.unit())
        head_sym = SymTensor.from_tensor(head)
        return _single_factor_tensor(extend_bullet(ctx, head_sym, factors))

    def eval_block(block) -> Tensor:
        acc = eval_node(block[0])
        for node in block[1:]:
            acc = shuffle(acc, eval_node(node))
        return acc

    return eval_block(_nested_from_arrays(t.decorations, t.parents, t.blocks))


def phi_into(t: PartitionedTree, ctx: ComPreLieContext) -> Tensor:
    """Evaluate a vector-decorated tree in the word algebra of ``ctx``:
    each linear extension contributes the product of f^fertility applied
    to the vertex decorations, multilinearly."""
    fert = [t.fertility(v) for v in range(1, t.size + 1)]

    def letter_image(v: int) -> dict[Letter, Rat]:
        dec = t.decorations[v - 1]
        pairs = ((dec, 1),) if isinstance(dec, Letter) else dec
        acc: dict[Letter, Rat] = {}
        for x, c in pairs:
            _add_into(acc, iterate_endo_letter(ctx.f, fert[v - 1], x).items(), c)
        return acc

    images = {v: letter_image(v) for v in range(1, t.size + 1)}
    acc: dict[Word, Rat] = {}
    for sigma in linear_extensions(t):
        partial: dict[tuple[Letter, ...], Rat] = {(): 1}
        for v in sigma:
            nxt: dict[tuple[Letter, ...], Rat] = {}
            for tup, c in partial.items():
                _add_into(nxt, ((tup + (y,), cy) for y, cy in images[v].items()), c)
            partial = nxt
        _add_into(acc, ((Word(tup), c) for tup, c in partial.items()))
    return Tensor._from_clean(acc)


# ---------------------------------------------------------------------------
# enumeration and rank certificates
# ---------------------------------------------------------------------------

def _with_extra_in_block(t: PartitionedTree, block_index: int, dec) -> PartitionedTree:
    b = t.blocks[block_index]
    parent = t.parents[b[0] - 1]
    new_id = t.size + 1
    blocks = tuple(
        bb + (new_id,) if i == block_index else bb for i, bb in enumerate(t.blocks)
    )
    return PartitionedTree.build(
        t.decorations + (dec,), t.parents + (parent,), blocks
    )


def all_partitioned_trees(n: int, decorations: Sequence[Letter]) -> list[PartitionedTree]:
    """Every decorated partitioned tree with ``n`` vertices, canonical and
    deduplicated.  Grown one vertex at a time: a new leaf either starts
    its own block under some vertex or joins an existing block."""
    if n < 1:
        raise ValueError("trees have at least one vertex")
    level: set[PartitionedTree] = {singleton(d) for d in decorations}
    for _ in range(n - 1):
        nxt: set[PartitionedTree] = set()
        for t in level:
            for d in decorations:
                leaf = singleton(d)
                for s in range(1, t.size + 1):
                    nxt.add(graft_at(t, s, leaf))
                for bi in range(len(t.blocks)):
                    nxt.add(_with_extra_in_block(t, bi, d))
        level = nxt
    return sorted(level, key=lambda t: str(t))


def all_rooted_trees(n: int, decorations: Sequence[Letter]) -> list[PartitionedTree]:
    """Every decorated rooted tree (all blocks singletons) with ``n``
    vertices."""
    if n < 1:
        raise ValueError("trees have at least one vertex")
    level: set[PartitionedTree] = {singleton(d) for d in decorations}
    for _ in range(n - 1):
        nxt: set[PartitionedTree] = set()
        for t in level:
            for d in decorations:
                leaf = singleton(d)
                for s in range(1, t.size + 1):
                    nxt.add(graft_at(t, s, leaf))
        level = nxt
    return sorted(level, key=lambda t: str(t))


def injectivity_rank(degree: int, symbol: str = "d") -> tuple[int, int]:
    """Exact rank of the word images of all rooted trees with ``degree``
    vertices on one symbol; full rank certifies injectivity there."""
    trees = all_rooted_trees(degree, [Letter(symbol)])
    rows = [dict(phi_cpl(t).items()) for t in trees]
    return rank_of(rows), len(trees)
