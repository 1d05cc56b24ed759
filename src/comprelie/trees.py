"""Partitioned trees and the free Com-Pre-Lie algebra they span.

A partitioned tree is a rooted forest together with a partition of its
vertices into blocks; vertices sharing a block are either all roots or
children of one common vertex, and all roots share one block.  Grafting
and the root-block merge make the span of these trees the free
Com-Pre-Lie algebra on the decoration set, and evaluating every linear
extension turns a tree into a combination of words in indexed letters.

A tree is held as its root block in a canonical nested form: a node is
``(decoration, tuple of child blocks)``, a block is a tuple of nodes, and
both are sorted by one comparison, ``_order``, so isomorphic trees compare
equal.  Grafts, joins, the root-block merge and the admissible cuts are
recursions on this form; the word maps are one fold over it, which sums
the linear extensions by shuffling subtrees.  The parent and block
arrays are views derived from it, built only for the public accessors.

Normalising keeps no state: ``_order`` skips a part both sides share, and
a part found in order comes back as the caller's own object, so a result
shares the blocks an operation did not touch, coefficient types and all.
The enumerations build each tree once, already canonical.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from fractions import Fraction
from math import factorial, prod
from operator import is_
from typing import Iterable, Iterator, Mapping, Sequence

from .endo import Endo, letter_iterates
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
    _prepend,
    _set,
    _shuffle_tuples,
    _split_coeff,
    _split_signed,
    _Sum,
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
        return (0, *d._key())
    return (1, tuple((*x._key(), *Fraction(c).as_integer_ratio()) for x, c in d))


def _order(p, q) -> int:
    """-1, 0 or 1 as block ``p`` sorts before, with or after ``q``: node by node,
    by ``_dec_enc`` of the decoration, then child block by child block, a prefix first."""
    if p is q:
        return 0
    for (d, bs), (e, cs) in zip(p, q):
        if d is not e and d != e and (x := _dec_enc(d)) != (y := _dec_enc(e)):
            return -1 if x < y else 1
        if bs is not cs:
            for b, c in zip(bs, cs):
                if r := _order(b, c):
                    return r
            if len(bs) != len(cs):
                return -1 if len(bs) < len(cs) else 1
    return (len(p) > len(q)) - (len(p) < len(q))


_BLOCK_ORDER = functools.cmp_to_key(_order)


def _norm_node(node):
    """``node`` with its child blocks canonical and sorted by ``_order``."""
    bs = node[1]
    if len(bs) == 1:
        kid = _norm_block(bs[0])
        return node if kid is bs[0] else (node[0], (kid,))
    kids = sorted(map(_norm_block, bs), key=_BLOCK_ORDER)
    return node if all(map(is_, kids, bs)) else (node[0], tuple(kids))


def _norm_block(nodes):
    """The block ``nodes`` sorted by ``_order`` at every level, a node as its
    one-node block; a part already canonical comes back as the caller's own."""
    if len(nodes) == 1:
        node = _norm_node(nodes[0]) if nodes[0][1] else nodes[0]
        return nodes if node is nodes[0] else (node,)
    out = sorted(map(_norm_node, nodes), key=lambda node: _BLOCK_ORDER((node,)))
    return nodes if all(map(is_, out, nodes)) else tuple(out)


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
        decorations = list(decorations)
        for i, dec in enumerate(decorations):  # a Letter or a vec of (Letter, rational) pairs
            if isinstance(dec, Letter):
                continue
            if type(dec) is not tuple or not all(
                    type(p) is tuple and len(p) == 2 and isinstance(p[0], Letter)
                    and isinstance(p[1], (int, Fraction)) for p in dec):
                raise TypeError(f"a decoration is a Letter or a vec of exact rationals, got {dec!r}")
            if not all(c for _, c in dec) or len(dict(dec)) != len(dec):
                raise ValueError(f"a vec needs distinct letters and nonzero coefficients: {dec!r}")
            decorations[i] = vec(dict(dec))  # the pairs in vec's order
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
    """The tree on the canonical form of ``root_block``, sharing its canonical parts."""
    return PartitionedTree(_norm_block(root_block))


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


def _dec_str(dec) -> str:
    return str(dec) if isinstance(dec, Letter) else "(" + "+".join(f"{c}*{x}" for x, c in dec) + ")"


def _node_str(dec_text: str, block_texts: Sequence[str]) -> str:
    return dec_text + "[" + ",".join(block_texts) + "]" if block_texts else dec_text


def _block_str(node_texts: Sequence[str]) -> str:
    return node_texts[0] if len(node_texts) == 1 else "{" + ",".join(node_texts) + "}"


def tree_to_str(t: PartitionedTree) -> str:
    def block_str(block) -> str:
        return _block_str([_node_str(_dec_str(dec), [block_str(b) for b in bs]) for dec, bs in block])

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


def _braced(root, branches: tuple) -> Iterator[tuple]:
    """The multi-graft ``root{b1,...,bk}``, not canonical: ``root`` with
    each branch hung under one of its vertices, once per deal.  One branch
    goes under each vertex in vertex-number order; several are hung at the
    highest vertex of the deal first, which keeps the lower numbers."""
    if len(branches) == 1:
        yield from _rewrites(root, lambda b: _grafted(b, branches[0]))
        return
    for deal in itertools.product(range(sum(1 for _ in _nodes(root))), repeat=len(branches)):
        out = root
        for s, i in sorted(zip(deal, range(len(branches))), reverse=True):
            hung = _rewrites(out, lambda b: _grafted(b, branches[i]))
            out = next(itertools.islice(hung, s, None))
        yield out


def _tree_brace(t: PartitionedTree, branches: Sequence[PartitionedTree]) -> list[tuple]:
    """``t{s1,...,sk}`` as (tree, count) pairs, one per distinct graft."""
    grafts = _braced(t.root, tuple(s.root for s in branches))
    return list(Counter(map(_from_nested, grafts)).items())


def graft_at(t: PartitionedTree, s: int, t2: PartitionedTree) -> PartitionedTree:
    """Graft every root of ``t2`` onto vertex ``s`` of ``t``; the blocks of
    both trees survive unchanged."""
    if not 1 <= s <= t.size:
        raise ValueError(f"vertex {s} outside 1..{t.size}")
    return _from_nested(next(itertools.islice(_braced(t.root, (t2.root,)), s - 1, None)))


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
    return map(_from_nested, _braced(t.root, (t2.root,)))


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


def _shuffled(a: dict, b: dict) -> dict:
    """The shuffle of two combinations of letter tuples."""
    return _bilinear(_shuffle_tuples, a.items(), b.items())


def _fold(block, node_value, shuffled=_shuffled):
    """A block's value: the ``shuffled`` product of its nodes' values, a
    node's being ``node_value(decoration, [value of each child block])``.
    Writing each node's letter before the shuffle of its child values sums
    the linear extensions, since a forest's interleave its trees'."""
    values = (node_value(dec, [_fold(b, node_value, shuffled) for b in bs]) for dec, bs in block)
    return functools.reduce(shuffled, values)


def _headed_fold(root, image) -> Tensor:
    """The fold in which a node writes the letter combination
    ``image(decoration, fertility)`` before the shuffle of its child
    values, on letter tuples; each output word is built once."""

    def node_value(dec, kids: list[dict]) -> dict:
        tail = functools.reduce(_shuffled, kids, {(): 1}).items()
        acc = _Sum()
        _prepend(image(dec, len(kids)).items(), tail, acc)
        return acc.result()

    return Tensor._from_clean({Word(w): c for w, c in _fold(root, node_value).items()})


def _hooks(nodes) -> tuple[int, int]:
    """The vertex count under ``nodes`` and the product of the subtree sizes
    of those vertices, by a direct recursion (shallower than the parse's)."""
    size, product = 0, 1
    for _, child_blocks in nodes:
        n, p = _hooks([m for b in child_blocks for m in b])
        size, product = size + n + 1, product * p * (n + 1)
    return size, product


def _tree_map_words(trees: Iterable[PartitionedTree]) -> int:
    """At most how many words the word maps of the trees have: a tree
    writes one word per linear extension, and it has n! / prod(subtree
    sizes) of them (the hook-length formula)."""
    return sum(factorial(n) // p for n, p in (_hooks(t.root) for t in trees))


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
    return _headed_fold(t.root, lambda dec, k: {Letter(names[dec], k): 1})


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

    # node values stay words: those the engine hands back keep their hashes
    return _fold(t.root, node_value, shuffle)


def phi_into(t: PartitionedTree, ctx: ComPreLieContext) -> Tensor:
    """Evaluate a vector-decorated tree in the word algebra of ``ctx``:
    each linear extension contributes the product of f^fertility applied
    to the vertex decorations, multilinearly.  A fold of the tree, in
    which a node writes f^k of its decoration, k its fertility."""

    def pairs(dec) -> tuple:
        return ((dec, 1),) if isinstance(dec, Letter) else dec

    top: dict[Letter, int] = {}  # each letter's highest fertility
    for dec, child_blocks in _nodes(t.root):
        for x, _ in pairs(dec):
            top[x] = max(top.get(x, 0), len(child_blocks))
    # (x, k) -> f^k(x) when nonzero: each power is stepped once per call
    powers = {(x, k): image for x, n in top.items()
              for k, image in zip(range(n + 1), letter_iterates(ctx.f, x))}

    def image(dec, k: int) -> dict:
        return _linear(lambda x: powers.get((x, k), {}).items(), pairs(dec))

    return _headed_fold(t.root, image)


# ---------------------------------------------------------------------------
# enumeration and rank certificates
# ---------------------------------------------------------------------------

def _runs(pool: list, total: int) -> list[tuple]:
    """Each multiset of ``pool`` entries with sizes summing to ``total``, once,
    as columns.  An entry is ``(encoding, size, form, text)`` and the pool is
    sorted by encoding, so each multiset's forms come in canonical order."""
    runs: list[list[tuple]] = [[()]] + [[] for _ in range(total)]
    for entry in reversed(pool):  # runs[t]: those of total t from this entry on
        for t in range(entry[1], total + 1):
            runs[t] += [(entry,) + run for run in runs[t - entry[1]]]
    return [tuple(zip(*run)) or ((), (), (), ()) for run in runs[total]]


def _enumerate(n: int, decorations: Sequence, rooted: bool) -> list[PartitionedTree]:
    """The trees with ``n`` vertices, sorted by printed form.  A node of size k
    is a decoration over blocks of total size k - 1; a block of size k is nodes
    of total size k, drawn from the nodes of size <= k (of size k if rooted)."""
    if n < 1:
        raise ValueError("trees have at least one vertex")
    heads = {_dec_enc(d): (d, _dec_str(d)) for d in decorations}
    node_pool, block_pool, blocks = [], [], []
    for k in range(1, n + 1):
        block_pool = sorted(block_pool + blocks, key=lambda b: b[0])
        nodes = [((e, encs), k, (d, forms), _node_str(text, texts))
                 for encs, _, forms, texts in _runs(block_pool, k - 1) for e, (d, text) in heads.items()]
        node_pool = nodes if rooted else sorted(node_pool + nodes, key=lambda x: x[0])
        blocks = [(encs, k, forms, _block_str(texts)) for encs, _, forms, texts in _runs(node_pool, k)]
    return [PartitionedTree(root) for *_, root, _ in sorted(blocks, key=lambda b: b[3])]


def all_partitioned_trees(n: int, decorations: Sequence[Letter]) -> list[PartitionedTree]:
    """Every decorated partitioned tree with ``n`` vertices, each once."""
    return _enumerate(n, decorations, rooted=False)


def all_rooted_trees(n: int, decorations: Sequence[Letter]) -> list[PartitionedTree]:
    """Every decorated rooted tree (all blocks singletons) with ``n`` vertices."""
    return _enumerate(n, decorations, rooted=True)


def injectivity_rank(degree: int, symbol: str = "d") -> tuple[int, int]:
    """Exact rank of the word images of all rooted trees with ``degree``
    vertices on one symbol; full rank certifies injectivity there."""
    trees = all_rooted_trees(degree, [Letter(symbol)])
    rows = [dict(phi_cpl(t).items()) for t in trees]
    return rank_of(rows), len(trees)
