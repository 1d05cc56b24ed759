"""Partitioned trees, grafting, linear extensions and the word images."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from comprelie.admissible import is_admissible, is_sigma_admissible
from comprelie.endo import Endo, iterate_endo_letter
from comprelie.enveloping import SymMonomial, extend_bullet
from comprelie.exactla import rank_of
from comprelie.prelie import (
    ComPreLieContext,
    _letterwise,
    induced_morphism,
    prelie,
    specialization_map,
)
from comprelie.trees import (
    PartitionedTree,
    TreeTensor,
    all_partitioned_trees,
    all_rooted_trees,
    free_bullet,
    graft_at,
    injectivity_rank,
    linear_extensions,
    parse_tree,
    phi_cpl,
    phi_into,
    shuffle_trees,
    singleton,
    tree_shuffle,
    universal_eval,
    vec,
)
from comprelie.words import Letter, Tensor, Word, _linear, parse_tensor, shuffle

T = parse_tensor
P = parse_tree
D_CTX = ComPreLieContext(Endo.biletter_shift())


# ---------------------------------------------------------------------------
# canonical form and parsing
# ---------------------------------------------------------------------------

def test_canonical_equalities():
    assert P("{b,a}") == P("{a,b}")
    assert P("a[b,c]") == P("a[c,b]")
    assert P("a[{b,c}]") == P("a[{c,b}]")
    assert P("a[b]") != P("b[a]")
    assert P("a[{b,c}]") != P("a[b,c]")
    assert P("{a[c],b}") == P("{b,a[c]}")


def test_parse_str_round_trip():
    for src in ("a", "a[b]", "a[{b,c}]", "{a[c],b[d]}", "a[{b[c],d}]", "a[b,c,d]"):
        t = P(src)
        assert P(str(t)) == t


def test_vector_decorations_read_back():
    # every tree on 1-4 vertices over a letter and two vectors, one with a
    # negative fraction (printed "+-1/3") and one with a shifted letter
    a, b = Letter("a"), Letter("b")
    decs = [a, vec({a: 2, b: Fraction(-1, 3)}), vec({Letter("b", 1): Fraction(4)})]
    trees = [t for n in range(1, 5) for t in all_partitioned_trees(n, decs)]
    assert len(trees) > 100 and any("+-1/3*b" in str(t) for t in trees)
    for t in trees:
        assert P(str(t)) == t, str(t)
    t = PartitionedTree.build((vec({a: 2, b: Fraction(1, 2)}), Letter("c")), (None, 1), ((1,), (2,)))
    assert str(t) == "(2*a+1/2*b)[c]"
    assert P("(2*a+1/2*b)[c]") == P(" ( 2*a + b - 1/2*b + 0*a )[ c ]") == t
    assert TreeTensor.parse("3*(2*a+1/2*b)[c] - (2*a+1/2*b)[c]") == TreeTensor({t: 2})


def test_parse_errors():
    for bad in ("", "a[b", "{a,b", "a[b]]", "a[,b]", "{}", "a b", "(2*a", "(2*a+)[b]", "(a+b"):
        with pytest.raises(ValueError):
            P(bad)


def test_build_validation():
    a, b = Letter("a"), Letter("b")
    with pytest.raises(ValueError, match="cycle"):
        PartitionedTree.build((a, b), (2, 1), ((1,), (2,)))
    with pytest.raises(ValueError, match="partition"):
        PartitionedTree.build((a, b), (None, 1), ((1,),))
    with pytest.raises(ValueError, match="mixes"):
        PartitionedTree.build((a, b), (None, 1), ((1, 2),))
    with pytest.raises(ValueError, match="one block"):
        PartitionedTree.build((a, b), (None, None), ((1,), (2,)))
    with pytest.raises(ValueError, match="at least one vertex"):
        PartitionedTree.build((), (), ())


def test_shape_accessors():
    t = P("a[{b[c],d}]")
    assert t.size == 4
    assert t.n_blocks == 3
    assert len(t.root_block) == 1
    root = t.root_block[0]
    assert t.decoration(root) == Letter("a")
    assert t.fertility(root) == 1
    assert not t.is_rooted_tree()
    assert P("a[b,c]").is_rooted_tree()


# ---------------------------------------------------------------------------
# grafting and root-block shuffle
# ---------------------------------------------------------------------------

def test_graft_sizes_and_blocks():
    t, t2 = P("a[{b,c}]"), P("{x,y}")
    g = graft_at(t, 1, t2)
    assert g.size == t.size + t2.size
    assert g.n_blocks == t.n_blocks + t2.n_blocks


def test_graft_onto_singleton():
    assert graft_at(singleton(Letter("a")), 1, P("{b,c}")) == P("a[{b,c}]")
    assert graft_at(singleton(Letter("a")), 1, P("b[c]")) == P("a[b[c]]")


def test_three_graftings_of_block_tree():
    # grafting a leaf on the 3-vertex one-block-child tree: the two block
    # vertices are interchangeable, so three sites give two shapes
    h31 = P("d[{d,d}]")
    leaf = P("d")
    results = [graft_at(h31, s, leaf) for s in (1, 2, 3)]
    assert len(set(results)) == 2
    assert results[1] == results[2]
    # grafting at the root matches grafting the 2-block on a ladder root
    assert results[0] == graft_at(P("d[d]"), 1, P("{d,d}"))


def test_two_graftings_of_ladder_with_block():
    ladder, block = P("d[d]"), P("{d,d}")
    at_root = graft_at(ladder, 1, block)
    at_leaf = graft_at(ladder, 2, block)
    assert at_root != at_leaf
    assert at_leaf == P("d[d[{d,d}]]")
    assert at_root == P("d[d,{d,d}]")


def test_graft_invalid_vertex():
    with pytest.raises(ValueError):
        graft_at(P("a"), 0, P("b"))
    with pytest.raises(ValueError):
        graft_at(P("a"), 2, P("b"))


def test_shuffle_merges_root_blocks():
    assert tree_shuffle(P("d[d,d]"), P("d")) == P("{d[d,d],d}")
    pairs = [(P("a[b]"), P("{c,e}")), (P("{a,b}"), P("c[d]")), (P("a"), P("b"))]
    for t, t2 in pairs:
        assert tree_shuffle(t, t2) == tree_shuffle(t2, t)
        assert tree_shuffle(t, t2).n_blocks == t.n_blocks + t2.n_blocks - 1


# ---------------------------------------------------------------------------
# the free Com-Pre-Lie algebra
# ---------------------------------------------------------------------------

def test_bullet_smallest_cases():
    a, b = singleton(Letter("a")), singleton(Letter("b"))
    assert free_bullet(a, b) == TreeTensor.of(P("a[b]"))
    two = free_bullet(P("a[b]"), P("c"))
    assert two == TreeTensor.of(P("a[b,c]")) + TreeTensor.of(P("a[b[c]]"))


def test_tree_tensor_arithmetic():
    t = TreeTensor.of(P("a"), 2)
    assert (t - t) == TreeTensor()
    assert not (t - t)
    assert t.scale(Fraction(1, 2)).coefficient(P("a")) == 1
    with pytest.raises(TypeError):
        TreeTensor.of(P("a"), 0.5)


def test_free_algebra_axioms_on_samples():
    pool = all_partitioned_trees(1, [Letter("a"), Letter("b")]) + \
        all_partitioned_trees(2, [Letter("a"), Letter("b")]) + \
        all_partitioned_trees(3, [Letter("a"), Letter("b")])
    rng = random.Random(5)
    for _ in range(8):
        x, y, z = (TreeTensor.of(rng.choice(pool)) for _ in range(3))
        # the shuffle is derived over by grafting
        lhs = free_bullet(shuffle_trees(x, y), z)
        rhs = shuffle_trees(free_bullet(x, z), y) + shuffle_trees(x, free_bullet(y, z))
        assert lhs == rhs
        # right pre-Lie identity
        d1 = free_bullet(free_bullet(x, y), z) - free_bullet(x, free_bullet(y, z))
        d2 = free_bullet(free_bullet(x, z), y) - free_bullet(x, free_bullet(z, y))
        assert d1 == d2


# ---------------------------------------------------------------------------
# linear extensions
# ---------------------------------------------------------------------------

def test_extension_counts():
    assert len(linear_extensions(P("a"))) == 1
    assert len(linear_extensions(P("a[b[c[d]]]"))) == 1
    assert len(linear_extensions(P("a[b,c,d]"))) == 6
    assert len(linear_extensions(P("{a[c],b[d]}"))) == 6
    assert len(linear_extensions(P("a[{b,c}]"))) == 2


def test_extensions_are_topological():
    t = P("a[{b[c],d}]")
    for sigma in linear_extensions(t):
        position = {v: i for i, v in enumerate(sigma)}
        for v in range(1, t.size + 1):
            p = t.parents[v - 1]
            if p is not None:
                assert position[p] < position[v]


# ---------------------------------------------------------------------------
# word images
# ---------------------------------------------------------------------------

def test_phi_examples_three_vertices():
    assert phi_cpl(P("a[b]")) == T("1:a.0:b")
    assert phi_cpl(P("a[b[c]]")) == T("1:a.1:b.0:c")
    assert phi_cpl(P("a[b,c]")) == T("2:a.0:b.0:c + 2:a.0:c.0:b")
    assert phi_cpl(P("{a[b],c}")) == T("1:a.0:b.0:c + 1:a.0:c.0:b + 0:c.1:a.0:b")


def test_phi_examples_four_vertices():
    corolla = phi_cpl(P("a[b,c,d]"))
    assert all(w[0] == Letter("a", 3) for w in corolla.support())
    assert len(corolla.support()) == 6
    assert phi_cpl(P("a[b[c],d]")) == T(
        "2:a.1:b.0:c.0:d + 2:a.1:b.0:d.0:c + 2:a.0:d.1:b.0:c"
    )
    assert phi_cpl(P("a[b[c,d]]")) == T("1:a.2:b.0:c.0:d + 1:a.2:b.0:d.0:c")
    assert phi_cpl(P("a[{b[c],d}]")) == T(
        "1:a.1:b.0:c.0:d + 1:a.1:b.0:d.0:c + 1:a.0:d.1:b.0:c"
    )
    assert phi_cpl(P("{a[c],b[d]}")) == T(
        "1:a.0:c.1:b.0:d + 1:a.1:b.0:c.0:d + 1:a.1:b.0:d.0:c"
        " + 1:b.0:d.1:a.0:c + 1:b.1:a.0:c.0:d + 1:b.1:a.0:d.0:c"
    )
    assert phi_cpl(P("a[b[c[d]]]")) == T("1:a.1:b.1:c.0:d")


def test_phi_kernel_witness():
    h13 = phi_cpl(P("{d[d],d[d]}"))
    h4 = phi_cpl(P("d[{d[d],d}]"))
    assert h13 - h4.scale(2) == Tensor()
    assert h13 != Tensor()


def test_phi_recursive_matches_direct():
    for t in all_partitioned_trees(3, [Letter("a"), Letter("b")]):
        assert phi_cpl(t, mode="recursive") == phi_cpl(t, mode="direct")
    for n in range(1, 5):
        for t in all_partitioned_trees(n, [Letter("d")]):
            assert phi_cpl(t, mode="recursive") == phi_cpl(t, mode="direct")
    with pytest.raises(ValueError):
        phi_cpl(P("a"), mode="sideways")


def test_phi_is_a_morphism():
    symbols = [Letter("a"), Letter("b")]
    pool = [t for n in (1, 2, 3) for t in all_partitioned_trees(n, symbols)]
    phi_memo: dict[PartitionedTree, Tensor] = {}

    def phi(x: TreeTensor) -> Tensor:
        acc = Tensor()
        for t, c in x.items():
            img = phi_memo.get(t)
            if img is None:
                img = phi_memo[t] = phi_cpl(t)
            acc = acc + img.scale(c)
        return acc

    base = {t: phi_cpl(t) for t in pool}
    for t in pool:
        for t2 in pool:
            assert phi(TreeTensor.of(tree_shuffle(t, t2))) == shuffle(
                base[t], base[t2]
            )
            assert phi(free_bullet(t, t2)) == prelie(D_CTX, base[t], base[t2])


def test_phi_images_are_admissible():
    for n in range(1, 5):
        for t in all_partitioned_trees(n, [Letter("d")]):
            img = phi_cpl(t)
            for w in img.support():
                upper = tuple(x.shift for x in w)
                assert is_sigma_admissible(upper)
                assert sum(upper) == t.n_blocks - 1
            if t.is_rooted_tree():
                for w in img.support():
                    assert is_admissible(tuple(x.shift for x in w))


def test_psi_relation_in_the_word_algebra():
    x0, x1 = Letter("d", 0), Letter("d", 1)
    corolla_img = extend_bullet(
        D_CTX, SymMonomial.of(Word((x0,))), SymMonomial.of(Word((x0,)), Word((x0,)))
    )
    lhs = Tensor({m.factors[0]: c for m, c in corolla_img.items()})
    rhs = prelie(D_CTX, Tensor.of(Word((x1,))), Tensor.of(Word((x0, x0)))).scale(2)
    assert lhs == rhs
    assert lhs == T("2:d.0:d.0:d").scale(2)


# ---------------------------------------------------------------------------
# evaluation into a concrete word algebra
# ---------------------------------------------------------------------------

FRAC = Endo.matrix(
    ["a", "b"], [[1, Fraction(1, 2)], [Fraction(-1, 3), 2]]
)


def test_phi_into_basics():
    ctx = ComPreLieContext(FRAC)
    a, b = Letter("a"), Letter("b")
    assert phi_into(singleton(a), ctx) == T("a")
    assert phi_into(singleton(vec({a: 2, b: 1})), ctx) == T("2*a + b")
    # a ladder applies f once to its root
    ladder = graft_at(singleton(a), 1, singleton(b))
    assert phi_into(ladder, ctx) == T("a.b - 1/3*b.b")
    # a two-root block symmetrizes, independently of f
    block = tree_shuffle(singleton(a), singleton(b))
    assert phi_into(block, ctx) == T("a.b + b.a")


def test_phi_into_factors_through_word_image():
    ctx = ComPreLieContext(FRAC)
    spec_map = specialization_map(FRAC, {"p": "a", "q": "b"})
    for n in (1, 2, 3):
        for t in all_partitioned_trees(n, [Letter("p"), Letter("q")]):
            relabeled = PartitionedTree.build(
                tuple(Letter({"p": "a", "q": "b"}[d.name]) for d in t.decorations),
                t.parents,
                t.blocks,
            )
            direct = phi_into(relabeled, ctx)
            assert direct == induced_morphism(spec_map, phi_cpl(t))


def test_phi_into_matches_universal_eval():
    ctx = ComPreLieContext(FRAC)
    images = {x: Tensor.of(Word((x,))) for x in FRAC.alphabet}
    for n in (1, 2, 3):
        for t in all_partitioned_trees(n, [Letter("a"), Letter("b")]):
            assert phi_into(t, ctx) == universal_eval(ctx, t, images)


def test_universal_eval_missing_image():
    ctx = ComPreLieContext(FRAC)
    with pytest.raises(ValueError, match="no image"):
        universal_eval(ctx, P("z"), {})


# ---------------------------------------------------------------------------
# enumeration and rank certificates
# ---------------------------------------------------------------------------

def test_tree_counts():
    d = [Letter("d")]
    assert [len(all_rooted_trees(n, d)) for n in range(1, 6)] == [1, 1, 2, 4, 9]
    assert [len(all_partitioned_trees(n, d)) for n in range(1, 5)] == [1, 2, 5, 14]


def test_injectivity_ranks():
    assert injectivity_rank(1) == (1, 1)
    assert injectivity_rank(3) == (2, 2)
    assert injectivity_rank(4) == (4, 4)
    assert injectivity_rank(5) == (9, 9)


def test_surjectivity_rank_invertible():
    f = Endo.matrix(["a", "b"], [[1, 1], [0, 1]])
    ctx = ComPreLieContext(f)
    letters = [Letter("a"), Letter("b")]
    ladders = [
        graft_at(singleton(v), 1, singleton(w)) for v in letters for w in letters
    ]
    rows = [dict(phi_into(t, ctx).items()) for t in ladders]
    assert rank_of(rows) == 4


def test_surjectivity_rank_codimension_two():
    letters = [Letter(x) for x in "abcd"]
    f = Endo.diagonal({x: 1 if x.name in "ab" else 0 for x in letters})
    ctx = ComPreLieContext(f)
    degree2 = [
        graft_at(singleton(v), 1, singleton(w)) for v in letters for w in letters
    ] + [
        tree_shuffle(singleton(v), singleton(w))
        for v, w in itertools.combinations_with_replacement(letters, 2)
    ]
    rows = [dict(phi_into(t, ctx).items()) for t in degree2]
    assert rank_of(rows) == 15


def test_sorting_prints_each_tree_once(monkeypatch):
    # the printed form is the sort key; it is computed once per tree
    import comprelie.trees as trees_mod

    printed = []
    real = trees_mod.tree_to_str

    def counting(t):
        printed.append(t)
        return real(t)

    monkeypatch.setattr(trees_mod, "tree_to_str", counting)
    pool = [parse_tree(s) for s in ("a", "a[b]", "{a,b}", "a[b,c]", "a[{b,c}]", "b[a[c]]")]
    combo = TreeTensor({t: k + 1 for k, t in enumerate(pool)})
    assert combo.sorted_items() == combo.sorted_items()
    assert len(printed) == len(pool)


def test_kernels_never_validate(monkeypatch):
    # canonical trees are made on the nested form; only outside input
    # goes through the validating constructor
    from comprelie.forests import Forest, ck_coproduct, forest_star, symmetry_factor, t_word

    calls = []
    real = PartitionedTree.build.__func__

    def counting(cls, *args):
        calls.append(args)
        return real(cls, *args)

    a, b = Letter("a"), Letter("b")
    t, t2 = P("a[{b,c[d]}]"), P("{a,b[c]}")
    f, g = Forest((P("a[b]"), P("b"))), Forest((P("a[b,c]"),))
    monkeypatch.setattr(PartitionedTree, "build", classmethod(counting))
    all_partitioned_trees(4, [a, b])
    free_bullet(t, t2)
    tree_shuffle(t, t2)
    forest_star(f, g)
    ck_coproduct(P("a[b[c],d]"))
    t_word("abab", {"a": 2, "b": 3})
    symmetry_factor(P("a[b,b[c,c]]"))
    assert calls == []


# ---------------------------------------------------------------------------
# reference: grafting, the root-block merge and admissible cuts on the
# parent/block arrays, each result validated by ``build``
# ---------------------------------------------------------------------------

def _ref_graft_at(t, s, t2):
    off = t.size
    decorations = t.decorations + t2.decorations
    parents = t.parents + tuple(s if p is None else p + off for p in t2.parents)
    blocks = t.blocks + tuple(tuple(v + off for v in b) for b in t2.blocks)
    return PartitionedTree.build(decorations, parents, blocks)


def _ref_tree_shuffle(t, t2):
    off = t.size
    decorations = t.decorations + t2.decorations
    parents = t.parents + tuple(None if p is None else p + off for p in t2.parents)
    shifted = tuple(tuple(v + off for v in b) for b in t2.blocks)
    blocks = (t.blocks[0] + shifted[0],) + t.blocks[1:] + shifted[1:]
    return PartitionedTree.build(decorations, parents, blocks)


def _ref_part(t, vertices):
    vs = sorted(vertices)
    index = {v: i + 1 for i, v in enumerate(vs)}
    parents = tuple(None if t.parents[v - 1] is None else index.get(t.parents[v - 1]) for v in vs)
    return PartitionedTree.build(
        tuple(t.decorations[v - 1] for v in vs), parents, tuple((i,) for i in range(1, len(vs) + 1))
    )


def _ref_tree_coproduct(t):
    from comprelie.forests import Forest

    kids = {v: [] for v in range(1, t.size + 1)}
    for v, p in enumerate(t.parents, start=1):
        if p is not None:
            kids[p].append(v)

    def descendants(v):
        out, stack = [], [v]
        while stack:
            u = stack.pop()
            out.append(u)
            stack.extend(kids[u])
        return out

    nonroot = [v for v in range(1, t.size + 1) if t.parents[v - 1] is not None]
    below_edge = {v: descendants(v) for v in nonroot}
    out = {(Forest(), Forest.of(t)): 1}
    for k in range(len(nonroot) + 1):
        for cut in itertools.combinations(nonroot, k):
            branches = [below_edge[v] for v in cut]
            below = {u for br in branches for u in br}
            if len(below) < sum(map(len, branches)):
                continue  # one cut edge lies below another
            trunk = _ref_part(t, (v for v in range(1, t.size + 1) if v not in below))
            key = (Forest.of(trunk), Forest(tuple(_ref_part(t, br) for br in branches)))
            out[key] = out.get(key, 0) + 1
    return out


def test_nested_operations_match_the_array_reference():
    from comprelie.forests import tree_coproduct

    ab = [Letter("a"), Letter("b")]
    trees = [t for n in range(1, 5) for t in all_partitioned_trees(n, ab)]
    small = [t for t in trees if t.size <= 2]
    for t in trees:
        assert PartitionedTree.build(t.decorations, t.parents, t.blocks) == t
        for t2 in small:
            assert tree_shuffle(t, t2) == _ref_tree_shuffle(t, t2)
            for s in range(1, t.size + 1):
                g = graft_at(t, s, t2)
                assert g == _ref_graft_at(t, s, t2)
                assert PartitionedTree.build(g.decorations, g.parents, g.blocks) == g
    for t in (t for n in range(1, 6) for t in all_rooted_trees(n, ab)):
        assert tree_coproduct(t) == _ref_tree_coproduct(t)


# ---------------------------------------------------------------------------
# reference: the word images as sums over linear extensions on the
# vertex-numbered arrays; the library folds the nested form instead
# ---------------------------------------------------------------------------

def _ref_phi_cpl(t):
    fert = [t.fertility(v) for v in range(1, t.size + 1)]
    names = [dec.name for dec in t.decorations]
    acc = {}
    for sigma in linear_extensions(t):
        w = Word(tuple(Letter(names[v - 1], fert[v - 1]) for v in sigma))
        acc[w] = acc.get(w, 0) + 1
    return Tensor(acc)


def _ref_phi_into(t, ctx):
    fert = [t.fertility(v) for v in range(1, t.size + 1)]

    def letter_image(v):
        dec = t.decorations[v - 1]
        pairs = ((dec, 1),) if isinstance(dec, Letter) else dec
        return _linear(lambda x: iterate_endo_letter(ctx.f, fert[v - 1], x).items(), pairs)

    images = {v: letter_image(v) for v in range(1, t.size + 1)}
    acc = {}
    for sigma in linear_extensions(t):
        for w, c in _letterwise(images[v] for v in sigma).items():
            acc[w] = acc.get(w, 0) + c
    return Tensor(acc)


def test_folds_match_the_linear_extension_reference():
    ctx = ComPreLieContext(FRAC)
    a, b = Letter("a"), Letter("b")
    trees = [t for n in range(1, 6) for t in all_partitioned_trees(n, [a, b])]
    assert len(trees) == 1160
    for t in trees:
        ref = _ref_phi_cpl(t)
        assert phi_cpl(t) == ref
        assert phi_cpl(t, mode="recursive") == ref
        assert phi_into(t, ctx) == _ref_phi_into(t, ctx)
    mixed = [a, vec({a: 2, b: Fraction(-1, 3)})]
    for t in (t for n in range(1, 5) for t in all_partitioned_trees(n, mixed)):
        assert phi_into(t, ctx) == _ref_phi_into(t, ctx)


def test_maps_never_build_the_arrays(monkeypatch):
    # the maps read the nested form; the parent and block arrays are
    # built only for the public accessors, build and graft_at's index
    from comprelie.forests import (
        Forest,
        ck_coproduct,
        delta_cobracket,
        forest_star,
        n_d,
        phi_lambda,
        t_word,
    )

    from comprelie import trees

    built = []
    real = trees._arrays_of

    def counting(root):
        built.append(PartitionedTree(root))
        return real(root)

    monkeypatch.setattr(trees, "_arrays_of", counting)
    lam = {"a": 2, "b": 3}
    ctx = ComPreLieContext(FRAC)
    t = P("a[{b[a],a},b]")
    phi_cpl(P("{a[b],b[{a,b}]}"))
    phi_cpl(P("{a[b],a[{a,b}]}"), mode="recursive")
    phi_into(t, ctx)
    universal_eval(ctx, P("b[{a[b],a}]"), {x: Tensor.of(Word((x,))) for x in FRAC.alphabet})
    injectivity_rank(4)
    tw = t_word("abba", lam)
    n_d(tw, "a", lam)
    phi_lambda(tw, lam)
    delta_cobracket("aab", lam, mode="closed")
    delta_cobracket("bab", lam, mode="projected")
    forest_star(Forest((P("a[b]"), P("b"))), Forest((P("b[a,a]"),)))
    ck_coproduct(P("b[a[b],a]"))
    assert built == []
    assert phi_into(t, ctx) == _ref_phi_into(t, ctx) and built == [t]


# ---------------------------------------------------------------------------
# the memo of canonical block encodings
# ---------------------------------------------------------------------------

def _scrambled(block, rng):
    """``block`` with its nodes, and every node's child blocks, in random
    order at every level: equal as a tree, not canonical as a tuple."""
    nodes = [(dec, tuple(_scrambled(b, rng) for b in bs)) for dec, bs in block]
    rng.shuffle(nodes)
    return tuple((dec, tuple(rng.sample(bs, len(bs)))) for dec, bs in nodes)


def _warm_and_cold(raws):
    from comprelie import trees

    warm = [trees._from_nested(raw) for raw in raws]
    cold = []
    for raw in raws:
        trees._ENCODINGS.clear()
        cold.append(trees._from_nested(raw))
    return warm, cold


def test_warm_memo_normalises_like_an_empty_one():
    rng = random.Random(11)
    a, b = Letter("a"), Letter("b")
    plain = [t for n in range(1, 6) for t in all_partitioned_trees(n, [a, b])]
    mixed = [
        PartitionedTree.build(t.decorations, t.parents, t.blocks)
        for n in range(1, 5)
        for t in all_partitioned_trees(n, [a, vec({a: 2, b: Fraction(-1, 3)}), vec({b: Fraction(4)})])
    ]
    for expected in (plain, mixed):
        warm, cold = _warm_and_cold([_scrambled(t.root, rng) for t in expected])
        assert warm == cold == expected
        assert [repr(t.root) for t in warm] == [repr(t.root) for t in cold]


def test_memo_hit_keeps_the_callers_coefficient_types():
    from comprelie import trees

    a, b = Letter("a"), Letter("b")
    two, two_q = vec({a: 2}), vec({a: Fraction(2)})
    assert two == two_q

    def coeff_types(t):
        return [type(c) for dec, _ in trees._nodes(t.root) if not isinstance(dec, Letter) for _, c in dec]

    for first, second in ((two_q, two), (two, two_q)):
        trees._ENCODINGS.clear()
        for dec in (first, second):
            t = PartitionedTree.build((dec,), (None,), ((1,),))
            assert coeff_types(t) == [type(dec[0][1])]
        for dec in (first, second):
            t = PartitionedTree.build((b, dec), (None, 1), ((1,), (2,)))
            assert coeff_types(t) == [type(dec[0][1])]
            g = graft_at(singleton(a), 1, t)
            assert coeff_types(g) == [type(dec[0][1])]


def test_memo_stays_under_its_bound(monkeypatch):
    from comprelie import trees

    ab = [Letter("a"), Letter("b")]
    expected = [t for n in range(1, 5) for t in all_partitioned_trees(n, ab)]
    sizes = []
    real = trees._norm_block

    def watched(nodes):
        out = real(nodes)
        sizes.append(len(trees._ENCODINGS))
        return out

    monkeypatch.setattr(trees, "_ENCODINGS_BOUND", 8)
    monkeypatch.setattr(trees, "_ENCODINGS", {})
    monkeypatch.setattr(trees, "_norm_block", watched)
    got = [t for n in range(1, 5) for t in all_partitioned_trees(n, ab)]
    assert len(got) > 8 and max(sizes) == 8
    assert got == expected
    assert [repr(t.root) for t in got] == [repr(t.root) for t in expected]


def test_graft_shares_the_blocks_it_did_not_touch():
    # vertex 1 is the first root node; the other root nodes' child blocks
    # are untouched and must be held by reference, not re-normalised
    from comprelie import trees

    t = P("{a[b[c]],a[{b,c}],b[a,c[{a,b}]]}")
    t2 = P("c[b]")
    untouched = [blk for _, bs in t.root[1:] for blk in bs]

    def held(g):
        return {id(blk) for _, bs in g.root for blk in bs}

    g = graft_at(t, 1, t2)
    assert g == _ref_graft_at(t, 1, t2)
    assert untouched and all(id(blk) in held(g) for blk in untouched)
    assert id(t2.root) in held(g)
    # control: normalised from an empty memo, nothing is shared
    trees._ENCODINGS.clear()
    cold = graft_at(t, 1, t2)
    assert cold == g
    assert not any(id(blk) in held(cold) for blk in untouched)
