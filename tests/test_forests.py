"""Forests, admissible cuts, the symmetry pairing, and the t elements."""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import comb, factorial

import pytest

from comprelie import forests
from comprelie.endo import Endo
from comprelie.exactla import rank_of
from comprelie.forests import (
    Forest,
    ForestPoly,
    ck_coproduct,
    delta_cobracket,
    dual_prelie_coeff,
    forest_bullet,
    forest_star,
    n_d,
    pairing,
    parse_forest,
    symmetry_factor,
    t_word,
    y_bracket_check,
)
from comprelie.prelie import ComPreLieContext, prelie
from comprelie.trees import PartitionedTree, _from_nested, _nodes, all_rooted_trees, parse_tree
from comprelie.words import Letter, Tensor, Word, parse_tensor, parse_word

P = parse_tree
F = parse_forest
W = parse_word
LAM = {"a": 2, "b": 3, "c": 5, "d": 7}
AB = [Letter("a"), Letter("b")]


def _forests_totalling(n, trees):
    out = []

    def rec(start, left, acc):
        if left == 0:
            out.append(Forest(tuple(acc)))
            return
        for i in range(start, len(trees)):
            if trees[i].size <= left:
                rec(i, left - trees[i].size, acc + [trees[i]])

    rec(0, n, [])
    return out


def _bump(acc, key, c):
    c2 = acc.get(key, 0) + c
    if c2:
        acc[key] = c2
    else:
        acc.pop(key, None)


def phi_lambda(x, lam):
    """Scale each forest by the eigenvalue sum over its vertices."""
    def weight(f):
        return sum(lam[dec.name] for t in f.trees for dec, _ in _nodes(t.root))

    return ForestPoly({f: c * weight(f) for f, c in ForestPoly._coerce(x).items()})


def tree_projection(x):
    """Keep the single-tree forests; the unit and proper products go to 0."""
    return ForestPoly({f: c for f, c in ForestPoly._coerce(x).items() if f.is_tree()})


# ---------------------------------------------------------------------------
# forests and the pairing
# ---------------------------------------------------------------------------

def test_forest_canonical_and_parse():
    assert F("a[b] * c") == F("c * a[b]")
    assert str(F("a[b] * c")) == "c * a[b]"
    assert F("1").n_vertices == 0
    assert F("a * a[b]").times(F("c")).n_vertices == 4
    for src in ("1", "a", "a[b] * c", "d * d * d[d]"):
        assert F(str(F(src))) == F(src)


def test_a_forest_reads_as_one_term_of_the_combination_grammar():
    # factors are separated by " * " alone, as in ForestPoly.parse: a bare
    # "*" separates nothing, a factor 1 is the unit, and a forest takes no
    # coefficient
    assert ForestPoly.of(F("a * 1")) == ForestPoly.parse("a * 1") == ForestPoly.of(F("a"))
    assert ForestPoly.of(F("{1} * a")) == ForestPoly.parse("{1} * a") != ForestPoly.of(F("a"))
    for text in ("a[b]*c", "2*a", "1/2*a * b"):
        with pytest.raises(ValueError):
            F(text)
    with pytest.raises(ValueError, match="trailing input"):
        ForestPoly.parse("a[b]*c")
    assert ForestPoly.parse("2*a") == ForestPoly.of(F("a"), 2)


def test_forest_validation():
    with pytest.raises(ValueError, match="rooted"):
        Forest.of(P("{a,b}"))
    with pytest.raises(ValueError, match="plain symbols"):
        Forest.of(P("1:a"))


def test_forest_validation_order():
    # a block below the root counts, and the rooted check comes first
    with pytest.raises(ValueError, match="rooted"):
        Forest.of(P("a[b[{c,d}]]"))
    with pytest.raises(ValueError, match="rooted"):
        Forest.of(P("1:a[{b,c}]"))
    with pytest.raises(ValueError, match="plain symbols"):
        Forest((P("a[b]"), P("b[c[2:d]]")))
    with pytest.raises(ValueError, match="rooted"):
        Forest.of(parse_word("ab"))


def test_symmetry_factors():
    assert symmetry_factor(P("a")) == 1
    assert symmetry_factor(P("a[b,b]")) == 2
    assert symmetry_factor(P("a[b,c]")) == 1
    assert symmetry_factor(P("d[d,d,d]")) == 6
    assert symmetry_factor(P("a[b[c]]")) == 1
    assert symmetry_factor(P("a[b[c],b[c]]")) == 2
    assert symmetry_factor(F("d * d")) == 2
    assert symmetry_factor(F("a * b")) == 1
    assert symmetry_factor(F("d[d,d] * d[d,d]")) == 8
    assert symmetry_factor(F("1")) == 1


def test_pairing_diagonal():
    assert pairing(F("a[b]"), F("a[b]")) == 1
    assert pairing(F("a[b]"), F("b[a]")) == 0
    assert pairing(F("d * d"), F("d * d")) == 2
    x = ForestPoly.of(F("d"), 2) + ForestPoly.of(F("d * d"), Fraction(1, 2))
    assert pairing(x, x) == Fraction(9, 2)


# ---------------------------------------------------------------------------
# admissible cuts
# ---------------------------------------------------------------------------

def test_coproduct_single_vertex():
    assert ck_coproduct(P("a")) == {(F("a"), F("1")): 1, (F("1"), F("a")): 1}


def test_coproduct_ladder():
    assert ck_coproduct(P("a[b]")) == {
        (F("a[b]"), F("1")): 1,
        (F("1"), F("a[b]")): 1,
        (F("a"), F("b")): 1,
    }


def test_coproduct_corolla_multiplicity():
    cop = ck_coproduct(P("d[d,d]"))
    assert cop[(F("d[d]"), F("d"))] == 2
    assert cop[(F("d"), F("d * d"))] == 1
    assert len(cop) == 4


def test_coproduct_four_vertex_example():
    t = P("a[b,c[d]]")
    expected = {
        (F("a[b,c[d]]"), F("1")): 1,
        (F("1"), F("a[b,c[d]]")): 1,
        (F("a[c[d]]"), F("b")): 1,
        (F("a[b,c]"), F("d")): 1,
        (F("a[b]"), F("c[d]")): 1,
        (F("a"), F("b * c[d]")): 1,
        (F("a[c]"), F("b * d")): 1,
    }
    assert ck_coproduct(t) == expected


def test_one_edge_cuts_are_the_tree_tree_part_of_the_coproduct():
    # the projected cobracket reads the one-edge cuts in place of the
    # tree (x) tree part of ck_coproduct: same terms, coefficients and order
    for n in range(1, 6):
        for t in all_rooted_trees(n, AB):
            cuts = Counter(
                (Forest.of(_from_nested((k,))), Forest.of(PartitionedTree(c)))
                for k, c in forests._edge_cuts(t.root[0])
            )
            cop = ck_coproduct(t).items()
            assert list(cuts.items()) == [(lr, c) for lr, c in cop if all(f.is_tree() for f in lr)]
            assert sum(cuts.values()) == n - 1


def test_coproduct_coassociative_and_multiplicative():
    pool = [t for m in (1, 2, 3, 4) for t in all_rooted_trees(m, [Letter("d")])]
    forests = [f for n in (1, 2, 3, 4) for f in _forests_totalling(n, pool)]
    for f in forests:
        cop = ck_coproduct(f)
        left, right = {}, {}
        for (l, r), c in cop.items():
            for (x, y), c2 in ck_coproduct(l).items():
                _bump(left, (x, y, r), c * c2)
            for (x, y), c2 in ck_coproduct(r).items():
                _bump(right, (l, x, y), c * c2)
        assert left == right
    for f in forests:
        for g in forests:
            if f.n_vertices + g.n_vertices > 4:
                continue
            prod = {}
            for (l1, r1), c1 in ck_coproduct(f).items():
                for (l2, r2), c2 in ck_coproduct(g).items():
                    _bump(prod, (l1.times(l2), r1.times(r2)), c1 * c2)
            assert ck_coproduct(f.times(g)) == prod


# ---------------------------------------------------------------------------
# grafting operators
# ---------------------------------------------------------------------------

def test_grafting_operator_basics():
    assert n_d(P("a"), "b", LAM) == ForestPoly.of(F("a[b]"), 2)
    assert n_d(F("1"), "d", LAM) == ForestPoly()
    assert phi_lambda(P("a[b]"), LAM) == ForestPoly.of(F("a[b]"), 5)
    with pytest.raises(ValueError, match="no weight"):
        n_d(P("z"), "d", LAM)


def test_grafting_operator_is_derivation():
    lam = {"a": 2, "b": Fraction(1, 3)}
    pool = [t for m in (1, 2, 3) for t in all_rooted_trees(m, AB)]
    forests = [f for n in (1, 2, 3) for f in _forests_totalling(n, pool)]
    for x in forests:
        for y in forests:
            lhs = n_d(x.times(y), "a", lam)
            rhs = n_d(x, "a", lam) * ForestPoly.of(y) + ForestPoly.of(x) * n_d(y, "a", lam)
            assert lhs == rhs


def test_projection_commutes_with_grafting():
    lam = {"d": Fraction(3, 2)}
    x = (
        ForestPoly.of(F("d * d[d]"), 2)
        + ForestPoly.of(F("d[d[d]]"), Fraction(1, 3))
        + ForestPoly.of(F("1"), 5)
        + ForestPoly.of(F("d * d * d"), -1)
    )
    assert n_d(tree_projection(x), "d", lam) == tree_projection(n_d(x, "d", lam))
    pool = [t for m in (1, 2, 3, 4) for t in all_rooted_trees(m, [Letter("d")])]
    for f in [f for n in (1, 2, 3, 4) for f in _forests_totalling(n, pool)]:
        assert n_d(tree_projection(f), "d", lam) == tree_projection(n_d(f, "d", lam))


def test_coproduct_exchange_law():
    lam = {"a": 2, "b": Fraction(1, 3)}
    trees = [t for n in (1, 2, 3) for t in all_rooted_trees(n, AB)]
    for t in trees:
        for d in ("a", "b"):
            lhs = ck_coproduct(n_d(t, d, lam))
            leaf = F(d)
            acc = {}
            for (l, r), c in ck_coproduct(t).items():
                for fl, cl in n_d(l, d, lam).items():
                    _bump(acc, (fl, r), c * cl)
                for fr, cr in n_d(r, d, lam).items():
                    _bump(acc, (l, fr), c * cr)
                for fl, cl in phi_lambda(l, lam).items():
                    _bump(acc, (fl, r.times(leaf)), c * cl)
            assert lhs == acc


# ---------------------------------------------------------------------------
# the t elements
# ---------------------------------------------------------------------------

def test_t_word_small():
    assert t_word("a", LAM) == ForestPoly.of(F("a"))
    assert t_word("ab", LAM) == ForestPoly.of(F("a[b]"), 2)
    assert t_word("abc", LAM) == ForestPoly.of(F("a[b,c]"), 4) + ForestPoly.of(
        F("a[b[c]]"), 6
    )
    with pytest.raises(ValueError):
        t_word("", LAM)


def test_t_word_four_distinct_symbols():
    expected = (
        ForestPoly.of(F("a[b,c,d]"), 8)
        + ForestPoly.of(F("a[c,b[d]]"), 12)
        + ForestPoly.of(F("a[b,c[d]]"), 20)
        + ForestPoly.of(F("a[d,b[c]]"), 12)
        + ForestPoly.of(F("a[b[c,d]]"), 18)
        + ForestPoly.of(F("a[b[c[d]]]"), 30)
    )
    assert t_word("abcd", LAM) == expected


def test_one_symbol_rows():
    lam = {"d": 1}
    assert t_word("d", lam) == ForestPoly.of(F("d"))
    assert t_word("dd", lam) == ForestPoly.of(F("d[d]"))
    assert t_word("ddd", lam) == ForestPoly.of(F("d[d,d]")) + ForestPoly.of(F("d[d[d]]"))
    expected4 = (
        ForestPoly.of(F("d[d,d,d]"))
        + ForestPoly.of(F("d[d,d[d]]"), 3)
        + ForestPoly.of(F("d[d[d,d]]"))
        + ForestPoly.of(F("d[d[d[d]]]"))
    )
    assert t_word("dddd", lam) == expected4


def test_one_symbol_row_five_regression():
    t5 = t_word("ddddd", {"d": 1})
    assert set(t5.support()) == {Forest.of(t) for t in all_rooted_trees(5, [Letter("d")])}
    assert sorted(c for _, c in t5.items()) == [1, 1, 1, 1, 3, 3, 4, 4, 6]
    assert t5.coefficient(F("d[d,d,d,d]")) == 1
    assert t5.coefficient(F("d[d[d[d[d]]]]")) == 1
    assert sum(c for _, c in t5.items()) == 24


# ---------------------------------------------------------------------------
# the cobracket and its dual product
# ---------------------------------------------------------------------------

def test_cobracket_closed_small():
    assert delta_cobracket("a", LAM) == {}
    assert delta_cobracket("ab", LAM) == {(W("a"), W("b")): 2}
    assert delta_cobracket("aab", LAM) == {
        (W("a"), W("ab")): 2,
        (W("aa"), W("b")): 4,
        (W("ab"), W("a")): 2,
    }


def test_cobracket_modes_agree():
    lam = {"a": 2, "b": Fraction(1, 3), "c": -1}
    short = ["".join(t) for n in range(1, 6) for t in itertools.product("ab", repeat=n)]
    for w in ("abc", *short):  # every word of length 1-5 over {a, b}
        closed = delta_cobracket(w, lam, mode="closed")
        assert closed == delta_cobracket(w, lam, mode="projected")


@pytest.mark.parametrize(
    "lam", [{"a": 1, "b": 1}, {"a": 2, "b": Fraction(-1, 3)}, {"a": Fraction(3, 2), "b": 4}]
)
def test_projected_mode_is_the_closed_mode(lam):
    for n in range(1, 6):
        for w in map("".join, itertools.product("ab", repeat=n)):
            assert delta_cobracket(w, lam, mode="projected") == delta_cobracket(w, lam)


def _path_text(w: str) -> str:
    return w[0] + "".join("[" + x for x in w[1:]) + "]" * (len(w) - 1)


def test_a_path_tree_is_in_its_own_t_element_only():
    # chain(x1...xn) = x1 -> ... -> xn has coefficient lambda(x1)...lambda(x(n-1))
    # in t(x1...xn) and is in no other t element of n letters: the projected
    # cobracket reads its coordinates off these trees
    lam = {"a": 2, "b": Fraction(-1, 3), "c": 5}
    for n in range(1, 6):
        ws = ["".join(p) for p in itertools.product("abc", repeat=n)]
        ts = {w: t_word(w, lam) for w in ws}
        for w in ws:
            chain = F(_path_text(w))
            assert forests._chain(W(w).letters) == chain
            path_weight = 1
            for x in w[:-1]:
                path_weight *= lam[x]
            assert ts[w].coefficient(chain) == path_weight
            assert [w2 for w2 in ws if ts[w2].coefficient(chain)] == [w]


@pytest.mark.parametrize(
    "lam", [{"a": 1, "b": 1}, {"a": 2, "b": Fraction(-1, 3)}, {"a": Fraction(3, 2), "b": 4}]
)
def test_projected_coefficients_have_the_closed_types(lam):
    # Fraction(2) == 2, so the equality of the modes cannot see a type
    for n in range(1, 6):
        for w in map("".join, itertools.product("ab", repeat=n)):
            closed = delta_cobracket(w, lam)
            projected = delta_cobracket(w, lam, mode="projected")
            assert [(k, type(c)) for k, c in projected.items()] == [
                (k, type(closed[k])) for k in projected
            ]
            assert projected == closed


def test_the_projected_reconstruction_check_can_fail(monkeypatch):
    edge_cuts = forests._edge_cuts
    dropped: list = []

    def dropping_one(node):
        for cut in edge_cuts(node):
            if dropped:
                yield cut
            else:
                dropped.append(cut)

    # a word of three letters would not do: its subwords' t elements are
    # single paths, so every cut of t_w is read off and rebuilt as it is
    assert delta_cobracket("abab", LAM, mode="projected") == delta_cobracket("abab", LAM)
    monkeypatch.setattr(forests, "_edge_cuts", dropping_one)
    with pytest.raises(RuntimeError, match="outside the t basis"):
        delta_cobracket("abab", LAM, mode="projected")
    assert len(dropped) == 1


def test_t_elements_keep_their_errors():
    lam = {"a": 1, "b": 2}
    with pytest.raises(ValueError, match="no weight supplied for symbol c"):
        t_word("cab", lam)
    # c is only ever grafted, so its weight is never read
    assert t_word("abc", lam) == ForestPoly.of(F("a[b,c]")) + ForestPoly.of(F("a[b[c]]"), 2)
    assert t_word("aba", {"a": 0, "b": 2}) == ForestPoly()
    assert n_d(P("a[b]"), "a", {"a": 0, "b": 0}) == ForestPoly()
    for bad in (1.5, "1"):
        with pytest.raises(TypeError, match="exact rational"):
            t_word("ab", {"a": bad, "b": 1})
        with pytest.raises(TypeError, match="exact rational"):
            n_d(P("a"), "b", {"a": bad, "b": 1})
        with pytest.raises(TypeError, match="exact rational"):
            delta_cobracket("ab", {"a": bad, "b": 1}, mode="projected")
    for zero in ({"a": 0, "b": 1}, {"a": 1, "b": Fraction(0)}):
        with pytest.raises(ValueError, match="nonzero"):
            delta_cobracket("aba", zero, mode="projected")


def test_cobracket_is_dual_to_the_closed_product():
    # the coefficient of (u, v) in delta(t_w) is that of w in u . v
    def words(n):
        return [Word(p) for p in itertools.product(AB, repeat=n)]

    for lam in ({"a": 2, "b": Fraction(1, 3)}, {"a": 0, "b": -1}):
        for n in range(1, 5):
            for w in words(n):
                dual = {
                    (u, v): dual_prelie_coeff(lam, u, v).coefficient(w)
                    for k in range(1, n)
                    for u in words(k)
                    for v in words(n - k)
                }
                assert delta_cobracket(w, lam) == {uv: c for uv, c in dual.items() if c}


def test_cobracket_mode_errors():
    with pytest.raises(ValueError, match="unknown mode"):
        delta_cobracket("ab", LAM, mode="sideways")
    with pytest.raises(ValueError, match="nonzero"):
        delta_cobracket("ab", {"a": 0, "b": 1}, mode="projected")


def _word_monomials(letters):
    """All multisets of nonempty words whose letters are exactly the given
    multiset."""

    def partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for sub in partitions(rest):
            for i in range(len(sub)):
                yield sub[:i] + [[first] + sub[i]] + sub[i + 1:]
            yield [[first]] + sub

    out = set()
    for part in partitions(list(range(len(letters)))):
        for orders in itertools.product(
            *(itertools.permutations(block) for block in part)
        ):
            words = tuple(
                sorted(Word(tuple(letters[i] for i in order)) for order in orders)
            )
            out.add(words)
    return sorted(out)


def test_coproduct_stays_in_t_span():
    lam = {"a": 2, "b": Fraction(1, 3)}
    t_memo = {}

    def t_of(letters):
        if letters not in t_memo:
            t_memo[letters] = t_word(letters, lam) if letters else ForestPoly.of(Forest())
        return t_memo[letters]

    def monomial_poly(words):
        poly = ForestPoly.of(Forest())
        for w in words:
            poly = poly * t_of(w.letters)
        return poly

    for n in (1, 2, 3, 4):
        for letters in itertools.product(AB, repeat=n):
            cop = ck_coproduct(t_of(letters))
            slices = {}
            for (l, r), c in cop.items():
                key = tuple(sorted(d.name for t in l.trees for d in t.decorations))
                slices.setdefault(key, {})[(l, r)] = c
            total = Counter(x.name for x in letters)
            for key, target in slices.items():
                left_letters = tuple(Letter(s) for s in key)
                right_letters = tuple(
                    Letter(s) for s in sorted((total - Counter(key)).elements())
                )
                basis = []
                for mono_l in _word_monomials(left_letters):
                    pl = monomial_poly(mono_l)
                    for mono_r in _word_monomials(right_letters):
                        pr = monomial_poly(mono_r)
                        basis.append(
                            {(f, g): a * b for f, a in pl.items() for g, b in pr.items()}
                        )
                assert rank_of(basis) == rank_of(basis + [target])


def test_dual_product_examples():
    T = parse_tensor
    assert dual_prelie_coeff(LAM, "a", "b") == T("2*ab")
    assert dual_prelie_coeff({"x": Fraction(1, 2)}, "xx", "xx") == T("2*xxxx")
    lam = {"x": Fraction(2, 7)}
    for k, l in ((1, 1), (2, 1), (2, 3), (3, 2)):
        got = dual_prelie_coeff(lam, "x" * k, "x" * l)
        coeff = Fraction(2, 7) * comb(k + l, k - 1)
        assert got == Tensor.of(Word((Letter("x"),) * (k + l)), coeff)


def test_dual_product_matches_diagonal_prelie():
    rng = random.Random(13)
    lam = {"a": Fraction(5, 3), "b": -2}
    ctx = ComPreLieContext(Endo.diagonal(lam))
    pool = [
        Word(tuple(rng.choice(AB) for _ in range(rng.randint(0, 3)))) for _ in range(12)
    ]
    for u in pool:
        for v in pool:
            assert dual_prelie_coeff(lam, u, v) == prelie(ctx, Tensor.of(u), Tensor.of(v))


def test_y_bracket_values():
    computed, expected = y_bracket_check(Fraction(3, 4), 1, 2)
    assert computed == expected
    y3 = Tensor.of(Word((Letter("x"),) * 3), Fraction(24) / Fraction(3, 4))
    assert expected == y3.scale(-1)
    same, want = y_bracket_check(5, 3, 3)
    assert same == want == Tensor()


def test_y_bracket_grid():
    rng = random.Random(99)
    for k in range(1, 5):
        for l in range(1, 5):
            lam = 0
            while lam == 0:
                lam = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            computed, expected = y_bracket_check(lam, k, l)
            assert computed == expected


def test_y_product_coefficient():
    lam = Fraction(5, 7)
    ctx = ComPreLieContext(Endo.diagonal({"x": lam}))

    def y(m):
        return Tensor.of(Word((Letter("x"),) * m), Fraction(factorial(m + 1)) / lam)

    for k, l in ((1, 2), (2, 2), (3, 1), (2, 4)):
        assert prelie(ctx, y(k), y(l)) == y(k + l).scale(Fraction(k * (k + 1), k + l + 1))


def test_y_bracket_errors():
    with pytest.raises(ValueError, match="nonzero"):
        y_bracket_check(0, 1, 2)
    with pytest.raises(ValueError):
        y_bracket_check(1, 0, 2)


# ---------------------------------------------------------------------------
# the enveloping product on forests
# ---------------------------------------------------------------------------

def test_bullet_and_star_small():
    assert forest_bullet(F("a"), F("b")) == ForestPoly.of(F("a[b]"))
    assert forest_bullet(F("a"), F("b * c")) == ForestPoly.of(F("a[b,c]"))
    assert forest_star(F("a"), F("b")) == ForestPoly.of(F("a * b")) + ForestPoly.of(
        F("a[b]")
    )
    assert forest_star(F("d"), F("d")) == ForestPoly.of(F("d * d")) + ForestPoly.of(
        F("d[d]")
    )


def test_star_associative_spot():
    f1, f2, f3 = F("a"), F("b[c]"), F("a * b")
    lhs = forest_star(forest_star(f1, f2), f3)
    rhs = forest_star(f1, forest_star(f2, f3))
    assert lhs == rhs


def test_star_dual_to_coproduct():
    pool = [t for m in (1, 2, 3) for t in all_rooted_trees(m, AB)]
    by_size = {n: _forests_totalling(n, pool) for n in (1, 2, 3)}
    cop_memo = {}

    def cop(c):
        if c not in cop_memo:
            cop_memo[c] = ck_coproduct(c)
        return cop_memo[c]

    for na in (1, 2):
        for nb in range(1, 4 - na):
            for a in by_size[na]:
                for b in by_size[nb]:
                    star = forest_star(a, b)
                    for c in by_size[na + nb]:
                        rhs = sum(
                            coeff * pairing(a, l) * pairing(b, r)
                            for (l, r), coeff in cop(c).items()
                        )
                        assert pairing(star, c) == rhs
    assert pairing(forest_star(F("1"), F("d")), F("d")) == 1


def test_projected_cobracket_builds_each_t_word_once(monkeypatch):
    w = W("abab")
    n = len(w)
    subwords = {
        tuple(w[i] for i in s) for k in range(2, n + 1) for s in itertools.combinations(range(n), k)
    }
    expected = sorted(str(t_word(u, LAM)) for u in subwords)
    calls: list = []
    graft_leaf = forests._graft_leaf

    def counting(x, leaf, wmap):
        out = graft_leaf(x, leaf, wmap)
        calls.append(str(out))
        return out

    def refused(*args):
        raise AssertionError("the projected mode takes no admissible cut")

    monkeypatch.setattr(forests, "_graft_leaf", counting)
    monkeypatch.setattr(forests, "ck_coproduct", refused)
    monkeypatch.setattr(forests, "_cuts", refused)
    delta_cobracket(w, LAM, mode="projected")
    # one graft per distinct subword of two letters or more, the word itself
    # included, each building that subword's t element
    assert len(subwords) == 9
    assert sorted(calls) == expected
