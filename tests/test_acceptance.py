"""Acceptance gate: one aggregate test per release criterion.

Each test collects every check its criterion lists, all with exact
rational arithmetic (zero tolerance), so `pytest -v` shows a single
pass/fail line per criterion.  Seeded randomness only; no check depends
on the wall clock or dict iteration order.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb

from comprelie.admissible import (
    admissible_words,
    count_admissible,
    count_sigma,
    from_dyck,
    is_admissible,
    is_sigma_admissible,
    sigma_admissible_words,
    to_dyck,
    upper_to_str,
)
from comprelie.characters import (
    FliessElement,
    TruncatedSeries,
    diamond,
    fibonacci_dims,
    fliess_diamond,
    fliess_tilde,
    inverse,
    tilde_compose,
)
from comprelie.endo import (
    Endo,
    diagonal_weights,
    fliess_channel,
    iterate_endo_letter,
    transpose_endo,
)
from comprelie.enveloping import (
    SymMonomial,
    _splittings,
    SymTensor,
    closed_action,
    dual_coproduct,
    extend_bullet,
    full_coproduct,
    pair_tensor,
    star,
    sym_pairing,
)
from comprelie.exactla import SpanBasis
from comprelie.forests import (
    Forest,
    ForestPoly,
    delta_cobracket,
    dual_prelie_coeff,
    t_word,
    y_bracket_check,
)
from comprelie.prelie import (
    ComPreLieContext,
    associativity_witness,
    image_span_contains,
    prelie,
    prelie_closed,
    span_dimension_of_products,
)
from comprelie.trees import (
    all_partitioned_trees,
    injectivity_rank,
    parse_tree,
    phi_cpl,
)
from comprelie.words import (
    EMPTY_WORD,
    Letter,
    Tensor,
    Word,
    deconcatenate,
    half_shuffle,
    parse_tensor,
    shuffle,
)

A, B = Letter("a"), Letter("b")


def words_over(letters, max_len: int) -> list[Word]:
    out = [EMPTY_WORD]
    for n in range(1, max_len + 1):
        out.extend(Word(t) for t in itertools.product(letters, repeat=n))
    return out


def random_rational_matrix(rng: random.Random, names=("a", "b")) -> Endo:
    n = len(names)
    while True:
        entries = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
            for _ in range(n)
        ]
        if any(c for row in entries for c in row):
            return Endo.matrix(list(names), entries)


def random_series(rng: random.Random, trunc: int, alphabet) -> TruncatedSeries:
    pool = words_over(alphabet, trunc)
    acc: dict[Word, Fraction] = {}
    for _ in range(4):
        w = rng.choice(pool)
        acc[w] = acc.get(w, 0) + Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return TruncatedSeries(trunc, acc)


# ---------------------------------------------------------------------------
# 1. the four defining identities
# ---------------------------------------------------------------------------

def _axiom_suite_for(f: Endo) -> None:
    """Derivation, half-shuffle derivation and right pre-Lie law on every
    triple of words of length <= 3; deconcatenation compatibility on every
    pair.  Words are interned to small ints so the three-fold loop stays
    fast; products still come one pair at a time from the library."""
    ctx = ComPreLieContext(f)
    pool = words_over([A, B], 3)
    words_by_id = list(pool)
    wid = {w: i for i, w in enumerate(words_by_id)}
    empty_id = wid[EMPTY_WORD]

    def iid(w: Word) -> int:
        i = wid.get(w)
        if i is None:
            i = wid[w] = len(words_by_id)
            words_by_id.append(w)
        return i

    def intern(t: Tensor) -> tuple:
        return tuple((iid(w), c) for w, c in t.items())

    pre_memo: dict = {}
    sh_memo: dict = {}
    hs_memo: dict = {}

    def pre_w(ui: int, vi: int):
        hit = pre_memo.get((ui, vi))
        if hit is None:
            hit = pre_memo[(ui, vi)] = intern(
                prelie(ctx, words_by_id[ui], words_by_id[vi])
            )
        return hit

    def sh_w(ui: int, vi: int):
        hit = sh_memo.get((ui, vi))
        if hit is None:
            hit = intern(shuffle(words_by_id[ui], words_by_id[vi]))
            sh_memo[(ui, vi)] = sh_memo[(vi, ui)] = hit
        return hit

    def hs_w(ui: int, vi: int):
        hit = hs_memo.get((ui, vi))
        if hit is None:
            hit = hs_memo[(ui, vi)] = intern(
                half_shuffle(words_by_id[ui], words_by_id[vi])
            )
        return hit

    ids = [wid[w] for w in pool]
    P = {(a, b): pre_w(a, b) for a in ids for b in ids}
    for ai, bi, ci in itertools.product(ids, repeat=3):
        if ai <= bi:  # both sides symmetric in (a, b)
            acc: dict = {}
            for u, cu in sh_w(ai, bi):
                for w, c in pre_w(u, ci):
                    acc[w] = acc.get(w, 0) + cu * c
            for u, cu in P[ai, ci]:
                for w, c in sh_w(u, bi):
                    acc[w] = acc.get(w, 0) - cu * c
            for u, cu in P[bi, ci]:
                for w, c in sh_w(ai, u):
                    acc[w] = acc.get(w, 0) - cu * c
            assert not any(acc.values()), (f, ai, bi, ci, "derivation")
        if ai != empty_id:  # the half-shuffle needs a nonempty left factor
            acc = {}
            for u, cu in hs_w(ai, bi):
                for w, c in pre_w(u, ci):
                    acc[w] = acc.get(w, 0) + cu * c
            for u, cu in P[ai, ci]:
                for w, c in hs_w(u, bi):
                    acc[w] = acc.get(w, 0) - cu * c
            for u, cu in P[bi, ci]:
                for w, c in hs_w(ai, u):
                    acc[w] = acc.get(w, 0) - cu * c
            assert not any(acc.values()), (f, ai, bi, ci, "half-shuffle")
        if bi <= ci:  # the pre-Lie law is the same equation for (a, c, b)
            acc = {}
            for u, cu in P[ai, bi]:
                for w, c in pre_w(u, ci):
                    acc[w] = acc.get(w, 0) + cu * c
            for u, cu in P[bi, ci]:
                for w, c in pre_w(ai, u):
                    acc[w] = acc.get(w, 0) - cu * c
            for u, cu in P[ai, ci]:
                for w, c in pre_w(u, bi):
                    acc[w] = acc.get(w, 0) - cu * c
            for u, cu in P[ci, bi]:
                for w, c in pre_w(ai, u):
                    acc[w] = acc.get(w, 0) + cu * c
            assert not any(acc.values()), (f, ai, bi, ci, "pre-Lie")

    # deconcatenation compatibility, pairwise (cuts of pool words stay
    # in the pool, so the memoized products above can be reused)
    cuts = {wid[w]: [(wid[w1], wid[w2]) for w1, w2 in deconcatenate(w)] for w in pool}

    def cuts_of(i: int):
        hit = cuts.get(i)
        if hit is None:
            hit = cuts[i] = [
                (iid(w1), iid(w2)) for w1, w2 in deconcatenate(words_by_id[i])
            ]
        return hit

    for ai in ids:
        for bi in ids:
            acc: dict = {}
            for w, c in P[ai, bi]:
                for w1, w2 in cuts_of(w):
                    acc[(w1, w2)] = acc.get((w1, w2), 0) + c
            for a1, a2 in cuts[ai]:
                for w, c in P[a2, bi]:
                    acc[(a1, w)] = acc.get((a1, w), 0) - c
                for b1, b2 in cuts[bi]:
                    for w1, c1 in P[a1, b1]:
                        for w2, c2 in sh_w(a2, b2):
                            key = (w1, w2)
                            acc[key] = acc.get(key, 0) - c1 * c2
            assert not any(acc.values()), (f, ai, bi, "coproduct")


def test_criterion_01_com_pre_lie_axiom_suite():
    rng = random.Random(101)
    for _ in range(5):
        _axiom_suite_for(random_rational_matrix(rng))


# ---------------------------------------------------------------------------
# 2. closed form and the one-letter binomial
# ---------------------------------------------------------------------------

def test_criterion_02_closed_form_and_binomial():
    ctx = ComPreLieContext(random_rational_matrix(random.Random(202)))
    pool = words_over([A, B], 6)
    for u in pool:
        for v in pool:
            if len(u) + len(v) <= 6:
                assert prelie(ctx, u, v) == prelie_closed(ctx, u, v), (u, v)

    lam = Fraction(5, 3)
    x = Letter("x")
    dctx = ComPreLieContext(diagonal_weights({"x": lam}))
    for total in range(1, 9):
        for k in range(0, total + 1):
            l = total - k
            u, v = Word((x,) * k), Word((x,) * l)
            got = prelie(dctx, u, v)
            if k == 0:
                assert got == Tensor()
            else:
                expected = Tensor.of(Word((x,) * total), lam * comb(total, k - 1))
                assert got == expected, (k, l)


# ---------------------------------------------------------------------------
# 3. trivial iff associative; products avoid the empty word
# ---------------------------------------------------------------------------

def test_criterion_03_triviality_and_associativity():
    pool = words_over([A, B], 3)
    zero_ctx = ComPreLieContext(Endo.matrix(["a", "b"], [[0, 0], [0, 0]]))
    for u in pool:
        for v in pool:
            assert prelie(zero_ctx, u, v) == Tensor()
    assert associativity_witness(zero_ctx) is None

    rng = random.Random(303)
    for _ in range(3):
        ctx = ComPreLieContext(random_rational_matrix(rng))
        witness = associativity_witness(ctx, max_len=3)
        assert witness is not None
        a, b, c = witness
        lhs = prelie(ctx, prelie(ctx, a, b), c)
        rhs = prelie(ctx, a, prelie(ctx, b, c))
        assert lhs != rhs
        for u in pool:
            for v in pool:
                assert prelie(ctx, u, v).coefficient(EMPTY_WORD) == 0


# ---------------------------------------------------------------------------
# 4. enveloping product
# ---------------------------------------------------------------------------

X0, X1 = Letter("x0"), Letter("x1")
FLIESS1 = fliess_channel(1, 1)


def monomials_up_to(letters, max_total: int, max_empty: int = 2) -> list[SymMonomial]:
    """Multisets of words with at most ``max_total`` letters in all; the
    empty word may appear as a factor at most ``max_empty`` times (it adds
    no letters, so it needs its own bound)."""
    pool = words_over(letters, max_total)
    out: list[SymMonomial] = []

    def grow(start: int, left: int, empties: int, factors: tuple) -> None:
        out.append(SymMonomial(factors))
        for i in range(start, len(pool)):
            w = pool[i]
            if len(w) > left:
                continue
            if len(w) == 0 and empties >= max_empty:
                continue
            grow(i, left - len(w), empties + (len(w) == 0), factors + (w,))

    grow(0, max_total, 0, ())
    return out


def test_criterion_04_enveloping_star():
    ctx = ComPreLieContext(FLIESS1)
    monos = monomials_up_to([X0, X1], 4)
    by_total: dict[int, list[SymMonomial]] = {}
    for m in monos:
        by_total.setdefault(m.total_letters(), []).append(m)

    for ta in sorted(by_total):
        for tb in sorted(by_total):
            for tc in sorted(by_total):
                if ta + tb + tc > 4:
                    continue
                for a in by_total[ta]:
                    for b in by_total[tb]:
                        for c in by_total[tc]:
                            lhs = star(ctx, star(ctx, a, b), c)
                            rhs = star(ctx, a, star(ctx, b, c))
                            assert lhs == rhs, (a, b, c)

    # the brace against the extension's rule A . (B u) = (A . B) . u - A . (B . u),
    # and the star as the sum over the splittings of its right operand,
    # same letter budget
    for w in words_over([X0, X1], 4):
        a = SymMonomial.of(w)
        budget = 4 - len(w)
        for m in monos:
            if m.total_letters() > budget:
                continue
            action = extend_bullet(ctx, a, m)
            assert closed_action(ctx, w, list(m.factors)) == action, (w, m, "action")
            if m.factors:
                rest, u = SymMonomial(m.factors[:-1]), SymMonomial.of(m.factors[-1])
                rule = extend_bullet(ctx, extend_bullet(ctx, a, rest), u) - extend_bullet(
                    ctx, a, extend_bullet(ctx, rest, u)
                )
                assert action == rule, (w, m, "rule")
            split = SymTensor()
            for outside, inside in _splittings(m.factors, 2):
                part = extend_bullet(ctx, a, SymMonomial(inside))
                split = split + part * SymTensor.of(SymMonomial(outside))
            assert star(ctx, a, m) == split, (w, m, "star")


# ---------------------------------------------------------------------------
# 5. the coproduct
# ---------------------------------------------------------------------------

def _mono_product(a: SymMonomial, b: SymMonomial) -> SymMonomial:
    return a.times(b)


def _formula_delta_letter(ctx: ComPreLieContext, x: Letter) -> dict:
    acc: dict = {}
    i = 0
    while True:
        img = iterate_endo_letter(ctx.f, i, x)
        if not img:
            break
        mono = SymMonomial.of(*([EMPTY_WORD] * i))
        for y, cy in img.items():
            key = (Word((y,)), mono)
            acc[key] = acc.get(key, 0) + cy
        i += 1
    return {k: v for k, v in acc.items() if v}


def _formula_delta_pair(ctx: ComPreLieContext, x1: Letter, x2: Letter) -> dict:
    acc: dict = {}
    i = 0
    while True:
        img1 = iterate_endo_letter(ctx.f, i, x1)
        if not img1:
            break
        j = 0
        while True:
            img2 = iterate_endo_letter(ctx.f, j, x2)
            if not img2:
                break
            mono = SymMonomial.of(*([EMPTY_WORD] * (i + j)))
            for y1, c1 in img1.items():
                for y2, c2 in img2.items():
                    key = (Word((y1, y2)), mono)
                    acc[key] = acc.get(key, 0) + c1 * c2
            j += 1
        i += 1
    i = 1
    while True:
        img1 = iterate_endo_letter(ctx.f, i, x1)
        if not img1:
            break
        mono = SymMonomial.of(Word((x2,)), *([EMPTY_WORD] * (i - 1)))
        for y1, c1 in img1.items():
            key = (Word((y1,)), mono)
            acc[key] = acc.get(key, 0) + i * c1
        i += 1
    return {k: v for k, v in acc.items() if v}


def _delta_as_dict(ctx: ComPreLieContext, w: Word) -> dict:
    acc: dict = {}
    for t, m, c in dual_coproduct(ctx, w):
        acc[(t, m)] = acc.get((t, m), 0) + c
    return {k: v for k, v in acc.items() if v}


def test_criterion_05_coproduct():
    ctx = ComPreLieContext(FLIESS1)
    monos = [m for m in monomials_up_to([X0, X1], 3) if m.total_letters() <= 3]

    # coassociativity
    for m in monos:
        left: dict = {}
        right: dict = {}
        for (a, b), c in full_coproduct(ctx, m).items():
            for (a1, a2), c2 in full_coproduct(ctx, a).items():
                key = (a1, a2, b)
                left[key] = left.get(key, 0) + c * c2
            for (b1, b2), c2 in full_coproduct(ctx, b).items():
                key = (a, b1, b2)
                right[key] = right.get(key, 0) + c * c2
        left = {k: v for k, v in left.items() if v}
        right = {k: v for k, v in right.items() if v}
        assert left == right, m

    # multiplicativity on pairs within the letter budget
    small = [m for m in monos if m.total_letters() <= 1 or len(m.factors) <= 2]
    for m1 in small:
        for m2 in small:
            if m1.total_letters() + m2.total_letters() > 3:
                continue
            direct = full_coproduct(ctx, _mono_product(m1, m2))
            composed: dict = {}
            for (a1, b1), c1 in full_coproduct(ctx, m1).items():
                for (a2, b2), c2 in full_coproduct(ctx, m2).items():
                    key = (_mono_product(a1, a2), _mono_product(b1, b2))
                    composed[key] = composed.get(key, 0) + c1 * c2
            direct = {k: v for k, v in direct.items() if v}
            composed = {k: v for k, v in composed.items() if v}
            assert direct == composed, (m1, m2)

    # the two printed examples, for two different nilpotent maps
    nil = Endo.matrix(["a", "b"], [[0, Fraction(1, 2)], [0, 0]])
    for f, x1, x2 in (
        (nil, Letter("b"), Letter("b")),
        (fliess_channel(2, 1), Letter("x1"), Letter("x2")),
    ):
        fctx = ComPreLieContext(f)
        assert _delta_as_dict(fctx, Word((x1,))) == _formula_delta_letter(fctx, x1)
        assert _delta_as_dict(fctx, Word((x1, x2))) == _formula_delta_pair(
            fctx, x1, x2
        )

    # duality: star on the transposed side against the coproduct
    dual_ctx = ComPreLieContext(transpose_endo(FLIESS1))
    singles = [SymMonomial.of(w) for w in words_over([X0, X1], 3)]
    for w in words_over([X0, X1], 3):
        cop = full_coproduct(ctx, SymMonomial.of(w))
        for u in singles:
            for v in singles:
                if u.total_letters() + v.total_letters() > 3:
                    continue
                lhs = pair_tensor(
                    star(dual_ctx, u, v), SymTensor.of(SymMonomial.of(w))
                )
                rhs = 0
                for (a, b), c in cop.items():
                    pa = sym_pairing(u, a)
                    if pa:
                        rhs += c * pa * sym_pairing(v, b)
                assert lhs == rhs, (u, v, w)


# ---------------------------------------------------------------------------
# 6. the character group
# ---------------------------------------------------------------------------

def test_criterion_06_character_group():
    nil = Endo.matrix(["a", "b"], [[0, Fraction(1, 2)], [0, 0]])
    ctx = ComPreLieContext(nil)
    rng = random.Random(606)
    zero = TruncatedSeries.zero(4)
    for _ in range(4):
        u = random_series(rng, 4, nil.alphabet)
        v = random_series(rng, 4, nil.alphabet)
        w = random_series(rng, 4, nil.alphabet)
        assert diamond(ctx, diamond(ctx, u, v), w) == diamond(
            ctx, u, diamond(ctx, v, w)
        )
        assert diamond(ctx, u, zero) == u
        assert diamond(ctx, zero, u) == u
        ui = inverse(ctx, u)
        assert diamond(ctx, u, ui) == zero
        assert diamond(ctx, ui, u) == zero

    # the channel composition against the generic engine
    n, i = 2, 1
    fi = fliess_channel(n, i)
    fctx = ComPreLieContext(fi)
    alphabet = fi.alphabet
    for _ in range(4):
        u = random_series(rng, 3, alphabet)
        v = random_series(rng, 3, alphabet)
        d = tuple(
            v if j == i else TruncatedSeries.zero(3) for j in range(1, n + 1)
        )
        assert fliess_tilde(FliessElement(i, u), d).series == tilde_compose(
            fctx, u, v
        )

    # cross-channel: composition along a different channel does nothing,
    # so elements on distinct channels just add
    for ci, cj in ((1, 2), (2, 1)):
        for _ in range(2):
            u = random_series(rng, 3, alphabet)
            v = random_series(rng, 3, alphabet)
            d = tuple(
                v if k == cj else TruncatedSeries.zero(3)
                for k in range(1, n + 1)
            )
            assert fliess_tilde(FliessElement(ci, u), d).series == u
    u = random_series(rng, 3, alphabet)
    v = random_series(rng, 3, alphabet)
    z3 = TruncatedSeries.zero(3)
    assert fliess_diamond((u, z3), (z3, v)) == (u, v)


# ---------------------------------------------------------------------------
# 7. dimension tables
# ---------------------------------------------------------------------------

def brute_graded_counts(n: int, k_max: int) -> list[int]:
    """Count words over {x0..xn} by degree len + (#x0) + 1, the empty
    word sitting in degree 1."""
    counts = [0] * (k_max + 1)
    if k_max >= 1:
        counts[1] = 1
    for length in range(1, k_max):
        for zeros in range(0, length + 1):
            deg = length + zeros + 1
            if deg <= k_max:
                counts[deg] += comb(length, zeros) * n ** (length - zeros)
    return counts


def test_criterion_07_dimension_tables():
    for n in (1, 2, 3):
        dims = fibonacci_dims(n, 8)
        assert dims[1:6] == [
            1,
            n,
            n * n + 1,
            n * (n * n + 2),
            n ** 4 + 3 * n * n + 1,
        ], n
        assert dims == brute_graded_counts(n, 8), n
    assert fibonacci_dims(1, 8) == [0, 1, 1, 2, 3, 5, 8, 13, 21]
    assert fibonacci_dims(2, 5) == [0, 1, 2, 5, 12, 29]


# ---------------------------------------------------------------------------
# 8. admissible words
# ---------------------------------------------------------------------------

def test_criterion_08_admissible_words():
    catalan = [1, 1, 2, 5, 14, 42, 132, 429, 1430]
    for n in range(1, 9):
        assert count_admissible(n) == catalan[n - 1], n
        assert count_sigma(n) == catalan[n], n

    assert [upper_to_str(w) for w in admissible_words(1)] == ["0"]
    assert {upper_to_str(w) for w in admissible_words(2)} == {"10"}
    assert {upper_to_str(w) for w in admissible_words(3)} == {"200", "110"}
    assert {upper_to_str(w) for w in admissible_words(4)} == {
        "3000", "2100", "1200", "2010", "1110"
    }

    for n in range(1, 9):
        for w in admissible_words(n):
            assert from_dyck(to_dyck(w)) == w

    # closure of the sigma-admissible biwords under both products
    ctx = ComPreLieContext(Endo.biletter_shift())

    def biword(upper) -> Word:
        return Word(tuple(Letter("d", a) for a in upper))

    pools = {
        n: [biword(w) for w in sigma_admissible_words(n)] for n in range(1, 5)
    }
    for nu in range(1, 5):
        for nv in range(1, 6 - nu):
            for u in pools[nu]:
                for v in pools[nv]:
                    for w in shuffle(Tensor.of(u), Tensor.of(v)).support():
                        assert is_sigma_admissible(tuple(x.shift for x in w))
                    for w in prelie(ctx, Tensor.of(u), Tensor.of(v)).support():
                        assert is_sigma_admissible(tuple(x.shift for x in w))


# ---------------------------------------------------------------------------
# 9. tree-to-word morphisms
# ---------------------------------------------------------------------------

def test_criterion_09_tree_morphisms():
    T = parse_tensor
    P = parse_tree
    for t in all_partitioned_trees(3, [A, B]):
        assert phi_cpl(t, mode="recursive") == phi_cpl(t, mode="direct")
    for n in range(1, 5):
        for t in all_partitioned_trees(n, [Letter("d")]):
            assert phi_cpl(t, mode="recursive") == phi_cpl(t, mode="direct")

    # the ten printed example values
    assert phi_cpl(P("a[b]")) == T("1:a.0:b")
    assert phi_cpl(P("a[b[c]]")) == T("1:a.1:b.0:c")
    assert phi_cpl(P("a[b,c]")) == T("2:a.0:b.0:c + 2:a.0:c.0:b")
    assert phi_cpl(P("{a[b],c}")) == T(
        "1:a.0:b.0:c + 1:a.0:c.0:b + 0:c.1:a.0:b"
    )
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

    # the kernel witness vanishes (and is built from nonzero images)
    h13 = phi_cpl(P("{d[d],d[d]}"))
    h4 = phi_cpl(P("d[{d[d],d}]"))
    assert h13 - h4.scale(2) == Tensor()
    assert h13 != Tensor()

    # the rooted restriction is injective degreewise up to 5
    assert injectivity_rank(1) == (1, 1)
    assert injectivity_rank(2) == (1, 1)
    assert injectivity_rank(3) == (2, 2)
    assert injectivity_rank(4) == (4, 4)
    assert injectivity_rank(5) == (9, 9)

    # the psi relation in the word algebra
    ctx = ComPreLieContext(Endo.biletter_shift())
    x0, x1 = Letter("d", 0), Letter("d", 1)
    corolla_img = extend_bullet(
        ctx,
        SymMonomial.of(Word((x0,))),
        SymMonomial.of(Word((x0,)), Word((x0,))),
    )
    lhs = Tensor({m.factors[0]: c for m, c in corolla_img.items()})
    rhs = prelie(ctx, Tensor.of(Word((x1,))), Tensor.of(Word((x0, x0)))).scale(2)
    assert lhs == rhs
    assert lhs == T("2:d.0:d.0:d").scale(2)

    # every image word is sigma-admissible with upper sum blocks - 1
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


# ---------------------------------------------------------------------------
# 10. the diagonalizable case
# ---------------------------------------------------------------------------

def test_criterion_10_faa_di_bruno():
    lam1 = {"d": 1}
    F = ForestPoly.of

    def FT(src: str) -> Forest:
        return Forest.of(parse_tree(src))

    assert t_word("d", lam1) == F(FT("d"))
    assert t_word("dd", lam1) == F(FT("d[d]"))
    assert t_word("ddd", lam1) == F(FT("d[d,d]")) + F(FT("d[d[d]]"))
    assert t_word("dddd", lam1) == (
        F(FT("d[d,d,d]"))
        + F(FT("d[d,d[d]]"), 3)
        + F(FT("d[d[d,d]]"))
        + F(FT("d[d[d[d]]]"))
    )

    # closed cobracket against the projected coproduct, all words to length 4
    lam = {"a": Fraction(2), "b": Fraction(1, 3)}
    for n in range(1, 5):
        for tup in itertools.product([A, B], repeat=n):
            w = Word(tup)
            assert delta_cobracket(w, lam, mode="closed") == delta_cobracket(
                w, lam, mode="projected"
            ), w

    # the dual pre-Lie coefficients against the word product, diagonal f
    dlam = {"a": Fraction(5), "b": Fraction(7, 2)}
    dctx = ComPreLieContext(diagonal_weights(dlam))
    pool = words_over([A, B], 4)
    for u in pool:
        for v in pool:
            if len(u) + len(v) <= 4:
                assert dual_prelie_coeff(dlam, u, v) == prelie(dctx, u, v), (u, v)

    # Witt-type brackets of the y elements
    mu = Fraction(3, 2)
    for k in range(1, 5):
        for l in range(1, 5):
            computed, expected = y_bracket_check(mu, k, l)
            assert computed == expected, (k, l)


# ---------------------------------------------------------------------------
# 11. surjectivity ranks
# ---------------------------------------------------------------------------

def test_criterion_11_surjectivity_ranks():
    # invertible on two letters: pre-Lie products alone fill degree 2
    inv = Endo.matrix(["a", "b"], [[0, 1], [1, 0]])
    ctx2 = ComPreLieContext(inv)
    gens2 = [Tensor.of(Word((x,))) for x in inv.alphabet]
    assert span_dimension_of_products(ctx2, gens2, 2, ops=("prelie",)) == 4
    assert span_dimension_of_products(ctx2, gens2, 2) == 4

    # image of codimension 2 on four letters: one dimension is missing
    f4 = diagonal_weights({"a": 1, "b": 1, "c": 0, "d": 0})
    ctx4 = ComPreLieContext(f4)
    gens4 = [Tensor.of(Word((x,))) for x in f4.alphabet]
    assert span_dimension_of_products(ctx4, gens4, 2) == 15 < 16

    span = SpanBasis()
    for x in f4.alphabet:
        for y in f4.alphabet:
            span.add(prelie(ctx4, Word((x,)), Word((y,))).terms)
            span.add(shuffle(Word((x,)), Word((y,))).terms)
    c, d = Letter("c"), Letter("d")
    commutator = Tensor.of(Word((c, d))) - Tensor.of(Word((d, c)))
    symmetrized = Tensor.of(Word((c, d))) + Tensor.of(Word((d, c)))
    assert span.contains(symmetrized.terms)
    assert not span.contains(commutator.terms)
    assert not image_span_contains(ctx4, commutator)
