"""The invariant checks of ``comprelie verify``.

Each check takes its own seeded ``random.Random``, draws small random
inputs, and returns None when the identity holds or a witness string when
it breaks.  ``CHECKS`` lists them by name, in the order ``verify`` runs and
reports them.  The CLI imports this module for ``verify`` alone, and each
check imports the layers it calls where it calls them.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Sequence

from .words import Letter, Tensor, Word, _linear, shuffle, word_to_str


def _rand_word(rng: random.Random, letters: Sequence[Letter], max_len: int) -> Word:
    return Word(tuple(rng.choice(letters) for _ in range(rng.randint(0, max_len))))


def _rand_endo(rng: random.Random, names: Sequence[str]) -> Endo:
    from .endo import Endo

    n = len(names)
    entries = [
        [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)]
        for _ in range(n)
    ]
    return Endo.matrix(list(names), entries)


def _check_shuffle(rng: random.Random) -> str | None:
    ab = [Letter("a"), Letter("b")]
    for _ in range(6):
        u, v, w = (_rand_word(rng, ab, 3) for _ in range(3))
        if shuffle(shuffle(u, v), w) != shuffle(u, shuffle(v, w)):
            return f"associativity broke at {word_to_str(u)},{word_to_str(v)},{word_to_str(w)}"
        if shuffle(u, v) != shuffle(v, u):
            return f"commutativity broke at {word_to_str(u)},{word_to_str(v)}"
    return None


def _check_prelie_axioms(rng: random.Random) -> str | None:
    from .prelie import ComPreLieContext, prelie

    ctx = ComPreLieContext(_rand_endo(rng, ["a", "b"]))
    ab = [Letter("a"), Letter("b")]
    for _ in range(6):
        u, v, w = (_rand_word(rng, ab, 3) for _ in range(3))
        lhs = prelie(ctx, shuffle(u, v), w)
        rhs = shuffle(prelie(ctx, u, w), Tensor.of(v)) + shuffle(
            Tensor.of(u), prelie(ctx, v, w)
        )
        if lhs != rhs:
            return f"derivation broke at {word_to_str(u)},{word_to_str(v)},{word_to_str(w)}"
        assoc_l = prelie(ctx, prelie(ctx, u, v), w) - prelie(ctx, u, prelie(ctx, v, w))
        assoc_r = prelie(ctx, prelie(ctx, u, w), v) - prelie(ctx, u, prelie(ctx, w, v))
        if assoc_l != assoc_r:
            return f"pre-Lie broke at {word_to_str(u)},{word_to_str(v)},{word_to_str(w)}"
    return None


def _check_prelie_closed(rng: random.Random) -> str | None:
    from .prelie import ComPreLieContext, prelie, prelie_closed

    ctx = ComPreLieContext(_rand_endo(rng, ["a", "b"]))
    ab = [Letter("a"), Letter("b")]
    for _ in range(8):
        u, v = _rand_word(rng, ab, 3), _rand_word(rng, ab, 3)
        if prelie(ctx, u, v) != prelie_closed(ctx, u, v):
            return f"routes disagree at {word_to_str(u)} . {word_to_str(v)}"
    return None


def _check_star(rng: random.Random) -> str | None:
    from .endo import fliess_channel
    from .enveloping import SymMonomial, SymTensor, star
    from .prelie import ComPreLieContext

    ctx = ComPreLieContext(fliess_channel(2, 1))
    letters = [Letter("x0"), Letter("x1"), Letter("x2")]
    for _ in range(4):
        mono = [
            SymMonomial.of(_rand_word(rng, letters, 2)) for _ in range(3)
        ]
        a, b, c = (SymTensor.of(m) for m in mono)
        if star(ctx, star(ctx, a, b), c) != star(ctx, a, star(ctx, b, c)):
            return f"associativity broke at {mono[0]}, {mono[1]}, {mono[2]}"
    return None


def _check_extension_rules(rng: random.Random) -> str | None:
    from .endo import Endo
    from .enveloping import ONE, SymMonomial, SymTensor, extend_bullet
    from .prelie import ComPreLieContext, prelie

    # the three rules that define the extension, under a random map and a
    # strictly upper triangular one with nonzero entries (index 3)
    def entry() -> Fraction:
        return Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 3))

    index3 = Endo.matrix(["a", "b", "c"], [[0, entry(), entry()], [0, 0, entry()], [0, 0, 0]])
    for f in (_rand_endo(rng, ["a", "b"]), index3):
        ctx = ComPreLieContext(f)
        letters = list(f.alphabet)
        for _ in range(2):
            a = SymMonomial.of(_rand_word(rng, letters, 2), _rand_word(rng, letters, 2))
            b = SymMonomial.of(*(_rand_word(rng, letters, 2) for _ in range(rng.randint(0, 1))))
            u = _rand_word(rng, letters, 2)
            if extend_bullet(ctx, a, ONE) != SymTensor.of(a):
                return f"A . 1 != A at {a}"
            split = SymTensor()
            for i, ai in enumerate(a.factors):
                rest = SymTensor.of(SymMonomial(a.factors[:i] + a.factors[i + 1:]))
                split = split + rest * SymTensor.from_tensor(prelie(ctx, ai, u))
            one_u = SymMonomial.of(u)
            if extend_bullet(ctx, a, one_u) != split:
                return f"one word does not split over the factors at {a} . {word_to_str(u)}"
            lhs = extend_bullet(ctx, a, b.times(one_u))
            rhs = extend_bullet(ctx, extend_bullet(ctx, a, b), one_u) - extend_bullet(
                ctx, a, extend_bullet(ctx, b, one_u)
            )
            if lhs != rhs:
                return f"A . (B u) != (A . B) . u - A . (B . u) at {a}, {b}, {word_to_str(u)}"
    return None


def _check_duality(rng: random.Random) -> str | None:
    from .endo import fliess_channel, transpose_endo
    from .enveloping import SymMonomial, full_coproduct, pair_tensor, star, sym_pairing
    from .prelie import ComPreLieContext

    # the star on the transposed side is dual to the coproduct
    f = fliess_channel(2, 1)
    ctx = ComPreLieContext(f)
    dual_ctx = ComPreLieContext(transpose_endo(f))
    letters = [Letter("x0"), Letter("x1"), Letter("x2")]
    for _ in range(5):
        u = SymMonomial.of(_rand_word(rng, letters, 2))
        v = SymMonomial.of(_rand_word(rng, letters, 1))
        w = _rand_word(rng, letters, 3)
        lhs = pair_tensor(star(dual_ctx, u, v), SymMonomial.of(w))
        rhs = Fraction(0)
        for (a, b), c in full_coproduct(ctx, SymMonomial.of(w)).items():
            rhs += c * sym_pairing(u, a) * sym_pairing(v, b)
        if lhs != rhs:
            return f"duality broke at {u},{v} vs {word_to_str(w)}"
    return None


def _check_inverse(rng: random.Random) -> str | None:
    from .characters import TruncatedSeries, diamond, inverse
    from .endo import fliess_channel
    from .prelie import ComPreLieContext

    ctx = ComPreLieContext(fliess_channel(2, 1))
    letters = [Letter("x0"), Letter("x1"), Letter("x2")]
    pool = [
        Word(tup)
        for n in range(1, 4)
        for tup in itertools.product(letters, repeat=n)
    ]
    for _ in range(3):
        picks = rng.sample(pool, 4)
        u = TruncatedSeries(
            3, {w: Fraction(rng.randint(-3, 3)) for w in picks}
        )
        v = inverse(ctx, u)
        if diamond(ctx, u, v).tensor or diamond(ctx, v, u).tensor:
            return f"inverse failed for {u}"
    return None


def _check_dims(rng: random.Random) -> str | None:
    from .characters import fibonacci_dims

    expected = {1: [0, 1, 1, 2, 3, 5], 2: [0, 1, 2, 5, 12, 29]}
    for n, dims in expected.items():
        got = fibonacci_dims(n, 5)
        if got != dims:
            return f"n={n}: got {got}"
    return None


def _check_dyck(rng: random.Random) -> str | None:
    from .admissible import admissible_words, from_dyck, to_dyck, upper_to_str

    catalan = [1, 1, 2, 5, 14, 42]
    for n in range(1, 6):
        words = admissible_words(n)
        if len(words) != catalan[n - 1]:
            return f"count at {n}: {len(words)}"
        for w in words:
            if from_dyck(to_dyck(w)) != w:
                return f"round trip broke at {upper_to_str(w)}"
    return None


def _check_tree_morphism(rng: random.Random) -> str | None:
    from .endo import Endo
    from .prelie import ComPreLieContext, prelie
    from .trees import all_partitioned_trees, free_bullet, phi_cpl

    ctx = ComPreLieContext(Endo.biletter_shift())
    pool = [t for n in (1, 2, 3) for t in all_partitioned_trees(n, [Letter("a"), Letter("b")])]
    for _ in range(4):
        t1, t2 = rng.choice(pool), rng.choice(pool)
        lhs = Tensor._from_clean(
            _linear(lambda t: phi_cpl(t).items(), free_bullet(t1, t2).items())
        )
        rhs = prelie(ctx, phi_cpl(t1), phi_cpl(t2))
        if lhs != rhs:
            return f"morphism broke at {t1} . {t2}"
    return None


def _check_tree_routes(rng: random.Random) -> str | None:
    from .trees import all_partitioned_trees, phi_cpl

    pool = [t for n in (1, 2, 3, 4) for t in all_partitioned_trees(n, [Letter("d")])]
    for t in rng.sample(pool, 6):
        if phi_cpl(t, mode="recursive") != phi_cpl(t, mode="direct"):
            return f"routes disagree at {t}"
    return None


def _check_fdb_modes(rng: random.Random) -> str | None:
    from .forests import delta_cobracket

    lam = {
        "a": Fraction(rng.randint(1, 5)),
        "b": Fraction(rng.randint(1, 5), rng.randint(1, 3)),
    }
    ab = [Letter("a"), Letter("b")]
    for _ in range(2):
        w = Word(tuple(rng.choice(ab) for _ in range(rng.randint(1, 3))))
        closed = delta_cobracket(w, lam, mode="closed")
        projected = delta_cobracket(w, lam, mode="projected")
        if closed != projected:
            return f"modes disagree at {word_to_str(w)}"
    return None


def _check_y_bracket(rng: random.Random) -> str | None:
    from .forests import y_bracket_check

    lam = Fraction(rng.randint(1, 6), rng.randint(1, 4))
    k, l = rng.randint(1, 3), rng.randint(1, 3)
    try:
        y_bracket_check(lam, k, l)
    except RuntimeError as exc:
        return str(exc)
    return None


CHECKS = [
    ("shuffle-algebra", _check_shuffle),
    ("prelie-axioms", _check_prelie_axioms),
    ("prelie-closed-form", _check_prelie_closed),
    ("envelope-star-assoc", _check_star),
    ("coproduct-duality", _check_duality),
    ("character-inverse", _check_inverse),
    ("graded-dims", _check_dims),
    ("dyck-bijection", _check_dyck),
    ("tree-word-morphism", _check_tree_morphism),
    ("tree-map-routes", _check_tree_routes),
    ("cobracket-modes", _check_fdb_modes),
    ("y-bracket", _check_y_bracket),
    ("envelope-extension-rules", _check_extension_rules),
]
