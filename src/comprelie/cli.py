"""Command-line front end for the com-pre-lie toolkit.

One verb per algebraic operation: ``prelie``, ``bracket``, ``star``,
``coproduct``, ``compose``, ``series``, ``dyck``, ``tree-map``, ``fdb``
and ``verify``.  Expressions use the same concrete grammars the library
prints — words ("x0.x1", "ab"), linear combinations ("3/2*a.b - e"),
symmetric monomials joined by " * ", and bracketed trees ("a[b,{c,d}]").

Letter endomorphisms are chosen with ``--endo``: the presets
``fliess(n,i)``, ``diag(a=1,b=1/2)`` and ``biletter-shift``, or
``@file.json`` in the serialization format of :mod:`comprelie.endo`.

Output is plain text by default; ``--format json`` (or the environment
variable ``COMPRELIE_FORMAT``) switches every verb to a single JSON
document on stdout.  Exit status: 0 on success, 1 when ``verify`` finds
a failing check, 2 on usage or syntax errors.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import random
import re
import sys
import time
from fractions import Fraction
from typing import Sequence

# Each verb imports the layers it calls where it calls them, and ``json``
# only where it prints JSON, so a process loads and compiles only what its
# verb uses: ``prelie`` never loads the trees.
from .words import (
    Letter,
    Rat,
    Tensor,
    Word,
    _bilinear,
    _linear,
    parse_rational,
    parse_tensor,
    parse_word,
    rational_to_str,
    shuffle,
    word_to_str,
)

FORMAT_ENV = "COMPRELIE_FORMAT"


class CliError(Exception):
    """A usage-level problem: bad spec, bad expression, bad flag combo."""


# ---------------------------------------------------------------------------
# endomorphism specs
# ---------------------------------------------------------------------------

_CALL_RE = re.compile(r"^([a-z-]+)\((.*)\)$")


def parse_endo_spec(spec: str) -> Endo:
    """Decode an ``--endo`` argument.

    ``fliess(n,i)`` is the single-channel input-output map x_i -> x0;
    ``diag(a=1,b=1/2)`` scales each named letter; ``biletter-shift`` (with
    optional decoration names) bumps every shift index; ``@path`` or a
    ``.json`` path loads a serialized endomorphism.
    """
    from .endo import Endo, diagonal_weights, fliess_channel, load_endo

    spec = spec.strip()
    if spec.startswith("@"):
        return load_endo(spec[1:])
    if spec.endswith(".json"):
        return load_endo(spec)
    if spec == "biletter-shift":
        return Endo.biletter_shift()
    m = _CALL_RE.match(spec)
    if not m:
        raise CliError(f"unknown endomorphism spec {spec!r}")
    head, body = m.group(1), m.group(2)
    if head == "fliess":
        try:
            n_s, i_s = body.split(",")
            return fliess_channel(int(n_s), int(i_s))
        except ValueError as exc:
            raise CliError(f"bad fliess spec {spec!r}: {exc}") from None
    if head == "diag":
        return diagonal_weights(_parse_weights(body))
    if head == "biletter-shift":
        names = [s.strip() for s in body.split(",") if s.strip()]
        return Endo.biletter_shift(names)
    raise CliError(f"unknown endomorphism spec {spec!r}")


def _parse_weights(body: str) -> dict[str, Rat]:
    out: dict[str, Rat] = {}
    for chunk in body.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise CliError(f"weight entries look like name=value, got {chunk!r}")
        name, value = chunk.split("=", 1)
        try:
            out[name.strip()] = parse_rational(value)
        except ValueError as exc:
            raise CliError(f"bad weight {chunk!r}: {exc}") from None
    if not out:
        raise CliError("empty weight list")
    return out


# ---------------------------------------------------------------------------
# expression parsing
# ---------------------------------------------------------------------------

def _check_balance(src: str) -> None:
    stack: list[tuple[str, int]] = []
    closing = {"]": "[", "}": "{", ")": "("}
    for k, ch in enumerate(src):
        if ch in "[{(":
            stack.append((ch, k))
        elif ch in closing:
            if not stack or stack[-1][0] != closing[ch]:
                raise CliError(f"unbalanced {ch!r} at position {k}")
            stack.pop()
    if stack:
        ch, k = stack[-1]
        raise CliError(f"unclosed {ch!r} at position {k}")


def parse_expression(src: str) -> Tensor | SymTensor | TreeTensor:
    """Parse any printed expression back into its algebra.

    Brackets select tree combinations, a spaced " * " selects symmetric
    monomials, anything else is a word combination.
    """
    src = src.strip()
    if not src:
        raise CliError("empty expression")
    _check_balance(src)
    try:
        if "[" in src or "{" in src:
            from .trees import TreeTensor

            return TreeTensor.parse(src)
        if " * " in src:
            from .enveloping import SymTensor

            return SymTensor.parse(src)
        return parse_tensor(src)
    except ValueError as exc:
        raise CliError(f"bad expression {src!r}: {exc}") from None


def _as_tensor_arg(src: str) -> Tensor:
    value = parse_expression(src)
    if not isinstance(value, Tensor):
        raise CliError(f"expected a word combination, got {src!r}")
    return value


def _as_sym_arg(src: str) -> SymTensor:
    from .enveloping import SymTensor

    try:
        return SymTensor.parse(src)
    except ValueError as exc:
        raise CliError(f"bad monomial expression {src!r}: {exc}") from None


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _emit(fmt: str, lines: Sequence[str], payload) -> None:
    if fmt == "json":
        import json

        print(json.dumps(payload))
    else:
        for line in lines:
            print(line)


def _num(c: Rat):
    """A JSON-safe rational: ints stay ints, fractions become strings."""
    f = Fraction(c)
    return int(f) if f.denominator == 1 else str(f)


def _emit_pairs(fmt: str, pairs: dict) -> None:
    """Print a (left, right) -> coefficient mapping as ``l (x) r : c``
    lines, or as a JSON list, sorted by the printed left and right keys."""
    rows = sorted(((str(l), str(r), c) for (l, r), c in pairs.items()), key=lambda row: row[:2])
    lines = [f"{lt} (x) {rt} : {rational_to_str(c)}" for lt, rt, c in rows]
    payload = [{"left": lt, "right": rt, "coeff": _num(c)} for lt, rt, c in rows]
    _emit(fmt, lines, payload)


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def _ctx_from(args) -> ComPreLieContext:
    from .prelie import ComPreLieContext

    return ComPreLieContext(parse_endo_spec(args.endo))


def _cmd_prelie(args) -> int:
    from .prelie import prelie, prelie_closed

    ctx = _ctx_from(args)
    a, b = _as_tensor_arg(args.left), _as_tensor_arg(args.right)
    if args.closed:
        closed = _bilinear(lambda u, v: prelie_closed(ctx, u, v).items(), a.items(), b.items())
        out = Tensor._from_clean(closed)
    else:
        out = prelie(ctx, a, b)
    _emit(args.format, [str(out)], {"result": str(out)})
    return 0


def _cmd_bracket(args) -> int:
    from .prelie import lie_bracket

    ctx = _ctx_from(args)
    out = lie_bracket(ctx, _as_tensor_arg(args.left), _as_tensor_arg(args.right))
    _emit(args.format, [str(out)], {"result": str(out)})
    return 0


def _cmd_star(args) -> int:
    from .enveloping import star

    ctx = _ctx_from(args)
    out = star(ctx, _as_sym_arg(args.left), _as_sym_arg(args.right))
    _emit(args.format, [str(out)], {"result": str(out)})
    return 0


def _cmd_coproduct(args) -> int:
    from .enveloping import dual_coproduct

    ctx = _ctx_from(args)
    t = _as_tensor_arg(args.expr)
    pairs = _linear(lambda w: (((l, r), c) for l, r, c in dual_coproduct(ctx, w)), t.items())
    _emit_pairs(args.format, pairs)
    return 0


def _cmd_compose(args) -> int:
    from .characters import TruncatedSeries, diamond, tilde_compose

    ctx = _ctx_from(args)
    L = args.trunc
    u = TruncatedSeries(L, _as_tensor_arg(args.left))
    v = TruncatedSeries(L, _as_tensor_arg(args.right))
    letters = set(ctx.alphabet).union(*(w.letters for w in (*u.tensor.terms, *v.tensor.terms)))
    lu, lv = (max(map(len, s.tensor.terms), default=0) for s in (u, v))
    terms = _compose_terms(len(letters), L, lu, lv)
    if terms > _COMPOSE_BUDGET:
        raise CliError(
            f"compose --trunc {L} could print at least {terms} terms, "
            f"over the budget of {_COMPOSE_BUDGET}"
        )
    out = tilde_compose(ctx, u, v) if args.tilde else diamond(ctx, u, v)
    _emit(args.format, [str(out)], {"trunc": L, "result": str(out)})
    return 0


def _compose_terms(letters: int, trunc: int, lu: int, lv: int) -> int:
    """At most how many terms ``compose`` prints: the number of words of
    length 1..E over ``letters`` letters, counted only until it passes
    the budget.  E is the truncation or, if shorter, the longest word the
    composition can build from words of length at most ``lu`` (left) and
    ``lv`` (right): each left letter brings at most one right word per
    power of the map below its nilpotency index, and a map on n letters
    has index at most n."""
    longest = min(trunc, max(lv, lu * (1 + (letters - 1) * lv)))
    total, power = 0, 1
    for _ in range(longest):
        power *= letters
        total += power
        if total > _COMPOSE_BUDGET:
            break
    return total


def _log_r(n: int) -> float:
    """log10 of r = (n + sqrt(n^2 + 4)) / 2, the growth rate of the
    ``series`` dimensions: d_k = (r**k - (-1/r)**k) / sqrt(n^2 + 4)."""
    return math.log10(n) + math.log10((1 + math.sqrt(1 + 4 / (n * n))) / 2)


def _series_chars(n: int, k_max: int) -> int:
    """About how many characters ``series`` prints: the last dimension
    has about k_max * log10(r) digits and all of them half of
    k_max**2 * log10(r)."""
    return round(k_max * k_max * _log_r(n) / 2)


def _series_digits(n: int, k_max: int) -> int:
    """About how many digits the last dimension ``series`` prints has:
    d_k is within 1 of r**k / sqrt(n^2 + 4)."""
    return int(k_max * _log_r(n) - math.log10(n * n + 4) / 2) + 1


def _cmd_series(args) -> int:
    from .characters import fibonacci_dims

    k_max = max(args.max, 0)
    chars = _series_chars(args.fliess, k_max) if args.fliess >= 1 else 0
    if chars > _SERIES_BUDGET:
        raise CliError(
            f"series --max {args.max} would print about {chars} characters, "
            f"over the budget of {_SERIES_BUDGET}"
        )
    # CPython refuses to print an int longer than this limit (0: no limit)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    digits = _series_digits(args.fliess, k_max) if args.fliess >= 1 else 0
    if limit and digits > limit:
        raise CliError(
            f"series --max {args.max} would print a dimension of about {digits} digits, "
            f"over Python's limit of {limit} digits for printing one integer"
        )
    dims = fibonacci_dims(args.fliess, args.max)
    _emit(args.format, [",".join(str(d) for d in dims)], {"dims": dims})
    return 0


# words listed by one `dyck --list`: length 12 (266,798 words, about 3 s)
# fits, length 13 (950,912 words) does not; the count grows about 4x per step
_DYCK_LIST_BUDGET = 300_000

# terms printed by one `compose`: --trunc 8 over 3 letters (9,840 words)
# fits, and under a nilpotency-index-3 map on {a,b,c} with every word of
# length <= 3 on both sides (9,129 terms printed) composes in 7.4 s on a
# 2-CPU Xeon VM with CPython 3.11; --trunc 9 (29,523 words) does not fit
_COMPOSE_BUDGET = 10_000

# characters printed by one `series`: --fliess 2 --max 5000 (4.8 MB, under a
# second) fits, and --max 12000 would pass CPython's 4300-digit print limit
_SERIES_BUDGET = 5_000_000


def _cmd_dyck(args) -> int:
    from .admissible import admissible_words, count_admissible, count_sigma, from_dyck
    from .admissible import parse_upper, sigma_admissible_words, to_dyck, upper_to_str

    if args.count is not None:
        a, s = count_admissible(args.count), count_sigma(args.count)
        _emit(
            args.format,
            [f"admissible: {a}", f"sigma-admissible: {s}"],
            {"length": args.count, "admissible": a, "sigma_admissible": s},
        )
        return 0
    if args.list is not None:
        total = count_admissible(args.list) + count_sigma(args.list)
        if total > _DYCK_LIST_BUDGET:
            raise CliError(
                f"dyck --list {args.list} would list {total} words, over the budget of "
                f"{_DYCK_LIST_BUDGET}; use --count for the numbers"
            )
        words = admissible_words(args.list)
        sigmas = sigma_admissible_words(args.list)
        lines = ["admissible: " + " ".join(upper_to_str(w) for w in words)]
        lines.append("sigma-admissible: " + " ".join(upper_to_str(w) for w in sigmas))
        payload = {
            "admissible": [upper_to_str(w) for w in words],
            "sigma_admissible": [upper_to_str(w) for w in sigmas],
        }
        _emit(args.format, lines, payload)
        return 0
    if args.path is not None:
        w = parse_upper(args.path)
        p = to_dyck(w)
        if from_dyck(p) != w:
            raise RuntimeError("Dyck bijection failed to round-trip; internal error")
        _emit(args.format, [str(p)], {"word": upper_to_str(w), "path": str(p)})
        return 0
    raise CliError("dyck needs one of --count, --list or --path")


def _cmd_tree_map(args) -> int:
    from .trees import TreeTensor, phi_cpl

    value = parse_expression(args.expr)
    if not isinstance(value, TreeTensor):
        value = TreeTensor.parse(args.expr)
    out = Tensor._from_clean(_linear(lambda t: phi_cpl(t, mode=args.mode).items(), value.items()))
    _emit(args.format, [str(out)], {"result": str(out)})
    return 0


def _cmd_fdb(args) -> int:
    from .forests import delta_cobracket, t_word, y_bracket_check

    if args.fdb_verb == "t-word":
        lam = _parse_weights(args.weights)
        poly = t_word(parse_word(args.word), lam)
        _emit(args.format, [str(poly)], {"result": str(poly)})
        return 0
    if args.fdb_verb == "delta":
        lam = _parse_weights(args.weights)
        _emit_pairs(args.format, delta_cobracket(parse_word(args.word), lam, mode=args.mode))
        return 0
    if args.fdb_verb == "bracket":
        lam = parse_rational(args.eigenvalue)
        computed, _ = y_bracket_check(lam, args.k, args.l)
        header = f"[y{args.k}, y{args.l}] = ({args.k - args.l})*y{args.k + args.l}"
        _emit(
            args.format,
            [header, str(computed)],
            {"identity": header, "result": str(computed)},
        )
        return 0
    raise CliError("fdb needs one of: t-word, delta, bracket")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

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
    pool = []
    for n in (1, 2, 3):
        pool.extend(all_partitioned_trees(n, [Letter("a"), Letter("b")]))
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

    pool = []
    for n in (1, 2, 3, 4):
        pool.extend(all_partitioned_trees(n, [Letter("d")]))
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


_CHECKS = [
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
]


def run_verify(seed: int) -> list[dict]:
    """Run every invariant check with its own seeded stream.

    Each entry names the check, its status, the witness of a failure and
    ``elapsed_ms``, the check's wall time in milliseconds, which includes
    importing any layer the check is the first to use.  Everything but
    ``elapsed_ms`` is deterministic for a fixed seed, and the text report
    leaves the timing out, so it is byte-identical from run to run.
    """
    results = []
    for k, (name, fn) in enumerate(_CHECKS):
        rng = random.Random(f"{seed}:{k}")
        start = time.perf_counter()
        try:
            witness = fn(rng)
        except Exception as exc:  # a crash is a failure, not an abort
            witness = f"{type(exc).__name__}: {exc}"
        entry = {"check": name, "status": "pass" if witness is None else "fail"}
        if witness is not None:
            entry["witness"] = witness
        entry["elapsed_ms"] = round((time.perf_counter() - start) * 1000, 3)
        results.append(entry)
    return results


def emit_report(results: list[dict], fmt: str) -> int:
    if fmt == "json":
        import json

        print(json.dumps(results))
    else:
        for entry in results:
            if entry["status"] == "pass":
                print(f"pass  {entry['check']}")
            else:
                print(f"FAIL  {entry['check']}  {entry.get('witness', '')}")
    return 0 if all(e["status"] == "pass" for e in results) else 1


def _cmd_verify(args) -> int:
    return emit_report(run_verify(args.seed), args.format)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    default_fmt = os.environ.get(FORMAT_ENV, "text")
    parser = argparse.ArgumentParser(
        prog="comprelie",
        description="word, tree and series computations in com-pre-lie algebras",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default=default_fmt,
        help=f"output format (default from ${FORMAT_ENV}, else text)",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def with_endo(p):
        p.add_argument(
            "--endo",
            default="fliess(2,1)",
            help="letter endomorphism: fliess(n,i), diag(a=1,...), "
            "biletter-shift, or @file.json",
        )

    p = sub.add_parser("prelie", help="pre-Lie product of two word combinations")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--closed", action="store_true", help="use the closed formula")
    with_endo(p)
    p.set_defaults(fn=_cmd_prelie)

    p = sub.add_parser("bracket", help="Lie bracket (antisymmetrized product)")
    p.add_argument("left")
    p.add_argument("right")
    with_endo(p)
    p.set_defaults(fn=_cmd_bracket)

    p = sub.add_parser("star", help="enveloping product of symmetric monomials")
    p.add_argument("left")
    p.add_argument("right")
    with_endo(p)
    p.set_defaults(fn=_cmd_star)

    p = sub.add_parser("coproduct", help="dual coproduct of a word combination")
    p.add_argument("expr")
    with_endo(p)
    p.set_defaults(fn=_cmd_coproduct)

    p = sub.add_parser("compose", help="group law on truncated series")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--trunc", type=int, default=4, help="truncation length")
    p.add_argument(
        "--tilde", action="store_true", help="reduced composition instead of the group law"
    )
    with_endo(p)
    p.set_defaults(fn=_cmd_compose)

    p = sub.add_parser("series", help="homogeneous dimensions of the series algebra")
    p.add_argument("--fliess", type=int, required=True, help="number of plain inputs")
    p.add_argument("--max", type=int, required=True, help="top degree")
    p.set_defaults(fn=_cmd_series)

    p = sub.add_parser("dyck", help="admissible upper words and their paths")
    p.add_argument("--count", type=int, help="count words of this length")
    p.add_argument("--list", type=int, help="list words of this length")
    p.add_argument("--path", help="Dyck path of an admissible word")
    p.set_defaults(fn=_cmd_dyck)

    p = sub.add_parser("tree-map", help="word image of a partitioned-tree combination")
    p.add_argument("expr")
    p.add_argument("--mode", choices=["direct", "recursive"], default="direct")
    p.set_defaults(fn=_cmd_tree_map)

    p = sub.add_parser("fdb", help="diagonalizable-case forest computations")
    fdb_sub = p.add_subparsers(dest="fdb_verb", required=True)

    q = fdb_sub.add_parser("t-word", help="forest element of a decoration word")
    q.add_argument("word")
    q.add_argument("--weights", required=True, help="eigenvalues, e.g. a=2,b=1/3")
    q.set_defaults(fn=_cmd_fdb)

    q = fdb_sub.add_parser("delta", help="cobracket of a decoration word")
    q.add_argument("word")
    q.add_argument("--weights", required=True, help="eigenvalues, e.g. a=2,b=1/3")
    q.add_argument("--mode", choices=["closed", "projected"], default="closed")
    q.set_defaults(fn=_cmd_fdb)

    q = fdb_sub.add_parser("bracket", help="Witt-type bracket of two y elements")
    q.add_argument("k", type=int)
    q.add_argument("l", type=int)
    q.add_argument("--eigenvalue", default="1", help="the single eigenvalue")
    q.set_defaults(fn=_cmd_fdb)

    p = sub.add_parser("verify", help="run the invariant battery")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.format not in ("text", "json"):
        print(f"error: bad output format {args.format!r}", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input too long or too deeply nested", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
