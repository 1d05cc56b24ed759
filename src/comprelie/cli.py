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
import json
import os
import random
import re
import sys
from fractions import Fraction
from typing import Sequence

from .admissible import (
    admissible_words,
    count_admissible,
    count_sigma,
    from_dyck,
    parse_upper,
    sigma_admissible_words,
    to_dyck,
    upper_to_str,
)
from .characters import (
    TruncatedSeries,
    diamond,
    fibonacci_dims,
    inverse,
    tilde_compose,
)
from .endo import Endo, diagonal_weights, fliess_channel, load_endo, transpose_endo
from .enveloping import (
    SymMonomial,
    SymTensor,
    dual_coproduct,
    full_coproduct,
    pair_tensor,
    star,
    sym_pairing,
)
from .forests import delta_cobracket, t_word, y_bracket_check
from .prelie import ComPreLieContext, lie_bracket, prelie, prelie_closed
from .trees import (
    TreeTensor,
    all_partitioned_trees,
    free_bullet,
    parse_tree,
    phi_cpl,
)
from .words import (
    Letter,
    Rat,
    Tensor,
    Word,
    _add_into,
    _split_coeff,
    _split_signed,
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


def parse_tree_tensor(src: str) -> TreeTensor:
    src = src.strip()
    if src == "0":
        return TreeTensor()
    _check_balance(src)
    pairs = []
    for sign, term in _split_signed(src):
        coeff, body = _split_coeff(term)
        pairs.append((parse_tree(body), sign * coeff))
    return TreeTensor(pairs)


def parse_sym_tensor(src: str) -> SymTensor:
    src = src.strip()
    if src == "0":
        return SymTensor()
    pairs = []
    for sign, term in _split_signed(src):
        # factors first: in "2 * a" the 2 is a word, in "2*a * b" a coefficient
        first, *rest = term.split(" * ")
        coeff, first = _split_coeff(first)
        factors = [f.strip() for f in (first, *rest)]
        words = [parse_word(f) for f in factors if f != "1"]
        pairs.append((SymMonomial.of(*words), sign * coeff))
    return SymTensor(pairs)


def parse_expression(
    src: str, trunc: int | None = None
) -> Tensor | SymTensor | TreeTensor | TruncatedSeries:
    """Parse any printed expression back into its algebra.

    Brackets select tree combinations, a spaced " * " selects symmetric
    monomials, anything else is a word combination; ``trunc`` wraps the
    word case in a truncated series.
    """
    src = src.strip()
    if not src:
        raise CliError("empty expression")
    _check_balance(src)
    try:
        if "[" in src or "{" in src:
            return parse_tree_tensor(src)
        if " * " in src:
            return parse_sym_tensor(src)
        t = parse_tensor(src)
    except ValueError as exc:
        raise CliError(f"bad expression {src!r}: {exc}") from None
    if trunc is not None:
        return TruncatedSeries(trunc, t)
    return t


def _as_tensor_arg(src: str) -> Tensor:
    value = parse_expression(src)
    if not isinstance(value, Tensor):
        raise CliError(f"expected a word combination, got {src!r}")
    return value


def _as_sym_arg(src: str) -> SymTensor:
    try:
        return parse_sym_tensor(src)
    except ValueError as exc:
        raise CliError(f"bad monomial expression {src!r}: {exc}") from None


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _emit(fmt: str, lines: Sequence[str], payload) -> None:
    if fmt == "json":
        print(json.dumps(payload))
    else:
        for line in lines:
            print(line)


def _num(c: Rat):
    """A JSON-safe rational: ints stay ints, fractions become strings."""
    f = Fraction(c)
    return int(f) if f.denominator == 1 else str(f)


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def _ctx_from(args) -> ComPreLieContext:
    return ComPreLieContext(parse_endo_spec(args.endo))


def _cmd_prelie(args) -> int:
    ctx = _ctx_from(args)
    a, b = _as_tensor_arg(args.left), _as_tensor_arg(args.right)
    if args.closed:
        out = Tensor()
        for u, cu in a.items():
            for v, cv in b.items():
                out = out + prelie_closed(ctx, u, v).scale(cu * cv)
    else:
        out = prelie(ctx, a, b)
    _emit(args.format, [str(out)], {"result": str(out)})
    return 0


def _cmd_bracket(args) -> int:
    ctx = _ctx_from(args)
    out = lie_bracket(ctx, _as_tensor_arg(args.left), _as_tensor_arg(args.right))
    _emit(args.format, [str(out)], {"result": str(out)})
    return 0


def _cmd_star(args) -> int:
    ctx = _ctx_from(args)
    out = star(ctx, _as_sym_arg(args.left), _as_sym_arg(args.right))
    _emit(args.format, [str(out)], {"result": str(out)})
    return 0


def _cmd_coproduct(args) -> int:
    ctx = _ctx_from(args)
    t = _as_tensor_arg(args.expr)
    acc: dict[tuple[Word, SymMonomial], Rat] = {}
    for w, c in t.items():
        _add_into(acc, (((left, right), coeff) for left, right, coeff in dual_coproduct(ctx, w)), c)
    rows = sorted(
        ((word_to_str(l), str(r), c) for (l, r), c in acc.items()),
        key=lambda row: (row[0], row[1]),
    )
    lines = [f"{lt} (x) {rt} : {rational_to_str(c)}" for lt, rt, c in rows]
    payload = [{"left": lt, "right": rt, "coeff": _num(c)} for lt, rt, c in rows]
    _emit(args.format, lines, payload)
    return 0


def _cmd_compose(args) -> int:
    ctx = _ctx_from(args)
    L = args.trunc
    u = TruncatedSeries(L, _as_tensor_arg(args.left))
    v = TruncatedSeries(L, _as_tensor_arg(args.right))
    out = tilde_compose(ctx, u, v) if args.tilde else diamond(ctx, u, v)
    _emit(args.format, [str(out)], {"trunc": L, "result": str(out)})
    return 0


def _cmd_series(args) -> int:
    dims = fibonacci_dims(args.fliess, args.max)
    _emit(args.format, [",".join(str(d) for d in dims)], {"dims": dims})
    return 0


def _cmd_dyck(args) -> int:
    if args.count is not None:
        a, s = count_admissible(args.count), count_sigma(args.count)
        _emit(
            args.format,
            [f"admissible: {a}", f"sigma-admissible: {s}"],
            {"length": args.count, "admissible": a, "sigma_admissible": s},
        )
        return 0
    if args.list is not None:
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
    value = parse_expression(args.expr)
    if isinstance(value, (Tensor, SymTensor)):
        value = parse_tree_tensor(args.expr)
    out = Tensor()
    for t, c in value.terms.items():
        out = out + phi_cpl(t, mode=args.mode).scale(c)
    _emit(args.format, [str(out)], {"result": str(out)})
    return 0


def _cmd_fdb(args) -> int:
    if args.fdb_verb == "t-word":
        lam = _parse_weights(args.weights)
        poly = t_word(parse_word(args.word), lam)
        _emit(args.format, [str(poly)], {"result": str(poly)})
        return 0
    if args.fdb_verb == "delta":
        lam = _parse_weights(args.weights)
        pairs = delta_cobracket(parse_word(args.word), lam, mode=args.mode)
        rows = sorted(
            ((word_to_str(u), word_to_str(v), c) for (u, v), c in pairs.items()),
            key=lambda row: (row[0], row[1]),
        )
        lines = [f"{u} (x) {v} : {rational_to_str(c)}" for u, v, c in rows]
        payload = [{"left": u, "right": v, "coeff": _num(c)} for u, v, c in rows]
        _emit(args.format, lines, payload)
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
    ctx = ComPreLieContext(_rand_endo(rng, ["a", "b"]))
    ab = [Letter("a"), Letter("b")]
    for _ in range(8):
        u, v = _rand_word(rng, ab, 3), _rand_word(rng, ab, 3)
        if prelie(ctx, u, v) != prelie_closed(ctx, u, v):
            return f"routes disagree at {word_to_str(u)} . {word_to_str(v)}"
    return None


def _check_star(rng: random.Random) -> str | None:
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
    expected = {1: [0, 1, 1, 2, 3, 5], 2: [0, 1, 2, 5, 12, 29]}
    for n, dims in expected.items():
        got = fibonacci_dims(n, 5)
        if got != dims:
            return f"n={n}: got {got}"
    return None


def _check_dyck(rng: random.Random) -> str | None:
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
    ctx = ComPreLieContext(Endo.biletter_shift())
    pool = []
    for n in (1, 2, 3):
        pool.extend(all_partitioned_trees(n, [Letter("a"), Letter("b")]))
    for _ in range(4):
        t1, t2 = rng.choice(pool), rng.choice(pool)
        lhs = Tensor()
        for t, c in free_bullet(t1, t2).terms.items():
            lhs = lhs + phi_cpl(t).scale(c)
        rhs = prelie(ctx, phi_cpl(t1), phi_cpl(t2))
        if lhs != rhs:
            return f"morphism broke at {t1} . {t2}"
    return None


def _check_tree_routes(rng: random.Random) -> str | None:
    pool = []
    for n in (1, 2, 3, 4):
        pool.extend(all_partitioned_trees(n, [Letter("d")]))
    for t in rng.sample(pool, 6):
        if phi_cpl(t, mode="recursive") != phi_cpl(t, mode="direct"):
            return f"routes disagree at {t}"
    return None


def _check_fdb_modes(rng: random.Random) -> str | None:
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
    """Run every invariant check with its own seeded stream; the report
    is deterministic for a fixed seed."""
    results = []
    for k, (name, fn) in enumerate(_CHECKS):
        rng = random.Random(f"{seed}:{k}")
        try:
            witness = fn(rng)
        except Exception as exc:  # a crash is a failure, not an abort
            witness = f"{type(exc).__name__}: {exc}"
        entry = {"check": name, "status": "pass" if witness is None else "fail"}
        if witness is not None:
            entry["witness"] = witness
        results.append(entry)
    return results


def emit_report(results: list[dict], fmt: str) -> int:
    if fmt == "json":
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
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
