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

A verb whose output could explode exits 2 before any work once its size
estimate passes its ``_*_BUDGET`` here; ``_refuse_over`` is the one place
that refuses.  Each estimate sits beside the kernel it bounds, in
``prelie``, ``enveloping``, ``characters``, ``admissible``, ``trees`` or
``forests``; library calls are not budgeted.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import re
import sys
from fractions import Fraction
from typing import Sequence

# Each verb imports the layers it calls where it calls them, ``json`` only
# where it prints JSON, and ``verify`` its checks (``checks``), so a process
# loads and compiles only what its verb uses: ``prelie`` never loads the
# trees.
from .words import Rat, Tensor, _bilinear, _linear, parse_rational, parse_tensor, parse_word, rational_to_str

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
        name, value = (s.strip() for s in chunk.split("=", 1))
        if name in out:
            raise CliError(f"weight for {name!r} given twice")
        try:
            out[name] = parse_rational(value)
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


# words listed by one `dyck --list`: length 12 (266,798 words, about 3 s)
# fits, length 13 (950,912 words) does not; the count grows about 4x per step
_DYCK_LIST_BUDGET = 300_000

# terms printed by one `compose`: --trunc 8 over 3 letters (9,840 words)
# fits, and under a nilpotency-index-3 map on {a,b,c} with every word of
# length <= 3 on both sides (9,129 terms printed) composes in 7.4 s on a
# 2-CPU Xeon VM with CPython 3.11; --trunc 9 (29,523 words) does not fit
_COMPOSE_BUDGET = 10_000

# letters of the words written by one `prelie` or `bracket`: x1^150 . x2
# under fliess(2,1) (11,325 words of 151 letters, 1,710,075 letters) fits and
# prints 5.2 MB in 2.0 s at 79 MB peak RSS on a 2-CPU Xeon VM with CPython
# 3.11; x1^200 . x2 (20,100 words of 201 letters, 4,040,100) does not
_PRELIE_BUDGET = 2_000_000

# rows generated by one `coproduct`, as estimated: every word of 11 letters
# under fliess(2,1) (4,213,597; x1^11 prints 5,902 rows in 3.0 s) and c^8
# under a nilpotency-index-3 map on {a,b,c} (4,262,318; 38,679 rows in 8.4 s,
# same VM) fit; 12 letters under fliess(2,1) (27,644,437) do not
_COPRODUCT_BUDGET = 5_000_000

# characters printed by one `series`: --fliess 2 --max 5000 (4.8 MB, under a
# second) fits, and --max 12000 would pass CPython's 4300-digit print limit
_SERIES_BUDGET = 5_000_000

# words printed by one `tree-map`, in either mode: the star on 9 vertices
# (40,320 words) prints in 1.4-2.0 s at 59-64 MB peak RSS on a 2-CPU Xeon VM
# with CPython 3.11, and the star on 10 (362,880 words) takes 17.2 s at 407
# MB in the direct mode there
_TREE_MAP_BUDGET = 50_000

# trees of t_w for one `fdb t-word` or `fdb delta --mode projected`: 9 letters
# (8! = 40,320) fit, abcabcabc under a=2,b=3,c=1/5 taking 0.8 s and 3.6 s at
# 130 MB peak RSS on a 2-CPU Xeon VM with CPython 3.11; 10 (9!) do not
_T_WORD_BUDGET = 50_000

# splittings read by one `fdb delta` in the closed mode: (ab)^9 a (524,286)
# takes 3.4 s at 103 MB peak RSS, same VM; 20 letters (1,048,574) do not fit
_DELTA_BUDGET = 1_000_000


def _refuse_over(budget, estimate: int, claim: str, unit: str, over="the budget of {}") -> None:
    """The one refusal, before any work: exit 2 with "<claim> <estimate>
    <unit>, over <over>" (the budget in its ``{}``) when the estimate passes."""
    if estimate > budget:
        raise CliError(f"{claim} {estimate} {unit}, over {over.format(budget)}")


def _cmd_prelie(args) -> int:
    from .prelie import _prelie_letters, prelie, prelie_closed

    ctx = _ctx_from(args)
    a, b = _as_tensor_arg(args.left), _as_tensor_arg(args.right)
    letters = _prelie_letters(ctx, itertools.product(a.terms, b.terms), _PRELIE_BUDGET)
    _refuse_over(_PRELIE_BUDGET, letters, "prelie could write at least", "letters of words")
    if args.closed:
        closed = _bilinear(lambda u, v: prelie_closed(ctx, u, v).items(), a.items(), b.items())
        out = Tensor._from_clean(closed)
    else:
        out = prelie(ctx, a, b)
    _emit(args.format, [str(out)], {"result": str(out)})
    return 0


def _cmd_bracket(args) -> int:
    from .prelie import _prelie_letters, lie_bracket

    ctx = _ctx_from(args)
    a, b = _as_tensor_arg(args.left), _as_tensor_arg(args.right)
    ab, ba = itertools.product(a.terms, b.terms), itertools.product(b.terms, a.terms)
    letters = _prelie_letters(ctx, itertools.chain(ab, ba), _PRELIE_BUDGET)
    _refuse_over(_PRELIE_BUDGET, letters, "bracket could write at least", "letters of words")
    out = lie_bracket(ctx, a, b)
    _emit(args.format, [str(out)], {"result": str(out)})
    return 0


def _cmd_star(args) -> int:
    from .enveloping import star

    ctx = _ctx_from(args)
    out = star(ctx, _as_sym_arg(args.left), _as_sym_arg(args.right))
    _emit(args.format, [str(out)], {"result": str(out)})
    return 0


def _cmd_coproduct(args) -> int:
    from .enveloping import _coproduct_terms, dual_coproduct

    ctx = _ctx_from(args)
    t = _as_tensor_arg(args.expr)
    rows = _coproduct_terms(ctx, t.terms, _COPRODUCT_BUDGET)
    _refuse_over(_COPRODUCT_BUDGET, rows, "coproduct could print at least", "rows")
    pairs = _linear(lambda w: (((l, r), c) for l, r, c in dual_coproduct(ctx, w)), t.items())
    _emit_pairs(args.format, pairs)
    return 0


def _cmd_compose(args) -> int:
    from .characters import TruncatedSeries, _compose_terms, diamond, tilde_compose

    ctx = _ctx_from(args)
    L = args.trunc
    u = TruncatedSeries(L, _as_tensor_arg(args.left))
    v = TruncatedSeries(L, _as_tensor_arg(args.right))
    letters = set(ctx.alphabet).union(*(w.letters for w in (*u.tensor.terms, *v.tensor.terms)))
    lu, lv = (max(map(len, s.tensor.terms), default=0) for s in (u, v))
    terms = _compose_terms(len(letters), L, lu, lv, _COMPOSE_BUDGET)
    _refuse_over(_COMPOSE_BUDGET, terms, f"compose --trunc {L} could print at least", "terms")
    out = tilde_compose(ctx, u, v) if args.tilde else diamond(ctx, u, v)
    _emit(args.format, [str(out)], {"trunc": L, "result": str(out)})
    return 0


def _cmd_series(args) -> int:
    from .characters import _series_chars, _series_digits, fibonacci_dims

    k_max = max(args.max, 0)
    claim = f"series --max {args.max} would print"
    chars = _series_chars(args.fliess, k_max) if args.fliess >= 1 else 0
    _refuse_over(_SERIES_BUDGET, chars, claim + " about", "characters")
    # CPython refuses to print an int longer than this limit (0: no limit)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    digits = _series_digits(args.fliess, k_max) if args.fliess >= 1 else 0
    over = "Python's limit of {} digits for printing one integer"
    _refuse_over(limit or math.inf, digits, claim + " a dimension of about", "digits", over)
    dims = fibonacci_dims(args.fliess, args.max)
    _emit(args.format, [",".join(str(d) for d in dims)], {"dims": dims})
    return 0


def _cmd_dyck(args) -> int:
    from .admissible import _catalan_digits, admissible_words, count_admissible, count_sigma, from_dyck
    from .admissible import parse_upper, sigma_admissible_words, to_dyck, upper_to_str

    flag, n = ("count", args.count) if args.count is not None else ("list", args.list)
    if n is not None:  # --count prints the counts and --list's refusal quotes them
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        over = "Python's limit of {} digits for printing one integer"
        claim = f"dyck --{flag} {n} needs a count of about"
        _refuse_over(limit or math.inf, _catalan_digits(n), claim, "digits", over)
    if args.count is not None:
        a, s = count_admissible(args.count), count_sigma(args.count)
        payload = {"length": args.count, "admissible": a, "sigma_admissible": s}
        _emit(args.format, [f"admissible: {a}", f"sigma-admissible: {s}"], payload)
        return 0
    if args.list is not None:
        total = count_admissible(args.list) + count_sigma(args.list)
        over = "the budget of {}; use --count for the numbers"
        _refuse_over(_DYCK_LIST_BUDGET, total, f"dyck --list {args.list} would list", "words", over)
        words = [upper_to_str(w) for w in admissible_words(args.list)]
        sigmas = [upper_to_str(w) for w in sigma_admissible_words(args.list)]
        lines = ["admissible: " + " ".join(words), "sigma-admissible: " + " ".join(sigmas)]
        _emit(args.format, lines, {"admissible": words, "sigma_admissible": sigmas})
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
    from .trees import TreeTensor, _tree_map_words, phi_cpl

    value = parse_expression(args.expr)
    if not isinstance(value, TreeTensor):
        value = TreeTensor.parse(args.expr)
    words = _tree_map_words(value.terms)
    _refuse_over(_TREE_MAP_BUDGET, words, f"tree-map --mode {args.mode} could print up to", "words")
    out = Tensor._from_clean(_linear(lambda t: phi_cpl(t, mode=args.mode).items(), value.items()))
    _emit(args.format, [str(out)], {"result": str(out)})
    return 0


def _cmd_fdb(args) -> int:
    from .forests import _delta_splittings, _t_word_trees, delta_cobracket, t_word, y_bracket_check

    if args.fdb_verb == "bracket":
        lam = parse_rational(args.eigenvalue)
        computed, _ = y_bracket_check(lam, args.k, args.l)
        header = f"[y{args.k}, y{args.l}] = ({args.k - args.l})*y{args.k + args.l}"
        _emit(args.format, [header, str(computed)], {"identity": header, "result": str(computed)})
        return 0
    lam, w = _parse_weights(args.weights), parse_word(args.word)
    claim = f"fdb {args.fdb_verb} of {len(w)} letters could"
    if args.fdb_verb == "t-word" or args.mode == "projected":  # both build t_w
        trees = _t_word_trees(len(w), _T_WORD_BUDGET)
        _refuse_over(_T_WORD_BUDGET, trees, claim + " build at least", "trees")
    else:
        splittings = _delta_splittings(len(w), _DELTA_BUDGET)
        _refuse_over(_DELTA_BUDGET, splittings, claim + " read at least", "splittings")
    if args.fdb_verb == "delta":
        _emit_pairs(args.format, delta_cobracket(w, lam, mode=args.mode))
        return 0
    poly = t_word(w, lam)
    _emit(args.format, [str(poly)], {"result": str(poly)})
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def run_verify(seed: int) -> list[dict]:
    """Run every invariant check with its own seeded stream.

    Each entry names the check, its status, the witness of a failure and
    ``elapsed_ms``, the check's wall time in milliseconds, which includes
    importing any layer the check is the first to use.  Everything but
    ``elapsed_ms`` is deterministic for a fixed seed, and the text report
    leaves the timing out, so it is byte-identical from run to run.
    """
    import random
    import time

    from .checks import CHECKS

    results = []
    for k, (name, fn) in enumerate(CHECKS):
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


def __getattr__(name: str):
    # ``_CHECKS``, the named checks of ``verify``, live in ``checks``, which
    # only ``verify`` loads; read here, they load on first use (PEP 562)
    if name == "_CHECKS":
        from .checks import CHECKS

        return CHECKS
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    except (CliError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input too long or too deeply nested", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
