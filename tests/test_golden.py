"""Golden digests: the outputs of the word kernels on fixed seeded inputs,
hashed with their coefficient types, equal the digests in
``tests/golden/digests.json``.

Each digest is a SHA-256 over the terms of every output of one kernel
family, sorted by key: the key's ``repr``, the coefficient's type name and
its value.  ``Fraction(2) == 2``, so an equality test cannot see an int
coefficient turn into a Fraction; a digest can.  The ``cli`` family hashes
the exit code, stdout and stderr of ``comprelie`` commands run in-process:
every verb in both formats, and each refusal one step past its budget.

Run this file as a script (``PYTHONPATH=src python tests/test_golden.py``)
to print which digests differ from the stored ones; it rewrites the file
only when given ``--write``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

from comprelie.cli import main
from comprelie.characters import FliessElement, TruncatedSeries, fliess_tilde, inverse, tilde_compose
from comprelie.endo import Endo, fliess_channel
from comprelie.enveloping import SymMonomial, SymTensor, closed_action, dual_coproduct, extend_bullet, star
from comprelie.forests import Forest, ForestPoly, ck_coproduct, delta_cobracket, forest_star, t_word
from comprelie.prelie import ComPreLieContext, lie_bracket, prelie
from comprelie.trees import all_partitioned_trees, all_rooted_trees, phi_cpl, phi_into, vec
from comprelie.words import Letter, Tensor, Word

GOLDEN = Path(__file__).resolve().parent / "golden" / "digests.json"

UPPER3 = Endo.matrix(
    ["a", "b", "c"], [[0, 1, Fraction(1, 2)], [0, 0, Fraction(-2, 3)], [0, 0, 0]]
)
F21 = fliess_channel(2, 1)
FULL2 = Endo.matrix(["a", "b"], [[1, Fraction(1, 2)], [Fraction(-1, 3), 2]])
NILPOTENT = (UPPER3, F21)
# the shift never maps a letter to 0; its letters carry an index
SHIFT = Endo.biletter_shift()
SHIFT_LETTERS = tuple(Letter(d, k) for d in "ab" for k in (0, 1))
MAPS = (UPPER3, F21, FULL2)
# the nonzero weights of the t elements: the projected cobracket refuses a zero
WEIGHTS = ({"a": 1, "b": 1}, {"a": 2, "b": Fraction(-1, 3)}, {"a": Fraction(3, 2), "b": 4})
AB_WORDS = ["".join(p) for n in range(1, 6) for p in itertools.product("ab", repeat=n)]
AB = [Letter("a"), Letter("b")]


def _coeff(rng: random.Random):
    """An int or a Fraction, so that the digests see both types."""
    n = rng.choice([-3, -2, -1, 1, 2, 3])
    return n if rng.random() < 0.6 else Fraction(n, rng.randint(2, 4))


def _word(rng: random.Random, f: Endo, lo: int, hi: int) -> Word:
    letters = f.alphabet or SHIFT_LETTERS
    return Word(tuple(rng.choice(letters) for _ in range(rng.randint(lo, hi))))


def _tensor(rng: random.Random, f: Endo, terms: int, lo: int, hi: int) -> Tensor:
    return Tensor((_word(rng, f, lo, hi), _coeff(rng)) for _ in range(terms))


def _sym(rng: random.Random, f: Endo) -> SymTensor:
    monos = (SymMonomial(_word(rng, f, 1, 2) for _ in range(rng.randint(1, 2))) for _ in range(2))
    return SymTensor((m, _coeff(rng)) for m in monos)


def _order(k) -> tuple:
    """The sort key of a basis key, or of a tuple of them (a tensor pair)."""
    return tuple(map(_order, k)) if isinstance(k, tuple) else k._key()


def _lines(terms) -> list[str]:
    return [f"{k!r} {type(c).__name__} {c}" for k, c in sorted(terms, key=lambda kc: _order(kc[0]))]


def _forests(rng: random.Random, trees: list) -> ForestPoly:
    """Two forests of one or two of the given rooted trees."""
    forests = (Forest(rng.choice(trees) for _ in range(rng.randint(1, 2))) for _ in range(2))
    return ForestPoly((m, _coeff(rng)) for m in forests)


LONG_X1 = ".".join(["x1"] * 159)  # x1^159 . x2 writes 2,035,200 letters
CLI_COMMANDS = [
    ["prelie", "x1.x2 + 1/2*x1", "x2 - x1.x1"],
    ["prelie", "--closed", "x1.x2 + 1/2*x1", "x2 - x1.x1"],
    ["prelie", "ab", "2*b - a", "--endo", "diag(a=2,b=1/3)"],
    ["prelie", "1:d.0:d", "0:d", "--endo", "biletter-shift"],
    ["bracket", "x1.x2 - x0", "x1 + 3*x2.x1"],
    ["star", "x1 * x2", "x1.x1 + 2*x2"],
    ["coproduct", "x1.x2.x1 - 1/2*x1.x1"],
    ["compose", "x1 + 1/2*x2.x1", "x1.x2 - x2", "--trunc", "4"],
    ["compose", "x1 + 1/2*x2.x1", "x1.x2 - x2", "--trunc", "4", "--tilde"],
    ["series", "--fliess", "2", "--max", "12"],
    ["dyck", "--count", "6"],
    *(["dyck", "--list", str(n)] for n in range(1, 11)),
    ["dyck", "--path", "2100"],
    ["tree-map", "a[b,{c,d}] - 2*{a,b[c]}"],
    ["tree-map", "a[b,{c,d}] - 2*{a,b[c]}", "--mode", "recursive"],
    ["fdb", "t-word", "abc", "--weights", "a=2,b=3,c=1/5"],
    ["fdb", "delta", "abab", "--weights", "a=1,b=-2/3"],
    ["fdb", "delta", "abab", "--weights", "a=1,b=-2/3", "--mode", "projected"],
    ["fdb", "bracket", "2", "3", "--eigenvalue", "1/2"],
    ["verify", "--seed", "0"],
    ["prelie", "x1.(x2", "x1"],
    ["coproduct", "x1", "--endo", "diag(x1=1)"],
    # the refusals, each one step past its budget
    ["prelie", LONG_X1, "x2"],
    ["bracket", "x2", LONG_X1],
    ["coproduct", ".".join(["x1"] * 12)],
    ["compose", "x1.x2.x0", "x1.x2.x0", "--trunc", "9"],
    ["series", "--fliess", "2", "--max", "5112"],
    ["series", "--fliess", "1000", "--max", "1435"],
    ["dyck", "--list", "13"],
    ["tree-map", "a[b,c,d,e,f,g,h,i,j]"],
    ["fdb", "t-word", "abcabcabca", "--weights", "a=2,b=3,c=1/5"],
    ["fdb", "delta", "abcabcabca", "--weights", "a=2,b=3,c=1/5", "--mode", "projected"],
    ["fdb", "delta", "ab" * 10, "--weights", "a=1,b=-2/3"],
]


def cli_lines() -> list[str]:
    """The exit code, stdout and stderr of each command in both formats,
    under CPython's default limit of 4300 digits for printing an int; the
    wall times ``verify`` prints in JSON are left out."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    lines = []
    try:
        for argv in CLI_COMMANDS:
            for fmt in ("text", "json"):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(["--format", fmt, *argv])
                text = re.sub(r', "elapsed_ms": [0-9.e+-]+', "", out.getvalue())
                lines += ["--", repr([fmt, *argv]), f"exit {code}", text, "stderr", err.getvalue()]
    finally:
        sys.set_int_max_str_digits(limit)
    return lines


def outputs() -> dict[str, list[str]]:
    """Every kernel family's outputs on its inputs, one line per term."""
    out: dict[str, list[str]] = {name: [] for name in (
        "prelie", "closed_action", "brace", "star", "extend_bullet",
        "tilde_compose", "inverse", "fliess_tilde", "phi_cpl_recursive",
        "lie_bracket", "t_word", "cobracket_closed", "cobracket_projected",
        "dual_coproduct", "phi_into", "phi_cpl_direct", "ck_coproduct", "forest_star",
        "all_partitioned_trees", "all_rooted_trees")}
    out["cli"] = cli_lines()
    for f in MAPS:
        rng = random.Random(f"golden prelie {f.alphabet}")
        ctx = ComPreLieContext(f)
        for _ in range(30):
            a, b = _tensor(rng, f, 3, 0, 3), _tensor(rng, f, 3, 0, 3)
            out["prelie"] += ["--", *_lines(prelie(ctx, a, b).items())]
        for _ in range(20):
            a, b = _tensor(rng, f, 3, 0, 3), _tensor(rng, f, 3, 0, 3)
            out["lie_bracket"] += ["--", *_lines(lie_bracket(ComPreLieContext(f), a, b).items())]
    for f in NILPOTENT + (FULL2,):
        rng = random.Random(f"golden braces {f.alphabet}")
        ctx = ComPreLieContext(f)
        for _ in range(20):
            w = _word(rng, f, 1, 5)
            factors = [_word(rng, f, 1, 2) for _ in range(rng.randint(1, 3))]
            out["closed_action"] += ["--", *_lines(closed_action(ctx, w, factors).items())]
        for _ in range(10):
            a, b = _sym(rng, f), _sym(rng, f)
            out["star"] += ["--", *_lines(star(ComPreLieContext(f), a, b).items())]
            out["extend_bullet"] += ["--", *_lines(extend_bullet(ComPreLieContext(f), a, b).items())]
    for f in NILPOTENT + (SHIFT,):
        # cold braces of 2-4 factors, one of them repeated up to 4 times;
        # under the nilpotent maps some letters take no share, or none past
        # one or two factors; the shift zeroes no share, so its words are shorter
        rng = random.Random(f"golden brace {f.alphabet}")
        for _ in range(20):
            w = _word(rng, f, 1, 5 if f.alphabet else 3)
            k = rng.randint(2, 4)
            factors = [_word(rng, f, 1, 2)] * rng.randint(1, k)
            factors += [_word(rng, f, 1, 2) for _ in range(k - len(factors))]
            out["brace"] += ["--", *_lines(closed_action(ComPreLieContext(f), w, factors).items())]
    for f in NILPOTENT:
        rng = random.Random(f"golden series {f.alphabet}")
        ctx = ComPreLieContext(f)
        for L in (3, 4, 5, 6):
            u = TruncatedSeries(L, _tensor(rng, f, 6, 1, 3))
            v = TruncatedSeries(L, _tensor(rng, f, 6, 1, 2))
            out["tilde_compose"] += ["--", *_lines(tilde_compose(ctx, u, v).items())]
            out["inverse"] += ["--", *_lines(inverse(ctx, u).items())]
    rng = random.Random("golden fliess")
    for L in (3, 4, 5, 6):
        d = [TruncatedSeries(L, _tensor(rng, F21, 5, 0, 3)) for _ in range(2)]
        for channel in (1, 2, 1, 2):
            c = FliessElement(channel, TruncatedSeries(L, _tensor(rng, F21, 6, 1, 3)))
            out["fliess_tilde"] += ["--", *_lines(fliess_tilde(c, d).series.items())]
    for f in NILPOTENT:
        ctx = ComPreLieContext(f)
        for n in range(1, 6):
            for letters in itertools.product(f.alphabet, repeat=n):
                pairs = (((t, m), c) for t, m, c in dual_coproduct(ctx, Word(letters)))
                out["dual_coproduct"] += ["--", *_lines(pairs)]
        # the last letter heads the longest chain of images; the vec spans them all
        rng = random.Random(f"golden phi_into {f.alphabet}")
        decorations = [f.alphabet[-1], vec({x: _coeff(rng) for x in f.alphabet})]
        for n in (1, 2, 3, 4):
            for t in all_partitioned_trees(n, decorations):
                out["phi_into"] += ["--", *_lines(phi_into(t, ctx).items())]
    for n in (1, 2, 3, 4):
        for t in all_partitioned_trees(n, AB):
            out["phi_cpl_recursive"] += ["--", *_lines(phi_cpl(t, mode="recursive").items())]
            out["phi_cpl_direct"] += ["--", *_lines(phi_cpl(t).items())]
        out["all_partitioned_trees"] += ["--", *map(repr, all_partitioned_trees(n, AB))]
    for n in (1, 2, 3, 4, 5):
        out["all_rooted_trees"] += ["--", *map(repr, all_rooted_trees(n, AB))]
    rooted = [t for n in (1, 2, 3) for t in all_rooted_trees(n, AB)]
    rng = random.Random("golden forests")
    for t in rooted + all_rooted_trees(4, AB):
        out["ck_coproduct"] += ["--", *_lines(ck_coproduct(t).items())]
    for _ in range(20):
        out["ck_coproduct"] += ["--", *_lines(ck_coproduct(_forests(rng, rooted)).items())]
        a, b = _forests(rng, rooted), _forests(rng, rooted)
        out["forest_star"] += ["--", *_lines(forest_star(a, b).items())]
    for lam in WEIGHTS:
        for w in AB_WORDS:
            out["t_word"] += ["--", *_lines(t_word(w, lam).items())]
            out["cobracket_closed"] += ["--", *_lines(delta_cobracket(w, lam).items())]
            projected = delta_cobracket(w, lam, mode="projected")
            out["cobracket_projected"] += ["--", *_lines(projected.items())]
    return out


def digests() -> dict[str, str]:
    return {
        name: hashlib.sha256("\n".join(lines).encode()).hexdigest()
        for name, lines in outputs().items()
    }


def test_golden_digests():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert digests() == expected
    # the two routes of the cobracket, and of phi_cpl, print alike,
    # coefficient types included
    assert expected["cobracket_projected"] == expected["cobracket_closed"]
    assert expected["phi_cpl_direct"] == expected["phi_cpl_recursive"]


if __name__ == "__main__":
    stored = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    now = digests()
    for name, digest in now.items():
        print(f"{name}: {'same' if stored.get(name) == digest else 'CHANGED'} {digest}")
    for name in sorted(set(stored) - set(now)):
        print(f"{name}: GONE")
    if "--write" in sys.argv[1:]:
        GOLDEN.write_text(json.dumps(now, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {GOLDEN}")
    sys.exit(0 if stored == now else 1)
