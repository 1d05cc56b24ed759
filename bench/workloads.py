"""The four benchmark workloads: seeded task streams, ops and checks.

A workload turns a ``random.Random`` into an endless stream of tasks.  A
task holds its inputs, a list of ops and a check.  Each op is one call
into the library (or, for ``cli``, one command-line process) and may read
the outputs of the ops before it.  The check runs after the timed window;
it tests identities on the outputs, never stored golden values, and
returns the indices of the ops it found wrong.

Library functions are looked up on their modules at call time, so the
span wrappers that ``spans.install`` puts there are the ones called.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from time import process_time

import comprelie as cp
from comprelie import cli as cpcli
from comprelie import enveloping as cpenv
from comprelie import forests as cpfo
from comprelie import trees as cptr
from comprelie.admissible import upper_to_str
from comprelie.words import Letter, Word, rational_to_str, word_to_str

UPPER3 = [[0, 1, Fraction(1, 2)], [0, 0, Fraction(-2, 3)], [0, 0, 0]]
FULL3 = [[1, 2, -1], [Fraction(1, 2), 0, 3], [-2, 1, Fraction(1, 3)]]
ABC = tuple(Letter(x) for x in "abc")
X012 = tuple(Letter(f"x{i}") for i in range(3))


class Task:
    """One unit of the closed loop: ops run in order, then one check."""

    __slots__ = ("kind", "key", "ops", "check")

    def __init__(self, kind, inputs, ops, check):
        self.kind = kind
        self.key = kind + "|" + "|".join(str(x) for x in inputs)
        self.ops = ops  # list of (name, fn(outputs so far) -> output)
        self.check = check  # fn(outputs) -> list of (op index, message)


def cpu_clock() -> float:
    """CPU time of this process and of the commands run by ``Launcher``.

    Ops are timed in CPU time, not wall time: the library is
    single-threaded and does no I/O, and on a shared host the wall time
    also counts the time the machine gives to others.  A ``cli`` op's
    time is that of its command process.
    """
    return process_time() + Launcher.cpu_s


class Launcher:
    """Runs commands through ``launcher.py``, a small process, so that a
    command's peak RSS is its own and not the worker's."""

    cpu_s = 0.0  # CPU time of every command run so far

    def __init__(self):
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launcher.py")
        self.proc = subprocess.Popen([sys.executable, path], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def run(self, cmd):
        """Exit code, stdout (stderr merged) and peak RSS in KiB of ``cmd``."""
        self.proc.stdin.write(json.dumps(cmd) + "\n")
        self.proc.stdin.flush()
        code, out, cpu_s, rss_kb = json.loads(self.proc.stdout.readline())
        Launcher.cpu_s += cpu_s
        return code, out, rss_kb

    def close(self):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def run_child(cmd):
    """Run a command to its end; returns its exit code, its stdout and the
    CPU time it used."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return os.waitstatus_to_exitcode(status), out.decode(), usage.ru_utime + usage.ru_stime


def _coeff(rng) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))


def _all_words(letters, max_len: int, min_len: int = 1) -> list[Word]:
    return [Word(t) for n in range(min_len, max_len + 1)
            for t in itertools.product(letters, repeat=n)]


def _expect(got, want, idx, what):
    return [] if got == want else [(idx, what)]


# ---------------------------------------------------------------------------
# series: composition and inverse of truncated series
# ---------------------------------------------------------------------------

class Series:
    """``tilde_compose``/``diamond``/``fliess_*`` and ``inverse`` under the
    Fliess channel map and a 3x3 map of nilpotency index 3.

    Series are drawn uniformly from the word basis up to L; the number of
    terms shrinks as L grows so that one op stays well under a second at
    the seed commit.  Each compose task also checks associativity of
    ``diamond`` on a small sampled triple (length-uniform words, L=3),
    where the f^2 term of the index-3 map is reached.
    """

    name = "series"
    TASKS_PER_S = 18  # at the seed commit, in CPU time; sizes a run
    # (kind, map, L, (min terms, max terms))
    CYCLE = (
        ("compose", "fliess", 4, (6, 10)),
        ("compose", "upper3", 4, (4, 6)),
        ("inverse", "fliess", 4, (4, 6)),
        ("compose", "fliess", 5, (3, 5)),
        ("inverse", "upper3", 3, (4, 6)),
        ("compose", "upper3", 5, (2, 3)),
        ("inverse", "fliess", 5, (2, 3)),
        ("compose", "fliess", 6, (2, 3)),
    )

    def __init__(self):
        self.ctx = {
            "fliess": cp.ComPreLieContext(cp.fliess_channel(2, 1)),
            "upper3": cp.ComPreLieContext(cp.Endo.matrix(list("abc"), UPPER3)),
        }
        self.letters = {"fliess": X012, "upper3": ABC}
        self._basis = {}

    def _series(self, rng, m, L, n):
        key = (m, L)
        if key not in self._basis:
            self._basis[key] = _all_words(self.letters[m], L)
        # one word from each of n equal slices of the basis (ordered by
        # length, then letters): uniform over the basis like a plain
        # sample, but the mix of lengths, which sets the cost, is the same
        # for every seed
        basis = self._basis[key]
        cut = [len(basis) * j // n for j in range(n + 1)]
        words = [basis[rng.randrange(cut[j], cut[j + 1])] for j in range(n)]
        return cp.TruncatedSeries(L, {w: _coeff(rng) for w in words})

    def _small(self, rng, m):
        terms = {}
        n = rng.randint(3, 4)
        while len(terms) < n:
            w = Word(tuple(rng.choice(self.letters[m]) for _ in range(rng.randint(1, 3))))
            terms[w] = _coeff(rng)
        return cp.TruncatedSeries(3, terms)

    def tasks(self, rng):
        for i, (kind, m, L, (lo, hi)) in enumerate(itertools.cycle(self.CYCLE)):
            # term counts step through the range, the same for every seed,
            # so that seeds differ in the words drawn and not in the sizes
            sizes = [lo + (i // len(self.CYCLE) + j) % (hi - lo + 1) for j in range(3)]
            if kind == "compose":
                yield self._compose(rng, m, L, sizes)
            else:
                yield self._inverse(rng, m, L, sizes[0])

    def _compose(self, rng, m, L, sizes):
        ctx = self.ctx[m]
        u, v, w = (self._series(rng, m, L, n) for n in sizes)
        x, y, z = (self._small(rng, m) for _ in range(3))
        ops = [
            ("tilde_compose", lambda o: cp.tilde_compose(ctx, u, v)),
            ("diamond", lambda o: cp.diamond(ctx, u, v)),
        ]
        if m == "fliess":
            ops += [
                ("fliess_tilde", lambda o: cp.fliess_tilde(cp.FliessElement(1, u), (v, w))),
                ("fliess_diamond", lambda o: cp.fliess_diamond((u, w), (v, w))),
            ]

        def check(o):
            bad = _expect(o[1], o[0] + v, 1, "diamond != tilde_compose + v")
            if m == "fliess":
                bad += _expect(o[2].series, o[0], 2, "fliess_tilde != tilde_compose")
                bad += _expect(o[3][0], o[1], 3, "fliess_diamond channel 1 != diamond")
            lhs = cp.diamond(ctx, cp.diamond(ctx, x, y), z)
            rhs = cp.diamond(ctx, x, cp.diamond(ctx, y, z))
            bad += _expect(lhs, rhs, 1, "diamond not associative on sampled triple")
            return bad

        return Task(f"compose-{m}-L{L}", (u, v, w, x, y, z), ops, check)

    def _inverse(self, rng, m, L, n):
        ctx = self.ctx[m]
        u = self._series(rng, m, L, n)

        def check(o):
            if cp.diamond(ctx, u, o[0]) or cp.diamond(ctx, o[0], u):
                return [(0, "u diamond inverse(u) != 0")]
            return []

        return Task(f"inverse-{m}-L{L}", (u,), [("inverse", lambda o: cp.inverse(ctx, u))], check)


# ---------------------------------------------------------------------------
# products: pre-Lie, bracket, star, extension, coproduct, spans at degree 4
# ---------------------------------------------------------------------------

def _mono(*words) -> "cp.SymMonomial":
    return cp.SymMonomial(tuple(words))


class Products:
    """Degree-4 products under a full rational 3x3 map, with one context
    per map for the whole run and inputs drawn from a small word pool so
    the memo caches hit; the coproduct runs under a nilpotent map."""

    name = "products"
    TASKS_PER_S = 1100  # at the seed commit, in CPU time; sizes a run
    # one span task per cycle: it costs as much as a few hundred of the others
    CYCLE = ("pair", "bracket", "star", "pair", "bullet", "coproduct",
             "pair", "bracket", "bullet", "coproduct") * 80 + ("span",)
    ASSOC_EVERY = 8  # star tasks between associativity checks

    def __init__(self):
        self.full = cp.ComPreLieContext(cp.Endo.matrix(list("abc"), FULL3))
        nil = cp.Endo.matrix(list("abc"), UPPER3)
        self.nil = cp.ComPreLieContext(nil)
        self.nil_t = cp.ComPreLieContext(cp.transpose_endo(nil))
        self.pool = None
        self.n_star = 0

    def tasks(self, rng):
        # up to four words of each length 1..3, fixed for the run
        self.pool = {n: rng.sample(_all_words(ABC, n, n), min(4, 3 ** n)) for n in (1, 2, 3)}
        self.generators = itertools.cycle([
            cp.Tensor({Word((x,)): rng.choice((-2, -1, 1, 2)) for x in ABC}) for _ in range(3)])
        self.combos = [cp.Tensor({self._word(rng, 2): _coeff(rng) for _ in range(2)})
                       for _ in range(24)]
        make = {"pair": self._pair, "bracket": self._bracket, "star": self._star,
                "bullet": self._bullet, "coproduct": self._coproduct, "span": self._span}
        for kind in itertools.cycle(self.CYCLE):
            yield make[kind](rng)

    def _word(self, rng, n):
        return rng.choice(self.pool[n])

    def _pair(self, rng):
        k = rng.randint(1, 3)
        u, v = self._word(rng, k), self._word(rng, 4 - k)
        ctx = self.full
        ops = [("prelie", lambda o: cp.prelie(ctx, u, v)),
               ("prelie_closed", lambda o: cp.prelie_closed(ctx, u, v))]
        return Task("pair", (u, v), ops,
                    lambda o: _expect(o[1], o[0], 1, "prelie_closed != prelie"))

    def _bracket(self, rng):
        x, y = rng.choice(self.combos), rng.choice(self.combos)
        ctx = self.full
        ops = [("lie_bracket", lambda o: cp.lie_bracket(ctx, x, y)),
               ("lie_bracket swapped", lambda o: cp.lie_bracket(ctx, y, x))]
        return Task("bracket", (x, y), ops,
                    lambda o: _expect(o[1], -o[0], 1, "bracket not antisymmetric"))

    SHAPES = (((1, 1), (2,)), ((2,), (1, 1)), ((1,), (1, 2)), ((2,), (2,)), ((1, 2), (1,)))

    def _star(self, rng):
        sa, sb = rng.choice(self.SHAPES)
        a = _mono(*(self._word(rng, n) for n in sa))
        b = _mono(*(self._word(rng, n) for n in sb))
        c = _mono(self._word(rng, 1))
        self.n_star += 1
        sampled = self.n_star % self.ASSOC_EVERY == 1
        ctx = self.full

        def check(o):
            # A * B is the sum over the splittings of B's factors of
            # (A . B_in) times B_out
            split = cp.SymTensor()
            k = len(b.factors)
            for mask in range(1 << k):
                inside = _mono(*(b.factors[j] for j in range(k) if mask >> j & 1))
                outside = _mono(*(b.factors[j] for j in range(k) if not mask >> j & 1))
                part = cp.extend_bullet(ctx, a, inside)
                split = split + cp.SymTensor({m.times(outside): x for m, x in part.items()})
            bad = _expect(o[0], split, 0, "star != sum of split bullet products")
            if sampled:
                lhs = cp.star(ctx, o[0], c)
                rhs = cp.star(ctx, a, cp.star(ctx, b, c))
                bad += _expect(lhs, rhs, 0, "star not associative on sampled triple")
            return bad

        return Task("star", (a, b, c, sampled), [("star", lambda o: cp.star(ctx, a, b))], check)

    BULLET_SHAPES = ((2, (1, 1)), (3, (1,)), (2, (2,)), (1, (1, 2)))

    def _bullet(self, rng):
        n, fs = rng.choice(self.BULLET_SHAPES)
        w = self._word(rng, n)
        factors = [self._word(rng, k) for k in fs]
        ctx = self.full
        ops = [("extend_bullet", lambda o: cp.extend_bullet(ctx, _mono(w), _mono(*factors))),
               ("closed_action", lambda o: cp.closed_action(ctx, w, factors))]
        return Task("bullet", (w, *factors), ops,
                    lambda o: _expect(o[1], o[0], 1, "closed_action != extend_bullet"))

    def _coproduct(self, rng):
        w = Word(tuple(rng.choice(ABC) for _ in range(4)))
        ctx, dual = self.nil, self.nil_t

        def check(o):
            # full coproduct of the one-factor monomial w, built from the rows
            delta = {(cpenv.ONE, _mono(w)): 1}
            for t, m, c in o[0]:
                delta[(_mono(t), m)] = delta.get((_mono(t), m), 0) + c
            bad = _expect(delta, cp.full_coproduct(ctx, _mono(w)), 0,
                               "dual_coproduct rows != full_coproduct")
            target = cp.SymTensor.of(_mono(w))
            # the duality with the star is stated for one-factor monomials
            for a, b in delta:
                if len(a.factors) != 1 or len(b.factors) != 1:
                    continue
                lhs = cp.pair_tensor(cp.star(dual, a, b), target)
                rhs = sum(c * cp.sym_pairing(a, a2) * cp.sym_pairing(b, b2)
                          for (a2, b2), c in delta.items())
                if lhs != rhs:
                    return bad + [(0, f"coproduct not dual to star at {a} (x) {b}")]
            return bad

        return Task("coproduct", (w,), [("dual_coproduct", lambda o: cp.dual_coproduct(ctx, w))], check)

    def _span(self, rng):
        g = next(self.generators)
        ctx = self.full

        def check(o):
            # a rescaled generator generates the same subalgebra
            dim = cp.span_dimension_of_products(ctx, [g.scale(Fraction(-3, 2))], 4)
            return _expect(o[0], dim, 0, "span dimension changed under rescaling")

        ops = [("span_dimension_of_products",
                lambda o: cp.span_dimension_of_products(ctx, [g], 4))]
        return Task("span", (g,), ops, check)


# ---------------------------------------------------------------------------
# trees: partitioned trees, their word images, forests and the cobracket
# ---------------------------------------------------------------------------

class Trees:
    """Tree enumeration, ``phi_cpl`` in both modes, injectivity ranks,
    ``forest_star`` of multi-tree forests and the forest expansions with
    the cobracket in both modes."""

    name = "trees"
    TASKS_PER_S = 315  # at the seed commit, in CPU time; sizes a run
    CYCLE = ("phi", "fstar", "cobracket", "phi", "enumerate", "fstar",
             "cobracket", "phi", "rank", "fstar")
    ENUMERATE = ((3, "ab"), (4, "d"), (5, "d"), (4, "ab"))
    DUALITY_EVERY = 64  # forest_star tasks between duality checks

    def __init__(self):
        self.AB = [Letter("a"), Letter("b")]
        self.n_fstar = 0

    def tasks(self, rng):
        self.phi_pool = [t for n in (2, 3, 4) for t in cptr.all_partitioned_trees(n, self.AB)]
        self.forest_pool = [t for n in (1, 2, 3) for t in cptr.all_rooted_trees(n, self.AB)]
        self.weights = [{x: Fraction(rng.randint(1, 4), rng.randint(1, 3)) for x in "ab"}
                        for _ in range(3)]
        enum = itertools.cycle(self.ENUMERATE)
        rank = itertools.cycle((3, 4, 5))
        for kind in itertools.cycle(self.CYCLE):
            if kind == "phi":
                yield self._phi(rng.choice(self.phi_pool))
            elif kind == "enumerate":
                yield self._enumerate(*next(enum))
            elif kind == "rank":
                yield self._rank(next(rank))
            elif kind == "fstar":
                yield self._fstar(rng)
            else:
                yield self._cobracket(rng)

    def _phi(self, t):
        ops = [("phi_cpl direct", lambda o: cp.phi_cpl(t, mode="direct")),
               ("phi_cpl recursive", lambda o: cp.phi_cpl(t, mode="recursive"))]
        return Task("phi", (t,), ops,
                    lambda o: _expect(o[1], o[0], 1, "phi_cpl modes disagree"))

    def _enumerate(self, n, decs):
        letters = [Letter(x) for x in decs]

        def check(o):
            ts = o[0]
            if len(set(ts)) != len(ts):
                return [(0, "duplicate trees")]
            if any(t.size != n or cp.parse_tree(cp.tree_to_str(t)) != t for t in ts):
                return [(0, "tree of wrong size or not canonical")]
            return []

        ops = [("all_partitioned_trees", lambda o: cp.all_partitioned_trees(n, letters))]
        return Task("enumerate", (n, decs), ops, check)

    def _rank(self, degree):
        def check(o):
            r, n = o[0]
            return [] if r == n else [(0, f"rank {r} < {n}: word images not injective")]

        return Task("rank", (degree,), [("injectivity_rank", lambda o: cp.injectivity_rank(degree))], check)

    def _fstar(self, rng):
        a = cp.Forest(tuple(rng.choice(self.forest_pool[:8]) for _ in range(2)))
        b = cp.Forest(tuple(rng.choice(self.forest_pool[:8]) for _ in range(rng.randint(1, 2))))
        self.n_fstar += 1
        sampled = self.n_fstar % self.DUALITY_EVERY == 1

        def check(o):
            # a * b is the sum over the splittings of b's trees of
            # (a . b_in) times b_out
            split = cp.ForestPoly()
            k = len(b.trees)
            for mask in range(1 << k):
                inside = cp.Forest(tuple(b.trees[j] for j in range(k) if mask >> j & 1))
                outside = cp.ForestPoly.of(cp.Forest(tuple(b.trees[j] for j in range(k) if not mask >> j & 1)))
                split = split + cpfo.forest_bullet(a, inside) * outside
            bad = _expect(o[0], split, 0, "forest_star != sum of split grafting products")
            if sampled:
                for c in o[0].support():
                    rhs = sum(k * cpfo.pairing(a, l) * cpfo.pairing(b, r)
                              for (l, r), k in cp.ck_coproduct(c).items())
                    if cpfo.pairing(o[0], c) != rhs:
                        return bad + [(0, f"forest_star not dual to the cut coproduct at {c}")]
            return bad

        return Task("fstar", (a, b, sampled), [("forest_star", lambda o: cp.forest_star(a, b))], check)

    def _cobracket(self, rng):
        w = Word(tuple(rng.choice(self.AB) for _ in range(rng.randint(3, 4))))
        lam = rng.choice(self.weights)
        ops = [("t_word", lambda o: cp.t_word(w, lam)),
               ("delta_cobracket closed", lambda o: cp.delta_cobracket(w, lam, mode="closed")),
               ("delta_cobracket projected", lambda o: cp.delta_cobracket(w, lam, mode="projected"))]

        def check(o):
            bad = _expect(o[2], o[1], 2, "cobracket modes disagree")
            # the tree (x) tree part of the cut coproduct of t_w is the
            # cobracket written in the t basis
            target = {k: c for k, c in cp.ck_coproduct(o[0]).items()
                      if k[0].is_tree() and k[1].is_tree()}
            expanded: dict = {}
            for (u, v), c in o[1].items():
                for f, a in cp.t_word(u, lam).items():
                    for g, b in cp.t_word(v, lam).items():
                        expanded[(f, g)] = expanded.get((f, g), 0) + c * a * b
            expanded = {k: c for k, c in expanded.items() if c}
            return bad + _expect(target, expanded, 0, "t_word does not carry the cobracket")

        return Task("cobracket", (w, sorted(lam.items())), ops, check)


# ---------------------------------------------------------------------------
# cli: one fresh command-line process per op
# ---------------------------------------------------------------------------

class Cli:
    """Each op is a fresh ``python -m comprelie.cli`` process; the check
    compares its exit code and stdout with the library result printed in
    this process."""

    name = "cli"
    TASKS_PER_S = 6  # at the seed commit, in CPU time; sizes a run
    CYCLE = ("verify", "prelie", "star", "coproduct", "compose", "dyck",
             "tree-map", "fdb-delta")

    def __init__(self, traced_child=None, span_dir=None):
        self.ctx = cp.ComPreLieContext(cp.fliess_channel(2, 1))
        self.traced_child = traced_child  # script path when tracing
        self.span_dir = span_dir
        self.span_files: list[str] = []
        self.max_rss_kb = 0
        self.launcher = None
        self.n_verify = 0

    def close(self):
        if self.launcher is not None:
            self.launcher.close()
            self.launcher = None

    def run(self, argv):
        """Run one command; returns (exit code, stdout)."""
        if self.traced_child:
            span_file = os.path.join(self.span_dir, f"cli-{len(self.span_files)}.spans")
            self.span_files.append(span_file)
            cmd = [sys.executable, self.traced_child, span_file, *argv]
        else:
            cmd = [sys.executable, "-m", "comprelie.cli", *argv]
        if self.launcher is None:
            self.launcher = Launcher()
        code, out, rss_kb = self.launcher.run(cmd)
        self.max_rss_kb = max(self.max_rss_kb, rss_kb)
        return code, out

    def tasks(self, rng):
        make = {"verify": self._verify, "prelie": self._prelie, "star": self._star,
                "coproduct": self._coproduct, "compose": self._compose, "dyck": self._dyck,
                "tree-map": self._tree_map, "fdb-delta": self._fdb_delta}
        self.tree_pool = [t for n in (2, 3, 4) for t in
                          cptr.all_partitioned_trees(n, [Letter("a"), Letter("b")])]
        for kind in itertools.cycle(self.CYCLE):
            argv, expect = make[kind](rng)
            yield self._task(kind, argv, expect)

    def _task(self, kind, argv, expect):
        def check(o):
            code, out = o[0]
            if code != 0:
                return [(0, f"exit code {code}: {out[-200:]}")]
            if out != expect():
                return [(0, "stdout differs from the library result")]
            return []

        return Task(f"cli-{kind}", argv, [(kind, lambda o: self.run(argv))], check)

    def _tensor(self, rng, max_len):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            w = Word(tuple(rng.choice(X012) for _ in range(rng.randint(1, max_len))))
            terms[w] = Fraction(rng.randint(1, 3), rng.choice((1, 1, 2)))
        return cp.Tensor(terms)

    def _verify(self, rng):
        # verify's cost depends on its seed, and verify ops make up this
        # workload's tail, so every run goes through the same seeds 1..10
        self.n_verify += 1
        seed = (self.n_verify - 1) % 10 + 1
        names = [name for name, _ in cpcli._CHECKS]
        return ["verify", "--seed", str(seed)], lambda: "".join(f"pass  {n}\n" for n in names)

    def _prelie(self, rng):
        a, b = self._tensor(rng, 3), self._tensor(rng, 2)
        return (["prelie", str(a), str(b)],
                lambda: f"{cp.prelie(self.ctx, a, b)}\n")

    def _star(self, rng):
        def mono():
            return _mono(*(Word(tuple(rng.choice(X012) for _ in range(rng.randint(1, 2))))
                           for _ in range(rng.randint(1, 2))))
        a, b = mono(), mono()
        return (["star", str(a), str(b)],
                lambda: f"{cp.star(self.ctx, a, b)}\n")

    def _coproduct(self, rng):
        w = Word(tuple(rng.choice(X012) for _ in range(rng.randint(3, 4))))

        def expect():
            rows = sorted((word_to_str(t), str(m), c) for t, m, c in cp.dual_coproduct(self.ctx, w))
            return "".join(f"{t} (x) {m} : {rational_to_str(c)}\n" for t, m, c in rows)

        return ["coproduct", word_to_str(w)], expect

    def _compose(self, rng):
        L = rng.randint(3, 4)
        u, v = (cp.TruncatedSeries(L, self._tensor(rng, L)) for _ in range(2))
        return (["compose", str(u), str(v), "--trunc", str(L)],
                lambda: f"{cp.diamond(self.ctx, u, v)}\n")

    def _dyck(self, rng):
        n = rng.randint(4, 7)

        def expect():
            words = " ".join(upper_to_str(w) for w in cp.admissible_words(n))
            sigmas = " ".join(upper_to_str(w) for w in cp.sigma_admissible_words(n))
            return f"admissible: {words}\nsigma-admissible: {sigmas}\n"

        return ["dyck", "--list", str(n)], expect

    def _tree_map(self, rng):
        t = rng.choice(self.tree_pool)
        mode = rng.choice(("direct", "recursive"))
        return (["tree-map", cp.tree_to_str(t), "--mode", mode],
                lambda: f"{cp.phi_cpl(t, mode=mode)}\n")

    def _fdb_delta(self, rng):
        w = "".join(rng.choice("ab") for _ in range(rng.randint(2, 4)))
        lam = {"a": Fraction(rng.randint(1, 4), rng.randint(1, 3)),
               "b": Fraction(rng.randint(1, 4), rng.randint(1, 3))}
        mode = rng.choice(("closed", "projected"))
        weights = ",".join(f"{k}={rational_to_str(c)}" for k, c in lam.items())

        def expect():
            rows = sorted((word_to_str(u), word_to_str(v), c)
                          for (u, v), c in cp.delta_cobracket(w, lam, mode=mode).items())
            return "".join(f"{u} (x) {v} : {rational_to_str(c)}\n" for u, v, c in rows)

        return ["fdb", "delta", w, "--weights", weights, "--mode", mode], expect


WORKLOADS = {w.name: w for w in (Series, Products, Trees, Cli)}


# ---------------------------------------------------------------------------
# perturbation for the self-test of the checks
# ---------------------------------------------------------------------------

def perturb(x):
    """The same result with one coefficient (or one entry) changed."""
    if isinstance(x, cp.TruncatedSeries):
        return cp.TruncatedSeries(x.trunc, perturb(x.tensor))
    if isinstance(x, cp.FliessElement):
        return cp.FliessElement(x.channel, perturb(x.series))
    terms = getattr(x, "terms", None)
    if isinstance(terms, dict):
        return type(x)(_bump_first(terms, _unit_key(x)))
    if isinstance(x, dict):
        return _bump_first(x, None)
    if isinstance(x, tuple) and len(x) == 2 and isinstance(x[1], str):  # (exit code, stdout)
        return (x[0], _perturb_text(x[1]))
    if isinstance(x, tuple) and all(isinstance(e, int) for e in x):  # (rank, count)
        return (x[0] - 1,) + x[1:]
    if isinstance(x, tuple):
        return (perturb(x[0]),) + x[1:]
    if isinstance(x, list) and x and isinstance(x[0], tuple):  # coproduct rows
        t, m, c = x[0]
        return [(t, m, c + 1)] + x[1:]
    if isinstance(x, list):  # a list of trees: repeat one
        return x[:-1] + x[:1] if len(x) > 1 else x + x
    if isinstance(x, int):
        return x + 1
    raise TypeError(f"cannot perturb {type(x).__name__}")


def _unit_key(x):
    if isinstance(x, cp.Tensor):
        return Word(())
    if isinstance(x, cp.SymTensor):
        return cpenv.ONE
    if isinstance(x, cp.ForestPoly):
        return cp.Forest()
    return None


def _bump_first(d: dict, fallback):
    out = dict(d)
    key = next(iter(out), fallback)
    out[key] = out.get(key, 0) + 1
    if not out[key]:
        out[key] = 2
    return out


def _perturb_text(s: str) -> str:
    for i, ch in enumerate(s):
        if ch.isdigit():
            return s[:i] + ("1" if ch != "1" else "2") + s[i + 1:]
    return s + "0"
