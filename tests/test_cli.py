"""CLI behavior: the grammars round-trip through the printers, the
documented invocations print exactly what they promise, and exit codes
separate usage errors (2) from failed checks (1)."""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import itertools
import json
import random
import sys
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from comprelie import admissible, characters, cli, enveloping
from comprelie.cli import (
    CliError,
    emit_report,
    main,
    parse_endo_spec,
    parse_expression,
    run_verify,
)
from comprelie.characters import fibonacci_dims
from comprelie.endo import Endo, fliess_channel, save_endo
from comprelie.enveloping import SymTensor, dual_coproduct
from comprelie.prelie import ComPreLieContext, lie_bracket, prelie
from comprelie.trees import TreeTensor, all_partitioned_trees, linear_extensions, parse_tree, phi_cpl
from comprelie.words import Letter, Tensor, Word


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# every production: empty word, compact and dotted words, shifted
# letters, rational and negative coefficients, the empty monomial "1",
# multi-factor monomials, nested trees, blocks, zero
CORPUS = [
    "0",
    "e",
    "ab",
    "x1 + x0.x1",
    "-2*e + 3/2*ab",
    "1:d + 2:d.0:d",
    "x1 * x2",
    "2*x1 + x2 * x1.x2",
    "3*1 - x1 * x1 * x2",
    "e * ab",
    "a[b]",
    "d[d] + 2*a[b,{c,d}]",
    "a[b] - 2*b[a]",
    "{a,b[c]}",
]


def test_print_parse_round_trip():
    for src in CORPUS:
        assert str(parse_expression(src)) == src
    # tree combinations print sorted; other orders and "+ -" still parse
    assert parse_expression("2*a[b,{c,d}] + d[d]") == parse_expression("d[d] + 2*a[b,{c,d}]")
    assert parse_expression("a[b] + -2*b[a]") == parse_expression("a[b] - 2*b[a]")


def test_parse_expression_types():
    assert isinstance(parse_expression("x1 + e"), Tensor)
    assert isinstance(parse_expression("x1 * x2"), SymTensor)
    assert isinstance(parse_expression("a[b,c]"), TreeTensor)


def test_parse_expression_errors():
    with pytest.raises(CliError, match="empty"):
        parse_expression("   ")
    with pytest.raises(CliError, match="position 1"):
        parse_expression("a[b[c]")
    with pytest.raises(CliError, match="position 4"):
        parse_expression("a[b]}")
    with pytest.raises(CliError, match="bad expression"):
        parse_expression("x1 ? x2")


def test_prelie_example(capsys):
    code, out, _ = run(capsys, "prelie", "x1.x2", "x1")
    assert code == 0
    assert out == "x0.x1.x2 + x0.x2.x1\n"


def test_prelie_closed_route_agrees(capsys):
    _, direct, _ = run(capsys, "prelie", "x1.x1 - 2*x2", "x1.x2")
    _, closed, _ = run(capsys, "prelie", "x1.x1 - 2*x2", "x1.x2", "--closed")
    assert direct == closed


def test_series_dims(capsys):
    code, out, _ = run(capsys, "series", "--fliess", "2", "--max", "5")
    assert code == 0
    assert out == "0,1,2,5,12,29\n"


def test_dyck_count(capsys):
    code, out, _ = run(capsys, "dyck", "--count", "5")
    assert code == 0
    assert out.splitlines()[0] == "admissible: 14"
    assert out.splitlines()[1] == "sigma-admissible: 42"


def test_dyck_count_is_closed_form(capsys):
    # the counts are Catalan numbers; length 40 is far past enumeration
    code, out, _ = run(capsys, "dyck", "--count", "40")
    assert code == 0
    assert out.splitlines() == [
        f"admissible: {comb(78, 39) // 40}",
        f"sigma-admissible: {comb(80, 40) // 41}",
    ]


def test_dyck_list_and_path(capsys):
    _, out, _ = run(capsys, "dyck", "--list", "3")
    first = out.splitlines()[0]
    assert first == "admissible: 200 110"
    code, out, _ = run(capsys, "dyck", "--path", "2100")
    assert code == 0
    assert out == "RRURUU\n"
    code, _, err = run(capsys, "dyck", "--path", "30")
    assert code == 2
    assert "not an admissible" in err


def test_bracket_diagonal(capsys):
    code, out, _ = run(
        capsys, "bracket", "x1", "x2", "--endo", "diag(x1=2,x2=3)"
    )
    assert code == 0
    assert out == "2*x1.x2 - 3*x2.x1\n"


def test_star_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "star", "x1 * x2", "x1")
    assert code == 0
    assert json.loads(out) == {"result": "x2 * x0.x1 + x1 * x1 * x2"}


def test_coproduct_lines(capsys):
    code, out, _ = run(capsys, "coproduct", "x1.x2")
    assert code == 0
    assert out.splitlines() == [
        "x0 (x) x2 : 1",
        "x0.x2 (x) e : 1",
        "x1.x2 (x) 1 : 1",
    ]


def test_compose_diamond_is_tilde_plus_right(capsys):
    _, tilde, _ = run(capsys, "compose", "x1", "x2", "--trunc", "3", "--tilde")
    _, full, _ = run(capsys, "compose", "x1", "x2", "--trunc", "3")
    assert tilde == "x1 + x0.x2\n"
    assert full == "x1 + x2 + x0.x2\n"


def test_tree_map_modes_agree(capsys):
    expr = "a[b,{c,d}] + 2*{a,b}"
    _, direct, _ = run(capsys, "tree-map", expr)
    _, recursive, _ = run(capsys, "tree-map", expr, "--mode", "recursive")
    assert direct == recursive
    _, single, _ = run(capsys, "tree-map", "a")
    assert single == "0:a\n"


def test_fdb_verbs(capsys):
    code, out, _ = run(capsys, "fdb", "t-word", "abc", "--weights", "a=2,b=3,c=5")
    assert code == 0
    assert out == "4*a[b,c] + 6*a[b[c]]\n"
    code, out, _ = run(capsys, "fdb", "delta", "ab", "--weights", "a=2,b=3")
    assert out == "a (x) b : 2\n"
    _, projected, _ = run(
        capsys, "fdb", "delta", "aab", "--weights", "a=2,b=3", "--mode", "projected"
    )
    _, closed, _ = run(capsys, "fdb", "delta", "aab", "--weights", "a=2,b=3")
    assert projected == closed
    code, out, _ = run(capsys, "fdb", "bracket", "1", "2")
    assert code == 0
    assert out.splitlines() == ["[y1, y2] = (-1)*y3", "-24*xxx"]


def test_endo_specs(tmp_path):
    assert parse_endo_spec("fliess(2,1)") == fliess_channel(2, 1)
    diag = parse_endo_spec("diag(a=2,b=1/2)")
    assert diag == Endo.diagonal({"a": 2, "b": Fraction(1, 2)})
    assert parse_endo_spec("biletter-shift") == Endo.biletter_shift()
    path = tmp_path / "f.json"
    save_endo(fliess_channel(3, 2), str(path))
    assert parse_endo_spec(f"@{path}") == fliess_channel(3, 2)
    assert parse_endo_spec(str(path)) == fliess_channel(3, 2)
    with pytest.raises(CliError, match="unknown endomorphism"):
        parse_endo_spec("bogus(1)")
    with pytest.raises(CliError, match="name=value"):
        parse_endo_spec("diag(a)")


def test_usage_exit_codes(capsys):
    code, _, err = run(capsys, "prelie", "x1.[", "x1")
    assert code == 2 and err.startswith("error:")
    code, _, err = run(capsys, "prelie", "a", "b", "--endo", "nope")
    assert code == 2
    # a diagonal map is not nilpotent, so the dual coproduct must refuse
    code, _, err = run(capsys, "coproduct", "a", "--endo", "diag(a=2)")
    assert code == 2 and "nilpotent" in err
    # the zero map (index 1) reads f(x) only to strip zero-image letters
    code, out, err = run(capsys, "coproduct", "zab", "--endo", "diag(a=0)")
    assert code == 2 and out == "" and "letter z outside the alphabet" in err
    with pytest.raises(SystemExit) as exc:
        main(["not-a-verb"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "endo_json",
    [
        None,
        '{"kind": "matrix", "alphabet": ["a", "b"], "matrix": [["0", "1/0"], ["0", "0"]]}',
        '{"kind": "matrix", "alphabet": ["a", "b"]}',
        '{"kind": "matrix", "alphabet": ["a", "b"], "matrix": 5}',
        '{"kind": "matrix", "alphabet": ["a", "b"], "matrix": [5, 6]}',
        '{"kind": "diagonal", "alphabet": ["a"], "weights": [1]}',
        '{"kind": "matrix", "alphabet": "ab", "matrix": [[0, 1], [0, 0]]}',
        '{"kind": "matrix", "alphabet": ["a", 2], "matrix": [[0, 1], [0, 0]]}',
    ],
    ids=[
        "zero-denominator-coefficient",
        "zero-denominator-entry",
        "no-matrix-key",
        "matrix-not-a-list",
        "matrix-rows-not-lists",
        "weights-not-an-object",
        "alphabet-not-a-list",
        "alphabet-entry-not-a-string",
    ],
)
def test_bad_input_exits_two_without_traceback(capsys, tmp_path, endo_json):
    argv = ["prelie", "1/0*a", "b"]
    if endo_json is not None:
        path = tmp_path / "f.json"
        path.write_text(endo_json)
        argv = ["prelie", "a", "b", "--endo", f"@{path}"]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_format_env_default(capsys, monkeypatch):
    monkeypatch.setenv("COMPRELIE_FORMAT", "json")
    code, out, _ = run(capsys, "series", "--fliess", "1", "--max", "4")
    assert code == 0
    assert json.loads(out) == {"dims": [0, 1, 1, 2, 3]}
    monkeypatch.setenv("COMPRELIE_FORMAT", "garbage")
    code, _, err = run(capsys, "series", "--fliess", "1", "--max", "4")
    assert code == 2 and "format" in err


def test_verify_passes_and_is_deterministic(capsys):
    code, first, _ = run(capsys, "verify", "--seed", "11")
    assert code == 0
    assert all(line.startswith("pass") for line in first.splitlines())
    _, second, _ = run(capsys, "verify", "--seed", "11")
    assert first == second
    code, out, _ = run(capsys, "--format", "json", "verify", "--seed", "11")
    report = json.loads(out)
    assert isinstance(report, list) and len(report) == len(run_verify(11))
    assert all(entry["status"] == "pass" for entry in report)
    assert {entry["check"] for entry in report} == {
        e["check"] for e in run_verify(11)
    }


def test_verify_json_times_each_check(capsys):
    code, out, _ = run(capsys, "--format", "json", "verify", "--seed", "3")
    assert code == 0
    for entry in json.loads(out):
        elapsed = entry["elapsed_ms"]
        assert type(elapsed) in (int, float) and elapsed >= 0
    # the text report carries no timing, so it repeats byte for byte
    _, text, _ = run(capsys, "verify", "--seed", "3")
    assert text == "".join(f"pass  {e['check']}\n" for e in run_verify(3))


def test_emit_report_failure_exits_one(capsys):
    results = [
        {"check": "good", "status": "pass"},
        {"check": "bad", "status": "fail", "witness": "broke at a.b"},
    ]
    assert emit_report(results, "text") == 1
    out = capsys.readouterr().out
    assert "FAIL  bad  broke at a.b" in out
    assert emit_report(results, "json") == 1
    assert json.loads(capsys.readouterr().out)[1]["witness"] == "broke at a.b"
    assert emit_report([{"check": "good", "status": "pass"}], "text") == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# fuzzing: any short input from the grammar alphabet, and any JSON map
# file, exits 0 or 2 and raises nothing out of main
# ---------------------------------------------------------------------------

GRAMMAR = "abex01:2./*+- []{},"
fuzz_exprs = st.text(alphabet=GRAMMAR, max_size=8)
json_leaves = (
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats()
    | st.text(alphabet="ab01/:x-", max_size=4)
)
json_docs = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
# the floats JSON can spell: infinities and NaN among them
floats = st.floats() | st.sampled_from([float("inf"), float("-inf"), float("nan"), 0.5, 2.0])
entries = st.integers(-3, 3) | floats | st.text(alphabet="0123/-ab", max_size=4) | st.none()
alphabets = st.lists(st.sampled_from(["a", "b", "x1", "0:a", "a b", 2]), max_size=3)
endo_docs = (
    st.fixed_dictionaries(
        {
            "kind": st.just("matrix"),
            "alphabet": alphabets,
            "matrix": st.lists(st.lists(entries, max_size=3), max_size=3),
        }
    )
    | st.fixed_dictionaries(
        {
            "kind": st.just("diagonal"),
            "alphabet": alphabets,
            "weights": st.dictionaries(st.sampled_from(["a", "b", "1:a", ""]), entries, max_size=2),
        }
    )
    | st.fixed_dictionaries(
        {
            "kind": st.sampled_from(["matrix", "diagonal", "biletter_shift"]) | json_leaves,
            "alphabet": alphabets | json_docs,
            "matrix": json_docs,
            "weights": json_docs,
        }
    )
    | json_docs
)


def _exit_code(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse's usage errors
            return exc.code


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["prelie", "bracket", "star", "coproduct", "tree-map"]),
    fuzz_exprs,
    fuzz_exprs,
    st.booleans(),
)
def test_fuzz_expressions_exit_zero_or_two(verb, left, right, as_json):
    argv = (["--format", "json"] if as_json else []) + [verb, left]
    if verb not in ("coproduct", "tree-map"):
        argv.append(right)
    assert _exit_code(argv) in (0, 2)


@settings(max_examples=200, deadline=None)
@given(endo_docs, st.sampled_from(["prelie", "coproduct", "star"]))
@example({"kind": "matrix", "alphabet": ["a"], "matrix": [[float("inf")]]}, "prelie")
def test_fuzz_endo_json_exits_zero_or_two(tmp_path_factory, doc, verb):
    path = tmp_path_factory.getbasetemp() / "fuzz_endo.json"
    path.write_text(json.dumps(doc))
    args = ["a", "x1"] if verb != "coproduct" else ["x1.a"]
    assert _exit_code([verb, *args, "--endo", f"@{path}"]) in (0, 2)


def test_dyck_list_over_budget_exits_two_before_listing(capsys, monkeypatch):
    def enumerate_words(n):
        raise AssertionError("enumerated before the budget check")

    monkeypatch.setattr(admissible, "admissible_words", enumerate_words)
    monkeypatch.setattr(admissible, "sigma_admissible_words", enumerate_words)
    code, out, err = run(capsys, "dyck", "--list", "20")
    assert code == 2 and out == ""
    assert str(comb(38, 19) // 20 + comb(40, 20) // 21) in err  # the count, 8,331,383,610
    assert run(capsys, "dyck", "--list", "13")[0] == 2  # 950,912 words, just over


def test_dyck_list_within_budget_prints_as_before(capsys):
    assert run(capsys, "dyck", "--list", "3")[1] == (
        "admissible: 200 110\nsigma-admissible: 000 100 200 010 110\n"
    )
    digest = hashlib.sha256()
    for fmt in ("text", "json"):
        for n in range(1, 11):
            code, out, _ = run(capsys, "--format", fmt, "dyck", "--list", str(n))
            assert code == 0
            digest.update(out.encode())
    # the text and JSON listings for n = 1..10 as printed before the budget
    assert digest.hexdigest() == "b99dd0828dd634e83adb04ac1d58e6b64c6ad7b3511a8c594d1750c2eec63e2c"


def test_series_size_estimate_follows_the_output(capsys):
    for n, k_max in ((1, 300), (2, 300), (7, 200), (1000, 100)):
        code, out, _ = run(capsys, "series", "--fliess", str(n), "--max", str(k_max))
        assert code == 0
        assert abs(cli._series_chars(n, k_max) - len(out)) <= 0.05 * len(out)


def test_series_over_budget_exits_two_before_any_work(capsys, monkeypatch):
    def dims(n, k_max):
        raise AssertionError("computed before the budget check")

    monkeypatch.setattr(characters, "fibonacci_dims", dims)
    # --max 12000 passes CPython's 4300-digit limit on printing an int;
    # --max 10000 would print 19 MB
    for n, k_max in ((2, 12000), (2, 10000), (1, 10**9), (10**400, 1000)):
        code, out, err = run(capsys, "series", "--fliess", str(n), "--max", str(k_max))
        assert code == 2 and out == ""
        assert str(cli._series_chars(n, k_max)) in err
    # bad arguments keep their own messages
    monkeypatch.undo()
    assert "k_max" in run(capsys, "series", "--fliess", "2", "--max", "-100000")[2]
    assert "n must be" in run(capsys, "series", "--fliess", "0", "--max", "100000")[2]


def test_series_past_the_int_print_limit_exits_two_before_any_work(capsys, monkeypatch):
    if sys.get_int_max_str_digits() != 4300:
        pytest.skip("sized for CPython's default limit of 4300 digits")
    for n, k_max in ((1, 300), (2, 301), (7, 200), (1000, 100), (10**6, 50)):
        digits = len(str(fibonacci_dims(n, k_max)[-1]))
        assert abs(cli._series_digits(n, k_max) - digits) <= 1

    def dims(n, k_max):
        raise AssertionError("computed before the digit check")

    monkeypatch.setattr(characters, "fibonacci_dims", dims)
    # about 3.4 M characters, inside the budget, but the last dimension
    # has about 4,500 digits
    assert cli._series_chars(1000, 1500) <= cli._SERIES_BUDGET
    code, out, err = run(capsys, "series", "--fliess", "1000", "--max", "1500")
    assert code == 2 and out == ""
    assert str(cli._series_digits(1000, 1500)) in err and "4300" in err


def test_compose_size_estimate_bounds_the_output(capsys):
    # words of length 1..E over the letters; E is the truncation or the
    # longest word the inputs can build, whichever is shorter
    assert cli._compose_terms(2, 3, 5, 5) == 2 + 4 + 8
    assert cli._compose_terms(3, 50, 1, 1) == 3 + 9 + 27
    assert cli._compose_terms(1, 10**9, 4, 2) == 4 * (1 + 0 * 2)
    # counting stops once past the budget, so a huge truncation costs nothing
    assert cli._COMPOSE_BUDGET < cli._compose_terms(2, 10**9, 10, 10) < 2 * cli._COMPOSE_BUDGET
    # the `cli` bench composes at --trunc 3..4 over fliess(2,1)'s 3 letters
    assert cli._compose_terms(3, 4, 4, 4) * 50 < cli._COMPOSE_BUDGET
    cases = [("x1 + 1/2*x2.x1", "x1.x2 - x2", 5), ("x1", "x2", 40), ("x1.x1 + x2", "x2.x2", 6)]
    for left, right, L in cases:
        code, out, _ = run(capsys, "--format", "json", "compose", left, right, "--trunc", str(L))
        assert code == 0
        result = Tensor.parse(json.loads(out)["result"])
        lu, lv = (max(len(w) for w in Tensor.parse(s).terms) for s in (left, right))
        assert len(result.terms) <= cli._compose_terms(3, L, lu, lv)


def test_compose_over_budget_exits_two_before_any_work(capsys, monkeypatch):
    def compose(ctx, u, v):
        raise AssertionError("composed before the budget check")

    monkeypatch.setattr(characters, "tilde_compose", compose)
    monkeypatch.setattr(characters, "diamond", compose)
    for flags in ((), ("--tilde",)):
        code, out, err = run(capsys, "compose", "x1.x2.x0 + x1.x1", "x1.x2.x0", "--trunc", "9", *flags)
        assert code == 2 and out == ""
        assert str(cli._compose_terms(3, 9, 3, 3)) in err  # 29,523 words of length <= 9


X1, X2 = Letter("x1"), Letter("x2")
UPPER3 = Endo.matrix(list("abc"), [[0, 1, Fraction(1, 2)], [0, 0, Fraction(-2, 3)], [0, 0, 0]])


def test_prelie_size_estimate_bounds_the_output(capsys):
    ctx = ComPreLieContext(fliess_channel(2, 1))  # x1 -> x0; x0, x2 -> 0
    # x1^n . x2 writes n(n+1)/2 words of n+1 letters
    assert cli._prelie_letters(ctx, [(Word((X1,) * 4), Word((X2,)))]) == 10 * 5
    assert cli._prelie_letters(ctx, [(Word((X2,) * 2999 + (X1,)), Word((X2,)))]) == 3001
    # counting stops once past the budget
    counted = cli._prelie_letters(ctx, [(Word((X1,) * 3000), Word((X2,)))])
    assert cli._PRELIE_BUDGET < counted < 3000 * 3001 // 2 * 3001
    rng = random.Random("prelie estimate")
    for f in (fliess_channel(2, 1), UPPER3):
        ctx = ComPreLieContext(f)

        def combo(max_len):
            return Tensor({
                Word(tuple(rng.choice(f.alphabet) for _ in range(rng.randint(0, max_len)))):
                    Fraction(rng.randint(1, 3), rng.randint(1, 2))
                for _ in range(rng.randint(1, 3))
            })

        for _ in range(20):
            a, b = combo(4), combo(3)
            ab = list(itertools.product(a.terms, b.terms))
            ba = [(v, u) for u, v in ab]
            written = sum(len(w) for w in prelie(ctx, a, b).terms)
            assert written <= cli._prelie_letters(ctx, ab)
            written = sum(len(w) for w in lie_bracket(ctx, a, b).terms)
            assert written <= cli._prelie_letters(ctx, ab + ba)
    code, out, _ = run(capsys, "prelie", ".".join(["x2"] * 2999 + ["x1"]), "x2")
    assert code == 0 and out == ".".join(["x2"] * 2999 + ["x0", "x2"]) + "\n"


def test_coproduct_size_estimate_bounds_the_output():
    # G(n) under fliess(2,1) (N = 2, one letter in every image) is the
    # Bell number B(n+1)
    ctx = ComPreLieContext(fliess_channel(2, 1))
    bell = [1, 2, 5, 15, 52, 203]
    assert [cli._coproduct_terms(ctx, [Word((X1,) * n)]) for n in range(6)] == bell
    assert cli._coproduct_terms(ctx, [Word((X1,) * 3), Word((X2,) * 4)]) == 15 + 52
    assert cli._coproduct_terms(ctx, []) == 0
    # counting stops once past the budget, so a long word costs nothing
    assert cli._coproduct_terms(ctx, [Word((X1,) * 3000)]) == 27644437  # G(12)
    rng = random.Random("coproduct estimate")
    for f in (fliess_channel(2, 1), UPPER3):
        ctx = ComPreLieContext(f)
        for _ in range(15):
            w = Word(tuple(rng.choice(f.alphabet) for _ in range(rng.randint(0, 6))))
            assert len(dual_coproduct(ctx, w)) <= cli._coproduct_terms(ctx, [w])


def test_the_bench_inputs_fit_the_budgets_by_a_wide_margin():
    # the `cli` bench, under fliess(2,1): `prelie` of combinations of at
    # most 3 words of length <= 3 by at most 3 of length <= 2, `coproduct`
    # of words of 3-4 letters; x1 is the one letter with a nonzero image
    ctx = ComPreLieContext(fliess_channel(2, 1))
    worst = [(Word((X1,) * 3), Word((X1,) * 2))] * 9
    assert cli._prelie_letters(ctx, worst) * 1000 < cli._PRELIE_BUDGET
    assert cli._prelie_letters(ctx, worst + [(v, u) for u, v in worst]) * 1000 < cli._PRELIE_BUDGET
    assert cli._coproduct_terms(ctx, [Word((X1,) * 4)]) * 1000 < cli._COPRODUCT_BUDGET
    # `tree-map` of one partitioned tree on 2-4 vertices over {a, b}
    trees = [t for n in (2, 3, 4) for t in all_partitioned_trees(n, [Letter("a"), Letter("b")])]
    assert max(cli._tree_map_words([t]) for t in trees) == 24  # the flat forest on 4
    assert 24 * 200 < min(cli._TREE_MAP_BUDGET.values())


def test_the_tree_map_estimate_counts_the_linear_extensions():
    trees = [t for n in range(1, 6) for t in all_partitioned_trees(n, [Letter("a")])]
    trees += [parse_tree("a[b[c,d],{e,f[g]},h]"), parse_tree("{a[b],c[d[e]]}")]
    for t in trees:
        assert cli._tree_map_words([t]) == len(linear_extensions(t)) >= len(phi_cpl(t).terms)
    # with distinct decorations each linear extension writes its own word
    assert [len(phi_cpl(t).terms) for t in trees[-2:]] == [cli._tree_map_words([t]) for t in trees[-2:]]
    assert cli._tree_map_words(trees[:3]) == sum(len(linear_extensions(t)) for t in trees[:3])
    assert cli._tree_map_words([]) == 0


def test_prelie_bracket_and_coproduct_over_budget_exit_two_before_any_work(capsys, monkeypatch):
    def kernel(*args, **kwargs):
        raise AssertionError("a kernel ran before the budget check")

    kernels = importlib.import_module("comprelie.prelie")
    for module, name in ((kernels, "_prelie_words"), (kernels, "prelie_closed"),
                         (enveloping, "_delta_tilde_word"), (enveloping, "dual_coproduct")):
        monkeypatch.setattr(module, name, kernel)
    ctx = ComPreLieContext(fliess_channel(2, 1))
    long, x2 = Word((X1,) * 3000), Word((X2,))
    letters = cli._prelie_letters(ctx, [(long, x2)])
    both = cli._prelie_letters(ctx, [(x2, long), (long, x2)])
    rows = cli._coproduct_terms(ctx, [Word((X1, X2) * 8)])
    cases = [
        (["prelie", str(long), "x2"], letters),
        (["prelie", "--closed", str(long), "x2"], letters),
        (["bracket", "x2", str(long)], both),
        (["coproduct", ".".join(["x1", "x2"] * 8)], rows),
    ]
    for argv, estimate in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert f"at least {estimate} " in err


def test_tree_map_over_budget_exits_two_before_any_work(capsys, monkeypatch):
    def kernel(*args, **kwargs):
        raise AssertionError("a kernel ran before the budget check")

    trees = importlib.import_module("comprelie.trees")
    monkeypatch.setattr(trees, "phi_cpl", kernel)
    def star(n: int) -> str:
        return "a[" + ",".join(f"b{i}" for i in range(n - 1)) + "]"

    cases = [
        (["tree-map", star(10)], 362880),
        (["tree-map", star(9), "--mode", "recursive"], 40320),
        (["tree-map", f"{star(8)} + 2*{{a0,a1,a2,a3,a4,a5,a6,a7,a8}}"], 5040 + 362880),
    ]
    for argv, words in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert f"up to {words} words" in err
    with pytest.raises(AssertionError, match="before the budget"):
        main(["tree-map", star(9)])  # within both budgets: the kernel is reached


def test_deep_inputs_exit_two_without_a_traceback(capsys):
    long_word = ".".join(["x1"] * 3000)
    nested = "a[" * 1200 + "b" + "]" * 1200
    for argv in (["prelie", long_word, "x2"], ["coproduct", long_word], ["tree-map", nested]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1


def test_coproduct_of_a_long_zero_image_word(capsys):
    # the size estimate under the zero map is one row, and the letters
    # with zero image are stripped in a loop, so 3,000 of them compute
    word = "a" * 3000
    code, out, err = run(capsys, "coproduct", word, "--endo", "diag(a=0)")
    assert code == 0 and err == ""
    assert out == f"{word} (x) 1 : 1\n"
