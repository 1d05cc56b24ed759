"""Every size refusal of the CLI goes through one helper, and the size
estimates live beside the kernels they bound.

``cli._refuse_over`` is the one place that raises a ``CliError`` saying a
verb's output would pass a budget ("over the budget of ...") or CPython's
limit on printing an int ("over Python's limit of ..."); each verb that
refuses calls it.  The estimates themselves sit in the layers:
``prelie``, ``enveloping``, ``characters``, ``admissible``, ``trees`` and
``forests``.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

CLI = Path(__file__).resolve().parent.parent / "src" / "comprelie" / "cli.py"
HELPER = "_refuse_over"
# what a refusal says, however its message is split over literals
PHRASES = ("over the budget", "over Python's limit")

ESTIMATORS = {
    "_prelie_letters": "prelie",
    "_coproduct_terms": "enveloping",
    "_compose_terms": "characters",
    "_catalan_digits": "admissible",
    "_log_r": "characters",
    "_series_chars": "characters",
    "_series_digits": "characters",
    "_tree_map_words": "trees",
    "_t_word_trees": "forests",
    "_delta_splittings": "forests",
}


def _message(node: ast.AST) -> str:
    """The literal text of an expression, each formatted value as ``{}``."""
    parts = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            parts.append(sub.value)
        elif isinstance(sub, ast.FormattedValue):
            parts.append("{}")
    return "".join(parts)


def refusals(source: str) -> list[tuple[str, int]]:
    """(function, line) of each ``raise CliError(...)`` whose message says
    a refusal phrase, or that the helper builds."""
    found: list[tuple[str, int]] = []

    def visit(node: ast.AST, func: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        elif isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
            call = node.exc
            if getattr(call.func, "id", None) == "CliError":
                text = _message(call)
                if any(p in text for p in PHRASES) or ", over " in text:
                    found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), "<module>")
    return found


def helper_callers(source: str) -> list[str]:
    """The function around each call of the helper, in source order."""
    callers = []
    for func in ast.walk(ast.parse(source)):
        if isinstance(func, ast.FunctionDef):
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == HELPER:
                    callers.append(func.name)
    return callers


def test_the_detector_sees_a_hand_written_refusal():
    hand_written = (
        "def _cmd_star(args):\n"
        "    if n > _STAR_BUDGET:\n"
        "        raise CliError(f'star could print {n} terms, over the budget of {_STAR_BUDGET}')\n"
    )
    assert refusals(hand_written) == [("_cmd_star", 3)]
    split = "def f(d, limit):\n    raise CliError(f'{d} digits, ' f'over Python\\'s limit of {limit}')\n"
    assert refusals(split) == [("f", 2)]


def test_every_refusal_goes_through_the_one_helper():
    source = CLI.read_text(encoding="utf-8")
    assert [func for func, _ in refusals(source)] == [HELPER]
    # the eleven refusals: prelie and bracket, coproduct, compose, the two
    # series checks, dyck's digits and --list, tree-map, and fdb's trees and
    # splittings
    assert sorted(helper_callers(source)) == sorted([
        "_cmd_prelie", "_cmd_bracket", "_cmd_coproduct", "_cmd_compose",
        "_cmd_series", "_cmd_series", "_cmd_dyck", "_cmd_dyck", "_cmd_tree_map", "_cmd_fdb", "_cmd_fdb",
    ])


def test_each_estimate_lives_beside_its_kernel():
    tree = ast.parse(CLI.read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert not defined & set(ESTIMATORS)
    for name, layer in ESTIMATORS.items():
        assert callable(getattr(importlib.import_module(f"comprelie.{layer}"), name))
