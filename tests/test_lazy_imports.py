"""A verb loads only the layers it uses, and the lazy package namespace
still hands out every public name.  Both run in a fresh interpreter: the
test process has long since imported every layer."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import comprelie

ROOT = str(Path(comprelie.__file__).resolve().parent.parent)
SRC = Path(comprelie.__file__).resolve().parent

LAYERS = {"trees", "forests", "enveloping", "characters", "admissible"}

LOADED_AFTER = """
import contextlib, io, json, sys
from comprelie.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m.split(".")[1] for m in sys.modules if m.startswith("comprelie."))]))
"""

# every module a verb loads, next to those of an interpreter that only ran
# the same preamble: site hooks can load anything, so only the difference
# is comprelie's doing
MODULES_AFTER = """
import contextlib, io, json, sys
before = sorted(sys.modules)
from comprelie.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, before, sorted(sys.modules)]))
"""

# costly to import: ``dataclasses`` pulls in ``inspect``, ``ast``, ``dis``,
# ``tokenize`` and ``copy``
HEAVY = {"dataclasses", "inspect"}

VERBS = [
    ("prelie", "x0", "x1"),
    ("bracket", "x0", "x1"),
    ("star", "x1 * x2", "x0"),
    ("coproduct", "x1.x2"),
    ("compose", "x1", "x2", "--trunc", "3"),
    ("series", "--fliess", "2", "--max", "5"),
    ("dyck", "--list", "3"),
    ("tree-map", "a[b]"),
    ("fdb", "delta", "ab", "--weights", "a=1,b=2"),
    ("verify", "--seed", "0"),
]

NAMESPACE = """
import importlib, json, sys
import comprelie.cli, comprelie.prelie, comprelie.trees
import comprelie
home = {name: importlib.import_module("comprelie." + module) for name, module in comprelie._HOME.items()}
mismatched = []
for name in comprelie.__all__:
    scope = {}
    exec(f"from comprelie import {name}", scope)
    if scope[name] is not getattr(home[name], name):
        mismatched.append(name)
try:
    comprelie.no_such_name
    unknown = "no error"
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({
    "prelie_is_the_function": comprelie.prelie is sys.modules["comprelie.prelie"].prelie,
    "mismatched": mismatched,
    "all": comprelie.__all__,
    "missing_from_dir": sorted(set(comprelie.__all__) - set(dir(comprelie))),
    "unknown": unknown,
}))
"""


def _fresh(script: str, *argv: str):
    env = {**os.environ, "PYTHONPATH": ROOT}
    done = subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_each_verb_loads_only_its_layers():
    code, loaded = _fresh(LOADED_AFTER, "prelie", "x0", "x1")
    assert code == 0 and not LAYERS & set(loaded), loaded
    code, loaded = _fresh(LOADED_AFTER, "dyck", "--list", "3")
    assert code == 0 and "admissible" in loaded
    assert not (LAYERS - {"admissible"}) & set(loaded), loaded
    code, loaded = _fresh(LOADED_AFTER, "verify", "--seed", "0")
    assert code == 0 and LAYERS <= set(loaded), loaded


def test_lazy_namespace_hands_out_every_public_name():
    facts = _fresh(NAMESPACE)
    assert facts["prelie_is_the_function"]
    assert facts["mismatched"] == []
    assert len(facts["all"]) == len(set(facts["all"])) == 77
    assert facts["missing_from_dir"] == []
    assert "no_such_name" in facts["unknown"]


def test_no_verb_loads_dataclasses_or_inspect():
    for argv in VERBS:
        code, before, after = _fresh(MODULES_AFTER, *argv)
        assert code == 0, argv
        assert not HEAVY & (set(after) - set(before)), (argv, HEAVY & set(after))


def test_only_verify_loads_its_checks():
    for argv in VERBS:
        code, before, after = _fresh(MODULES_AFTER, *argv)
        assert code == 0 and "comprelie.checks" not in before, argv
        assert ("comprelie.checks" in after) == (argv[0] == "verify"), argv


def test_the_checks_stay_readable_from_the_cli():
    facts = _fresh(
        "import json, sys\n"
        "from comprelie import cli\n"
        "loaded = 'comprelie.checks' in sys.modules\n"
        "names = [name for name, _ in cli._CHECKS]\n"
        "print(json.dumps([loaded, names, cli._CHECKS is sys.modules['comprelie.checks'].CHECKS]))\n"
    )
    loaded, names, same = facts
    assert not loaded and same
    assert len(names) == len(set(names)) == 13 and names[0] == "shuffle-algebra"


def test_no_module_imports_dataclasses_or_inspect():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] not in HEAVY, f"{path.name}:{node.lineno} imports {name}"
