"""A verb loads only the layers it uses, and the lazy package namespace
still hands out every public name.  Both run in a fresh interpreter: the
test process has long since imported every layer."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import comprelie

ROOT = str(Path(comprelie.__file__).resolve().parent.parent)

LAYERS = {"trees", "forests", "enveloping", "characters", "admissible"}

LOADED_AFTER = """
import contextlib, io, json, sys
from comprelie.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m.split(".")[1] for m in sys.modules if m.startswith("comprelie."))]))
"""

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
    assert len(facts["all"]) == len(set(facts["all"])) == 78
    assert facts["missing_from_dir"] == []
    assert "no_such_name" in facts["unknown"]
