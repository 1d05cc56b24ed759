"""The runtime depends on nothing outside the standard library, and a
checkout runs its tests with nothing installed or set."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "comprelie"


def test_runtime_imports_only_the_standard_library():
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
                continue  # not an import, or a relative one inside the package
            for name in names:
                top = name.split(".")[0]
                assert top == "comprelie" or top in sys.stdlib_module_names, (
                    f"{path.name}:{node.lineno} imports {name}"
                )


def test_pytest_imports_the_package_without_pythonpath():
    # pyproject.toml puts src/ on pytest's path, so plain `python -m pytest`
    # collects from a fresh checkout
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--collect-only",
         "tests/test_lin.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
