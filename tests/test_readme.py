"""The examples in README.md print what the README says they print."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from comprelie.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", README, flags=re.S)


def _cli_examples() -> list[tuple[str, str]]:
    """(command line, expected output) for every ``$ comprelie`` line."""
    out = []
    for block in _blocks("sh"):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, expected = chunk.partition("\n")
            if command.startswith("comprelie "):
                out.append((command, expected))
    return out


CLI_EXAMPLES = _cli_examples()


def test_readme_has_the_examples():
    assert len(CLI_EXAMPLES) == 6
    assert len(_blocks("python")) == 1


@pytest.mark.parametrize("command,expected", CLI_EXAMPLES, ids=[c for c, _ in CLI_EXAMPLES])
def test_cli_example(command, expected, capsys, monkeypatch):
    monkeypatch.delenv("COMPRELIE_FORMAT", raising=False)
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out == expected


def test_quick_start(capsys):
    (code,) = _blocks("python")
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    expected = [line.split("#", 1)[1].strip() for line in prints]
    assert len(expected) == 4
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
