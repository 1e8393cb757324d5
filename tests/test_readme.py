"""README.md runs as written: every `python` block executes, and each
`focklab ...` command followed by a `# <output>` line prints that output.
Outputs elided with `...` are not compared."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from focklab.cli import main

README = (Path(__file__).parents[1] / "README.md").read_text()


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.S | re.M)


def _examples() -> list[tuple[str, str]]:
    """(command, expected stdout line) of each `focklab` line followed by a
    complete output comment."""
    pairs = []
    for block in _blocks("sh"):
        lines = block.splitlines()
        for command, comment in zip(lines, lines[1:]):
            if command.startswith("focklab ") and comment.startswith("# ") and "..." not in comment:
                pairs.append((command, comment[2:]))
    return pairs


def test_readme_has_examples():
    assert len(_blocks("python")) >= 2 and len(_examples()) >= 2


@pytest.mark.parametrize("block", [
    pytest.param(block, id=f"block{k}") for k, block in enumerate(_blocks("python"), 1)
])
def test_python_block_runs(capsys, block):
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out


@pytest.mark.parametrize("command, expected", _examples())
def test_cli_example_prints_its_output(capsys, command, expected):
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out == expected + "\n"
