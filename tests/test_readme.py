"""The README's library example and command-line examples run as written."""
from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from thetaprod.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def cli_examples():
    """(command, output shown) for each `$ thetaprod` line of a text block."""
    text = "\n".join(re.findall(r"```text\n(.*?)```", README.read_text(), re.S))
    return re.findall(r"^\$ (thetaprod .*)\n((?:[^$\n].*\n)*)", text, re.M)


def test_readme_shows_cli_examples():
    assert len(cli_examples()) >= 6


@pytest.mark.parametrize("command, shown", cli_examples(),
                         ids=[c for c, _ in cli_examples()])
def test_readme_cli_example_runs(capsys, command, shown):
    # names and counts only: the numbers shown are one run's
    code = main(shlex.split(command)[1:])
    out = capsys.readouterr().out
    assert code == 0
    first = re.search(r"^(PASS|FAIL|SKIP)  (.+?)(  \[|$)", shown, re.M)
    assert first, f"no check shown for {command!r}"
    assert f"{first.group(1)}  {first.group(2)}" in out
    summary = re.search(r"^(\S+: \d+ checks, \d+ pass, \d+ fail, \d+ skip)",
                        shown, re.M)
    if summary:
        assert summary.group(1) in out
