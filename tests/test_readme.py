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


def detail_fields(details: str) -> dict[str, str]:
    """The key=value fields of a check line's [details], less a standalone
    '...'; a value runs up to the next key, since closed forms hold spaces."""
    details = re.sub(r"(?:^| )\.\.\.(?= |$)", "", " ".join(details.split()))
    keys = list(re.finditer(r"(?:^| )(\w+)=", details))
    ends = [k.start() for k in keys[1:]] + [len(details)]
    return {k.group(1): details[k.end():end] for k, end in zip(keys, ends)}


@pytest.mark.parametrize("command, shown", cli_examples(),
                         ids=[c for c, _ in cli_examples()])
def test_readme_cli_example_runs(capsys, command, shown):
    # the first check line's fields, except those shown as '...', and the
    # summary counts must be what the command prints
    code = main(shlex.split(command)[1:])
    out = capsys.readouterr().out
    assert code == 0
    first = re.search(r"^(PASS|FAIL|SKIP)  (.+?)(?:  \[([^\]]*)\])?$", shown, re.M)
    assert first, f"no check shown for {command!r}"
    head = f"{first.group(1)}  {first.group(2)}"
    printed = re.search(rf"^{re.escape(head)}(?:  \[(.*)\])?$", out, re.M)
    assert printed, f"{head!r} not printed"
    got = detail_fields(printed.group(1) or "")
    for key, value in detail_fields(first.group(3) or "").items():
        if value != "...":
            assert got.get(key) == value, key
    summary = re.search(r"^(\S+: \d+ checks, \d+ pass, \d+ fail, \d+ skip)",
                        shown, re.M)
    if summary:
        assert summary.group(1) in out
