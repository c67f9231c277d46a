"""The README's CLI and library examples run as written."""

import json
import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from braidwalk.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def cli_block() -> list[str]:
    """Lines of the README's first ```sh block that calls braidwalk."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    block = next(b for b in blocks if "braidwalk " in b)
    return re.sub(r"\s*\\\n\s*", " ", block).splitlines()


def commands() -> list[str]:
    return [line for line in cli_block() if line.startswith("braidwalk ")]


def measure_json() -> dict:
    """The measure.json that the comment in the CLI block spells out."""
    lines = cli_block()
    start = next(k for k, line in enumerate(lines)
                 if "measure.json holds" in line) + 1
    body = []
    for line in lines[start:]:
        if not line.startswith("#"):
            break
        body.append(line.lstrip("#"))
    return json.loads("".join(body))


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out


def test_readme_has_cli_examples():
    assert len(commands()) >= 6
    assert measure_json()["atoms"]


@pytest.mark.parametrize("command", commands())
def test_readme_example_runs(command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "measure.json").write_text(json.dumps(measure_json()))
    res = CliRunner().invoke(main, shlex.split(command)[1:])
    assert res.exit_code == 0, res.output
    assert res.output
