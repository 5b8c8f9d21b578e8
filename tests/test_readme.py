"""The README's command-line examples run as written."""

import shlex
from pathlib import Path

import pytest

from outagelab import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    text = README.read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("outagelab ")]


def test_readme_lists_commands():
    assert len(readme_commands()) >= 8


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: " ".join(argv[:3]))
def test_readme_command_exits_0(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0
