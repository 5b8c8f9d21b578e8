"""The README's command-line examples and library sketch run as written."""

import math
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


def test_readme_library_sketch_runs():
    text = README.read_text()
    block = text.split("## Library sketch", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    ns = {}
    exec(compile(block, "README.md", "exec"), ns)
    assert abs(ns["slope"] + 2.0) < 0.1  # full diversity at 27 degrees
    assert ns["p_low"] <= ns["curve"][4] <= ns["p_up"]  # 8 dB, inside the hypersphere bounds
    assert abs(math.degrees(ns["best"].theta_opt) - 27.0) < 2.0
