"""The scripts under scripts/ run against the library."""

import importlib.util
from pathlib import Path

from test_cli import read_csv

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bound_sandwich_demo_rows_read_ok(tmp_path, capsys):
    out = tmp_path / "sandwich.csv"
    demo = load_script("bound_sandwich_demo")
    assert demo.main(["--gamma-db", "0:20:10", "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header == ["gamma_db", "p_out", "p_up", "p_low", "sandwich"]
    assert [r[0] for r in rows] == ["0", "10", "20"]
    assert all(r[-1] == "ok" for r in rows)
    assert capsys.readouterr().out.count(" ok\n") == 3
