import json
import math
import os

import numpy as np
import pytest

from outagelab import cli
from outagelab import constellations as cs


def read_csv(path):
    meta, header, rows = {}, None, []
    for line in open(path):
        line = line.rstrip("\n")
        if line.startswith("#"):
            k, _, v = line[2:].partition("=")
            meta[k] = v
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


def test_optimize_end_to_end(tmp_path, capsys):
    out = tmp_path / "opt.csv"
    rc = cli.main(["optimize", "--constellation", "r2_4", "--R", "0.9", "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    theta = float(printed.split("theta_opt_deg=")[1].split()[0])
    assert abs(theta - 27.0) <= 2.0
    meta, header, rows = read_csv(out)
    assert header == ["theta_deg", "gamma_s_db", "gamma_floor_db", "d_pmin", "saturated"]
    assert meta["tool"].startswith("outagelab")
    assert "theta_opt_deg" in meta


def test_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--constellation", "r2_4", "--R", "0.9",
            "--theta-grid", "5:40:5", "--seed", "7"]
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_unknown_constellation_exits_2(capsys):
    rc = cli.main(["optimize", "--constellation", "hexagon99", "--R", "0.9"])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_missing_rate_exits_2(capsys):
    rc = cli.main(["optimize", "--constellation", "r2_4"])
    assert rc == 2


def test_infeasible_rate_exits_3(capsys):
    rc = cli.main(["sweep", "--constellation", "r2_4", "--R", "1.05"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "infeasible rate" in err and "projection" in err


def test_outage_rate_above_capacity_warns(tmp_path):
    out = tmp_path / "o.csv"
    with pytest.warns(UserWarning):
        rc = cli.main(
            ["outage", "--constellation", "r2_4", "--theta-deg", "0", "--R", "1.1",
             "--gamma-db", "10", "--out", str(out)]
        )
    assert rc == 0
    _, header, rows = read_csv(out)
    assert header == ["gamma_db", "p_out", "ci_lo", "ci_hi", "p_up", "p_low", "method", "seed"]
    assert float(rows[0][1]) == 1.0


def test_mi_matches_library(tmp_path, gamma_8db, cfg):
    out = tmp_path / "mi.csv"
    rc = cli.main(
        ["mi", "--constellation", "r2_4", "--theta-deg", "27", "--alpha", "1,1",
         "--gamma-db", "8", "--out", str(out)]
    )
    assert rc == 0
    _, _, rows = read_csv(out)
    from outagelab import precoders as pc
    from outagelab.mutual_info import ChannelSample, mi_per_use

    omega_x = pc.apply(pc.rotation2(math.radians(27)), cs.build_named("r2_4"))
    want = mi_per_use(omega_x, ChannelSample(np.array([1.0, 1.0]), gamma_8db), cfg).value
    assert float(rows[0][2]) == pytest.approx(want, abs=1e-9)


def test_constellation_file_loading(tmp_path):
    c = cs.build_named("r2_8")
    path = tmp_path / "custom.json"
    path.write_text(json.dumps({"name": "mine", "B": 2, "field": "real", "points": c.points.tolist()}))
    out = tmp_path / "sweep.csv"
    rc = cli.main(
        ["sweep", "--constellation-file", str(path), "--Rc", "0.6",
         "--theta-grid", "0:20:5", "--out", str(out)]
    )
    assert rc == 0
    _, _, rows = read_csv(out)
    assert len(rows) == 5


def test_rc_m_rate_resolution(tmp_path):
    out = tmp_path / "s.csv"
    rc = cli.main(
        ["sweep", "--constellation", "r2_8", "--Rc", "0.6",
         "--theta-grid", "4:6:1", "--out", str(out)]
    )
    assert rc == 0
    meta, _, _ = read_csv(out)
    assert float(meta["R"]) == pytest.approx(0.9)


def test_boundary_csv(tmp_path):
    out = tmp_path / "b.csv"
    rc = cli.main(
        ["boundary", "--constellation", "r2_4", "--theta-deg", "0", "--R", "0.9",
         "--gamma-db", "8", "--angles", "65", "--out", str(out)]
    )
    assert rc == 0
    _, header, rows = read_csv(out)
    assert header == ["lambda_rad", "rho", "saturated"]
    assert len(rows) == 65
    assert rows[0][2] == "1" and rows[0][1] == "inf"


def test_outage_gamma_range_and_bounds(tmp_path):
    out = tmp_path / "o.csv"
    rc = cli.main(
        ["outage", "--constellation", "r2_4", "--theta-deg", "27", "--R", "0.9",
         "--gamma-db", "6:10:2", "--method", "boundary", "--angles", "129",
         "--out", str(out)]
    )
    assert rc == 0
    _, _, rows = read_csv(out)
    assert [r[0] for r in rows] == ["6", "8", "10"]
    for r in rows:
        p_out, p_up, p_low = float(r[1]), float(r[4]), float(r[5])
        assert p_low <= p_out <= p_up


def test_gaussian_outage(tmp_path):
    out = tmp_path / "g.csv"
    rc = cli.main(
        ["outage", "--gaussian", "--B", "2", "--R", "0.9", "--gamma-db", "8",
         "--angles", "129", "--out", str(out)]
    )
    assert rc == 0
    _, _, rows = read_csv(out)
    assert 0 < float(rows[0][1]) < 1


def test_json_format(tmp_path):
    out = tmp_path / "o.json"
    rc = cli.main(
        ["anchors", "--constellation", "r2_4", "--theta-deg", "27", "--R", "0.9",
         "--gamma-db", "8", "--format", "json", "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"meta", "columns", "rows"}
    assert doc["columns"][0] == "alpha_o"


def test_reproduce_fig4_and_fig5(tmp_path):
    out = tmp_path / "res"
    assert cli.main(["reproduce", "fig4", "--out", str(out)]) == 0
    files = sorted(os.listdir(out))
    assert files == [
        "fig4_sweep_r2_16.csv", "fig4_sweep_r2_4.csv", "fig4_sweep_r2_8.csv"
    ]
    meta, header, rows = read_csv(out / "fig4_sweep_r2_8.csv")
    # byte identity of the recipe outputs rests on the header key order
    assert list(meta)[2:] == ["recipe", "constellation", "R", "seed", "gh_order"]
    assert [meta[k] for k in list(meta)[2:]] == ["fig4", "r2_8", "0.9", "0", "32"]
    assert header == cli.SWEEP_COLUMNS
    assert any(r[3] != "" for r in rows)  # d_pmin column filled for r2_8
    assert cli.main(["reproduce", "fig5", "--out", str(out), "--angles", "65"]) == 0
    assert sorted(f for f in os.listdir(out) if f.startswith("fig5")) == [
        "fig5_boundary_r2_4_t0.csv", "fig5_boundary_r2_4_t10.csv", "fig5_boundary_r2_4_t27.csv"
    ]
    meta, header, rows = read_csv(out / "fig5_boundary_r2_4_t27.csv")
    assert list(meta)[2:] == ["recipe", "theta_deg", "R", "gamma_db", "seed"]
    assert [meta[k] for k in list(meta)[2:]] == ["fig5", "27.0", "0.9", "8.0", "0"]
    assert header == ["lambda_rad", "rho", "saturated"] and len(rows) == 65
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    target = next(a for a in sub.choices["reproduce"]._actions if a.dest == "target")
    assert list(target.choices) == sorted(cli.RECIPES)


def test_parse_range_errors():
    with pytest.raises(cli.ConfigError):
        cli.parse_range("1:2")
    with pytest.raises(cli.ConfigError):
        cli.parse_range("5:1:1")
    assert cli.parse_range("4:12:4") == [4.0, 8.0, 12.0]


@pytest.mark.parametrize("gamma_db", ["4000", "-4000"])
@pytest.mark.parametrize("argv", [
    ["outage", "--constellation", "r2_4", "--R", "0.9", "--angles", "65"],
    ["anchors", "--constellation", "r2_4", "--R", "0.9", "--theta-deg", "27"],
    ["anchors", "--gaussian", "--B", "2", "--R", "0.9"],
    ["boundary", "--constellation", "r2_4", "--R", "0.9", "--angles", "65"],
    ["mi", "--constellation", "r2_4", "--alpha", "1,0.5"],
], ids=["outage", "anchors", "anchors-gaussian", "boundary", "mi"])
def test_snr_without_finite_positive_value_exits_2(argv, gamma_db, capsys):
    # 10^400 overflows a float and 10^-400 underflows to zero
    assert cli.main(argv + ["--gamma-db", gamma_db]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["optimize", "--constellation", "r2_4", "--R", "0.9", "--gaussian"],
    ["sweep", "--constellation", "r2_4", "--R", "0.9", "--theta-deg", "5"],
    ["expand", "--candidates", "r2_4:0.9", "--R", "0.9", "--constellation", "r2_4"],
    ["mi", "--constellation", "r2_4", "--alpha", "1,1", "--gamma-db", "8", "--angles", "65"],
    ["boundary", "--constellation", "r2_4", "--R", "0.9", "--gamma-db", "8", "--B", "2"],
    ["reproduce", "fig4", "--R", "1"],
    ["anchors", "--constellation", "r3_8", "--R", "0.9", "--gamma-db", "8", "--theta1-deg", "10"],
    ["sweep", "--constellation", "r2_8", "--Rc", "0.6", "--m", "3"],
    ["optimize", "--constellation", "r2_4", "--constellation-file", "c.json", "--R", "0.9"],
    ["optimize", "--constellation", "r2_4", "--R", "0.9", "--Rc", "0.45"],
    ["anchors", "--gaussian", "--constellation", "r2_4", "--B", "2", "--R", "0.9", "--gamma-db", "8"],
], ids=["optimize-gaussian", "sweep-theta", "expand-constellation", "mi-angles", "boundary-B",
        "reproduce-R", "theta1-deg", "m", "two-inputs", "R-and-Rc", "gaussian-and-constellation"])
def test_unread_or_conflicting_flag_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "error" in capsys.readouterr().err


INPUT = ["--constellation", "--constellation-file"]
PRECODER = ["--theta-deg", "--phases-deg", "--lambda0-sign", "--lambda-half-sign"]
RATE = ["--R", "--Rc"]
ENGINE_OUTPUT = ["--engine", "--gh-order", "--mc-samples", "--seed", "--out", "--format"]


def test_each_subcommand_takes_only_the_flags_it_reads():
    point = INPUT + ["--gaussian"] + PRECODER
    want = {
        "mi": ["--alpha", "--gamma-db"] + point,
        "anchors": ["--gamma-db", "--B"] + point + RATE,
        "outage": ["--gamma-db", "--method", "--B", "--angles"] + point + RATE,
        "boundary": ["--gamma-db", "--angles"] + point + RATE,
        "sweep": ["--theta-grid", "--product-distance"] + INPUT + RATE,
        "optimize": INPUT + RATE,
        "expand": ["--candidates", "--R"],
        "reproduce": ["target", "--angles"],
    }
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    got = {
        name: sorted(s for a in p._actions if a.dest != "help" for s in a.option_strings or [a.dest])
        for name, p in sub.choices.items()
    }
    assert got == {name: sorted(flags + ENGINE_OUTPUT) for name, flags in want.items()}
    assert sum(map(len, got.values())) == 106


@pytest.mark.parametrize("argv", [
    ["boundary", "--gaussian", "--R", "-1", "--gamma-db", "8"],
    ["outage", "--gaussian", "--B", "2", "--R", "0", "--gamma-db", "8"],
    ["anchors", "--gaussian", "--B", "2", "--R", "-1", "--gamma-db", "8"],
], ids=["boundary", "outage", "anchors"])
def test_gaussian_nonpositive_rate_exits_2(argv, capsys):
    assert cli.main(argv) == 2
    assert "R must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("argv,unread", [
    (["anchors", "--constellation", "r2_4", "--B", "3", "--R", "0.9", "--gamma-db", "8"], "--B"),
    (["outage", "--constellation", "r2_4", "--B", "3", "--R", "0.9", "--gamma-db", "8", "--angles", "65"],
     "--B"),
    (["outage", "--gaussian", "--B", "2", "--R", "0.9", "--gamma-db", "8", "--method", "mc",
      "--mc-samples", "5"], "--mc-samples, --method"),
    (["mi", "--gaussian", "--alpha", "1,1", "--gamma-db", "8", "--theta-deg", "27", "--engine", "mc"],
     "--engine, --theta-deg"),
    (["boundary", "--gaussian", "--R", "0.9", "--gamma-db", "8", "--gh-order", "8"], "--gh-order"),
], ids=["anchors-B", "outage-B", "outage-gaussian-mc", "mi-gaussian-precoder", "boundary-gaussian-order"])
def test_flag_the_chosen_input_does_not_read_exits_2(argv, unread, capsys):
    assert cli.main(argv) == 2
    assert f"does not read {unread}" in capsys.readouterr().err
