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


def test_gh_order_with_overflowing_weights_exits_2(tmp_path, capsys):
    # numpy's Hermite weights stop being finite between orders 370 and 380
    out = tmp_path / "mi.csv"
    argv = ["mi", "--constellation", "r2_4", "--alpha", "1,2", "--gamma-db", "0", "--out", str(out)]
    assert cli.main(argv + ["--gh-order", "400"]) == 2
    assert "finite and positive" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main(argv + ["--gh-order", "200"]) == 0


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
    assert float(rows[0][1]) == 1.0 and rows[0][6] == "limit"


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


MI_R2_4 = ["mi", "--constellation", "r2_4", "--alpha", "1,1", "--gamma-db", "8"]


@pytest.mark.parametrize("budget,engine", [(None, "quadrature"), ("10", "monte_carlo")],
                         ids=["unset", "10"])
def test_budget_ops_variable_picks_the_engine(budget, engine, monkeypatch, tmp_path):
    if budget is None:
        monkeypatch.delenv("OUTAGELAB_BUDGET_OPS", raising=False)
    else:
        monkeypatch.setenv("OUTAGELAB_BUDGET_OPS", budget)
    out = tmp_path / "mi.csv"
    assert cli.main(MI_R2_4 + ["--out", str(out)]) == 0
    meta, _, rows = read_csv(out)
    assert meta["engine"] == rows[0][4] == engine


def test_budget_ops_variable_not_an_integer_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("OUTAGELAB_BUDGET_OPS", "1e9")
    assert cli.main(MI_R2_4) == 2
    err = capsys.readouterr().err
    assert "OUTAGELAB_BUDGET_OPS" in err and "integer" in err


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
        ["outage", "--gaussian", "--R", "0.9", "--gamma-db", "8",
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
    ["outage", "--constellation", "r2_4", "--B", "3", "--R", "0.9", "--gamma-db", "8", "--angles", "65"],
    ["anchors", "--constellation", "r3_8", "--R", "0.9", "--gamma-db", "8", "--theta-deg", "5",
     "--phases-deg", "0,27"],
    ["anchors", "--constellation", "r3_8", "--R", "0.9", "--gamma-db", "8", "--lambda0-sign", "-1"],
], ids=["optimize-gaussian", "sweep-theta", "expand-constellation", "mi-angles", "boundary-B",
        "reproduce-R", "theta1-deg", "m", "two-inputs", "R-and-Rc", "gaussian-and-constellation",
        "outage-B", "theta-and-phases", "lambda0-sign"])
def test_unread_or_conflicting_flag_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "error" in capsys.readouterr().err


INPUT = ["--constellation", "--constellation-file"]
PRECODER = ["--theta-deg", "--phases-deg"]
RATE = ["--R", "--Rc"]
ENGINE_OUTPUT = ["--engine", "--gh-order", "--mc-samples", "--seed", "--out", "--format"]


def test_each_subcommand_takes_only_the_flags_it_reads():
    point = INPUT + ["--gaussian"] + PRECODER
    want = {
        "mi": ["--alpha", "--gamma-db"] + point,
        "anchors": ["--gamma-db", "--B"] + point + RATE,
        "outage": ["--gamma-db", "--method", "--angles"] + point + RATE,
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
    assert sum(map(len, got.values())) == 97


@pytest.mark.parametrize("argv", [
    ["boundary", "--gaussian", "--R", "-1", "--gamma-db", "8"],
    ["outage", "--gaussian", "--R", "0", "--gamma-db", "8"],
    ["anchors", "--gaussian", "--B", "2", "--R", "-1", "--gamma-db", "8"],
    ["boundary", "--gaussian", "--R", "nan", "--gamma-db", "8"],
    ["outage", "--gaussian", "--R", "nan", "--gamma-db", "8"],
    ["anchors", "--gaussian", "--B", "2", "--R", "nan", "--gamma-db", "8"],
], ids=["boundary", "outage", "anchors", "boundary-nan", "outage-nan", "anchors-nan"])
def test_gaussian_nonpositive_rate_exits_2(argv, capsys):
    assert cli.main(argv) == 2
    assert "R must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("argv,unread", [
    (["anchors", "--constellation", "r2_4", "--B", "3", "--R", "0.9", "--gamma-db", "8"], "--B"),
    (["outage", "--gaussian", "--R", "0.9", "--gamma-db", "8", "--method", "mc",
      "--mc-samples", "5"], "--mc-samples, --method"),
    (["mi", "--gaussian", "--alpha", "1,1", "--gamma-db", "8", "--theta-deg", "27", "--engine", "mc"],
     "--engine, --theta-deg"),
    (["boundary", "--gaussian", "--R", "0.9", "--gamma-db", "8", "--gh-order", "8"], "--gh-order"),
    (["outage", "--constellation", "r2_4", "--R", "0.9", "--theta-deg", "27", "--method", "mc",
      "--mc-samples", "2000", "--angles", "65", "--gamma-db", "8"], "--angles"),
    (["outage", "--constellation", "r3_8", "--R", "0.9", "--theta-deg", "30", "--angles", "65",
      "--gamma-db", "8"], "--angles"),
    (["reproduce", "fig4", "--angles", "65"], "--angles"),
    (["outage", "--constellation", "r2_4", "--R", "1.1", "--theta-deg", "0", "--gamma-db", "10",
      "--angles", "65", "--method", "boundary"], "--angles, --method"),
], ids=["anchors-B", "outage-gaussian-mc", "mi-gaussian-precoder", "boundary-gaussian-order",
        "outage-mc-angles", "outage-auto-mc-angles", "reproduce-fig4-angles", "outage-limit"])
def test_flag_the_chosen_input_does_not_read_exits_2(argv, unread, capsys):
    assert cli.main(argv) == 2
    assert f"does not read {unread}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["anchors", "--constellation", "r2_4", "--R", "nan", "--gamma-db", "10"],
    ["outage", "--constellation", "r2_4", "--R", "nan", "--gamma-db", "10"],
    ["outage", "--constellation", "r2_4", "--Rc", "nan", "--gamma-db", "10"],
    ["boundary", "--constellation", "r2_4", "--R", "nan", "--gamma-db", "10"],
    ["sweep", "--constellation", "r2_4", "--R", "nan"],
    ["optimize", "--constellation", "r2_4", "--R", "nan"],
    ["expand", "--candidates", "r2_4:0.9", "--R", "nan"],
], ids=["anchors", "outage", "outage-Rc", "boundary", "sweep", "optimize", "expand"])
def test_nan_rate_exits_2(argv, hang_guard, capsys):
    assert cli.main(argv) == 2
    assert "must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_mc_samples_below_one_exits_2(samples, capsys):
    argv = ["mi", "--constellation", "r2_4", "--alpha", "1,1", "--gamma-db", "0", "--engine", "mc"]
    assert cli.main(argv + ["--mc-samples", samples]) == 2
    assert "mc_samples must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["1,nan", "1,inf"])
@pytest.mark.parametrize("source", [["--constellation", "r2_4"], ["--gaussian"]], ids=["r2_4", "gaussian"])
def test_non_finite_gain_exits_2(source, alpha, capsys):
    assert cli.main(["mi", "--alpha", alpha, "--gamma-db", "0"] + source) == 2
    assert "fading gains must be finite" in capsys.readouterr().err


CURVE27 = ["outage", "--constellation", "r2_4", "--theta-deg", "27", "--R", "0.9", "--gamma-db", "8"]


@pytest.mark.parametrize("argv,msg", [
    (["outage", "--constellation", "r3_8", "--R", "0.9", "--gamma-db", "8", "--mc-samples", "999"],
     "--mc-samples >= 1000"),
    (CURVE27 + ["--angles", "64"], "odd number of at least 65 angles, got 64"),
    (CURVE27 + ["--angles", "63"], "odd number of at least 65 angles, got 63"),
    (CURVE27 + ["--angles", "0"], "odd number of at least 65 angles, got 0"),
    (["outage", "--gaussian", "--R", "0.9", "--gamma-db", "8", "--angles", "64"], "got 64"),
], ids=["mc-samples", "even-angles", "few-angles", "no-angles", "gaussian-even-angles"])
def test_outage_curve_rule_fails_before_any_solve(argv, msg, monkeypatch, capsys):
    def solved(*args, **kwargs):
        raise AssertionError("solved before the rule was checked")

    from outagelab import outage

    monkeypatch.setattr(cli.OutageGeometry, "solve", solved)
    monkeypatch.setattr(outage, "PolarMICache", solved)  # outage_mc builds the cache
    assert cli.main(argv) == 2
    assert msg in capsys.readouterr().err


def test_mc_curve_precodes_once(monkeypatch, tmp_path):
    from outagelab import outage
    from outagelab import precoders as pc

    calls, curves = [], []
    apply, outage_mc = pc.apply, outage.outage_mc
    monkeypatch.setattr(pc, "apply", lambda p, c: calls.append(c.name) or apply(p, c))
    monkeypatch.setattr(cli, "outage_mc", lambda *a, **k: curves.append(a) or outage_mc(*a, **k))
    out = tmp_path / "mc.csv"
    argv = CURVE27[:-1] + ["0:20:2", "--method", "mc", "--mc-samples", "1000", "--out", str(out)]
    assert cli.main(argv) == 0
    # one precoding for the geometry, one for the cache and the whole curve
    assert calls == ["r2_4", "r2_4"]
    assert len(curves) == 1 and len(curves[0][3]) == 11
    assert len(read_csv(out)[2]) == 11


def b4_file(tmp_path):
    points = [[(-1) ** (k >> b & 1) for b in range(4)] for k in range(16)]
    path = tmp_path / "b4.json"
    path.write_text(json.dumps({"name": "bpsk4", "B": 4, "field": "real", "points": points}))
    return ["--constellation-file", str(path), "--phases-deg", "0,30,180"]


@pytest.mark.parametrize("source,order,want", [
    (["--constellation", "r2_4", "--theta-deg", "27"], "32", "20"),
    (["--constellation", "r2_4", "--theta-deg", "27"], "12", "12"),
    (["--constellation", "r3_8"], "32", "10"),
    (None, "4", "4"),
], ids=["B2", "B2-below-the-cap", "B3", "B4"])
def test_mc_header_states_the_decision_order(tmp_path, source, order, want):
    # Monte Carlo rows are decided at the lattice's capped order at B = 2
    # and 3 and at the run's own order beyond; the header says which
    out = tmp_path / "mc.csv"
    argv = ["outage"] + (source or b4_file(tmp_path)) + [
        "--R", "0.5", "--method", "mc", "--mc-samples", "1000", "--gamma-db", "8",
        "--gh-order", order, "--out", str(out)]
    assert cli.main(argv) == 0
    meta, _, rows = read_csv(out)
    assert (meta["gh_order"], meta["mc_gh_order"]) == (order, want)
    assert len(rows) == 1
    # a boundary curve has no Monte Carlo rows, and no such line
    argv = ["outage", "--constellation", "r2_4", "--R", "0.9", "--gamma-db", "8", "--out", str(out)]
    assert cli.main(argv) == 0
    assert "mc_gh_order" not in read_csv(out)[0]


def test_boundary_curve_rows_take_three_cdf_calls(monkeypatch, cfg):
    from outagelab import outage
    from outagelab import precoders as pc

    geom = outage.OutageGeometry.solve(
        cs.build_named("r2_4"), pc.rotation2(math.radians(27)), 0.9, cfg, n_angles=65)
    calls, cdf = [], outage.chi_square_cdf
    monkeypatch.setattr(outage, "chi_square_cdf", lambda x, B: calls.append(np.shape(x)) or cdf(x, B))
    rows = cli._curve_rows(geom, [0.0, 5.0, 10.0, 15.0, 20.0], 0)
    assert len(rows) == 5
    # every SNR's boundary integral in one call, then p_up and p_low of the curve
    assert calls == [(5, 65), (5,), (5,)]


def test_b3_boundary_curve_fails_before_the_anchors(monkeypatch, capsys):
    from outagelab import outage

    def anchors(*args, **kwargs):
        raise AssertionError("anchors solved before the trace rejected B = 3")

    monkeypatch.setattr(outage, "compute_anchors", anchors)
    argv = ["outage", "--constellation", "r3_8", "--R", "0.9", "--gamma-db", "8", "--method", "boundary"]
    assert cli.main(argv) == 2
    assert "defined for B = 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["boundary", "--constellation", "r2_4", "--R", "0.9", "--gamma-db", "8", "--angles", "0"],
    ["boundary", "--gaussian", "--R", "0.9", "--gamma-db", "8", "--angles", "0"],
], ids=["constellation", "gaussian"])
def test_boundary_without_angles_exits_2(argv, capsys):
    assert cli.main(argv) == 2
    assert "at least one angle" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["anchors", "--gaussian", "--B", "2", "--R", "0.9", "--gamma-db", "8"],
    ["boundary", "--gaussian", "--R", "0.9", "--gamma-db", "8", "--angles", "65"],
], ids=["anchors", "boundary"])
def test_gaussian_input_writes_closed_form_engine(argv, tmp_path):
    out = tmp_path / "g.csv"
    assert cli.main(argv + ["--out", str(out)]) == 0
    meta, _, _ = read_csv(out)
    assert meta["engine"] == "closed_form"


R3 = ["--constellation", "r3_8", "--R", "0.9"]


@pytest.mark.parametrize("cmd", [
    ["anchors", "--gamma-db", "8"] + R3,
    ["mi", "--constellation", "r3_8", "--alpha", "1,0.5,0.7", "--gamma-db", "8"],
], ids=["anchors", "mi"])
def test_phases_with_unit_phi0_is_the_b3_rotation(cmd, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(cmd + ["--phases-deg", "0,27", "--out", str(a)]) == 0
    assert cli.main(cmd + ["--theta-deg", "27", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_phases_with_negative_phi0(tmp_path):
    # the row that --theta-deg 27 with a -1 DC eigenvalue sign wrote before
    # the signs became eigenphases
    out = tmp_path / "a.csv"
    assert cli.main(["anchors", "--gamma-db", "8", "--phases-deg", "180,27", "--out", str(out)] + R3) == 0
    _, header, rows = read_csv(out)
    row = dict(zip(header, rows[0]))
    assert (row["alpha_o"], row["p_up"]) == ("2.593463884", "0.9636074592")


def test_b2_circulant_swap_runs(tmp_path):
    out = tmp_path / "a.csv"
    argv = ["anchors", "--constellation", "r2_4", "--R", "0.45", "--gamma-db", "8",
            "--phases-deg", "0,180", "--out", str(out)]
    assert cli.main(argv) == 0
    _, _, rows = read_csv(out)
    assert rows[0][1] == "1"  # the 2-point axis projection carries B*R = 0.9 bits: alpha_o exists


@pytest.mark.parametrize("phases", ["27", "0,27,5", "90,27", "0,27,"],
                         ids=["too-few", "too-many", "phi0-90", "empty-entry"])
def test_bad_eigenphases_exit_2(phases, capsys):
    assert cli.main(["anchors", "--gamma-db", "8", "--phases-deg", phases] + R3) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["outage", "--constellation", "r2_4", "--R", "0.9", "--theta-deg", "nan", "--gamma-db", "10"],
    ["sweep", "--constellation", "r2_4", "--R", "0.9", "--theta-grid", "nan"],
    ["outage", "--phases-deg", "0,nan", "--gamma-db", "10"] + R3,
], ids=["theta-deg", "theta-grid", "phases-deg"])
def test_non_finite_precoder_angle_exits_2(argv, tmp_path, capsys):
    # a nan matrix has a nan orthogonality error, which must fail the check
    assert cli.main(argv + ["--out", str(tmp_path / "a.csv")]) == 2
    assert "not orthogonal" in capsys.readouterr().err


def test_non_finite_coordinate_exits_2(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text('{"name": "nan", "B": 2, "field": "real", '
                    '"points": [[1, 1], [1, -1], [-1, 1], [NaN, -1]]}')
    assert cli.main(["sweep", "--constellation-file", str(path), "--R", "0.9",
                     "--out", str(tmp_path / "a.csv")]) == 2
    assert "finite" in capsys.readouterr().err


def test_b4_circulant_from_file_runs(tmp_path):
    out = tmp_path / "mi.csv"
    argv = ["mi"] + b4_file(tmp_path) + ["--alpha", "1,1,1,1", "--gamma-db", "8", "--gh-order", "8",
                                          "--out", str(out)]
    assert cli.main(argv) == 0
    _, _, rows = read_csv(out)
    assert 0 < float(rows[0][2]) <= 1
