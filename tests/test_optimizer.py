import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outagelab import constellations as cs
from outagelab import mutual_info
from outagelab.mutual_info import EngineConfig, SaturationError
from outagelab.optimizer import (
    ExpansionRow,
    default_grid,
    ergodic_snr,
    expansion_compare,
    gamma_s_at,
    gaussian_floor,
    optimize,
    sweep,
)

GAUSS_FLOOR_B2_R09_DB = 7.452986194  # 10*log10((2^3.6 - 1)/2)


def test_gaussian_floor_values():
    assert 10 * math.log10(gaussian_floor(2, 0.9)) == pytest.approx(
        GAUSS_FLOOR_B2_R09_DB, abs=1e-6
    )
    assert gaussian_floor(2, 1.8, "complex") == pytest.approx(2**3.6 - 1)
    assert gaussian_floor(1, 0.9) == pytest.approx((2**1.8 - 1) / 2)
    with pytest.raises(ValueError):
        gaussian_floor(2, 0.9, "quaternion")


def test_sweep_square_profile(cfg):
    c = cs.build_named("r2_4")
    grid = np.radians(np.arange(0.0, 90.5, 2.5))
    prof = sweep(c, 0.9, grid=grid, cfg=cfg)
    # saturated exactly at the multiples of 45 degrees (too few projections)
    assert prof.saturated[0] and prof.saturated[18] and prof.saturated[-1]
    assert not prof.saturated[1:18].all()
    finite = prof.gamma_s[~prof.saturated]
    assert np.all(finite >= prof.gamma_floor)
    i_min = int(np.nanargmin(np.where(prof.saturated, np.nan, prof.gamma_s)))
    assert abs(prof.grid_deg[i_min] - 27.5) <= 2.5
    # the lock-step sweep gives each angle exactly its one-row solve
    assert prof.gamma_s.tolist() == [gamma_s_at(c, 0.9, t, cfg) for t in grid]


def test_mc_sweep_equals_one_row_solves():
    mc = EngineConfig(engine="mc", mc_samples=2000)
    c = cs.build_named("r2_4")
    grid = np.radians(np.arange(0.0, 90.5, 9.0))
    prof = sweep(c, 0.9, grid=grid, cfg=mc)
    assert prof.saturated[[0, 5, 10]].all()
    assert prof.gamma_s.tolist() == [gamma_s_at(c, 0.9, t, mc) for t in grid]


# gamma_s as the per-angle scalar solver computed it before sweeps were
# solved in lock-step, as repr literals: every value must stay bit-identical
PINNED_GAMMA_S = [
    ("r2_4", 0.9, 27.0, 32, 8.109353125000002),
    ("r2_16", 0.9, 44.0, 32, 5.784126562500001),
    ("r3_8", 0.9, 50.75, 32, 31.3255875),
    ("c2_16", 1.8, 10.7, 32, 74.241625),  # chain rule: the 4-point real base
    ("c2_64", 2.7, 20.0, 8, 67.571675),  # no real base: a complex, 2-D projection
]


@pytest.mark.parametrize("name,R,deg,order,value", PINNED_GAMMA_S)
def test_gamma_s_bit_identical(name, R, deg, order, value):
    c = cs.build_named(name)
    cfg = EngineConfig(gh_order=order)
    assert gamma_s_at(c, R, math.radians(deg), cfg) == value
    grid = np.radians([deg - 1.0, deg, deg + 1.0])
    assert sweep(c, R, grid=grid, cfg=cfg).gamma_s[1] == value


def test_sweep_symmetric_about_45(cfg):
    c = cs.build_named("r2_4")
    for deg in (10.0, 27.0, 40.0):
        a = gamma_s_at(c, 0.9, math.radians(deg), cfg)
        b = gamma_s_at(c, 0.9, math.radians(90 - deg), cfg)
        assert 10 * math.log10(a) == pytest.approx(10 * math.log10(b), abs=1e-6)


def test_sweep_b3_symmetric_about_60(cfg):
    c = cs.build_named("r3_8")
    for deg in (15.0, 30.0, 50.0):
        a = gamma_s_at(c, 0.9, math.radians(deg), cfg)
        b = gamma_s_at(c, 0.9, math.radians(120 - deg), cfg)
        assert 10 * math.log10(a) == pytest.approx(10 * math.log10(b), abs=0.02)


def test_optimize_square(cfg):
    res = optimize(cs.build_named("r2_4"), 0.9, cfg)
    assert math.degrees(res.theta_opt) == pytest.approx(27.0, abs=2.0)
    lo, hi = res.near_optimal_interval
    assert lo <= math.degrees(res.theta_opt) <= hi
    # the mirror interval around 90 - theta_opt is reported too
    assert len(res.intervals) == 2
    assert res.gamma_s_opt <= np.min(res.profile.gamma_s)
    assert res.gamma_s_opt >= res.profile.gamma_floor


# (theta_opt, gamma_s_opt) as the optimizer returned them when each
# golden-section probe was its own one-row solve, as repr literals
PINNED_OPTIMA = [
    ("r2_4", 0.4829273116539943, 8.090321875),
    ("r2_8", 0.08187309860325684, 6.302378125000001),
    ("r2_16", 0.7681306283314842, 5.784126562500001),
    ("r3_8", 0.8858119975972337, 31.3255875),
]


def test_angle_opt_optima_bit_identical_in_few_kernel_calls(kernel_work, monkeypatch):
    # the four optimize calls of the angle-opt benchmark study; with one
    # solve per golden-section probe they took 325 kernel calls and 43 solves
    solves = []
    solve = mutual_info.solve_increasing
    monkeypatch.setattr(mutual_info, "solve_increasing",
                        lambda *args, **kwargs: solves.append(1) or solve(*args, **kwargs))
    for name, theta, gamma in PINNED_OPTIMA:
        res = optimize(cs.build_named(name), 0.9)
        assert (res.theta_opt, res.gamma_s_opt) == (theta, gamma), name
    assert kernel_work.calls <= 150
    assert len(solves) <= 16


def test_optimize_refinement_stable(cfg):
    a = optimize(cs.build_named("r2_4"), 0.9, cfg, coarse_step_deg=0.5)
    b = optimize(cs.build_named("r2_4"), 0.9, cfg, coarse_step_deg=0.25)
    assert abs(math.degrees(a.theta_opt) - math.degrees(b.theta_opt)) < 0.1


def test_sweep_infeasible_rate(cfg):
    with pytest.raises(SaturationError):
        sweep(cs.build_named("r2_4"), 1.05, cfg=cfg)


def test_sweep_validates_inputs(cfg):
    with pytest.raises(ValueError):
        sweep(cs.build_named("r2_4"), 0.9, grid=np.array([0.3, 0.1]), cfg=cfg)


def test_default_grid_ranges():
    g2 = default_grid(2)
    g3 = default_grid(3)
    assert math.degrees(g2[-1]) == pytest.approx(90.0)
    assert math.degrees(g3[-1]) == pytest.approx(120.0)


def test_expansion_compare_rows(cfg):
    rows = expansion_compare(
        [(cs.build_named("r2_4"), 0.9), (cs.build_named("r2_8"), 0.6)], 0.9, cfg
    )
    assert [r.name for r in rows] == ["r2_4", "r2_8"]
    assert rows[0].gap_db > rows[1].gap_db > 0
    assert rows[0].ergodic_gap_db > rows[1].ergodic_gap_db > 0
    single = expansion_compare([(cs.build_named("r2_4"), 0.9)], 0.9, cfg)
    assert isinstance(single[0], ExpansionRow)


def test_expansion_rejects_bad_candidates(cfg):
    with pytest.raises(ValueError, match="does not match"):
        expansion_compare([(cs.build_named("r2_4"), 0.8)], 0.9, cfg)
    # m = 2 cannot carry B*R = 2.4 bits even uncoded
    with pytest.raises(ValueError, match="minimum"):
        expansion_compare([(cs.build_named("r2_4"), 1.2)], 1.2, cfg)


def test_expansion_rejects_candidates_of_different_B(cfg):
    with pytest.raises(ValueError, match="B=3"):
        expansion_compare([(cs.build_named("r2_4"), 0.9), (cs.build_named("r3_8"), 0.9)], 0.9, cfg)


def test_ergodic_snr_theta_independent(cfg):
    from outagelab import precoders as pc

    c = cs.build_named("r2_8")
    base = ergodic_snr(c, 0.9, cfg)
    rot = ergodic_snr(pc.apply(pc.rotation2(0.7), c), 0.9, cfg)
    assert rot == pytest.approx(base, rel=1e-5)
    with pytest.raises(SaturationError):
        ergodic_snr(cs.build_named("r2_4"), 1.0, cfg)


def test_product_distance_profile(cfg):
    grid = np.radians(np.arange(0.0, 90.5, 3.0))
    c = cs.build_named("r2_8")
    prof = sweep(c, 0.9, grid=grid, cfg=cfg, include_product_distance=True)
    dp = prof.d_pmin
    assert dp[0] == pytest.approx(0.0, abs=1e-12)
    i_dp = int(np.argmax(dp))
    i_gs = int(np.nanargmin(np.where(prof.saturated, np.nan, prof.gamma_s)))
    assert abs(grid[i_dp] - grid[i_gs]) > math.radians(5.0)
    with pytest.raises(ValueError):
        sweep(cs.build_named("bpsk"), 0.9, grid=grid, cfg=cfg, include_product_distance=True)


@given(deg=st.floats(min_value=1.0, max_value=89.0))
@settings(max_examples=15, deadline=None)
def test_gamma_s_never_beats_gaussian(deg):
    cfg = EngineConfig()
    g = gamma_s_at(cs.build_named("r2_4"), 0.9, math.radians(deg), cfg)
    if math.isfinite(g):
        assert g >= gaussian_floor(2, 0.9) - 1e-9
