import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outagelab import constellations as cs
from outagelab import optimizer
from outagelab import precoders as pc
from outagelab.mutual_info import ChannelSample, EngineConfig, SaturationError, mi_gaussian, mi_per_use
from outagelab.outage import (
    RAY_CAP_TOL,
    BoundaryTrace,
    OutageAnchors,
    OutageGeometry,
    OutageQuery,
    OutageResult,
    PolarMICache,
    chi_square_cdf,
    compute_anchors,
    ergodic_snr,
    hypersphere_bounds,
    outage_from_boundary_2d,
    outage_mc,
    sample_rayleigh,
    trace_boundary_2d,
    wilson_ci,
    _ray_caps_bits,
)

CHI2_1_2 = 0.264241117657115  # 1 - 2/e


@pytest.fixture(scope="module")
def q27(gamma_8db):
    return OutageQuery(
        cs.build_named("r2_4"), pc.rotation2(math.radians(27)), R=0.9, gamma=gamma_8db
    )


def chi2_pdf_integral_oracle(x, B, n=200_001):
    """Quadrature of the Gamma(B,1) density, independent of the CDF formula."""
    t = np.linspace(0.0, x, n)
    pdf = t ** (B - 1) * np.exp(-t) / math.factorial(B - 1)
    return float(np.trapezoid(pdf, t))


def test_chi_square_cdf_cases():
    assert chi_square_cdf(0.0, 2) == 0.0
    for x in (0.3, 1.0, 4.0):
        assert chi_square_cdf(x, 1) == pytest.approx(1 - math.exp(-x), abs=1e-14)
    assert chi_square_cdf(1.0, 2) == pytest.approx(CHI2_1_2, abs=1e-14)
    for B in (2, 3):
        for x in (0.05, 0.5, 0.999, 1.001, 2.5, 10.0):
            assert chi_square_cdf(x, B) == pytest.approx(
                chi2_pdf_integral_oracle(x, B), abs=1e-8
            )


def test_chi_square_empirical(cfg):
    rng = np.random.default_rng(123)
    n = 2_000_000
    for B in (2, 3):
        sums = rng.exponential(1.0, (n, B)).sum(axis=1)
        for x in (0.5, 1.0, 2.0):
            emp = np.count_nonzero(sums < x) / n
            sd = math.sqrt(emp * (1 - emp) / n)
            assert abs(chi_square_cdf(x, B) - emp) < 3 * sd


@given(x=st.floats(min_value=0.0, max_value=50.0), B=st.integers(1, 6))
@settings(max_examples=80, deadline=None)
def test_chi_square_below_power_bound(x, B):
    assert chi_square_cdf(x, B) <= x**B + 1e-15


@pytest.mark.parametrize("B", [1, 2, 3, 4])
def test_chi_square_cdf_array_equals_scalar_calls(B):
    x = np.array([[0.0, 1e-9, 0.3, 0.999], [1.0, 2.5, 40.0, math.inf]])
    got = chi_square_cdf(x, B)
    want = [[chi_square_cdf(float(v), B) for v in row] for row in x]
    assert all(type(w) is float for row in want for w in row)
    assert got.shape == x.shape and np.array_equal(got, want)
    assert got[1, 3] == 1.0


def chi2_2_decimal(x):
    """P(2, x) = 1 - (1 + x) exp(-x) in 50-digit decimal arithmetic, x taken exactly."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        d = decimal.Decimal(x)
        return float(1 - (1 + d) * (-d).exp())


@pytest.mark.parametrize("rho", [1e-3, 1e-4])
def test_boundary_integration_precise_at_small_radii(rho):
    # a constant radius integrates to P(2, rho^2) times the saturated trace's
    # value; the radial mass must not cancel as rho -> 0 (high SNR).  The ray
    # weights sum to 1, so the fewest rays give the same ratio (the Simpson
    # sum of sin(2*lambda) alone is 1 + 3.2e-8 at 65 rays)
    for n in (65, 4097):
        lam = np.linspace(0.0, math.pi / 2, n)
        inside = outage_from_boundary_2d(BoundaryTrace(lam, np.full(n, rho), 0.9)).p_out
        whole = outage_from_boundary_2d(BoundaryTrace(lam, np.full(n, math.inf), 0.9)).p_out
        assert inside / whole == pytest.approx(chi2_2_decimal(rho * rho), rel=1e-13, abs=0.0)


def test_wilson_ci_contains_point():
    lo, hi = wilson_ci(50, 1000)
    assert lo < 0.05 < hi
    assert wilson_ci(0, 100)[0] == pytest.approx(0.0, abs=1e-12)
    assert wilson_ci(100, 100)[1] == pytest.approx(1.0, abs=1e-12)


def gaussian_mi(alpha, gamma):
    return mi_gaussian(ChannelSample(np.asarray(alpha), gamma)).value


def test_gaussian_anchor_formulas(gamma_8db):
    geom = OutageGeometry.gaussian(2, 0.9, 129)
    an = geom.anchors(gamma_8db)
    # the Gaussian floors: B*R = 1.8 bits on one axis, R = 0.9 bits on the diagonal
    assert an.alpha_o**2 == pytest.approx((4**1.8 - 1) / (2 * gamma_8db))
    assert an.alpha_e**2 == pytest.approx((4**0.9 - 1) / (2 * gamma_8db))
    for alpha in ([an.alpha_o, 0.0], [0.0, an.alpha_o], [an.alpha_e, an.alpha_e]):
        assert gaussian_mi(alpha, gamma_8db) == pytest.approx(0.9, rel=1e-12)
    # every rescaled radius carries R, and the boundary hits the anchors at its ends
    tr = geom.trace(gamma_8db)
    for lam, rho in zip(tr.lambdas, tr.rhos):
        assert gaussian_mi(rho * np.array([math.cos(lam), math.sin(lam)]), gamma_8db) == \
            pytest.approx(0.9, rel=1e-12)
    assert tr.rhos[0] == pytest.approx(an.alpha_o, rel=1e-3)
    assert tr.rhos[64] == pytest.approx(math.sqrt(2) * an.alpha_e, rel=1e-3)


def test_anchor_consistency(q27, cfg):
    an = compute_anchors(q27, cfg)
    assert an.alpha_o_exists and an.alpha_e_exists
    omega_x = q27.omega_x()
    for alpha in ([an.alpha_o, 0.0], [0.0, an.alpha_o], [an.alpha_e, an.alpha_e]):
        got = mi_per_use(omega_x, ChannelSample(np.array(alpha), q27.gamma), cfg).value
        assert got == pytest.approx(0.9, abs=1e-5)


def test_anchor_saturation_flags(cfg, gamma_8db):
    q0 = OutageQuery(cs.build_named("r2_4"), pc.rotation2(0.0), R=0.9, gamma=gamma_8db)
    an = compute_anchors(q0, cfg)
    assert not an.alpha_o_exists and math.isinf(an.alpha_o)
    assert an.alpha_e_exists
    assert "projection" in an.note


def test_one_ergodic_solve(q27, cfg):
    # the optimizer's ergodic SNR, the anchors' alpha_e and the geometry
    # all come from one solve at GAMMA_REF, whatever the query's SNR
    assert optimizer.ergodic_snr is ergodic_snr
    s = ergodic_snr(q27.omega_x(), 0.9, cfg)
    assert compute_anchors(q27, cfg).alpha_e == math.sqrt(s / q27.gamma)
    assert OutageGeometry.solve(q27.omega_z, q27.precoder, 0.9, cfg).ergodic_snr == s


def test_trace_endpoints_and_ergodic_point(q27, cfg):
    an = compute_anchors(q27, cfg)
    tr = trace_boundary_2d(q27, 129, cfg)
    assert tr.rhos[0] == pytest.approx(an.alpha_o, rel=1e-3)
    assert tr.rhos[-1] == pytest.approx(an.alpha_o, rel=1e-3)
    assert tr.rhos[64] == pytest.approx(math.sqrt(2) * an.alpha_e, rel=1e-3)
    assert not tr.saturated.any()


def test_trace_theta0_has_saturated_axes(cfg, gamma_8db):
    q0 = OutageQuery(cs.build_named("r2_4"), pc.rotation2(0.0), R=0.9, gamma=gamma_8db)
    tr = trace_boundary_2d(q0, 129, cfg)
    assert tr.saturated[0] and tr.saturated[-1]
    assert not tr.saturated[64]
    assert math.isinf(tr.rhos[0])


def test_trace_ray_without_bracket_is_saturated(cfg, gamma_8db, monkeypatch):
    # the lambda = 0 ray of the unrotated square merges its points pairwise,
    # so its MI stays at 0.5 bits per use; a cap reported above R sends it
    # to the solver, which finds no bracket and must leave it in outage
    from outagelab import outage

    solved = []

    def caps_bits(points, dirs):
        return np.where(dirs.min(axis=1) == 0.0, 2.0, _ray_caps_bits(points, dirs))

    def radii(omega_x, dirs, *args, **kwargs):
        solved.append(dirs.copy())
        return ray_radii(omega_x, dirs, *args, **kwargs)

    q0 = OutageQuery(cs.build_named("r2_4"), pc.rotation2(0.0), R=0.9, gamma=gamma_8db)
    plain = trace_boundary_2d(q0, 65, cfg)
    ray_radii = outage._ray_radii
    monkeypatch.setattr(outage, "_ray_caps_bits", caps_bits)
    monkeypatch.setattr(outage, "_ray_radii", radii)
    tr = trace_boundary_2d(q0, 65, cfg)
    # the lambda = 0 ray reached the solver
    assert len(solved) == 1 and np.array_equal(solved[0][0], [1.0, 0.0])
    assert math.isinf(tr.rhos[0]) and tr.saturated[0]
    # every other ray solves exactly as it does without the failing one
    assert np.array_equal(tr.rhos[1:], plain.rhos[1:])
    assert np.array_equal(tr.saturated[1:], plain.saturated[1:])
    assert math.isfinite(outage_from_boundary_2d(tr).p_out)


def test_outage_from_boundary_degenerate_traces():
    n = 129
    lam = np.linspace(0, math.pi / 2, n)
    zero = BoundaryTrace(lam, np.zeros(n), 0.5)
    assert outage_from_boundary_2d(zero).p_out == pytest.approx(0.0, abs=1e-15)
    full = BoundaryTrace(lam, np.full(n, math.inf), 0.5)
    assert outage_from_boundary_2d(full).p_out == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        outage_from_boundary_2d(
            BoundaryTrace(lam[:51], np.zeros(51), 0.5)
        )
    with pytest.raises(ValueError):
        outage_from_boundary_2d(
            BoundaryTrace(lam[:100], np.zeros(100), 0.5)
        )


def test_boundary_integration_doubling_stable(q27, cfg):
    p_lo = outage_from_boundary_2d(trace_boundary_2d(q27, 257, cfg)).p_out
    p_hi = outage_from_boundary_2d(trace_boundary_2d(q27, 513, cfg)).p_out
    assert abs(p_hi - p_lo) / p_hi < 0.01


def test_outage_mc_seeds_agree(q27, cfg):
    (a,) = outage_mc(q27.omega_x(), 100_000, q27.R, [q27.gamma], seed=1, cfg=cfg)
    (b,) = outage_mc(q27.omega_x(), 100_000, q27.R, [q27.gamma], seed=2, cfg=cfg)
    half = (a.ci95[1] - a.ci95[0]) / 2 + (b.ci95[1] - b.ci95[0]) / 2
    assert abs(a.p_out - b.p_out) < half
    (again,) = outage_mc(q27.omega_x(), 100_000, q27.R, [q27.gamma], seed=1, cfg=cfg)
    assert again.p_out == a.p_out


def test_outage_mc_rate_above_capacity(cfg, gamma_8db):
    omega_x = pc.apply(pc.rotation2(0.3), cs.build_named("r2_4"))
    with pytest.warns(UserWarning) as record:
        res = outage_mc(omega_x, 10_000, 1.5, [1.0, gamma_8db, 100.0], seed=0, cfg=cfg)
    assert len(record) == 1  # one warning per curve, not per point
    assert [r.p_out for r in res] == [1.0, 1.0, 1.0]
    assert all(r.ci95 == (1.0, 1.0) for r in res)


def test_outage_mc_needs_min_samples(q27, cfg):
    with pytest.raises(ValueError):
        outage_mc(q27.omega_x(), 100, q27.R, [q27.gamma], seed=0, cfg=cfg)


@pytest.mark.parametrize("R,gammas", [(0.0, [1.0]), (0.9, [1.0, 0.0]), (0.9, [-2.0])])
def test_outage_mc_rejects_bad_inputs(q27, cfg, R, gammas):
    with pytest.raises(ValueError, match="must be positive"):
        outage_mc(q27.omega_x(), 1000, R, gammas, cfg=cfg)


def test_gaussian_outage_lower_bounds_discrete(q27, cfg):
    disc = outage_from_boundary_2d(trace_boundary_2d(q27, 257, cfg)).p_out
    gauss = OutageGeometry.gaussian(2, q27.R, 257).outage(q27.gamma).p_out
    assert gauss <= disc


def test_hypersphere_bounds_and_defaults(q27, cfg):
    an = compute_anchors(q27, cfg)
    p_up, p_low = hypersphere_bounds(an, 2)
    assert p_up == pytest.approx(chi_square_cdf(an.alpha_o**2, 2))
    assert p_low == pytest.approx(chi_square_cdf(2 * an.alpha_e**2, 2))
    assert 0 < p_low < p_up < 1
    none_o = OutageAnchors(math.inf, an.alpha_e)
    assert not none_o.alpha_o_exists and none_o.alpha_e_exists
    assert hypersphere_bounds(none_o, 2)[0] == 1.0
    none_e = OutageAnchors(an.alpha_o, math.inf)
    assert hypersphere_bounds(none_e, 2)[1] == 0.0
    zero_e = OutageAnchors(an.alpha_o, 0.0)
    assert hypersphere_bounds(zero_e, 2)[1] == 0.0


def test_bounds_coincide_when_spheres_match():
    an = OutageAnchors(math.sqrt(2) * 0.3, 0.3)
    p_up, p_low = hypersphere_bounds(an, 2)
    assert p_up == pytest.approx(p_low)


def test_cache_serves_multiple_snrs(q27, cfg):
    # the lattice is solved once, at GAMMA_REF; `mi` is the direct MI at the
    # cache's capped order at any SNR, one value per row or one for all rows
    from outagelab.mutual_info import mi_per_use_batch

    cache = PolarMICache(q27.omega_x(), q27.R, cfg)
    assert cache.cfg.gh_order == 20 and cache.R == q27.R
    alphas = np.array([[0.4, 0.9], [1.2, 0.1], [0.7, 0.7]])
    gammas = np.array([0.5, q27.gamma, 40.0])
    for gamma in gammas:
        direct = mi_per_use_batch(q27.omega_x(), alphas, gamma, cache.cfg)
        np.testing.assert_array_equal(cache.mi(alphas, gamma), direct)
    per_row = [mi_per_use_batch(q27.omega_x(), alphas[k:k + 1], g, cache.cfg)[0] for k, g in enumerate(gammas)]
    np.testing.assert_array_equal(cache.mi(alphas, gammas), per_row)


def margin_stand_in(monkeypatch, R, slope):
    """Lattice solves at rate R whose every bracket end lies within
    _SCREEN_MARGIN of R (a = 1 - 1e-6, b = 1 + 1e-6 on every ray), and a
    stand-in MI of R + slope*(rho - 1) at gains of largest coordinate rho;
    returns the list of gain arrays the stand-in was called with."""
    from outagelab import outage
    from outagelab.outage import _SCREEN_MARGIN

    calls = []

    def solve(f, target, **kwargs):
        m = target.size
        ends = (np.full(m, 1.0 - 1e-6), np.full(m, R - 0.5 * _SCREEN_MARGIN),
                np.full(m, 1.0 + 1e-6), np.full(m, R + 0.5 * _SCREEN_MARGIN))
        return None, ends

    def mi(_om, gains, _gamma, _cfg):
        calls.append(gains)
        return R + slope * (gains.max(axis=1) - 1.0)

    monkeypatch.setattr(outage, "_solve", solve)
    monkeypatch.setattr(outage, "mi_per_use_batch", mi)
    return calls


def lattice_rays(B):
    """The flat codes of the face lattice's rays and their directions."""
    from outagelab.outage import _BRACKET_BINS

    nb = _BRACKET_BINS[B]
    codes = np.indices((nb + 1,) * B).reshape(B, -1).T
    rays = np.flatnonzero(codes.max(axis=1) == nb)
    return rays, codes[rays] / nb


def test_cache_evaluates_margin_band_directly(q27, cfg, monkeypatch):
    # the solver's secant often ends a bracket within rounding of R: such an
    # end is widened by the solve's tolerance and checked in one more kernel
    # call, and kept only when that check clears R by the margin
    from outagelab.outage import _LATTICE_REL_TOL

    rays, _ = lattice_rays(2)
    calls = margin_stand_in(monkeypatch, q27.R, slope=1.0)
    cache = PolarMICache(q27.omega_x(), q27.R, cfg)
    assert len(calls) == 1 and calls[0].shape == (2 * rays.size, 2)
    np.testing.assert_array_equal(cache._a[rays], (1.0 - 1e-6) * (1.0 - _LATTICE_REL_TOL))
    np.testing.assert_array_equal(cache._b[rays], (1.0 + 1e-6) * (1.0 + _LATTICE_REL_TOL))
    # an MI that stays within the margin after widening decides nothing
    calls = margin_stand_in(monkeypatch, q27.R, slope=1e-8)
    cache = PolarMICache(q27.omega_x(), q27.R, cfg)
    assert len(calls) == 1
    assert np.all(cache._a[rays] == 0.0) and np.all(cache._b[rays] == np.inf)


# outage counts of r2_4 at 27 degrees, R = 0.9, seed 0, 100k samples, as the
# direct MI at the cache's order 20 decides them
PINNED_MC_COUNTS = [(0.0, 93384), (10.0, 8591), (20.0, 103)]


def test_mc_outage_counts_pinned(q27, cfg, monkeypatch):
    from outagelab import outage

    cache = PolarMICache(q27.omega_x(), q27.R, cfg)
    n = 100_000
    draws = []
    monkeypatch.setattr(outage, "sample_rayleigh", lambda *a: draws.append(a) or sample_rayleigh(*a))
    gammas = [10 ** (gdb / 10) for gdb, _ in PINNED_MC_COUNTS]
    res = outage_mc(q27.omega_x(), n, q27.R, gammas, seed=0, cfg=cfg, cache=cache)
    assert [r.p_out for r in res] == [count / n for _, count in PINNED_MC_COUNTS]
    # one draw serves every SNR point
    assert len(draws) == 1


def per_point_decisions(omega_x, n, R, gammas, seed, cfg, cache):
    """Draws and outage decisions, shape (SNRs, samples), with each SNR decided
    on its own by the direct MI at the order the curve states (`cache.cfg`).

    The MI does not decrease in gamma, so a sample out of outage at one SNR
    of the ascending `gammas` stays out at the next, and each SNR evaluates
    only the samples in outage at the one below.  The first 2,000 samples,
    evaluated at every SNR, check that premise."""
    from outagelab.mutual_info import mi_per_use_batch

    alphas = sample_rayleigh(np.random.default_rng(seed), n, omega_x.B)
    order_cfg = cfg if cache is None else cache.cfg
    below = np.zeros((len(gammas), n), dtype=bool)
    live = np.arange(n)
    for k, gamma in enumerate(gammas):
        below[k, live] = mi_per_use_batch(omega_x, alphas[live], gamma, order_cfg) < R
        live = live[below[k, live]]
    head = [mi_per_use_batch(omega_x, alphas[:2000], gamma, order_cfg) < R for gamma in gammas]
    np.testing.assert_array_equal(head, below[:, :2000])
    return alphas, below


def b4_circulant():
    bpsk4 = cs.cartesian_product(cs.build_named("bpsk"), 4)
    return pc.apply(pc.circulant_from_eigenphases(4, [0.0, math.radians(30.0), math.pi]), bpsk4)


GRID_2DB = [10.0 ** (g / 10.0) for g in np.arange(0.0, 20.5, 2.0)]
GRID_4DB = [10.0 ** (g / 10.0) for g in np.arange(0.0, 20.5, 4.0)]


@pytest.fixture(scope="module")
def mc_sets(cfg):
    """name -> (precoded set, rate, ray lattice or None, engine config)."""
    def cached(name, theta_deg, R):
        c = cs.build_named(name)
        omega_x = pc.apply(pc.rotation(c.B, math.radians(theta_deg)), c)
        return omega_x, R, PolarMICache(omega_x, R, cfg), cfg

    return {
        "r2_4@0": cached("r2_4", 0.0, 0.9),
        "r2_4@27": cached("r2_4", 27.0, 0.9),
        "r3_8@0": cached("r3_8", 0.0, 0.9),
        "r3_8@50.75": cached("r3_8", 50.75, 0.9),
        "c2_16@36": cached("c2_16", 36.0, 1.8),
        "bpsk4-circulant": (b4_circulant(), 0.5, None, EngineConfig(gh_order=4)),
    }


@pytest.mark.parametrize("key,n,grid,seed", [
    ("r2_4@0", 100_000, GRID_2DB, 0),
    ("r2_4@0", 100_000, GRID_2DB, 1),
    ("r2_4@0", 100_000, GRID_2DB, 2),
    ("r2_4@27", 100_000, GRID_2DB, 0),
    ("r2_4@27", 100_000, GRID_2DB, 1),
    ("r2_4@27", 100_000, GRID_2DB, 2),
    ("r3_8@0", 50_000, GRID_4DB, 0),
    ("c2_16@36", 100_000, GRID_2DB, 0),
    ("bpsk4-circulant", 1000, GRID_2DB, 0),
])
def test_mc_curve_moves_no_decision(mc_sets, monkeypatch, key, n, grid, seed):
    from outagelab import outage

    omega_x, R, cache, cfg = mc_sets[key]
    alphas, want = per_point_decisions(omega_x, n, R, grid, seed, cfg, cache)
    # every decision the bisection evaluates is the per-point decision
    evaluated = []
    owner, attr = (PolarMICache, "mi") if cache is not None else (outage, "mi_per_use_batch")
    fn = getattr(owner, attr)

    def recorded(*args, **kwargs):  # (cache, rows, gammas) or (omega_x, rows, gammas, cfg)
        mi = fn(*args, **kwargs)
        rows, gammas = args[1:3]
        evaluated.append((rows, np.broadcast_to(gammas, mi.shape), mi < R))
        return mi

    monkeypatch.setattr(owner, attr, recorded)
    got = outage_mc(omega_x, n, R, grid, seed=seed, cfg=cfg, cache=cache)
    by_first = np.argsort(alphas[:, 0])
    for rows, gammas, below in evaluated:
        sample = by_first[np.searchsorted(alphas[by_first, 0], rows[:, 0])]
        np.testing.assert_array_equal(alphas[sample], rows)
        snr = np.searchsorted(grid, gammas)
        np.testing.assert_array_equal(below, want[snr, sample])
    assert [r.p_out for r in got] == [k / n for k in want.sum(axis=1)]
    assert [r.ci95 for r in got] == [wilson_ci(int(k), n) for k in want.sum(axis=1)]


# at 0 degrees r2_4 loses diversity: the lattice's axis rays saturate
@pytest.mark.parametrize("key", ["r2_4@0", "r2_4@27", "r3_8@50.75"])
def test_screened_lookups_decide_as_unscreened(mc_sets, monkeypatch, key):
    # a curve whose samples start from the lattice's bracket counts what the
    # bisection of the whole grid counts, with every decision a direct row
    omega_x, R, cache, cfg = mc_sets[key]
    grid = [db(g) for g in (0.0, 4.0, 8.0, 12.0, 16.0, 20.0)]
    screened = outage_mc(omega_x, 20_000, R, grid, seed=4, cfg=cfg, cache=cache)
    monkeypatch.setattr(cache, "bracket", lambda alphas, gammas: (
        np.zeros(len(alphas), dtype=np.intp), np.full(len(alphas), len(gammas), dtype=np.intp)))
    unscreened = outage_mc(omega_x, 20_000, R, grid, seed=4, cfg=cfg, cache=cache)
    assert [r.p_out for r in screened] == [r.p_out for r in unscreened]
    assert 0.0 < screened[-1].p_out < screened[0].p_out < 1.0


@pytest.mark.parametrize("key", ["r2_4@0", "r2_4@27", "r3_8@0", "r3_8@50.75", "c2_16@36"])
def test_cell_corners_bound_the_direct_mi(mc_sets, key):
    # the premise of the bracket: every corner ray of every face bin has its
    # inner end below R - margin and its outer end at least R + margin, as
    # the direct MI at the cache's order decides them, so a(d_hi)*d_hi and
    # b(d_lo)*d_lo bound the MI of the whole bin
    from outagelab.mutual_info import mi_per_use_batch
    from outagelab.outage import _SCREEN_MARGIN, GAMMA_REF

    omega_x, R, cache, _ = mc_sets[key]
    rays, dirs = lattice_rays(omega_x.B)
    assert cache._sizes == (rays.size,) == ({2: 257, 3: 817}[omega_x.B],)
    a, b = cache._a[rays], cache._b[rays]
    inner, outer = a > 0.0, np.isfinite(b)
    # every ray whose MI cap lies above R keeps both ends; the others saturate
    caps = _ray_caps_bits(omega_x.points, dirs) / omega_x.B
    np.testing.assert_array_equal(inner, caps > R + 1e-12)
    np.testing.assert_array_equal(outer, inner)
    low = mi_per_use_batch(omega_x, dirs[inner] * a[inner, None], GAMMA_REF, cache.cfg)
    high = mi_per_use_batch(omega_x, dirs[outer] * b[outer, None], GAMMA_REF, cache.cfg)
    assert np.all(low < R - _SCREEN_MARGIN) and np.all(high >= R + _SCREEN_MARGIN)
    # the solve's own bracket: each ray's ends lie within 2e-3 of each other
    both = inner & outer
    assert np.all(b[both] <= a[both] * 1.002)


@pytest.mark.parametrize("key,n", [("r2_4@0", 4000), ("r2_4@27", 4000), ("r3_8@50.75", 1000)])
def test_settled_lookups_decide_as_the_direct_mi(mc_sets, key, n):
    # a pair the bracket settles at one SNR decides `mi < R` as the direct
    # MI does, for Rayleigh draws and for gains far beyond the boundary
    from outagelab.mutual_info import mi_per_use_batch

    omega_x, R, cache, _ = mc_sets[key]
    rng = np.random.default_rng(8)
    alphas = np.vstack([sample_rayleigh(rng, n, omega_x.B), rng.uniform(0.0, 20.0, (200, omega_x.B))])
    for gamma_db in (0.0, 8.0, 16.0, 30.0):
        gamma = db(gamma_db)
        lo, hi = cache.bracket(alphas, np.array([gamma]))
        settled = lo == hi
        assert settled.mean() > 0.5
        exact = mi_per_use_batch(omega_x, alphas[settled], gamma, cache.cfg)
        np.testing.assert_array_equal(exact < R, lo[settled] == 1)


def test_screen_settles_most_lookups(mc_sets, monkeypatch):
    # a count, not a time: the seed-0 r2_4 curve at 27 degrees (100k samples,
    # 0-20 dB in 2-dB steps) sends at most 3,000 rows to the direct MI
    omega_x, R, cache, cfg = mc_sets["r2_4@27"]
    rows = []
    mi = PolarMICache.mi
    monkeypatch.setattr(PolarMICache, "mi", lambda self, al, g: rows.append(len(al)) or mi(self, al, g))
    outage_mc(omega_x, 100_000, R, GRID_2DB, seed=0, cfg=cfg, cache=cache)
    assert 0 < sum(rows) <= 3000


def bracket_rows(B, rng):
    """Hand-built fading rows for `PolarMICache.bracket`: all-zero gains, one
    zero coordinate, directions on bin edges, and gains far out."""
    from outagelab.outage import _BRACKET_BINS

    nb = _BRACKET_BINS[B]
    rows = [np.zeros(B)]
    for scale in (0.125, 0.5, 1.0, 2.0, 8.0):  # powers of two: ratios j/nb stay exact
        for j in (0, 1, nb // 2, nb - 1, nb):
            for face in range(B):
                edge = np.full(B, j / nb)
                edge[face] = 1.0
                rows.append(scale * edge)
    return np.vstack(rows + [rng.uniform(0.0, 40.0, (200, B))])


@pytest.mark.parametrize("key", ["r2_4@0", "r2_4@27", "r3_8@0", "r3_8@50.75", "c2_16@36"])
def test_bracket_decides_as_the_direct_mi(mc_sets, key):
    # every (sample, SNR) pair outside a sample's bracket [lo, hi) is settled
    # without a kernel row: in outage before lo, not from hi on, as the
    # direct MI decides it at the cache's config
    from outagelab.mutual_info import mi_per_use_batch

    omega_x, R, cache, _ = mc_sets[key]
    B = omega_x.B
    grid = np.array(GRID_2DB if B == 2 else GRID_4DB)
    hand = bracket_rows(B, np.random.default_rng(B))
    for seed in (0, 1, 2):
        alphas = np.vstack([sample_rayleigh(np.random.default_rng(seed), 3000, B), hand])
        lo, hi = cache.bracket(alphas, grid)
        assert np.all(lo <= hi) and (lo == hi).mean() > 0.6
        # an all-zero row has no direction: it stays open
        assert (lo[3000], hi[3000]) == (0, grid.size)
        for k, gamma in enumerate(grid):
            settled = (k < lo) | (k >= hi)
            mi = mi_per_use_batch(omega_x, alphas[settled], gamma, cache.cfg)
            np.testing.assert_array_equal(mi < R, k < lo[settled])


def test_bracket_is_the_whole_grid_when_no_corner_clears_the_rate(q27, cfg, monkeypatch):
    cache = PolarMICache(q27.omega_x(), q27.R, cfg)
    margin_stand_in(monkeypatch, q27.R, slope=1e-8)  # every ray end within the margin of R
    open_cache = PolarMICache(q27.omega_x(), q27.R, cfg)
    alphas = bracket_rows(2, np.random.default_rng(0))
    lo, hi = open_cache.bracket(alphas, np.array(GRID_2DB))
    assert np.all(lo == 0) and np.all(hi == len(GRID_2DB))
    lo, hi = cache.bracket(alphas, np.array(GRID_2DB))
    assert (lo == hi).mean() > 0.5


@pytest.mark.parametrize("key", ["r2_4@27", "r3_8@50.75"])
def test_bracket_blocks(mc_sets, monkeypatch, key):
    # `bracket` walks its rows in blocks of _BRACKET_BLOCK: ragged blocks of 7
    # rows give the same brackets as one block
    from outagelab import outage

    omega_x, _, cache, _ = mc_sets[key]
    alphas = np.vstack([sample_rayleigh(np.random.default_rng(9), 1000, omega_x.B),
                        bracket_rows(omega_x.B, np.random.default_rng(9))])
    whole = cache.bracket(alphas, np.array(GRID_4DB))
    monkeypatch.setattr(outage, "_BRACKET_BLOCK", 7)
    blocked = cache.bracket(alphas, np.array(GRID_4DB))
    np.testing.assert_array_equal(blocked[0], whole[0])
    np.testing.assert_array_equal(blocked[1], whole[1])
    # an empty grid leaves nothing open
    assert [x.tolist() for x in cache.bracket(alphas[:3], np.array([]))] == [[0, 0, 0], [0, 0, 0]]


def test_mc_curve_keeps_the_callers_order(mc_sets):
    omega_x, R, cache, cfg = mc_sets["r2_4@27"]
    grid = GRID_2DB

    def p_outs(gammas):
        return [r.p_out for r in outage_mc(omega_x, 20_000, R, gammas, seed=3, cfg=cfg, cache=cache)]

    ascending = p_outs(grid)
    assert p_outs(grid[::-1]) == ascending[::-1]
    mixed = [7, 0, 10, 3, 3, 5, 1, 9, 2, 8, 6, 4]  # every point once, one of them twice
    assert p_outs([grid[i] for i in mixed]) == [ascending[i] for i in mixed]
    assert outage_mc(omega_x, 20_000, R, [], seed=3, cfg=cfg, cache=cache) == []


def test_mc_curve_work_guard(mc_sets, monkeypatch):
    # an 11-point curve bisects in ceil(log2(12)) = 4 rounds of at most n rows
    omega_x, R, cache, cfg = mc_sets["r2_4@27"]
    rows = []
    mi = PolarMICache.mi

    def counted(self, alphas, gamma):
        rows.append(len(alphas))
        return mi(self, alphas, gamma)

    monkeypatch.setattr(PolarMICache, "mi", counted)
    n = 20_000
    outage_mc(omega_x, n, R, GRID_2DB, seed=0, cfg=cfg, cache=cache)
    assert len(rows) <= 4 and max(rows) <= n
    # the direction bracket settles most decisions before any kernel row:
    # the whole-grid bisection made 73,327 rows here
    assert sum(rows) <= 0.7 * n


def test_trace_and_registry_work_guard(cfg, gamma_8db, monkeypatch):
    # a trace labels the faded coordinates of all its rays in one pass, and
    # no registry set needs the O(M^2) pairwise distance scan to be built
    from outagelab import outage

    passes, scans = [], []
    gap_labels, pairwise = outage._gap_labels, cs._pairwise_min_distance
    q = OutageQuery(cs.build_named("r2_4"), pc.rotation2(math.radians(27)), R=0.9, gamma=gamma_8db)
    q.omega_x()
    monkeypatch.setattr(outage, "_gap_labels", lambda x, tol: passes.append(x.shape) or gap_labels(x, tol))
    monkeypatch.setattr(cs, "_pairwise_min_distance", lambda pts: scans.append(len(pts)) or pairwise(pts))
    trace_boundary_2d(q, 65, cfg)
    assert passes == [(4, 65 * 2)]
    for name in cs.registry_names():
        cs.build_named(name)
    assert scans == []


def test_b3_outage_between_bounds(cfg, gamma_8db):
    q = OutageQuery(
        cs.build_named("r3_8"), pc.rotation3(math.radians(30)), R=0.5, gamma=gamma_8db
    )
    (res,) = outage_mc(q.omega_x(), 20_000, q.R, [q.gamma], seed=5, cfg=cfg)
    an = compute_anchors(q, cfg)
    p_up, p_low = hypersphere_bounds(an, 3)
    half = (res.ci95[1] - res.ci95[0]) / 2
    assert p_low - half <= res.p_out <= p_up + half


def test_diversity_bound_slopes(cfg):
    gammas = [10 ** (g / 10) for g in (20, 22, 24, 26, 28, 30)]
    geom = OutageGeometry.solve(cs.build_named("r2_4"), pc.rotation2(math.radians(27)), 0.9, cfg)
    assert geom.diversity_slope(gammas) == pytest.approx(-2.0, abs=0.1)
    # gaussian upper bound has the same -B slope by construction
    assert OutageGeometry.gaussian(2, 0.9).diversity_slope(gammas) == pytest.approx(-2.0, abs=0.1)


def test_diversity_loss_diagnostic(cfg):
    geom = OutageGeometry.solve(cs.build_named("r2_4"), pc.rotation2(0.0), 0.9, cfg)
    with pytest.raises(SaturationError, match="diversity loss"):
        geom.diversity_slope([10.0, 100.0])


def test_rayleigh_sampler_unit_power():
    rng = np.random.default_rng(0)
    a = sample_rayleigh(rng, 200_000, 2)
    assert np.mean(a**2) == pytest.approx(1.0, abs=0.01)


def test_query_validation(gamma_8db):
    with pytest.raises(ValueError):
        OutageQuery(cs.build_named("r2_4"), pc.rotation2(0.1), R=-1.0, gamma=gamma_8db)
    with pytest.raises(ValueError):
        OutageQuery(cs.build_named("r2_4"), pc.rotation2(0.1), R=0.9, gamma=0.0)
    with pytest.raises(ValueError):
        OutageQuery(cs.build_named("r3_8"), pc.rotation2(0.1), R=0.9, gamma=gamma_8db)


def test_query_rejects_nan_snr():
    # a nan SNR fails every `gamma <= 0` test and gave nan anchors with no note
    with pytest.raises(ValueError, match="gamma"):
        OutageQuery(cs.build_named("r2_4"), pc.rotation2(0.4), R=0.9, gamma=math.nan)


def test_outage_mc_rejects_a_cache_of_another_set(mc_sets):
    # a cache built for another set would count against the wrong surface
    omega_x, R, _, cfg = mc_sets["r2_4@27"]
    for other in ("r2_4@0", "r3_8@0"):  # other points, then another B
        with pytest.raises(ValueError, match="different constellation"):
            outage_mc(omega_x, 1000, R, GRID_2DB, cfg=cfg, cache=mc_sets[other][2])


def test_outage_mc_rejects_a_cache_of_another_rate(mc_sets):
    # a lattice solved at another rate would bracket against the wrong boundary
    omega_x, R, cache, cfg = mc_sets["r2_4@27"]
    with pytest.raises(ValueError, match="solved at R = 0.9, not at R = 0.8"):
        outage_mc(omega_x, 1000, 0.8, GRID_2DB, cfg=cfg, cache=cache)
    with pytest.raises(ValueError, match="R must be positive"):
        PolarMICache(omega_x, math.nan, cfg)


def db(x):
    return 10.0 ** (x / 10.0)


@pytest.mark.parametrize("theta_deg", [0.0, 27.0])
def test_geometry_rescale_matches_per_snr_solves(cfg, theta_deg):
    c, p = cs.build_named("r2_4"), pc.rotation2(math.radians(theta_deg))
    geom = OutageGeometry.solve(c, p, 0.9, cfg, n_angles=129)
    for gdb in (0.0, 8.0, 20.0):
        q = OutageQuery(c, p, R=0.9, gamma=db(gdb))
        direct, scaled = compute_anchors(q, cfg), geom.anchors(q.gamma)
        assert (scaled.alpha_o_exists, scaled.alpha_e_exists) == (
            direct.alpha_o_exists, direct.alpha_e_exists)
        for got, want in ((scaled.alpha_o, direct.alpha_o), (scaled.alpha_e, direct.alpha_e)):
            assert got == want if math.isinf(want) else got == pytest.approx(want, rel=1e-6)
        trace = trace_boundary_2d(q, 129, cfg)
        assert np.array_equal(geom.boundary.saturated, trace.saturated)
        active = ~trace.saturated
        rhos = geom.boundary.rhos[active] / math.sqrt(2.0 * q.gamma)
        np.testing.assert_allclose(rhos, trace.rhos[active], rtol=1e-4)
        assert geom.outage(q.gamma).p_out == pytest.approx(
            outage_from_boundary_2d(trace).p_out, rel=4e-4)


@pytest.mark.parametrize("theta_deg", [0.0, 27.0])
def test_geometry_rows_inside_bounds(cfg, theta_deg):
    geom = OutageGeometry.solve(
        cs.build_named("r2_4"), pc.rotation2(math.radians(theta_deg)), 0.9, cfg, n_angles=129)
    for gdb in np.arange(0.0, 30.5, 2.0):
        p_up, p_low = geom.bounds(db(gdb))
        assert p_low <= geom.outage(db(gdb)).p_out <= p_up


@pytest.mark.parametrize("theta_deg", [0.0, 27.0])
def test_geometry_snr_array_matches_floats(cfg, theta_deg):
    geom = OutageGeometry.solve(
        cs.build_named("r2_4"), pc.rotation2(math.radians(theta_deg)), 0.9, cfg, n_angles=65)
    gammas = db(np.arange(0.0, 20.5, 5.0))
    curve, (p_up, p_low) = geom.outage(gammas), geom.bounds(gammas)
    assert len(curve) == p_up.shape[0] == p_low.shape[0] == gammas.shape[0]
    for k, g in enumerate(gammas.tolist()):
        one, (up, low) = geom.outage(g), geom.bounds(g)
        assert isinstance(one, OutageResult) and isinstance(up, float) and isinstance(low, float)
        assert curve[k] == one and (p_up[k], p_low[k]) == (up, low)


def gaussian_outage_oracle(R, gamma, n=40_001):
    """P((1 + 2*gamma*X)(1 + 2*gamma*Y) < 2^(4R)) for X, Y ~ Exp(1), B=2.

    The Gaussian-input outage of unit-Rayleigh fading as one integral over
    X = alpha_1^2 (Simpson's rule), with P(Y < y(X)) in closed form.
    """
    K = 2.0 ** (4.0 * R)
    x = np.linspace(0.0, (K - 1.0) / (2.0 * gamma), n)
    g = np.exp(-x) * -np.expm1(-(K / (1.0 + 2.0 * gamma * x) - 1.0) / (2.0 * gamma))
    return float((g[0] + g[-1] + 4 * g[1:-1:2].sum() + 2 * g[2:-1:2].sum()) * (x[1] - x[0]) / 3)


def test_gaussian_geometry_matches_closed_form():
    geom = OutageGeometry.gaussian(2, 0.9, 129)
    for gdb in (0.0, 8.0, 20.0):
        gamma = db(gdb)
        an = geom.anchors(gamma)
        assert an.alpha_o == pytest.approx(math.sqrt((4**1.8 - 1) / (2 * gamma)), rel=1e-12)
        assert an.alpha_e == pytest.approx(math.sqrt((4**0.9 - 1) / (2 * gamma)), rel=1e-12)
        want = gaussian_outage_oracle(0.9, gamma)
        assert geom.outage(gamma).p_out == pytest.approx(want, rel=4e-4)


@pytest.mark.parametrize("B, R, n_angles, msg", [
    (2, 0.0, 65, "R must be positive"),
    (2, -1.0, None, "R must be positive"),
    (3, 0.9, 65, "B = 2"),
])
def test_gaussian_geometry_rejects_bad_rate_and_traced_b3(B, R, n_angles, msg):
    with pytest.raises(ValueError, match=msg):
        OutageGeometry.gaussian(B, R, n_angles)


def first_match_groups(rows, tol):
    """Reference for the ray-cap grouping: the pairwise loop the ray caps
    ran before `group_points` (each row joins the first earlier group whose first member lies within
    tol, else opens a new group), with the scan over groups done in numpy
    so that 256-point alphabets stay fast; the arithmetic is the same."""
    reps, first, counts = [], [], []
    for i, row in enumerate(rows):
        d2 = np.sum(np.abs(row - np.asarray(reps)) ** 2, axis=-1) if reps else np.empty(0)
        hit = np.flatnonzero(d2 <= tol**2)
        if hit.size:
            counts[hit[0]] += 1
        else:
            reps.append(row)
            first.append(i)
            counts.append(1)
    return np.array(first), np.array(counts)


def loop_cluster_complex(col, tol):
    """Reference for the complex projection: the loop `_cluster_complex` ran
    before `group_points`."""
    reps, counts = [], []
    for z in col:
        for k, r in enumerate(reps):
            if abs(z - r) <= tol:
                counts[k] += 1
                break
        else:
            reps.append(z)
            counts.append(1)
    order = np.lexsort((np.imag(reps), np.real(reps)))
    return np.asarray(reps, dtype=complex)[order], np.asarray(counts, dtype=float)[order]


# two pairs of points 5e-9 apart in one coordinate: distinct, but merged on
# the rays near the axis that scales that coordinate down
NEAR_PAIRS = {"name": "near_pairs", "B": 2, "field": "real", "points": [
    [1.0, 1.0], [1.0 + 5e-9, 1.0], [-1.0, -1.0], [-1.0, -1.0 - 5e-9], [1.0, -1.0], [-1.0, 1.0]]}


@pytest.mark.parametrize("name", ["r2_4", "r2_16", "c2_16", "c2_256", "near_pairs"])
def test_grouping_matches_loop(name):
    c = cs.from_dict(NEAR_PAIRS) if name == "near_pairs" else cs.build_named(name)
    lambdas = np.linspace(0.0, math.pi / 2.0, 129)
    dirs = np.stack([np.cos(lambdas), np.sin(lambdas)], axis=1)
    for theta_deg in (0.0, 27.0, 30.5, 45.0):
        omega_x = pc.apply(pc.rotation2(math.radians(theta_deg)), c)
        caps = _ray_caps_bits(omega_x.points, dirs)
        want_caps = []
        for d in dirs:
            want_first, want_counts = first_match_groups(omega_x.points * d, RAY_CAP_TOL)
            got_first, got_counts = cs.group_points(omega_x.points * d, RAY_CAP_TOL)
            assert np.array_equal(got_first, want_first)
            assert np.array_equal(got_counts, want_counts)
            p = want_counts / c.M
            want_caps.append(float(-np.sum(p * np.log2(p))))
        assert np.abs(caps - want_caps).max() <= 1e-12
        R = 0.9
        assert np.array_equal(caps / c.B > R + 1e-12, np.array(want_caps) / c.B > R + 1e-12)
        if name == "near_pairs" and theta_deg == 0.0:
            # a pair merges where the ray scales its 5e-9 gap below RAY_CAP_TOL
            off_axis = np.minimum(lambdas, math.pi / 2 - lambdas)
            assert (caps[off_axis < 0.2] < c.m - 0.3).all()
            assert caps[off_axis > 0.21] == pytest.approx(c.m, abs=1e-12)
        if c.field == "complex":
            for axis in (1, 2):
                values, counts = loop_cluster_complex(omega_x.points[:, axis - 1], cs.DEDUP_TOL)
                sp = cs.project(omega_x, axis)
                assert np.array_equal(sp.values, values)
                assert np.array_equal(sp.probs, counts / c.M)


def test_geometry_precodes_once(cfg, monkeypatch):
    calls = []
    apply = pc.apply
    monkeypatch.setattr(pc, "apply", lambda p, c: calls.append(c.name) or apply(p, c))
    geom = OutageGeometry.solve(cs.build_named("r2_4"), pc.rotation2(math.radians(27)), 0.9, cfg, n_angles=65)
    assert calls == ["r2_4"]
    assert geom.boundary is not None and math.isfinite(geom.axis_snr) and math.isfinite(geom.ergodic_snr)
