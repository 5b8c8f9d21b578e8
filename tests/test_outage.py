import itertools
import math
from dataclasses import replace

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
    _ray_cap_bits,
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

    def cap_bits(points, direction, M):
        return 2.0 if direction.min() == 0.0 else _ray_cap_bits(points, direction, M)

    q0 = OutageQuery(cs.build_named("r2_4"), pc.rotation2(0.0), R=0.9, gamma=gamma_8db)
    plain = trace_boundary_2d(q0, 65, cfg)
    monkeypatch.setattr(outage, "_ray_cap_bits", cap_bits)
    tr = trace_boundary_2d(q0, 65, cfg)
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
    a = outage_mc(q27, 100_000, seed=1, cfg=cfg)
    b = outage_mc(q27, 100_000, seed=2, cfg=cfg)
    half = (a.ci95[1] - a.ci95[0]) / 2 + (b.ci95[1] - b.ci95[0]) / 2
    assert abs(a.p_out - b.p_out) < half
    again = outage_mc(q27, 100_000, seed=1, cfg=cfg)
    assert again.p_out == a.p_out


def test_outage_mc_rate_above_capacity(cfg, gamma_8db):
    q = OutageQuery(cs.build_named("r2_4"), pc.rotation2(0.3), R=1.5, gamma=gamma_8db)
    with pytest.warns(UserWarning):
        res = outage_mc(q, 10_000, seed=0, cfg=cfg)
    assert res.p_out == 1.0


def test_outage_mc_needs_min_samples(q27, cfg):
    with pytest.raises(ValueError):
        outage_mc(q27, 100, seed=0, cfg=cfg)


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


def test_cache_validates_below_tolerance(q27, cfg):
    cache = PolarMICache(q27.omega_x(), cfg)
    assert cache.validation_error_bits < 1e-3


def test_cache_validation_samples_the_transition(q27, cfg):
    # uniform in u, 2.2% of the points lay below 0.9 of the 1-bit cap and
    # 92% within 1e-3 bits of it; uniform in log(1+u) the share is 19.2%
    from outagelab.mutual_info import mi_per_use_batch
    from outagelab.outage import CACHE_SEED, CACHE_VALIDATE_POINTS, GAMMA_REF

    cache = PolarMICache(q27.omega_x(), cfg)
    gains = cache._validation_gains(CACHE_SEED)
    assert gains.shape == (CACHE_VALIDATE_POINTS, 2)
    assert gains.min() >= 0.0 and gains.max() <= 0.98 * cache.u_max
    mi = mi_per_use_batch(q27.omega_x(), gains, GAMMA_REF, cache.cfg)
    assert np.mean(mi < 0.9) > 0.15


def test_cache_serves_multiple_snrs(q27, cfg):
    from outagelab.mutual_info import mi_per_use_batch

    cache = PolarMICache(q27.omega_x(), cfg)
    alphas = np.array([[0.4, 0.9], [1.2, 0.1], [0.7, 0.7]])
    for gamma in (0.5, q27.gamma, 40.0):
        direct = mi_per_use_batch(q27.omega_x(), alphas, gamma, cache.cfg)
        assert np.max(np.abs(cache.mi(alphas, gamma) - direct)) < 1e-3


def test_cache_out_of_range_falls_back_to_direct(q27, cfg):
    from outagelab.mutual_info import mi_per_use_batch

    cache = PolarMICache(q27.omega_x(), cfg)
    gamma = 1000.0
    alphas = np.array([[3.0, 2.0], [0.002, 0.001]])
    got = cache.mi(alphas, gamma)  # no threshold: overflow evaluated directly
    direct = mi_per_use_batch(q27.omega_x(), alphas, gamma, cache.cfg)
    assert got[0] == pytest.approx(direct[0], abs=1e-12)
    assert got[1] == pytest.approx(direct[1], abs=1e-3)
    # with a threshold the settled overflow point keeps the edge value,
    # which already decides the comparison
    settled = cache.mi(alphas, gamma, threshold=0.9)
    assert settled[0] >= 0.9


def test_cache_refines_once(cfg):
    # r2_8 at 5 degrees misses the tolerance on the 33-point cube
    omega_x = pc.apply(pc.rotation2(math.radians(5)), cs.build_named("r2_8"))
    cache = PolarMICache(omega_x, cfg)
    assert cache._sizes == [65, 65]
    assert cache.validation_error_bits < 1e-3


def test_cache_evaluates_margin_band_directly(q27, cfg):
    from outagelab.mutual_info import mi_per_use_batch
    from outagelab.outage import CACHE_TOL_BITS

    cache = PolarMICache(q27.omega_x(), cfg)
    alphas = sample_rayleigh(np.random.default_rng(0), 20_000, 2)
    for gamma in (1.0, q27.gamma, 40.0):
        interp = cache.mi(alphas, gamma)
        band = np.abs(interp - q27.R) <= CACHE_TOL_BITS
        assert band.any()
        got = cache.mi(alphas, gamma, threshold=q27.R)
        direct = mi_per_use_batch(q27.omega_x(), alphas[band], gamma, cache.cfg)
        np.testing.assert_array_equal(got[band], direct)


def keys_kernel(s):
    """Keys' cubic convolution kernel with a = -1/2, as a function of tap distance."""
    s = np.abs(s)
    near = 1.5 * s**3 - 2.5 * s**2 + 1.0
    far = -0.5 * s**3 + 2.5 * s**2 - 4.0 * s + 2.0
    return np.where(s <= 1.0, near, np.where(s < 2.0, far, 0.0))


def catmull_rom_oracle(values, h, v):
    """Tap-by-tap tensor-product Catmull-Rom with edge-clamped taps; rows of v are points."""
    n, B = values.shape[0], values.ndim
    x = np.clip(v / h, 0.0, n - 1.0)
    base = np.minimum(np.floor(x).astype(int), n - 2)
    out = np.zeros(v.shape[0])
    for offsets in itertools.product(range(-1, 3), repeat=B):
        tap = base + np.array(offsets)
        weight = np.prod(keys_kernel(x - tap), axis=1)
        out += weight * values[tuple(np.clip(tap, 0, n - 1).T)]
    return out


def synthetic_cache(B, n, seed):
    """A PolarMICache over a random cube of n points per axis, with no MI build."""
    from outagelab.outage import _catmull_rom_table

    cache = PolarMICache.__new__(PolarMICache)
    cache.B = B
    cache.axis = np.linspace(0.0, 2.5, n)
    cache.values = np.random.default_rng(seed).uniform(-1.0, 1.0, (n,) * B)
    cache._coef = _catmull_rom_table(cache.values)
    return cache


def interpolation_points(cache, rng, rows):
    """Interior points, every grid node, points on the upper faces and beyond the cube."""
    B, top = cache.B, cache.axis[-1]
    interior = rng.uniform(0.0, top, (rows, B))
    nodes = np.stack(np.meshgrid(*([cache.axis] * B), indexing="ij"), axis=-1).reshape(-1, B)
    face = rng.uniform(0.0, top, (200, B))
    face[np.arange(200), rng.integers(0, B, 200)] = top
    beyond = rng.uniform(0.0, 2.0 * top, (200, B))
    beyond[:, 0] = rng.uniform(top, 2.0 * top, 200)
    return interior, nodes, face, beyond


@pytest.mark.parametrize("B,n", [(2, 9), (3, 6)])
def test_cache_interpolation_matches_tap_oracle(B, n):
    cache = synthetic_cache(B, n, seed=B)
    h = cache.axis[1]
    interior, nodes, face, beyond = interpolation_points(cache, np.random.default_rng(B), 5000)
    for v in (interior, face, beyond):
        np.testing.assert_allclose(cache._interp(v), catmull_rom_oracle(cache.values, h, v),
                                   rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(cache._interp(nodes), cache.values.ravel(), rtol=0.0, atol=1e-12)


def test_cache_interpolation_blocks(monkeypatch):
    from outagelab import outage

    # more rows than one block of _LOOKUP_CAP gathered floats (4,096 rows at B=3)
    cache = synthetic_cache(3, 6, seed=7)
    v = np.random.default_rng(7).uniform(0.0, 1.1 * cache.axis[-1], (40_000, 3))
    whole = cache._interp(v)
    np.testing.assert_allclose(whole, catmull_rom_oracle(cache.values, cache.axis[1], v),
                               rtol=0.0, atol=1e-12)
    # ragged blocks of 7 rows give the same values
    monkeypatch.setattr(outage, "_LOOKUP_CAP", 7 * 4**3)
    np.testing.assert_array_equal(cache._interp(v[:100]), whole[:100])


# outage counts of r2_4 at 27 degrees, R = 0.9, seed 0, 100k samples, as the
# tap-by-tap interpolation decided them: the table lookup must not flip one
PINNED_MC_COUNTS = [(0.0, 93384), (10.0, 8591), (20.0, 103)]


def test_mc_outage_counts_pinned(q27, cfg, monkeypatch):
    from outagelab import outage

    cache = PolarMICache(q27.omega_x(), cfg)
    n = 100_000
    draws = []
    monkeypatch.setattr(outage, "sample_rayleigh", lambda *a: draws.append(a) or sample_rayleigh(*a))
    for gdb, count in PINNED_MC_COUNTS:
        q = replace(q27, gamma=10 ** (gdb / 10))
        res = outage_mc(q, n, seed=0, cfg=cfg, cache=cache)
        assert res.p_out == count / n
    # one draw serves every SNR point, and no caller can write to it
    assert len(draws) == 1
    assert not cache.rayleigh(0, n).flags.writeable


def test_b3_outage_between_bounds(cfg, gamma_8db):
    q = OutageQuery(
        cs.build_named("r3_8"), pc.rotation3(math.radians(30)), R=0.5, gamma=gamma_8db
    )
    res = outage_mc(q, 20_000, seed=5, cfg=cfg)
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
    """Reference for the ray-cap grouping: the pairwise loop `_ray_cap_bits`
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


@pytest.mark.parametrize("name", ["r2_4", "r2_16", "c2_16", "c2_256"])
def test_grouping_matches_loop(name):
    c = cs.build_named(name)
    lambdas = np.linspace(0.0, math.pi / 2.0, 129)
    dirs = np.stack([np.cos(lambdas), np.sin(lambdas)], axis=1)
    for theta_deg in (0.0, 27.0, 30.5, 45.0):
        omega_x = pc.apply(pc.rotation2(math.radians(theta_deg)), c)
        for d in dirs:
            want_first, want_counts = first_match_groups(omega_x.points * d, RAY_CAP_TOL)
            got_first, got_counts = cs.group_points(omega_x.points * d, RAY_CAP_TOL)
            assert np.array_equal(got_first, want_first)
            assert np.array_equal(got_counts, want_counts)
            p = want_counts / c.M
            assert _ray_cap_bits(omega_x.points, d, c.M) == float(-np.sum(p * np.log2(p)))
        if c.field == "complex":
            for axis in (1, 2):
                values, counts = loop_cluster_complex(omega_x.points[:, axis - 1], cs.DEDUP_TOL)
                sp = cs.project(omega_x, axis)
                assert np.array_equal(sp.values, values)
                assert np.array_equal(sp.probs, counts / c.M)
