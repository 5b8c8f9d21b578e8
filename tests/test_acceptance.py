"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Tolerances are fixed here, not tuned at runtime.  Geometry-sensitive
observations (the near-optimal angle windows of the 8- and 16-point
planar sets) are reported as warnings, never as failures.
"""

import functools
import math
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from outagelab import constellations as cs
from outagelab import precoders as pc
from outagelab.mutual_info import (
    LN2,
    ChannelSample,
    EngineConfig,
    SaturationError,
    inv_mi_scalar,
    mi_discrete,
    mi_lowsnr_approx,
    mi_per_use,
    mi_scalar,
    mmse_scalar,
)
from outagelab.optimizer import gamma_s_at, gaussian_floor, optimize
from outagelab.outage import (
    OutageGeometry,
    OutageQuery,
    PolarMICache,
    chi_square_cdf,
    compute_anchors,
    hypersphere_bounds,
    outage_from_boundary_2d,
    outage_mc,
    trace_boundary_2d,
)

CFG = EngineConfig()
GAMMA_8DB = 10**0.8


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num:>2}] FAIL  {desc}")
                raise
            print(f"[criterion {num:>2}] PASS  {desc}")

        return wrapper

    return deco


@pytest.fixture(scope="module")
def square():
    return cs.build_named("r2_4")


@pytest.fixture(scope="module")
def caches(square):
    """Scaled-gain MI caches shared by the Monte Carlo criteria."""
    out = {}
    for theta in (0.0, 27.0):
        omega_x = pc.apply(pc.rotation2(math.radians(theta)), square)
        out[theta] = PolarMICache(omega_x, CFG)
    return out


@criterion(1, "optimal angle for the 4-point planar set at R=0.9 is 27 +- 2 deg")
def test_optimal_angle_b2(square):
    t0 = time.time()
    res = optimize(square, 0.9, CFG)
    elapsed = time.time() - t0
    assert abs(math.degrees(res.theta_opt) - 27.0) <= 2.0
    assert elapsed < 60.0


@criterion(2, "Gaussian floor for B=2, R=0.9 is (2^3.6 - 1)/2 = 7.4530 dB")
def test_gaussian_floor_value():
    want_db = 10 * math.log10((2**3.6 - 1) / 2)
    assert abs(want_db - 7.4530) < 0.01
    got_db = 10 * math.log10(gaussian_floor(2, 0.9, "real"))
    assert abs(got_db - want_db) < 1e-9


@criterion(3, "expansion shrinks the Gaussian gap with diminishing returns")
def test_expansion_monotonicity(square):
    names = ["r2_4", "r2_8", "r2_16"]
    gaps, thetas = [], []
    for name in names:
        res = optimize(cs.build_named(name), 0.9, CFG)
        gaps.append(10 * math.log10(res.gamma_s_opt / gaussian_floor(2, 0.9)))
        thetas.append(math.degrees(res.theta_opt))
    assert gaps[0] > gaps[1] > gaps[2]
    assert (gaps[0] - gaps[1]) > (gaps[1] - gaps[2])
    # geometry-sensitive angle windows are advisory only
    if not 0.0 <= thetas[1] <= 9.0:
        warnings.warn(f"8-point optimum {thetas[1]:.1f} deg outside [0, 9]")
    if not 35.0 <= thetas[2] <= 45.0:
        warnings.warn(f"16-point optimum {thetas[2]:.1f} deg outside [35, 45]")


@criterion(4, "projection size of the rotated square is 2 / 3 / 4 points")
def test_projection_count_rule(square):
    for deg, want in ((0.0, 2), (90.0, 2), (180.0, 2), (45.0, 3), (135.0, 3),
                      (27.0, 4), (10.0, 4), (63.4, 4)):
        omega_x = pc.apply(pc.rotation2(math.radians(deg)), square)
        assert cs.project(omega_x, 1).size == want, f"theta={deg}"


@criterion(5, "anchors carry exactly R bits and the trace ends on them")
def test_anchor_consistency(square):
    q = OutageQuery(square, pc.rotation2(math.radians(27)), R=0.9, gamma=GAMMA_8DB)
    an = compute_anchors(q, CFG)
    omega_x = q.omega_x()
    for alpha in ([an.alpha_o, 0.0], [0.0, an.alpha_o], [an.alpha_e, an.alpha_e]):
        got = mi_per_use(omega_x, ChannelSample(np.array(alpha), q.gamma), CFG).value
        assert abs(got - 0.9) < 1e-4
    trace = trace_boundary_2d(q, 257, CFG)
    assert abs(trace.rhos[0] / an.alpha_o - 1.0) < 1e-3
    assert abs(trace.rhos[-1] / an.alpha_o - 1.0) < 1e-3


@criterion(6, "boundary integration agrees with 1e6-sample MC inside its CI")
def test_method_cross_validation(square, caches):
    t0 = time.time()
    gammas_db = (4.0, 8.0, 12.0)
    for theta in (0.0, 27.0):
        p = pc.rotation2(math.radians(theta))
        mcs = outage_mc(caches[theta].omega_x, 1_000_000, 0.9, [10 ** (g / 10) for g in gammas_db],
                        seed=11, cfg=CFG, cache=caches[theta])
        for gamma_db, mc in zip(gammas_db, mcs):
            q = OutageQuery(square, p, R=0.9, gamma=10 ** (gamma_db / 10))
            det = outage_from_boundary_2d(trace_boundary_2d(q, 513, CFG))
            assert mc.ci95[0] <= det.p_out <= mc.ci95[1], (theta, gamma_db)
    assert time.time() - t0 < 600.0


@criterion(7, "hypersphere bounds sandwich the outage; low-SNR boundary is round")
def test_bound_sandwich_and_low_snr_circle(square):
    rot = pc.rotation2(math.radians(27))
    for gamma_db in (12.0, 16.0, 20.0):
        q = OutageQuery(square, rot, R=0.9, gamma=10 ** (gamma_db / 10))
        an = compute_anchors(q, CFG)
        p_up, p_low = hypersphere_bounds(an, 2)
        p = outage_from_boundary_2d(trace_boundary_2d(q, 513, CFG)).p_out
        assert p_low <= p <= p_up, gamma_db
    # a small rate pushes the whole boundary below -10 dB instantaneous SNR,
    # where it must match the sphere within 2%
    q_low = OutageQuery(square, rot, R=0.05, gamma=1.0)
    an = compute_anchors(q_low, CFG)
    assert 10 * math.log10(an.alpha_o**2 * q_low.gamma) < -10.0
    trace = trace_boundary_2d(q_low, 257, CFG)
    assert np.max(np.abs(trace.rhos / an.alpha_o - 1.0)) < 0.02


@criterion(8, "upper-bound slope is -2 at 27 deg; MC slope is -1 at 0 deg")
def test_diversity_slopes(square, caches):
    gammas = [10 ** (g / 10) for g in (20, 22, 24, 26, 28, 30)]
    geom = OutageGeometry.solve(square, pc.rotation2(math.radians(27)), 0.9, CFG)
    assert abs(geom.diversity_slope(gammas) + 2.0) < 0.1
    curve = outage_mc(caches[0.0].omega_x, 2_000_000, 0.9, [10 ** (g / 10) for g in (20.0, 25.0, 30.0)],
                      seed=42, cfg=CFG, cache=caches[0.0])
    ps = [res.p_out for res in curve]
    slope = np.polyfit([2.0, 2.5, 3.0], np.log10(ps), 1)[0]
    assert abs(slope + 1.0) < 0.2


@criterion(9, "dI/dSNR matches MMSE/2 within 1e-3 nats on both alphabets")
def test_i_mmse_identity(square):
    bp = cs.project(cs.build_named("bpsk"), 1)
    sp27 = cs.project(pc.apply(pc.rotation2(math.radians(27)), square), 1)
    for sp in (bp, sp27):
        for s in np.logspace(-1, 1, 10):
            h = 1e-3 * s
            # noise variance 1/(2s) means the standard-form SNR is 2s
            dI = (mi_scalar(sp, s + h, CFG) - mi_scalar(sp, s - h, CFG)) * LN2 / (4 * h)
            assert abs(dI - 0.5 * mmse_scalar(sp, s, CFG)) < 1e-3


@criterion(10, "per-axis projection MI upper-bounds the vector MI; tight for products")
def test_projection_bound_100_draws(square):
    rng = np.random.default_rng(2024)
    for _ in range(100):
        theta = rng.uniform(0.0, math.pi / 2)
        gamma = 10 ** rng.uniform(-0.5, 1.5)
        alpha = rng.uniform(0.0, 2.0, 2)
        omega_x = pc.apply(pc.rotation2(theta), square)
        sp = cs.project(omega_x, 1)
        lhs = mi_per_use(omega_x, ChannelSample(alpha, gamma), CFG).value
        rhs = np.mean([mi_scalar(sp, a * a * gamma, CFG) for a in alpha])
        assert lhs <= rhs + 1e-9
    sp0 = cs.project(square, 1)
    for _ in range(5):
        alpha = rng.uniform(0.0, 2.0, 2)
        gamma = 10 ** rng.uniform(-0.5, 1.0)
        lhs = mi_per_use(square, ChannelSample(alpha, gamma), CFG).value
        rhs = np.mean([mi_scalar(sp0, a * a * gamma, CFG) for a in alpha])
        assert abs(lhs - rhs) < 1e-6


@criterion(11, "complex pair alphabet equals twice the real one at half SNR")
def test_complex_chain_rule(square):
    rot = pc.rotation2(math.radians(27))
    c16x = pc.apply(rot, cs.build_named("c2_16"))
    r4x = pc.apply(rot, square)
    matched = replace(CFG, gh_order=16)
    for gamma_db in (0.0, 4.0, 8.0):
        gamma = 10 ** (gamma_db / 10)
        direct = mi_discrete(
            c16x, ChannelSample(np.array([1.0, 0.7]), gamma), replace(matched, complex_chain=False)
        ).value
        twice_real = 2 * mi_discrete(
            r4x, ChannelSample(np.array([1.0, 0.7]), gamma / 2), matched
        ).value
        assert abs(direct - twice_real) < 1e-5, gamma_db
    # the optimization profile at R=1.8 is the real R=0.9 profile +3.0103 dB
    c16 = cs.build_named("c2_16")
    for deg in np.arange(3.0, 43.0, 4.0):
        s_c = gamma_s_at(c16, 1.8, math.radians(deg), CFG)
        s_r = gamma_s_at(square, 0.9, math.radians(deg), CFG)
        shift = 10 * math.log10(s_c / s_r)
        assert abs(shift - 3.0103) < 0.02, deg


@criterion(12, "B=3 profile is symmetric about 60 deg; circulant matches the closed form")
def test_b3_symmetry_and_matrix(square):
    r38 = cs.build_named("r3_8")
    for deg in (10.0, 25.0, 40.0, 55.0):
        a = gamma_s_at(r38, 0.9, math.radians(deg), CFG)
        b = gamma_s_at(r38, 0.9, math.radians(120.0 - deg), CFG)
        assert abs(10 * math.log10(a) - 10 * math.log10(b)) < 0.02, deg
    r3 = math.sqrt(3.0)
    for deg in np.arange(0.0, 121.0, 7.5):
        t = math.radians(deg)
        k, l = math.cos(t), math.sin(t)
        closed = np.array(
            [
                [1 + 2 * k, 1 - k - r3 * l, 1 - k + r3 * l],
                [1 - k + r3 * l, 1 + 2 * k, 1 - k - r3 * l],
                [1 - k - r3 * l, 1 - k + r3 * l, 1 + 2 * k],
            ]
        ) / 3.0
        assert np.max(np.abs(pc.rotation3(t).matrix - closed)) < 1e-10, deg


@criterion(13, "first-order MI expansion holds to 5% up to gamma*|alpha|^2 = 0.02")
def test_low_snr_expansion(square):
    omega_x = pc.apply(pc.rotation2(math.radians(27)), square)
    alpha = np.array([0.6, 0.8])  # |alpha|^2 = 1
    for g in (0.005, 0.01, 0.02):
        s = ChannelSample(alpha, g)
        approx = mi_lowsnr_approx(omega_x, s)
        exact = mi_per_use(omega_x, s, CFG).value
        assert abs(approx - exact) / exact < 0.05, g


@criterion(14, "chi-square CDF matches 1e7 samples within 3 sigma and stays below x^B")
def test_chi_square_cdf():
    rng = np.random.default_rng(99)
    n = 10_000_000
    for B in (2, 3):
        sums = rng.exponential(1.0, (n, B)).sum(axis=1)
        for x in (0.5, 1.0, 2.0):
            emp = np.count_nonzero(sums < x) / n
            sd = math.sqrt(emp * (1 - emp) / n)
            assert abs(chi_square_cdf(x, B) - emp) < 3 * sd, (B, x)
        del sums
    for B in (1, 2, 3, 4):
        for x in np.linspace(0.0, 20.0, 81):
            assert chi_square_cdf(float(x), B) <= float(x) ** B + 1e-15


@criterion("+", "diversity loss is flagged when the projection cannot carry B*R bits")
def test_diversity_loss_flagged(square):
    # companion check for criteria 4/8: the 2-point projection at 0 deg
    # saturates below 1.8 bits, so the bound machinery must refuse
    q0 = OutageQuery(square, pc.rotation2(0.0), R=0.9, gamma=1.0)
    with pytest.raises(SaturationError):
        OutageGeometry.solve(square, q0.precoder, 0.9, CFG).diversity_slope([10.0, 100.0])
    an = compute_anchors(q0, CFG)
    assert not an.alpha_o_exists
    with pytest.raises(SaturationError):
        inv_mi_scalar(cs.project(q0.omega_x(), 1), 1.8, CFG)
