import logging
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outagelab import constellations as cs
from outagelab import mutual_info
from outagelab import precoders as pc
from outagelab.mutual_info import (
    LN2,
    ChannelSample,
    EngineConfig,
    SaturationError,
    _alphabet,
    _form,
    _quad_nats_many,
    inv_mi_scalar,
    inv_mi_scalar_many,
    mi_discrete,
    mi_gaussian,
    mi_lowsnr_approx,
    mi_per_use,
    mi_per_use_batch,
    mi_scalar,
    mmse_scalar,
)
from outagelab.optimizer import default_grid

# frozen via an independent trapezoid oracle (re-derivable with
# scalar_mi_oracle / scalar_mmse_oracle below)
BPSK_MI_AT_1 = 0.721451590790
BPSK_MMSE_AT_1 = 0.231018221929


def scalar_mi_oracle(values, probs, s, n_grid=400_001):
    """Trapezoid h(Y) - h(N) for a real scalar constellation at snr s."""
    sigma = math.sqrt(1.0 / (2 * s))
    lo = min(values) - 10 * sigma
    hi = max(values) + 10 * sigma
    y = np.linspace(lo, hi, n_grid)
    f = np.zeros_like(y)
    for v, p in zip(values, probs):
        f += p * np.exp(-((y - v) ** 2) / (2 * sigma**2)) / math.sqrt(2 * math.pi * sigma**2)
    h_y = -np.trapezoid(np.where(f > 0, f * np.log2(f), 0.0), y)
    h_n = 0.5 * math.log2(2 * math.pi * math.e * sigma**2)
    return h_y - h_n


def scalar_mmse_oracle(values, probs, s, n_grid=400_001):
    sigma = math.sqrt(1.0 / (2 * s))
    values = np.asarray(values, float)
    probs = np.asarray(probs, float)
    lo = values.min() - 10 * sigma
    hi = values.max() + 10 * sigma
    y = np.linspace(lo, hi, n_grid)
    lik = np.stack(
        [p * np.exp(-((y - v) ** 2) / (2 * sigma**2)) for v, p in zip(values, probs)]
    )
    f = lik.sum(axis=0)
    xhat = (lik * values[:, None]).sum(axis=0) / f
    cond_var = (lik * values[:, None] ** 2).sum(axis=0) / f - xhat**2
    norm = 1.0 / math.sqrt(2 * math.pi * sigma**2)
    return np.trapezoid(f * norm * cond_var, y)


@pytest.fixture(scope="module")
def square27(cfg):
    return pc.apply(pc.rotation2(math.radians(27)), cs.build_named("r2_4"))


def test_mi_zero_fading(cfg, square27):
    s = ChannelSample(np.zeros(2), 1.0)
    assert mi_discrete(square27, s, cfg).value == pytest.approx(0.0, abs=1e-12)


def test_mi_collapsed_axis(cfg):
    omega_x = pc.apply(pc.rotation2(0.0), cs.build_named("r2_4"))
    est = mi_discrete(omega_x, ChannelSample(np.array([1.0, 0.0]), 1e4), cfg)
    assert est.value == pytest.approx(1.0, abs=1e-6)


def test_mi_quadrature_matches_mc_oracle(cfg, square27, gamma_8db):
    s = ChannelSample(np.array([1.0, 1.0]), gamma_8db)
    quad = mi_discrete(square27, s, cfg)
    mc = mi_discrete(square27, s, replace(cfg, engine="mc", mc_samples=1_000_000, seed=9))
    assert mc.method == "monte_carlo" and mc.std_error > 0
    assert abs(quad.value - mc.value) < 3 * mc.std_error


def test_mi_bounds_and_saturation(cfg, square27):
    est = mi_discrete(square27, ChannelSample(np.array([3.0, 2.0]), 1e4), cfg)
    assert 0.0 <= est.value <= square27.m
    assert square27.m - est.value < 1e-3


def test_mi_per_use_is_vector_over_B(cfg, square27, gamma_8db):
    s = ChannelSample(np.array([1.0, 0.6]), gamma_8db)
    a = mi_discrete(square27, s, cfg)
    b = mi_per_use(square27, s, cfg)
    assert b.value == pytest.approx(a.value / 2)
    assert (b.method, b.std_error) == (a.method, a.std_error / 2)


def test_mi_gaussian_closed_form(gamma_8db):
    s = ChannelSample(np.array([1.0, 1.0]), gamma_8db)
    est = mi_gaussian(s)
    assert est.method == "closed_form" and est.std_error == 0.0
    assert est.value == pytest.approx(0.5 * math.log2(1 + 2 * gamma_8db))
    assert mi_gaussian(ChannelSample(np.zeros(2), 1.0)).value == 0.0


def test_complex_chain_equals_direct_stack(cfg):
    c = pc.apply(pc.rotation2(math.radians(27)), cs.build_named("c2_16"))
    gamma = 10 ** 0.4
    s = ChannelSample(np.array([1.0, 0.8]), gamma)
    matched = EngineConfig(gh_order=16)
    direct = mi_discrete(c, s, replace(matched, complex_chain=False))
    chain = mi_discrete(c, s, matched)
    assert abs(direct.value - chain.value) < 1e-10
    # order-convergence sanity for the chain route
    chain32 = mi_discrete(c, s, cfg)
    assert abs(chain32.value - chain.value) < 5e-5


def test_chain_rule_identity_vs_half_snr_real(cfg):
    p = pc.rotation2(math.radians(27))
    c16 = pc.apply(p, cs.build_named("c2_16"))
    r4 = pc.apply(p, cs.build_named("r2_4"))
    gamma = 2.5
    s = ChannelSample(np.array([1.0, 1.0]), gamma)
    s_half = ChannelSample(np.array([1.0, 1.0]), gamma / 2)
    assert mi_discrete(c16, s, cfg).value == pytest.approx(
        2 * mi_discrete(r4, s_half, cfg).value, abs=1e-10
    )


def test_projection_upper_bound_random_draws(cfg):
    rng = np.random.default_rng(3)
    c = cs.build_named("r2_4")
    for _ in range(10):
        theta = rng.uniform(0, math.pi / 2)
        omega_x = pc.apply(pc.rotation2(theta), c)
        sp = cs.project(omega_x, 1)
        alpha = rng.uniform(0, 2, 2)
        gamma = 10 ** rng.uniform(-0.5, 1.2)
        lhs = mi_per_use(omega_x, ChannelSample(alpha, gamma), cfg).value
        rhs = np.mean([mi_scalar(sp, a * a * gamma, cfg) for a in alpha])
        assert lhs <= rhs + 1e-9


def test_projection_bound_tight_for_product(cfg, gamma_8db):
    omega = cs.build_named("r2_4")  # product, identity precoder
    sp = cs.project(omega, 1)
    alpha = np.array([1.3, 0.4])
    lhs = mi_per_use(omega, ChannelSample(alpha, gamma_8db), cfg).value
    rhs = np.mean([mi_scalar(sp, a * a * gamma_8db, cfg) for a in alpha])
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_mi_scalar_frozen_and_oracle(cfg):
    bp = cs.project(cs.build_named("bpsk"), 1)
    got = mi_scalar(bp, 1.0, cfg)
    assert got == pytest.approx(BPSK_MI_AT_1, abs=2e-6)
    assert got == pytest.approx(scalar_mi_oracle([-1, 1], [0.5, 0.5], 1.0), abs=2e-6)
    assert mi_scalar(bp, 0.0, cfg) == 0.0


def test_mi_scalar_nonuniform_projection_oracle(cfg):
    c45 = pc.apply(pc.rotation2(math.pi / 4), cs.build_named("r2_4"))
    sp = cs.project(c45, 1)
    assert sp.size == 3
    got = mi_scalar(sp, 2.0, cfg)
    want = scalar_mi_oracle(sp.values, sp.probs, 2.0)
    assert got == pytest.approx(want, abs=3e-6)


@given(
    s_lo=st.floats(min_value=0.05, max_value=20.0),
    factor=st.floats(min_value=1.05, max_value=4.0),
)
@settings(max_examples=20, deadline=None)
def test_mi_scalar_strictly_increasing(s_lo, factor):
    cfg = EngineConfig()
    sp = cs.project(pc.apply(pc.rotation2(math.radians(27)), cs.build_named("r2_4")), 1)
    assert mi_scalar(sp, s_lo * factor, cfg) > mi_scalar(sp, s_lo, cfg)


def test_mi_nondecreasing_under_fading_scaleup(cfg, square27, gamma_8db):
    rng = np.random.default_rng(11)
    for _ in range(5):
        alpha = rng.uniform(0.1, 1.5, 2)
        c = rng.uniform(1.0, 3.0)
        lo = mi_per_use(square27, ChannelSample(alpha, gamma_8db), cfg).value
        hi = mi_per_use(square27, ChannelSample(c * alpha, gamma_8db), cfg).value
        assert hi >= lo - 1e-9


def test_inv_mi_round_trip_and_saturation(cfg):
    sp = cs.project(pc.apply(pc.rotation2(math.radians(27)), cs.build_named("r2_4")), 1)
    s = inv_mi_scalar(sp, 1.8, cfg)
    assert mi_scalar(sp, s, cfg) == pytest.approx(1.8, abs=1e-6)
    # grid-inversion oracle
    grid = np.linspace(0.5 * s, 1.5 * s, 401)
    vals = np.array([mi_scalar(sp, g, cfg) for g in grid])
    s_oracle = float(np.interp(1.8, vals, grid))
    assert s == pytest.approx(s_oracle, rel=1e-3)
    bp = cs.project(cs.build_named("bpsk"), 1)
    with pytest.raises(SaturationError):
        inv_mi_scalar(bp, 1.0, cfg)
    with pytest.raises(SaturationError):
        # 3-point projection of the 45-degree square carries only 1.5 bits
        inv_mi_scalar(cs.project(pc.apply(pc.rotation2(math.pi / 4), cs.build_named("r2_4")), 1), 1.6, cfg)


def test_mmse_limits_and_oracle(cfg):
    bp = cs.project(cs.build_named("bpsk"), 1)
    assert mmse_scalar(bp, 0.0, cfg) == pytest.approx(1.0)
    assert mmse_scalar(bp, 1e4, cfg) < 1e-3
    got = mmse_scalar(bp, 1.0, cfg)
    assert got == pytest.approx(BPSK_MMSE_AT_1, abs=1e-4)
    assert got == pytest.approx(scalar_mmse_oracle([-1, 1], [0.5, 0.5], 1.0), abs=1e-4)


def test_i_mmse_identity_bpsk(cfg):
    # with noise variance 1/(2s) the standard-form SNR is 2s, so the
    # identity reads dI/d(2s) = MMSE/2 in nats
    bp = cs.project(cs.build_named("bpsk"), 1)
    for s in np.logspace(-1, 1, 10):
        h = 1e-3 * s
        dI_dstd = (mi_scalar(bp, s + h, cfg) - mi_scalar(bp, s - h, cfg)) * LN2 / (4 * h)
        assert abs(dI_dstd - 0.5 * mmse_scalar(bp, s, cfg)) < 1e-3


def test_low_snr_expansion(cfg, square27):
    alpha = np.array([0.6, 0.8])
    for g2 in (0.005, 0.01, 0.02):
        s = ChannelSample(alpha, g2)
        approx = mi_lowsnr_approx(square27, s)
        exact = mi_per_use(square27, s, cfg).value
        assert approx == pytest.approx(exact, rel=0.05)
    assert mi_lowsnr_approx(square27, ChannelSample(np.zeros(2), 1.0)) == 0.0


def test_budget_triggers_mc_fallback(square27, gamma_8db):
    tiny = EngineConfig(budget_ops=10, mc_samples=20_000, seed=4)
    est = mi_discrete(square27, ChannelSample(np.array([1.0, 1.0]), gamma_8db), tiny)
    assert est.method == "monte_carlo"
    assert est.std_error > 0


def test_budget_counts_orbit_representatives(gamma_8db):
    # the r2_4 kernel sums 2 negation representatives against 4 points:
    # 2 * 4 * 32^2 = 8,192 operations fit a 10,000 budget (4^2 * 32^2 would not)
    s = ChannelSample(np.array([1.0, 0.7]), gamma_8db)
    assert mi_discrete(cs.build_named("r2_4"), s, EngineConfig(budget_ops=10_000)).method == "quadrature"
    assert mi_discrete(cs.build_named("r2_4"), s, EngineConfig(budget_ops=8_191)).method == "monte_carlo"


def test_mi_per_use_batch_consistent(cfg, square27, gamma_8db):
    alphas = np.array([[1.0, 1.0], [0.3, 1.2], [0.0, 0.0]])
    batch = mi_per_use_batch(square27, alphas, gamma_8db, cfg)
    for row, want in zip(alphas, batch):
        single = mi_per_use(square27, ChannelSample(row, gamma_8db), cfg).value
        assert want == pytest.approx(single, abs=1e-12)


def test_mc_fallback_monotone_along_a_ray(square27, gamma_8db):
    # common random numbers: every row sees the same noise, so MI cannot
    # step down along a ray the way independent draws would let it
    mc = EngineConfig(engine="mc", mc_samples=20_000, seed=3)
    radii = np.linspace(0.05, 3.0, 40)
    mi = mi_per_use_batch(square27, radii[:, None] * np.array([0.8, 0.6]), gamma_8db, mc)
    assert np.all(np.diff(mi) >= 0.0)


def test_mc_fallback_rows_match_mi_discrete(square27, gamma_8db):
    mc = EngineConfig(engine="mc", mc_samples=20_000, seed=3)
    alphas = np.array([[1.0, 1.0], [0.3, 1.2], [2.0, 0.1]])
    batch = mi_per_use_batch(square27, alphas, gamma_8db, mc)
    for row, got in zip(alphas, batch):
        est = mi_per_use(square27, ChannelSample(row, gamma_8db), mc)
        assert est.method == "monte_carlo"
        assert got == pytest.approx(est.value, rel=1e-12)


@pytest.mark.parametrize("name,theta_deg,engine,n", [
    ("r2_4", 27.0, "quadrature", 500),
    ("c2_16", 36.0, "quadrature", 500),  # the complex chain rule, at half of each row's SNR
    ("r2_4", 27.0, "mc", 12),
])
def test_batch_with_one_snr_per_row_equals_one_call_per_snr(name, theta_deg, engine, n):
    omega_x = pc.apply(pc.rotation2(math.radians(theta_deg)), cs.build_named(name))
    cfg = EngineConfig(engine=engine, gh_order=20, mc_samples=2_000, seed=3)
    rng = np.random.default_rng(1)
    alphas = np.sqrt(rng.exponential(1.0, size=(n, 2)))
    snrs = np.array([0.5, 1.0, 3.0, 10.0, 31.6])
    gammas = snrs[rng.integers(0, snrs.size, n)]
    got = mi_per_use_batch(omega_x, alphas, gammas, cfg)
    for g in snrs:
        rows = gammas == g
        assert np.array_equal(got[rows], mi_per_use_batch(omega_x, alphas[rows], g, cfg))


def test_channel_sample_validation():
    with pytest.raises(ValueError):
        ChannelSample(np.array([-0.1, 1.0]), 1.0)
    with pytest.raises(ValueError):
        ChannelSample(np.array([1.0, 1.0]), 0.0)
    s = ChannelSample([1.0, 1.0], 2.0)
    assert isinstance(s.alpha, np.ndarray) and s.gamma == 2.0


def test_channel_sample_rejects_nan_snr():
    # a nan SNR fails every `gamma <= 0` test and gave a nan MI, and so did
    # an infinite one (with a RuntimeWarning)
    for gamma in (math.nan, math.inf):
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            ChannelSample([1.0, 1.0], gamma)


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_mc_vector_and_batch_agree_at_low_snr(seed):
    # one evaluator, one clip: the vector MI is B times the per-use batch
    # value and never negative, even where MC noise dominates the estimate
    c = cs.build_named("r2_4")
    mc = EngineConfig(engine="mc", mc_samples=2000, seed=seed)
    alpha = np.array([0.01, 0.01])
    est = mi_discrete(c, ChannelSample(alpha, 0.01), mc)
    assert est.method == "monte_carlo"
    assert est.value >= 0.0
    assert est.value == c.B * mi_per_use_batch(c, alpha[None, :], 0.01, mc)[0]


def test_projection_chain_rule_equals_direct_stack():
    c = pc.apply(pc.rotation2(math.radians(27)), cs.build_named("c2_16"))
    sp = cs.project(c, 1)
    assert sp.is_complex and sp.real_base is not None
    assert not sp.real_base.is_complex and sp.real_base.size == 4
    matched = EngineConfig(gh_order=16)
    for snr in (0.3, 2.5, 17.0):
        chain = mi_scalar(sp, snr, matched)
        direct = mi_scalar(sp, snr, replace(matched, complex_chain=False))
        assert abs(chain - direct) < 1e-10


def test_mc_fallback_is_logged_once(caplog):
    c64 = cs.build_named("c2_64")  # 16 * 64 * 32^4 operations exceed the default budget
    s = ChannelSample(np.array([1.0, 0.8]), 4.0)
    with caplog.at_level(logging.INFO, logger="outagelab"):
        est = mi_discrete(c64, s, EngineConfig(mc_samples=2000))
    assert est.method == "monte_carlo"
    assert [r.levelno for r in caplog.records] == [logging.INFO]
    assert "budget_ops" in caplog.records[0].getMessage()
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="outagelab"):
        mi_discrete(c64, s, EngineConfig(engine="mc", mc_samples=2000))
        mi_discrete(cs.build_named("r2_4"), s)
    assert caplog.records == []


def orbit_and_full_bits(form, alpha, gamma):
    """The kernel over the form's orbit representatives and over every point."""
    M, D = form.points.shape
    order = max(2, min(32, int((4e6 / M**2) ** (1 / D))))
    al = np.asarray(alpha, dtype=float)[None, :]
    if form.stacked:
        al = np.hstack([al, al])
    orbit = _quad_nats_many(form.points, form.probs, form.reps, form.rep_w, al, gamma, order)
    full = _quad_nats_many(form.points, form.probs, form.points, form.probs, al, gamma, order)
    return orbit[0] / LN2, full[0] / LN2


ORBIT_ANGLES_DEG = (0.0, 10.7, 27.0, 45.0, 63.4)


@pytest.mark.parametrize("name", cs.registry_names())
def test_orbit_kernel_equals_full_sum(name):
    c = cs.build_named(name)
    forms = [_alphabet(c)]
    if c.B > 1:
        for deg in ORBIT_ANGLES_DEG:
            sp = cs.project(pc.apply(pc.rotation(c.B, math.radians(deg)), c), 1)
            forms += [_alphabet(sp)] + ([_alphabet(sp.real_base)] if sp.real_base else [])
    for form in forms:
        M = form.points.shape[0]
        # r3_16 (five cyclic-shift orbits plus the origin) is not centrally
        # symmetric; every other registry set is
        if name == "r3_16":
            assert len(form.reps) == M
        else:
            assert len(form.reps) <= math.ceil(M / 2)
        assert form.rep_w.sum() == pytest.approx(1.0, abs=1e-12)
        alpha = [1.0, 0.3, 0.7][: c.B] if form is forms[0] else [1.0]
        orbit, full = orbit_and_full_bits(form, alpha, 2.0)
        assert abs(orbit - full) < 1e-12


def test_orbits_of_complex_and_real_forms():
    c64 = _alphabet(cs.build_named("c2_64"))  # no real base: stacked (64, 4)
    assert c64.stacked and len(c64.reps) == 16
    np.testing.assert_array_equal(c64.rep_w, np.full(16, 4 / 64))
    c16 = cs.build_named("c2_16")
    assert len(_form(c16, EngineConfig(complex_chain=False)).reps) == 4
    chain = _form(c16, EngineConfig())  # the 4-point real base: negation only
    assert chain.chain and not chain.stacked and len(chain.reps) == 2
    # a quarter turn maps the rotated square onto itself, but it does not
    # commute with unequal gains on a real form, so only negation is used
    r24 = _alphabet(pc.apply(pc.rotation2(math.radians(27)), cs.build_named("r2_4")))
    assert not r24.stacked and len(r24.reps) == 2
    np.testing.assert_array_equal(r24.rep_w, [0.5, 0.5])
    # a complex projection symmetric under negation but not the quarter turn
    sp = cs.ProjectionSet(np.array([-1.0 - 0.5j, 1.0 + 0.5j]), np.array([0.5, 0.5]))
    assert len(_alphabet(sp).reps) == 1


def test_orbits_fall_back_to_the_full_sum():
    tri = cs.from_dict({"name": "tri", "B": 2, "field": "real",
                        "points": [[1.0, 0.0], [-0.5, 0.8], [-0.5, -0.8]]})
    uneven = cs.ProjectionSet(np.array([-1.0, 1.0]), np.array([0.3, 0.7]))
    for x in (tri, uneven):
        form = _alphabet(x)
        np.testing.assert_array_equal(form.reps, form.points)
        np.testing.assert_array_equal(form.rep_w, form.probs)
    s = ChannelSample(np.array([1.0, 0.3]), 2.0)
    orbit, full = orbit_and_full_bits(_alphabet(tri), s.alpha, s.gamma)
    assert orbit == full


def test_mixed_lockstep_group_rows_match_alone():
    cfg = EngineConfig(gh_order=16)
    r24 = cs.build_named("r2_4")
    sps = [cs.project(pc.apply(pc.rotation2(math.radians(d)), r24), 1) for d in (27.0, 45.0, 0.0, 31.0)]
    sps += [
        # equal shapes, unequal orbit counts: 4 representatives, then 2
        cs.ProjectionSet(np.array([-1.2, -0.2, 0.4, 1.0]), np.full(4, 0.25)),
        cs.ProjectionSet(np.array([-1.0, -0.3, 0.3, 1.0]), np.array([0.3, 0.2, 0.2, 0.3])),
    ]
    assert len({len(_form(sp, cfg).reps) for sp in sps if sp.size == 4}) == 2
    groups = tuple((np.array(rows), cs.ProjectionSet(np.stack([sps[k].values for k in rows]),
                                                     np.stack([sps[k].probs for k in rows])))
                   for rows in ([0, 3, 4, 5], [1], [2]))
    assert [sp.size for _, sp in groups] == [4, 3, 2]
    got = inv_mi_scalar_many(cs.ProjectionStack(len(sps), groups), 0.9, cfg)
    assert np.isfinite(got).all()
    assert got.tolist() == [inv_mi_scalar(sp, 0.9, cfg) for sp in sps]


def _stack_set(name):
    """A registry set, or pam4 x bpsk (axes of 2 and 1 bits), centred or with
    its bpsk axis moved off centre, which leaves its projections without an
    orbit map at every angle but 0."""
    if name.startswith("pam4xbpsk"):
        shift = 0.5 if name.endswith("shifted") else 0.0
        return cs.make_constellation(name, [[a, b + shift] for a in (-3.0, -1.0, 1.0, 3.0)
                                            for b in (-1.0, 1.0)], "real")
    return cs.build_named(name)


STACK_SETS = [(name, EngineConfig()) for name in ("r2_4", "r2_8", "r2_16", "r3_8", "r3_16", "r3_64",
                                                  "c2_16", "c2_64", "c2_256", "pam4xbpsk",
                                                  "pam4xbpsk shifted")]
STACK_SETS.insert(7, ("c2_16", EngineConfig(complex_chain=False)))


def _axis1_stack(c, thetas):
    """One stack of c's axis-1 projections under the rotation of each angle, as a sweep makes it."""
    p = pc.rotation(c.B, thetas)
    base = None if c.real_base is None else pc.precode(p, c.real_base.points)[..., 0]
    return cs.project_stack(pc.precode(p, c.points)[..., 0], base)


def _stack_rows(stack):
    """Each member's (values, probs), by member index."""
    return {k: (sp.values[i], sp.probs[i]) for rows, sp in stack.groups for i, k in enumerate(rows)}


@pytest.mark.parametrize("name,engine", STACK_SETS,
                         ids=[f"{n}-chain{int(e.complex_chain)}" for n, e in STACK_SETS])
def test_stacked_forms_equal_per_angle_forms(name, engine):
    c = _stack_set(name)
    grid = default_grid(c.B)
    stack = _axis1_stack(c, grid)
    projections, forms = _stack_rows(stack), {}
    for rows, form in mutual_info._stack_forms(stack, np.ones(grid.size, dtype=bool), engine):
        forms.update((k, form._replace(**{n: getattr(form, n)[i] for n in mutual_info._ROW_FIELDS}))
                     for i, k in enumerate(rows))
    assert sorted(projections) == sorted(forms) == list(range(grid.size))
    orbits = []
    for k, theta in enumerate(grid):
        sp = cs.project(pc.apply(pc.rotation(c.B, theta), c), 1)
        assert np.array_equal(projections[k][0], sp.values) and np.array_equal(projections[k][1], sp.probs)
        got, want = forms[k], _form(sp, engine)
        assert (got.stacked, got.chain) == (want.stacked, want.chain)
        for n in mutual_info._ROW_FIELDS:
            assert np.array_equal(getattr(got, n), getattr(want, n)), (k, n)
        if len(got.reps) < len(got.points):
            orbits.append(k)
    if name.startswith("pam4xbpsk"):  # the rest of the shifted set's rows take the full sum
        assert orbits == ([0] if name.endswith("shifted") else list(range(grid.size)))


@pytest.mark.parametrize("name", ["pam4xbpsk", "pam4xbpsk shifted"])
def test_every_axis_in_one_stack(name, cfg):
    # every axis of a set in one projection pass and one lock-step solve,
    # each as its own `project` and `inv_mi_scalar` give it; at 1.4 bits
    # the 2-bit axis has a root and the 1-bit axis saturates
    c = _stack_set(name)
    stack = cs.project_stack(c.points.T)
    rows = _stack_rows(stack)
    got = inv_mi_scalar_many(stack, 1.4, cfg)
    for b in range(1, c.B + 1):
        sp = cs.project(c, b)
        assert np.array_equal(rows[b - 1][0], sp.values) and np.array_equal(rows[b - 1][1], sp.probs)
        try:
            want = inv_mi_scalar(sp, 1.4, cfg)
        except SaturationError:
            want = math.inf
        assert got[b - 1] == want
    assert math.isfinite(got[0]) and got[1] == math.inf


def _swept(name, degrees):
    c = cs.build_named(name)
    return [cs.project(pc.apply(pc.rotation(c.B, math.radians(d)), c), 1) for d in degrees]


_SETS = ("r2_4", "r2_8", "r2_16", "r3_8", "c2_16")
_ANGLES = (0.0, 10.7, 27.0, 31.7, 45.0)


@pytest.mark.parametrize("engine,names,degrees,targets", [
    (EngineConfig(gh_order=2), _SETS, _ANGLES, (0.02, 0.3, 1.0, 1.8, 2.9)),
    (EngineConfig(gh_order=32), _SETS, _ANGLES, (0.02, 0.3, 1.0, 1.8, 2.9)),
    (EngineConfig(engine="mc", mc_samples=20_000), ("r2_4", "c2_16"), (27.0,), (0.05, 1.8)),
])
def test_gaussian_bound_keeps_every_root(engine, names, degrees, targets, monkeypatch):
    stacks = [_axis1_stack(cs.build_named(name), np.radians(degrees)) for name in names]

    def roots(t):
        return np.concatenate([inv_mi_scalar_many(stack, t, engine) for stack in stacks]).tolist()

    got = [roots(t) for t in targets]
    monkeypatch.setattr(mutual_info, "_gaussian_snr", lambda sp, bits: 0.0)
    for t, want in zip(targets, got):
        assert want == roots(t)


def test_gaussian_bound_cuts_kernel_calls(cfg, kernel_work):
    inv_mi_scalar(_swept("r2_4", (27.0,))[0], 1.8, cfg)
    assert kernel_work.calls <= 24  # 38 when doubling from x_start = 1e-4


def lse_oracle_nats(points, probs, reps, rep_w, alphas, gamma, order):
    """`_quad_nats_many` by the full-grid log-sum-exp, one row at a time.

    One exponent -2*sqrt(gamma)*d.x_k - gamma*|d|^2 + log p_j per
    (representative, point, node) of the order^D tensor grid, the largest
    subtracted before the exponential: the kernel's definition, written
    without the separable factorization.
    """
    D = points.shape[-1]
    x, w = np.polynomial.hermite.hermgauss(order)
    nodes = np.stack(np.meshgrid(*([x] * D), indexing="ij"), axis=-1).reshape(-1, D)
    weights = np.prod(np.stack(np.meshgrid(*([w] * D), indexing="ij"), axis=-1).reshape(-1, D), axis=1)
    weights = weights / weights.sum()
    gammas = np.broadcast_to(np.asarray(gamma, dtype=float), alphas.shape[:1])
    out = []
    for a, (alpha, g) in enumerate(zip(alphas, gammas)):
        pts, pr, rp, rw = (v if points.ndim == 2 else v[a] for v in (points, probs, reps, rep_w))
        total = 0.0
        for r, mass in zip(rp, rw):
            d = alpha * (r - pts)  # (M, D)
            e = -2.0 * math.sqrt(g) * (d @ nodes.T) - g * (d * d).sum(axis=1)[:, None] + np.log(pr)[:, None]
            mx = e.max(axis=0)
            total -= mass * (weights @ (mx + np.log(np.exp(e - mx).sum(axis=0))))
        out.append(total)
    return np.array(out)


KERNEL_GAMMAS = (1e-4, 1e-2, 1.0, 1e2, 1e4)


def _kernel_forms():
    """(label, form, order) cases: shared forms in 2, 3 and 4 dimensions and
    stacked per-row projections in 1, each with its orbits and its full sum."""
    def rot(name, deg):
        c = cs.build_named(name)
        return pc.apply(pc.rotation(c.B, math.radians(deg)), c)

    cases = [
        ("r2_4", _alphabet(rot("r2_4", 27.0)), 32),
        ("r2_16", _alphabet(rot("r2_16", 44.0)), 32),
        ("r3_8", _alphabet(rot("r3_8", 50.75)), 10),
        ("c2_16", _form(cs.build_named("c2_16"), EngineConfig(complex_chain=False)), 8),
    ]
    sps = [cs.project(rot("r2_8", deg), 1) for deg in (4.69, 17.0, 31.0, 38.0)]
    forms = [_alphabet(sp) for sp in sps]
    assert len({(f.points.shape, f.reps.shape) for f in forms}) == 1
    stack = forms[0]._replace(
        **{n: np.stack([getattr(f, n) for f in forms]) for n in mutual_info._ROW_FIELDS})
    cases.append(("r2_8 projections", stack, 32))
    for label, form, order in cases:
        yield label, form, order
        yield label + " full", form._replace(reps=form.points, rep_w=form.probs), order


def _kernel_rows(form, rows):
    """`rows` fading rows of the form's dimension (duplicated for a stacked form)."""
    B = form.points.shape[-1] // (2 if form.stacked else 1)
    al = np.sqrt(np.random.default_rng(7).exponential(1.0, (rows, B))) * 1.5
    return np.hstack([al, al]) if form.stacked else al


KERNEL_CASES = list(_kernel_forms())


@pytest.mark.parametrize("label, form, order", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
def test_separable_kernel_matches_full_grid_oracle(label, form, order):
    if form.points.ndim == 3:  # stacked projections: unit gains, one SNR per row
        al, spread = np.ones((form.points.shape[0], 1)), np.arange(1.0, form.points.shape[0] + 1)
    else:
        al, spread = _kernel_rows(form, 3), 1.0
    for gamma in KERNEL_GAMMAS:
        got = _quad_nats_many(form.points, form.probs, form.reps, form.rep_w, al, gamma * spread, order)
        want = lse_oracle_nats(form.points, form.probs, form.reps, form.rep_w, al, gamma * spread, order)
        assert np.isfinite(got).all()
        assert np.abs(got - want).max() < 1e-13, (label, gamma)


def test_kernel_row_alone_is_bit_identical_inside_a_large_batch():
    rotated = pc.apply(pc.rotation2(math.radians(27)), cs.build_named("r2_4"))
    shared = _alphabet(rotated)
    one = _alphabet(cs.project(rotated, 1))
    stacked = one._replace(**{n: np.stack([getattr(one, n)] * 3000) for n in mutual_info._ROW_FIELDS})
    # blocks of 64 shared rows and 64 stacked rows at order 32
    for form, al, g in ((shared, _kernel_rows(shared, 3000), np.full(3000, 2.0)),
                        (stacked, np.ones((3000, 1)), np.geomspace(0.01, 100.0, 3000))):
        batch = _quad_nats_many(form.points, form.probs, form.reps, form.rep_w, al, g, 32)
        for a in (0, 63, 64, 243, 244, 1500, 2999):
            row = [v[a : a + 1] if form.points.ndim == 3 else v
                   for v in (form.points, form.probs, form.reps, form.rep_w)]
            alone = _quad_nats_many(*row, al[a : a + 1], g[a : a + 1], 32)
            assert alone[0] == batch[a]


BLOCK_CASES = [c for c in KERNEL_CASES if c[0] in ("r2_8 projections", "r2_4", "r3_8", "c2_16")] + [
    ("c2_16 chain", _form(cs.build_named("c2_16"), EngineConfig()), 16)]


@pytest.mark.parametrize("label, form, order", BLOCK_CASES, ids=[c[0] for c in BLOCK_CASES])
def test_kernel_values_do_not_depend_on_the_block_cap(label, form, order, monkeypatch):
    if form.points.ndim == 3:
        al = np.ones((form.points.shape[0], 1))
    else:
        al = _kernel_rows(form, 5)
    gamma = np.geomspace(0.1, 30.0, al.shape[0])
    args = (form.points, form.probs, form.reps, form.rep_w, al, gamma, order)
    default = _quad_nats_many(*args)
    (M, D), R = form.points.shape[-2:], form.reps.shape[-2]
    pair = max(D * M * order, M * order ** (D - 1), order**D)  # floats per (row, representative)
    # one row per block
    monkeypatch.setattr(mutual_info, "_BLOCK_CAP", R * pair)
    monkeypatch.setattr(mutual_info, "_STACK_CAP", R * pair)
    np.testing.assert_array_equal(_quad_nats_many(*args), default)
    # one pair per block splits a row's representatives over blocks, and BLAS
    # then sums their nodes in other groupings: only the last bits move
    monkeypatch.setattr(mutual_info, "_BLOCK_CAP", 1)
    monkeypatch.setattr(mutual_info, "_STACK_CAP", 1)
    np.testing.assert_allclose(_quad_nats_many(*args), default, rtol=1e-14, atol=0.0)


def test_kernel_at_order_200_stays_finite():
    # the separable sum underflows at the grid's corners, whose weights are below e^-600
    form = _alphabet(pc.apply(pc.rotation2(math.radians(27)), cs.build_named("r2_4")))
    al = _kernel_rows(form, 2)
    got = _quad_nats_many(form.points, form.probs, form.reps, form.rep_w, al, 4.0, 200)
    want = lse_oracle_nats(form.points, form.probs, form.reps, form.rep_w, al, 4.0, 200)
    assert np.isfinite(got).all()
    assert np.abs(got - want).max() < 1e-8
