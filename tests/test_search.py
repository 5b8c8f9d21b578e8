import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outagelab import constellations as cs
from outagelab import mutual_info, outage
from outagelab import precoders as pc
from outagelab.mutual_info import EngineConfig
from outagelab.optimizer import default_grid, sweep
from outagelab.search import GOLDEN_DEPTH, INV_PHI, INV_PHI2, SPARE_CALLS, golden_min, solve_increasing


TARGETS = np.array([1e-9, 0.3, 2.0, 17.5, 4e4])
SCALES = np.array([1.0, 0.5, 3.0, 1e-3, 7.0])


def _plain_bisection(f, target, x_start=1e-4, rel_tol=1e-6, max_doublings=80, x_below=0.0):
    """The doubling/bisection loop that `solve_increasing` replays, as it was
    before the replay: every row calls f at each of its loop points."""
    target = np.asarray(target, dtype=float)
    x_below = np.broadcast_to(np.asarray(x_below, dtype=float), target.shape)
    k = np.frexp(np.fmax(x_below / x_start, 0.0))[1]  # 2^(k-1) <= ratio < 2^k
    k -= (k > 0) & (np.ldexp(x_start, k - 1) > x_below)  # division rounding
    doublings = k.clip(0, max_doublings)
    hi = np.ldexp(float(x_start), doublings)
    lo = np.where(doublings > 0, 0.5 * hi, 0.0)
    bracketing = np.ones(target.shape, dtype=bool)
    live = np.ones(target.shape, dtype=bool)
    x = hi.copy()
    while live.any():
        below = np.asarray(f(np.where(live, x, np.nan))) < target
        grow = live & bracketing & below
        lo[grow] = hi[grow]
        hi[grow] *= 2.0
        doublings[grow] += 1
        failed = grow & (doublings > max_doublings)
        hi[failed] = np.inf
        live &= ~failed
        split = live & ~bracketing
        lo[split & below] = x[split & below]
        hi[split & ~below] = x[split & ~below]
        bracketing &= below
        live &= bracketing | (hi - lo > rel_tol * hi)
        x = np.where(bracketing, hi, 0.5 * (lo + hi))
    return 0.5 * (lo + hi)


def _counted(f, rows):
    """f that counts its calls per row, and the counts."""
    calls = np.zeros(rows, dtype=int)

    def g(x):
        assert not np.isnan(x).all()  # never called with every row nan
        calls[:] += ~np.isnan(x)
        return f(x)

    return g, calls


def _against_oracle(f, target, **kw):
    """Roots and per-row calls of `solve_increasing` and of the oracle."""
    g, calls = _counted(f, len(target))
    roots = solve_increasing(g, target, **kw)
    g, oracle_calls = _counted(f, len(target))
    want = _plain_bisection(g, target, **kw)
    assert roots.tolist() == want.tolist()  # exactly, inf included
    return roots, calls, oracle_calls


def test_vector_solve_equals_elementwise_scalar_solves():
    targets, scales = TARGETS, SCALES
    calls = []

    def f(x):
        calls.append(np.count_nonzero(~np.isnan(x)))
        return np.log1p(scales * x)

    roots = solve_increasing(f, np.log1p(scales * targets), x_start=1e-4, rel_tol=1e-6)
    for k in range(len(targets)):
        one = solve_increasing(lambda v: np.log1p(scales[k] * v),
                               np.log1p(scales[k:k + 1] * targets[k:k + 1]), x_start=1e-4, rel_tol=1e-6)
        assert roots[k] == one[0]  # exactly: each row takes the steps it takes alone
    assert solve_increasing(lambda v: v * v, np.array([2.0]))[0] == pytest.approx(math.sqrt(2.0), rel=1e-6)
    # rows stop on their own: finished rows are not passed to f again
    assert calls[0] == len(targets) and calls[-1] < len(targets)
    _, got, oracle = _against_oracle(lambda x: np.log1p(scales * x), np.log1p(scales * targets))
    assert (got <= oracle).all() and got.sum() < oracle.sum() / 2


def test_bracket_failure_saturates_only_its_row():
    cap = np.array([1.0, 10.0, 1.0])

    def f(x):
        return np.minimum(x, cap)

    roots = solve_increasing(f, np.array([0.5, 20.0, 0.25]), max_doublings=40)
    assert roots[1] == math.inf
    assert roots[0] == pytest.approx(0.5, rel=1e-6)
    assert roots[2] == pytest.approx(0.25, rel=1e-6)
    saturated = solve_increasing(lambda x: np.minimum(x, 1.0), np.array([2.0]), max_doublings=40)
    assert saturated[0] == math.inf
    _, got, oracle = _against_oracle(f, np.array([0.5, 20.0, 0.25]), max_doublings=40)
    assert (got <= oracle).all()


@pytest.mark.parametrize("f,target", [
    (lambda x: np.log1p(SCALES * x), np.log1p(SCALES * TARGETS)),
    (lambda x: np.minimum(x, np.array([1.0, 10.0, 1.0])), np.array([0.5, 20.0, 0.25])),
    (lambda x: np.floor(8.0 * x) / 8.0, np.array([0.3, 1.0, 2.0 + 1e-9])),
], ids=["smooth", "capped", "steps"])
def test_solve_returns_each_rows_last_decided_bracket(f, target):
    # `_solve`, behind `solve_increasing`: the same roots bit for bit, and each
    # row's last decided points, f(a) < target <= f(b), at f's own values
    from outagelab.search import _solve

    roots, (a, fa, b, fb) = _solve(f, target, 1e-4, 1e-6, 40, 0.0)
    assert roots.tolist() == solve_increasing(f, target, max_doublings=40).tolist()
    assert np.all(fa < target) and np.all(target <= fb)
    np.testing.assert_array_equal(f(a), fa)
    found = np.isfinite(b)  # a row that saturates keeps b = f(b) = inf
    np.testing.assert_array_equal(f(np.where(found, b, 0.0))[found], fb[found])
    assert np.array_equal(found, np.isfinite(roots)) and np.all(a < b)


def test_bound_start_gives_the_same_roots_with_fewer_calls():
    def f(x):
        return np.log1p(SCALES * x)

    t = np.log1p(SCALES * TARGETS)
    plain, _, plain_oracle = _against_oracle(f, t)
    # k = 0 in row 0 (x_below under x_start), k > 0 elsewhere
    x_below = 0.9 * TARGETS
    bounded, calls, oracle = _against_oracle(f, t, x_below=x_below)
    assert bounded.tolist() == plain.tolist()  # exactly: the same powers of two
    k = [sum(1e-4 * 2.0**j <= x for j in range(81)) for x in x_below]
    assert k[0] == 0 and min(k[1:]) > 0
    assert (plain_oracle - oracle).tolist() == k  # the loop skips its k doublings, no more
    assert (calls <= oracle).all()
    # points exactly at x_below count as below; one bound may serve every row
    x = 1e-4 * 2.0**7
    t = np.log1p(np.array([1.5 * x]))
    assert solve_increasing(np.log1p, t, x_below=x) == solve_increasing(np.log1p, t)
    assert _against_oracle(np.log1p, t, x_below=x)[0] == _against_oracle(np.log1p, t)[0]


def test_bound_start_keeps_saturation_and_the_doubling_cap():
    cap = np.array([1.0, 10.0, 1.0])

    def f(x):
        return np.minimum(x, cap)

    targets = np.array([0.5, 20.0, 0.25])
    # row 1 never reaches its target, so any point is below its root
    roots, calls, oracle = _against_oracle(f, targets, max_doublings=40, x_below=[0.25, 1e300, 0.1])
    assert roots[1] == math.inf and oracle[1] == 1  # the loop calls f once at its cap, then inf
    assert (calls <= oracle).all()
    assert roots.tolist() == solve_increasing(f, targets, max_doublings=40).tolist()
    # a root past x_start*2^10 needs an 11th doubling: the bound does not grant it
    t = 1e-4 * 2.0**10.5
    for m in (10, 11):
        want = solve_increasing(lambda v: v, np.array([t]), max_doublings=m)
        assert solve_increasing(lambda v: v, np.array([t]), max_doublings=m, x_below=0.99 * t) == want
        assert math.isinf(want[0]) == (m == 10)
        _, calls, oracle = _against_oracle(lambda v: v, np.array([t]), max_doublings=m, x_below=0.99 * t)
        assert (calls <= oracle).all()


# Nondecreasing shapes, one row each: f(x) = shape(x / scale).  Each row's
# target and x_below are drawn with it; x_below is kept only where it lies
# below the row's root (f(x_below) < target), as the solver requires.
_scale = st.floats(1e-3, 1e3)
_level = st.floats(0.05, 3.0)


def _steps():
    """Staircases: jumps of positive height at increasing points."""
    return st.lists(st.tuples(st.floats(0.1, 10.0), _level), min_size=1, max_size=4).map(
        lambda jumps: lambda u: sum(h * (u >= c) for c, h in jumps))


def _plateaus():
    """log1p rising, flat on [p, p*(1 + length)], rising again."""
    return st.tuples(st.floats(0.05, 5.0), st.floats(0.1, 20.0)).map(
        lambda pl: lambda u: np.log1p(np.minimum(u, pl[0]) + np.maximum(u - pl[0] * (1 + pl[1]), 0.0)))


def _caps():
    """log1p capped at a level, which may lie below the target."""
    return _level.map(lambda cap: lambda u: np.minimum(np.log1p(u), cap))


def _flat_then_steep():
    """Zero up to a point, then a power rise."""
    return st.tuples(st.floats(0.1, 10.0), st.floats(1.0, 6.0)).map(
        lambda cp: lambda u: np.maximum(u - cp[0], 0.0) ** cp[1])


def _rows(shape):
    row = st.tuples(shape, _scale, st.floats(0.01, 4.0), st.floats(0.0, 1.0))
    return st.lists(row, min_size=1, max_size=4)


def _solve_rows(rows):
    shapes = [s for s, _, _, _ in rows]
    scales = np.array([c for _, c, _, _ in rows])
    targets = np.array([t for _, _, t, _ in rows])

    def f(x):
        return np.array([np.nan if np.isnan(v) else float(s(v / c)) for s, c, v in zip(shapes, scales, x)])

    x_below = np.array([u * 10.0 * c for _, c, _, u in rows])
    x_below = np.where(f(x_below) < targets, x_below, 0.0)
    return _against_oracle(f, targets, x_below=x_below)


@settings(max_examples=60, deadline=None)
@given(st.one_of(_rows(_steps()), _rows(_plateaus()), _rows(_caps()), _rows(_flat_then_steep())))
def test_every_root_on_steps_plateaus_caps_and_flat_then_steep(rows):
    # On a step each loop point settles one bit of the root, so a call off
    # the loop's points can be one the loop never makes: no solver that
    # scouts stays at or under the loop's count on every shape.  The
    # solver's own bound is SPARE_CALLS calls beyond it per row.
    _, calls, oracle = _solve_rows(rows)
    assert (calls <= oracle + SPARE_CALLS).all()


def _solver_outputs(cfg, step_deg):
    """Sweep profiles, a ray trace and ergodic SNRs: every solve the layers above make."""
    out = []
    for name, R in (("r2_4", 0.9), ("r2_16", 0.9), ("r3_8", 0.9), ("c2_16", 1.8)):
        c = cs.build_named(name)
        out.append(sweep(c, R, default_grid(c.B, step_deg), cfg).gamma_s)
        out.append([outage.ergodic_snr(c, R, cfg)])
    q = outage.OutageQuery(cs.build_named("r2_4"), pc.rotation2(math.radians(27.0)), R=0.9,
                           gamma=outage.GAMMA_REF)
    out.append(outage.trace_boundary_2d(q, 65, cfg).rhos)
    return [np.asarray(v).tolist() for v in out]


@pytest.mark.parametrize("cfg,step_deg", [
    (EngineConfig(gh_order=4), 0.5),
    (EngineConfig(gh_order=32), 0.5),
    (EngineConfig(engine="mc", mc_samples=2_000), 5.0),
], ids=["gh4", "gh32", "mc"])
def test_layers_above_get_the_plain_bisection_roots(cfg, step_deg, monkeypatch):
    got = _solver_outputs(cfg, step_deg)
    monkeypatch.setattr(mutual_info, "solve_increasing", _plain_bisection)
    monkeypatch.setattr(outage, "solve_increasing", _plain_bisection)
    assert got == _solver_outputs(cfg, step_deg)  # exactly, to the last bit


def test_default_sweep_takes_at_most_10_kernel_rows_per_angle(monkeypatch):
    rows = []
    evaluate = mutual_info._evaluate

    def counted(form, alphas, *args):
        rows.append(len(alphas))
        return evaluate(form, alphas, *args)

    monkeypatch.setattr(mutual_info, "_evaluate", counted)
    prof = sweep(cs.build_named("r2_16"), 0.9)
    assert sum(rows) <= 10 * np.isfinite(prof.gamma_s).sum()  # plain bisection: 22 per angle


def test_golden_min_quadratic():
    assert golden_min(lambda x: (x - 0.3) ** 2, -1.0, 2.0, 1e-6) == pytest.approx(0.3, abs=1e-6)


def test_nan_at_a_live_row_raises():
    with pytest.raises(ValueError, match="nan"):
        solve_increasing(lambda x: x * np.array([1.0, np.nan]), np.array([0.5, 0.5]))


def test_nan_target_raises(hang_guard):
    with pytest.raises(ValueError, match="nan"):
        solve_increasing(lambda x: x, np.array([0.5, np.nan]))


def test_root_at_zero_stops(hang_guard):
    # f jumps from 0 to 1 at 0: the bracket [0, hi] halves until no float lies
    # inside it, where rel_tol*hi has underflowed to 0; the other row solves as alone
    def f(x):
        return np.array([float(x[0] > 0), x[1]])

    roots = solve_increasing(f, np.array([0.5, 0.3]))
    assert roots[0] == 0.0
    assert roots[1] == solve_increasing(lambda x: x, np.array([0.3]))[0]


def plain_golden_min(f, a, b, tol):
    """Reference for `golden_min`: the loop it replays, one call of f per point."""
    a, b = min(a, b), max(a, b)
    h = b - a
    if h <= tol:
        return 0.5 * (a + b)
    n = int(math.ceil(math.log(tol / h) / math.log(INV_PHI)))
    c = a + INV_PHI2 * h
    d = a + INV_PHI * h
    yc = f(c)
    yd = f(d)
    for _ in range(n - 1):
        if yc < yd:
            b, d, yd = d, c, yc
            h *= INV_PHI
            c = a + INV_PHI2 * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            h *= INV_PHI
            d = a + INV_PHI * h
            yd = f(d)
    return 0.5 * (a + d) if yc < yd else 0.5 * (c + b)


GOLDEN_CASES = [
    ("quadratic", lambda x: (x - 0.3) ** 2, -1.0, 2.0, 1e-6),
    ("reversed bracket", lambda x: (x - 0.3) ** 2, 2.0, -1.0, 1e-3),
    ("ties everywhere", lambda x: np.zeros_like(x), 0.0, 1.0, 1e-4),
    ("tied steps", lambda x: np.floor(np.abs(x - 0.61) * 8.0), 0.0, 1.0, 1e-5),
    ("1e300 plateaus", lambda x: np.where(np.abs(x - 0.45) < 0.05, (x - 0.47) ** 2, 1e300), 0.0, 1.0, 1e-6),
    ("saturated optimum", lambda x: np.where(x < 0.2, 1e300, x), 0.0, 1.0, 1e-4),
    ("within tol", lambda x: x, 0.3, 0.30005, 1e-4),
]


@pytest.mark.parametrize("f,a,b,tol", [c[1:] for c in GOLDEN_CASES], ids=[c[0] for c in GOLDEN_CASES])
def test_golden_min_is_the_plain_loop(f, a, b, tol):
    batches = []

    def batched(x):
        batches.append(x.copy())
        return f(x)

    got = golden_min(batched, a, b, tol)
    assert got == plain_golden_min(lambda x: float(f(np.array(x))), a, b, tol)  # the same float
    asked = np.concatenate(batches)
    assert got in asked  # a caller that records f has the value at the result
    h = abs(b - a)
    n = math.ceil(math.log(tol / h) / math.log(INV_PHI)) if h > tol else 0
    assert len(batches) <= max(1, math.ceil((n - 1) / GOLDEN_DEPTH))  # n comparisons, DEPTH per batch
