import math

import numpy as np
import pytest

from outagelab.search import golden_min, solve_increasing


TARGETS = np.array([1e-9, 0.3, 2.0, 17.5, 4e4])
SCALES = np.array([1.0, 0.5, 3.0, 1e-3, 7.0])


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


def test_bound_start_gives_the_same_roots_with_fewer_calls():
    evals = np.zeros(len(TARGETS), dtype=int)

    def f(x):
        evals[:] += ~np.isnan(x)
        return np.log1p(SCALES * x)

    plain = solve_increasing(f, np.log1p(SCALES * TARGETS))
    plain_evals = evals.copy()
    evals[:] = 0
    # k = 0 in row 0 (x_below under x_start), k > 0 elsewhere
    x_below = 0.9 * TARGETS
    bounded = solve_increasing(f, np.log1p(SCALES * TARGETS), x_below=x_below)
    assert bounded.tolist() == plain.tolist()  # exactly: the same powers of two
    k = [sum(1e-4 * 2.0**j <= x for j in range(81)) for x in x_below]
    assert k[0] == 0 and min(k[1:]) > 0
    assert (plain_evals - evals).tolist() == k  # each row skips its k doublings, no more
    # points exactly at x_below count as below; one bound may serve every row
    x = 1e-4 * 2.0**7
    t = np.log1p(np.array([1.5 * x]))
    assert solve_increasing(np.log1p, t, x_below=x) == solve_increasing(np.log1p, t)


def test_bound_start_keeps_saturation_and_the_doubling_cap():
    cap = np.array([1.0, 10.0, 1.0])
    calls = []

    def f(x):
        calls.append(~np.isnan(x))
        return np.minimum(x, cap)

    targets = np.array([0.5, 20.0, 0.25])
    # row 1 never reaches its target, so any point is below its root
    roots = solve_increasing(f, targets, max_doublings=40, x_below=[0.25, 1e300, 0.1])
    assert roots[1] == math.inf and calls[0][1] and not calls[1][1]  # one call, then inf
    assert roots.tolist() == solve_increasing(f, targets, max_doublings=40).tolist()
    # a root past x_start*2^10 needs an 11th doubling: the bound does not grant it
    t = 1e-4 * 2.0**10.5
    for m in (10, 11):
        want = solve_increasing(lambda v: v, np.array([t]), max_doublings=m)
        assert solve_increasing(lambda v: v, np.array([t]), max_doublings=m, x_below=0.99 * t) == want
        assert math.isinf(want[0]) == (m == 10)


def test_golden_min_quadratic():
    assert golden_min(lambda x: (x - 0.3) ** 2, -1.0, 2.0, 1e-6) == pytest.approx(0.3, abs=1e-6)
