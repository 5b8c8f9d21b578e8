import math

import numpy as np
import pytest

from outagelab.search import golden_min, solve_increasing


def test_scalar_solve_is_a_float_within_tolerance():
    x = solve_increasing(lambda v: v * v, 2.0)
    assert isinstance(x, float)
    assert x == pytest.approx(math.sqrt(2.0), rel=1e-6)


def test_vector_solve_equals_elementwise_scalar_solves():
    targets = np.array([1e-9, 0.3, 2.0, 17.5, 4e4])
    scales = np.array([1.0, 0.5, 3.0, 1e-3, 7.0])
    calls = []

    def f(x):
        calls.append(np.count_nonzero(~np.isnan(x)))
        return np.log1p(scales * x)

    roots = solve_increasing(f, np.log1p(scales * targets), x_start=1e-4, rel_tol=1e-6)
    for k in range(len(targets)):
        one = solve_increasing(lambda v: math.log1p(scales[k] * v), math.log1p(scales[k] * targets[k]),
                               x_start=1e-4, rel_tol=1e-6)
        assert roots[k] == one  # exactly: each row takes the scalar path's steps
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
    assert solve_increasing(lambda x: min(x, 1.0), 2.0, max_doublings=40) == math.inf


def test_golden_min_quadratic():
    assert golden_min(lambda x: (x - 0.3) ** 2, -1.0, 2.0, 1e-6) == pytest.approx(0.3, abs=1e-6)
