"""Lock-step bracketing/bisection and golden-section search."""

import math

import numpy as np

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def solve_increasing(f, target, x_start=1e-4, rel_tol=1e-6, max_doublings=80, x_below=0.0):
    """Solve f(x) = target for a nondecreasing f on [0, inf), row by row.

    Each row brackets its root by doubling from `x_start`, then bisects
    until its bracket is narrower than `rel_tol` relative to the upper
    edge, and stops on its own; a row still below its target after
    `max_doublings` doublings is saturated and solves to inf.  Assumes
    f(0) <= target; no derivative needed.

    `x_below` (per row, or one value) is a point known to lie below the
    row's root, f(x_below) < target.  A row then starts where doubling
    would have arrived without evaluating f: after its k doubling points
    x_start*2^j (j >= 0) at or below x_below (k capped at max_doublings),
    with lo = x_start*2^(k-1) (0 when k = 0) and hi = x_start*2^k.  These
    are the exact powers of two the doubling loop reaches, so every later
    midpoint and every root is the same float as without the bound; only
    the f calls at points already known to be below the target are saved.

    Every row of the `target` array is solved in lock-step: f takes the
    array of the rows' next points, nan in rows already finished, and
    returns their values (ignored in those rows).
    """
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


def golden_min(f, a, b, tol):
    """Golden-section search for the minimum of a unimodal f on [a, b].

    Returns the midpoint of the final interval of width <= tol.
    """
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
