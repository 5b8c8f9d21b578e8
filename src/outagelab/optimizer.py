"""Precoder parameter sweeps and upper-bound-driven optimization.

The criterion is the axis-crossing SNR per symbol gamma_s: the scalar SNR
at which the one-axis projection of the precoded constellation carries
B*R bits.  Minimizing gamma_s shrinks the outer hypersphere and with it
the outage upper bound; it depends only on (constellation, angle, B*R),
never on the average SNR.  The ergodic anchor is insensitive to
orthogonal transformations, so it is reported but not optimized: only
constellation expansion moves the inner bound.

`sweep`, `optimize` and `gamma_s_at` share one array path: the angles are
turned into one (A, B, B) stack of rotations, the constellation is
precoded with one matrix product into an (A, M, B) stack, projected in
one pass (`project_stack`), and every angle is solved in one lock-step
`inv_mi_scalar_many` call.  The golden-section refinement asks for its
probes in batches (`search.golden_min`), one such call per batch, and
returns the float the plain one-probe-at-a-time search returns.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import precoders
from .constellations import Constellation, min_product_distances, project_stack
from .mutual_info import (
    DEFAULT_CONFIG,
    EngineConfig,
    SaturationError,
    gaussian_floor,
    inv_mi_scalar_many,
)
from .outage import ergodic_snr
from .search import golden_min

REFINE_TOL_DEG = 0.05  # golden-section tolerance on the optimal angle
INTERVAL_DB = 0.05  # width of the near-optimal interval above the minimum gamma_s


@dataclass(frozen=True)
class SweepProfile:
    grid: np.ndarray  # radians
    gamma_s: np.ndarray  # linear SNR per grid point, inf where saturated
    gamma_floor: float  # linear
    d_pmin: "np.ndarray | None" = None

    @property
    def grid_deg(self) -> np.ndarray:
        return np.degrees(self.grid)

    @property
    def saturated(self) -> np.ndarray:
        return ~np.isfinite(self.gamma_s)


@dataclass(frozen=True)
class OptimizeResult:
    theta_opt: float  # radians
    gamma_s_opt: float  # linear
    near_optimal_interval: tuple  # degrees (lo, hi)
    intervals: list  # all near-optimal intervals, degrees
    profile: SweepProfile


def default_grid(B: int, step_deg: float = 0.5) -> np.ndarray:
    hi = precoders.rotation_family(B)[1]
    return np.radians(np.arange(0.0, hi + step_deg / 2, step_deg))


def _precoded(omega_z: Constellation, thetas: np.ndarray) -> tuple:
    """The set and its real base (or None) under the rotation of each angle: (A, M, B) stacks."""
    p = precoders.rotation(omega_z.B, thetas)
    base = omega_z.real_base
    return precoders.precode(p, omega_z.points), None if base is None else precoders.precode(p, base.points)


def _gamma_s(omega_z: Constellation, R: float, precoded: tuple, cfg: EngineConfig) -> np.ndarray:
    """Axis-crossing SNR of each precoded set: one lock-step solve of their axis-1 projections."""
    points, base = precoded
    stack = project_stack(points[..., 0], None if base is None else base[..., 0])
    return inv_mi_scalar_many(stack, omega_z.B * R, cfg)


def gamma_s_at(omega_z: Constellation, R: float, theta,
               cfg: EngineConfig = DEFAULT_CONFIG):
    """Axis-crossing SNR for one angle, or for each of an array of angles; inf when the rate saturates.

    An array is solved in lock-step, like a sweep, and each angle gets the
    value it gets alone.
    """
    thetas = np.asarray(theta, dtype=float)
    g = _gamma_s(omega_z, R, _precoded(omega_z, thetas.reshape(-1)), cfg)
    return g.reshape(thetas.shape) if thetas.ndim else float(g[0])


def sweep(
    omega_z: Constellation,
    R: float,
    grid: "np.ndarray | None" = None,
    cfg: EngineConfig = DEFAULT_CONFIG,
    include_product_distance: bool = False,
) -> SweepProfile:
    """gamma_s over an angle grid, plus the Gaussian floor it cannot beat.

    The whole grid is precoded with one matrix product and projected in
    one pass (`project_stack`); the inverse solves then run in lock-step
    over the grid (`inv_mi_scalar_many`), each angle giving exactly its
    `gamma_s_at` value.  The product distances read the same precoded sets.
    """
    B = omega_z.B
    if grid is None:
        grid = default_grid(B)
    grid = np.asarray(grid, dtype=float)
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")

    precoded = _precoded(omega_z, grid)
    gamma_s = _gamma_s(omega_z, R, precoded, cfg)
    if not np.isfinite(gamma_s).any():
        raise SaturationError(
            f"rate R={R} is infeasible for {omega_z.name}: every angle saturates"
        )
    return SweepProfile(
        grid=grid,
        gamma_s=gamma_s,
        gamma_floor=gaussian_floor(B, R, omega_z.field),
        d_pmin=min_product_distances(precoded[0]) if include_product_distance else None,
    )


def optimize(
    omega_z: Constellation,
    R: float,
    cfg: EngineConfig = DEFAULT_CONFIG,
    coarse_step_deg: float = 0.5,
) -> OptimizeResult:
    """Minimize gamma_s: coarse grid plus golden-section refinement to REFINE_TOL_DEG.

    The reported near-optimal interval is the contiguous grid region
    around the minimum staying within INTERVAL_DB of it; disjoint ties
    are all listed in `intervals`.
    """
    profile = sweep(omega_z, R, default_grid(omega_z.B, coarse_step_deg), cfg)
    i_min = int(np.nanargmin(np.where(profile.saturated, np.nan, profile.gamma_s)))
    lo = profile.grid[max(i_min - 1, 0)]
    hi = profile.grid[min(i_min + 1, len(profile.grid) - 1)]

    seen = {}

    def f(thetas):
        g = gamma_s_at(omega_z, R, thetas, cfg)
        g = np.where(np.isfinite(g), g, 1e300)
        seen.update(zip(thetas.tolist(), g.tolist()))
        return g

    theta_opt = golden_min(f, lo, hi, math.radians(REFINE_TOL_DEG))
    gamma_s_opt = seen[theta_opt]  # golden_min asks f for the point it returns
    if gamma_s_opt > profile.gamma_s[i_min]:
        theta_opt, gamma_s_opt = float(profile.grid[i_min]), float(profile.gamma_s[i_min])

    thresh_db = 10.0 * math.log10(gamma_s_opt) + INTERVAL_DB
    ok = np.where(
        profile.saturated, False, 10.0 * np.log10(np.where(profile.saturated, 1.0, profile.gamma_s)) <= thresh_db
    )
    intervals = []
    start = None
    deg = profile.grid_deg
    for k, flag in enumerate(ok):
        if flag and start is None:
            start = k
        if (not flag or k == len(ok) - 1) and start is not None:
            end = k if flag else k - 1
            intervals.append((float(deg[start]), float(deg[end])))
            start = None
    own = next(
        (iv for iv in intervals if iv[0] - 1e-9 <= math.degrees(theta_opt) <= iv[1] + 1e-9),
        intervals[0] if intervals else (math.degrees(theta_opt), math.degrees(theta_opt)),
    )
    return OptimizeResult(
        theta_opt=float(theta_opt),
        gamma_s_opt=float(gamma_s_opt),
        near_optimal_interval=own,
        intervals=intervals,
        profile=profile,
    )


@dataclass(frozen=True)
class ExpansionRow:
    name: str
    m: float
    Rc: float
    theta_opt_deg: float
    gamma_s_opt: float
    gap_db: float
    ergodic_snr: float
    ergodic_gap_db: float


def expansion_compare(candidates, R: float, cfg: EngineConfig = DEFAULT_CONFIG) -> list:
    """Optimize each (constellation, Rc) candidate at the common rate R.

    Candidates share one B and must satisfy R = Rc * m / B with
    m >= ceil(B*R); the gap columns measure distance to the Gaussian
    floors in dB.
    """
    if not R > 0:
        raise ValueError("R must be positive")
    rows = []
    B = candidates[0][0].B
    for omega_z, Rc in candidates:
        m = omega_z.m
        if omega_z.B != B:
            raise ValueError(f"{omega_z.name}: B={omega_z.B}, the first candidate has B={B}")
        if abs(R - Rc * m / B) > 1e-9:
            raise ValueError(
                f"{omega_z.name}: Rc*m/B = {Rc * m / B:.6g} does not match R = {R:.6g}"
            )
        if m < math.ceil(B * R) - 1e-9:
            raise ValueError(
                f"{omega_z.name}: m={m:.6g} below the minimum ceil(B*R)={math.ceil(B * R)}"
            )
        res = optimize(omega_z, R, cfg)
        floor = gaussian_floor(B, R, omega_z.field)
        se = ergodic_snr(omega_z, R, cfg)
        se_floor = gaussian_floor(1, R, omega_z.field)
        rows.append(
            ExpansionRow(
                name=omega_z.name,
                m=m,
                Rc=Rc,
                theta_opt_deg=math.degrees(res.theta_opt),
                gamma_s_opt=res.gamma_s_opt,
                gap_db=10.0 * math.log10(res.gamma_s_opt / floor),
                ergodic_snr=se,
                ergodic_gap_db=10.0 * math.log10(se / se_floor),
            )
        )
    return rows

