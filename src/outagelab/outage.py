"""Outage probability, fading-space boundaries, anchors, and hypersphere bounds.

The fading point alpha lives in the positive orthant of R^B; the outage
region is where the per-use mutual information falls below the rate R.
Deterministic outage for B=2 integrates the traced boundary radius in
polar coordinates against the unit-Rayleigh density; Monte Carlo counts
threshold crossings of an interpolated MI surface cached on an
SNR-invariant grid of scaled fading gains.  The axis anchor alpha_o and
the ergodic anchor alpha_e give the radii of the outer and inner
hypersphere bounds.
"""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import precoders
from .constellations import Constellation, group_points, project
from .mutual_info import (
    DEFAULT_CONFIG,
    EngineConfig,
    SaturationError,
    gaussian_floor,
    inv_mi_scalar,
    mi_per_use_batch,
)
from .precoders import Precoder
from .search import solve_increasing

Z95 = 1.959963984540054
RAY_CAP_TOL = 1e-9
GAMMA_REF = 0.5  # the SNR at which fading gains equal scaled gains sqrt(2*gamma)*alpha

# The MI interpolation cache (PolarMICache): a log(1+u) cube per B
CACHE_SHAPE = {2: (21.0, 20), 3: (15.0, 10)}  # B -> (u_max, highest build gh_order)
CACHE_AXIS_POINTS = 33  # per axis; refined once to 65
CACHE_TOL_BITS = 1e-3  # validated error, and the band around R evaluated directly
CACHE_VALIDATE_POINTS = 1000
CACHE_SEED = 0
MC_MIN_SAMPLES = 1000  # fewest samples an MC outage estimate takes
MIN_INTEGRATION_ANGLES = 65  # fewest rays a boundary integration takes (an odd count)
# gathered floats per lookup block (2 MB); depending on heap layout, a single
# 100k-point block could hand ~20 MB back to the kernel per call and refault it
_LOOKUP_CAP = 262_144
# Catmull-Rom (Keys, a = -1/2): row k holds the t^k coefficient of the
# weights of the taps at offsets -1, 0, 1, 2
_CATMULL_ROM = np.array([
    [0.0, 1.0, 0.0, 0.0],
    [-0.5, 0.0, 0.5, 0.0],
    [1.0, -2.5, 2.0, -0.5],
    [-0.5, 1.5, -1.5, 0.5],
])


@dataclass(frozen=True)
class OutageQuery:
    """One outage evaluation: constellation, precoder, rate R (bpcu), SNR."""

    omega_z: Constellation
    precoder: Precoder
    R: float
    gamma: float

    def __post_init__(self):
        if self.R <= 0:
            raise ValueError("R must be positive")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.precoder.B != self.omega_z.B:
            raise ValueError("precoder and constellation dimensions differ")

    def omega_x(self) -> Constellation:
        return precoders.apply(self.precoder, self.omega_z)


@dataclass(frozen=True)
class OutageAnchors:
    """Axis and ergodic-line crossings of the outage boundary; inf where
    the crossing does not exist (explained by `note`)."""

    alpha_o: float
    alpha_e: float
    note: str = ""

    @property
    def alpha_o_exists(self) -> bool:
        return math.isfinite(self.alpha_o)

    @property
    def alpha_e_exists(self) -> bool:
        return math.isfinite(self.alpha_e)


@dataclass(frozen=True)
class OutageResult:
    p_out: float
    ci95: tuple
    method: str


@dataclass(frozen=True)
class BoundaryTrace:
    """Boundary radius rho(lambda) on a uniform angle grid over [0, pi/2].

    A ray whose MI stays below R at every radius has rho = +inf: the whole
    ray belongs to the outage region, and `saturated` marks it.
    """

    lambdas: np.ndarray
    rhos: np.ndarray
    R: float

    @property
    def saturated(self) -> np.ndarray:
        return ~np.isfinite(self.rhos)


def sample_rayleigh(rng: np.random.Generator, n: int, B: int) -> np.ndarray:
    """Unit-power Rayleigh gains, E[alpha^2] = 1, shape (n, B)."""
    return np.sqrt(rng.exponential(1.0, size=(n, B)))


def wilson_ci(k: int, n: int) -> tuple:
    """95% Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise ValueError("n must be positive")
    p = k / n
    z = Z95
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return (max(center - half, 0.0), min(center + half, 1.0))


def _ray_radii(omega_x: Constellation, dirs: np.ndarray, R: float, gamma: float,
               cfg: EngineConfig, x_start: float, rel_tol: float) -> np.ndarray:
    """Radius along each ray (rows of `dirs`) where the MI at SNR gamma reaches R.

    All rays are solved in lock-step by `solve_increasing`, one batch of the
    rays still open per kernel call; an unbracketed ray solves to inf.
    """
    def f(r):  # MI along the live rays at radii r (nan in finished rays)
        live = np.flatnonzero(~np.isnan(r))
        vals = np.full(r.shape, np.nan)
        vals[live] = mi_per_use_batch(omega_x, dirs[live] * r[live, None], gamma, cfg)
        return vals

    return solve_increasing(f, np.full(dirs.shape[0], R), x_start=x_start, rel_tol=rel_tol)


def ergodic_snr(omega_x: Constellation, R: float, cfg: EngineConfig = DEFAULT_CONFIG) -> float:
    """Per-block SNR alpha_e^2*gamma at which the equal-gains MI reaches R.

    The ray along (1, ..., 1), solved once at GAMMA_REF to 1e-6 relative;
    it does not depend on the SNR, nor on an orthogonal precoder (which
    keeps all pairwise distances).  Raises SaturationError at the alphabet
    limit.
    """
    cap = omega_x.m / omega_x.B
    if R >= cap - 1e-12:
        raise SaturationError(f"R >= alphabet limit m/B = {cap:.6g}")
    (u,) = _ray_radii(omega_x, np.ones((1, omega_x.B)), R, GAMMA_REF, cfg, x_start=0.05, rel_tol=1e-6)
    if math.isinf(u):
        raise SaturationError(f"no bracket: the equal-gains MI stays below R = {R:.6g}")
    return float(u) ** 2 * GAMMA_REF


def compute_anchors(q: OutageQuery, cfg: EngineConfig = DEFAULT_CONFIG) -> OutageAnchors:
    """Solve for alpha_o on the axis and alpha_e on the ergodic line.

    alpha_o comes from the inverse scalar MI of the axis projection at
    B*R bits; alpha_e from the ergodic SNR, alpha_e = sqrt(s/gamma).
    """
    omega_x = q.omega_x()
    notes = []

    def anchor(solve):  # alpha = sqrt(s/gamma) at the anchor SNR s, inf where saturated
        try:
            return math.sqrt(solve() / q.gamma)
        except SaturationError as exc:
            notes.append(str(exc))
            return math.inf

    alpha_o = anchor(lambda: inv_mi_scalar(project(omega_x, 1), omega_x.B * q.R, cfg))
    alpha_e = anchor(lambda: ergodic_snr(omega_x, q.R, cfg))
    return OutageAnchors(alpha_o, alpha_e, "; ".join(notes))


def _ray_cap_bits(points: np.ndarray, direction: np.ndarray, M: int) -> float:
    """Large-radius MI limit along a ray: entropy of the merged faded points."""
    _, counts = group_points(points * direction, RAY_CAP_TOL)
    p = counts / M
    return float(-np.sum(p * np.log2(p)))


def _ray_angles(n_angles: int) -> np.ndarray:
    """The B=2 boundary's ray angles: `n_angles` (at least one) evenly over [0, pi/2]."""
    if n_angles < 1:
        raise ValueError(f"a boundary trace needs at least one angle, got {n_angles}")
    return np.linspace(0.0, math.pi / 2.0, n_angles)


def trace_boundary_2d(
    q: OutageQuery, n_angles: int = 513, cfg: EngineConfig = DEFAULT_CONFIG
) -> BoundaryTrace:
    """Outage boundary rho(lambda) for B=2 on a uniform grid over [0, pi/2].

    Rays whose MI cap exceeds R are solved in lock-step (doubling from 1,
    bisection to 1e-4 relative); the others, and unbracketed rays, saturate.
    """
    omega_x = q.omega_x()
    if omega_x.B != 2:
        raise ValueError("boundary tracing is defined for B = 2")
    lambdas = _ray_angles(n_angles)
    dirs = np.stack([np.cos(lambdas), np.sin(lambdas)], axis=1)
    caps = np.array([_ray_cap_bits(omega_x.points, d, omega_x.M) for d in dirs]) / omega_x.B
    rhos = np.full(n_angles, math.inf)
    active = np.flatnonzero(caps > q.R + 1e-12)
    if active.size:
        rhos[active] = _ray_radii(omega_x, dirs[active], q.R, q.gamma, cfg, x_start=1.0, rel_tol=1e-4)
    return BoundaryTrace(lambdas, rhos, q.R)


def _radial_mass(rho: np.ndarray) -> np.ndarray:
    """P(|alpha| <= rho) restricted to a ray, unit-Rayleigh gains, B=2:
    1 - (1 + rho^2) exp(-rho^2), computed stably for small rho."""
    r2 = rho**2
    return -np.expm1(-r2) - r2 * np.exp(-r2)


def check_integration_angles(n_angles: int):
    """Raise ValueError unless `n_angles` rays can be integrated (Simpson's rule takes an odd count)."""
    if n_angles < MIN_INTEGRATION_ANGLES or n_angles % 2 == 0:
        raise ValueError(f"boundary integration needs an odd number of at least "
                         f"{MIN_INTEGRATION_ANGLES} angles, got {n_angles}")


def outage_from_boundary_2d(trace: BoundaryTrace) -> OutageResult:
    """Deterministic outage probability from a 2-D boundary trace.

    Polar integration by Simpson's rule: each ray contributes its radial
    Rayleigh mass up to rho(lambda) (all of it for saturated rays), weighted
    by sin(2*lambda).
    """
    check_integration_angles(trace.lambdas.shape[0])
    mass = np.where(trace.saturated, 1.0, _radial_mass(np.where(trace.saturated, 0.0, trace.rhos)))
    g = np.sin(2.0 * trace.lambdas) * mass
    h = trace.lambdas[1] - trace.lambdas[0]
    simpson = (g[0] + g[-1] + 4.0 * g[1:-1:2].sum() + 2.0 * g[2:-1:2].sum()) * h / 3.0
    p = min(max(float(simpson), 0.0), 1.0)
    return OutageResult(p_out=p, ci95=(p, p), method="boundary_integration")


def chi_square_cdf(x: float, B: int) -> float:
    """P(sum of B squared unit-Rayleigh gains < x).

    Equals 1 - exp(-x) * sum_{k<B} x^k/k!; evaluated through the tail
    series for small x to avoid cancellation.  Always <= x^B.
    """
    if B < 1:
        raise ValueError("B must be >= 1")
    if x < 0:
        raise ValueError("x must be >= 0")
    if x == 0.0:
        return 0.0
    if x < 1.0:
        term = x**B / math.factorial(B)
        if term == 0.0:  # x**B underflowed
            return 0.0
        total = term
        k = B + 1
        while True:
            term *= x / k
            total += term
            if term <= 1e-18 * total:
                break
            k += 1
        return math.exp(-x) * total
    head = sum(x**k / math.factorial(k) for k in range(B))
    return 1.0 - math.exp(-x) * head


def hypersphere_bounds(anchors: OutageAnchors, B: int) -> tuple:
    """(p_up, p_low): chi-square mass of the outer/inner hyperspheres.

    Missing alpha_o means the outer sphere is unbounded: p_up = 1.
    Missing alpha_e leaves only the trivial lower bound: p_low = 0.
    """
    p_up = chi_square_cdf(anchors.alpha_o**2, B) if anchors.alpha_o_exists else 1.0
    p_low = chi_square_cdf(B * anchors.alpha_e**2, B) if anchors.alpha_e_exists else 0.0
    return p_up, p_low


@dataclass(frozen=True)
class OutageGeometry:
    """SNR-free outage geometry of one precoded constellation at rate R.

    The MI at fading point alpha and SNR gamma depends only on the scaled
    gains u = sqrt(2*gamma)*alpha.  So the axis-crossing SNR
    alpha_o^2*gamma, the ergodic SNR alpha_e^2*gamma and the B=2 boundary
    u(lambda) are the same at every SNR: `solve` finds them once at
    GAMMA_REF, where alpha = u, `gaussian` writes them in closed form, and
    `anchors`, `bounds` and `trace` rescale them to one SNR.  An SNR of
    inf marks a missing anchor (explained by `note`).
    """

    B: int
    R: float
    axis_snr: float
    ergodic_snr: float
    note: str = ""
    boundary: "BoundaryTrace | None" = None  # traced at GAMMA_REF

    @classmethod
    def solve(cls, omega_z: Constellation, precoder: Precoder, R: float,
              cfg: EngineConfig = DEFAULT_CONFIG, n_angles: "int | None" = None) -> "OutageGeometry":
        """Anchors, plus the B=2 boundary on `n_angles` rays when given."""
        q = OutageQuery(omega_z, precoder, R, GAMMA_REF)
        boundary = trace_boundary_2d(q, n_angles, cfg) if n_angles is not None else None
        an = compute_anchors(q, cfg)  # after the trace, which rejects B != 2 at once
        return cls(omega_z.B, R, an.alpha_o**2 * GAMMA_REF, an.alpha_e**2 * GAMMA_REF,
                   an.note, boundary)

    @classmethod
    def gaussian(cls, B: int, R: float, n_angles: "int | None" = None) -> "OutageGeometry":
        """Closed-form geometry of an i.i.d. Gaussian input.

        The anchors are the Gaussian floors.  On the B=2 ray (c, s) =
        (cos lambda, sin lambda) the MI equals R where (1 + x c^2)(1 + x s^2)
        = 2^(4R) with x = u^2, a quadratic in x whose positive root is
        written here without cancellation.  Raises ValueError for R <= 0,
        and for a boundary (`n_angles`) with B != 2.
        """
        if R <= 0:
            raise ValueError("R must be positive")
        boundary = None
        if n_angles is not None:
            if B != 2:
                raise ValueError("boundary tracing is defined for B = 2")
            lambdas = _ray_angles(n_angles)
            K = 2.0 ** (4.0 * R) - 1.0
            cs2 = (np.cos(lambdas) * np.sin(lambdas)) ** 2
            x = 2.0 * K / (1.0 + np.sqrt(1.0 + 4.0 * cs2 * K))
            boundary = BoundaryTrace(lambdas, np.sqrt(x), R)
        return cls(B, R, gaussian_floor(B, R), gaussian_floor(1, R), boundary=boundary)

    def anchors(self, gamma: float) -> OutageAnchors:
        return OutageAnchors(math.sqrt(self.axis_snr / gamma), math.sqrt(self.ergodic_snr / gamma),
                             self.note)

    def bounds(self, gamma: float) -> tuple:
        """(p_up, p_low) at SNR gamma, as `hypersphere_bounds`."""
        return hypersphere_bounds(self.anchors(gamma), self.B)

    def trace(self, gamma: float) -> BoundaryTrace:
        """The B=2 boundary at SNR gamma: rho(lambda) = u(lambda)/sqrt(2*gamma)."""
        if self.boundary is None:
            raise ValueError("the geometry was solved without a boundary trace")
        return replace(self.boundary, rhos=self.boundary.rhos / math.sqrt(2.0 * gamma))

    def outage(self, gamma: float) -> OutageResult:
        """Boundary-integration outage at SNR gamma."""
        return outage_from_boundary_2d(self.trace(gamma))

    def diversity_slope(self, gammas) -> float:
        """High-SNR log-log slope of p_up over the top decade of `gammas`.

        p_up(gamma) = chi_square_cdf(axis_snr/gamma, B) has slope -B when the
        projection carries B*R bits; else SaturationError (diversity loss).
        """
        if not math.isfinite(self.axis_snr):
            raise SaturationError(
                f"diversity loss: {self.note} (outage decays slower than gamma^-{self.B})")
        gammas = np.asarray(sorted(gammas), dtype=float)
        p_up = np.array([self.bounds(g)[0] for g in gammas])
        top = gammas >= gammas.max() / 10.0
        return float(np.polyfit(np.log10(gammas[top]), np.log10(p_up[top]), 1)[0])


class CacheAccuracyError(RuntimeError):
    """Interpolated MI surface failed its validation tolerance."""


def _catmull_rom_table(values: np.ndarray) -> np.ndarray:
    """Power-basis coefficients of the Catmull-Rom patch of every cell of a cube.

    Returns shape ((n-1)^B, 4^B) for a cube of n points per axis: row c holds
    the coefficients of t_1^k_1 ... t_B^k_B (k_b in 0..3, last axis fastest)
    of cell c in C order.  Edge padding repeats the taps that fall off the
    cube, and each tensordot turns one axis of a cell's 4^B taps into the
    t^0..t^3 coefficients of its weights.
    """
    B = values.ndim
    coef = sliding_window_view(np.pad(values, 1, mode="edge"), (4,) * B)
    for _ in range(B):
        coef = np.tensordot(coef, _CATMULL_ROM, axes=([B], [1]))
    return coef.reshape((values.shape[0] - 1) ** B, 4**B)


class PolarMICache:
    """Per-use MI interpolated on an SNR-free grid of scaled fading gains.

    The MI at fading point alpha and SNR gamma depends only on the scaled
    gains u = sqrt(2*gamma)*alpha, so the surface is tabulated once at
    GAMMA_REF, where alpha = u, and then serves every SNR.  The grid is a
    cube of CACHE_AXIS_POINTS points per axis over v_b = log(1+u_b) up to
    the u_max of CACHE_SHAPE; its axis-aligned resolution tracks the
    narrow near-axis structure of the surface.  Interpolation is separable
    Catmull-Rom (Keys, a = -1/2), tabulated once per cube: `_coef` holds the
    4^B power-basis coefficients of every cell's patch in one row, so a
    lookup gathers one row per point and runs Horner's rule, in blocks of at
    most _LOOKUP_CAP gathered floats.  The table takes 8*(4*(n-1))^B
    bytes: 131 KB for B=2 at 33 points and 524 KB at 65; 16.8 MB for B=3 at
    33 points (a 65-point B=3 cube would take 134 MB).

    Construction validates against direct evaluation at CACHE_VALIDATE_POINTS
    points and refines the grid once (33 -> 65 points per axis) if the
    maximum error exceeds CACHE_TOL_BITS.  The points are drawn uniformly in
    v over the cube up to 0.98*u_max, not uniformly in u: most of the
    u-cube is saturated, so v-sampling puts far more points on the
    transition where outage decisions are made.  The name is historical:
    the B=2 surface was once tabulated on a polar grid.
    """

    def __init__(self, omega_x: Constellation, cfg: EngineConfig = DEFAULT_CONFIG):
        if omega_x.B not in CACHE_SHAPE:
            raise ValueError("the MI cache supports B in {2, 3}")
        self.omega_x = omega_x
        self.B = omega_x.B
        self.u_max, order = CACHE_SHAPE[self.B]
        self.cfg = replace(cfg, gh_order=min(cfg.gh_order, order))
        self._sizes = [CACHE_AXIS_POINTS] * self.B
        self._draws = None  # (seed, n, gains) of the last `rayleigh` call
        self._build()
        err = self._validate(CACHE_SEED)
        if err > CACHE_TOL_BITS:
            self._sizes = [2 * (n - 1) + 1 for n in self._sizes]
            self._build()
            err = self._validate(CACHE_SEED + 1)
            if err > CACHE_TOL_BITS:
                raise CacheAccuracyError(
                    f"interpolation error {err:.2e} bits exceeds {CACHE_TOL_BITS:.1e}"
                )
        self.validation_error_bits = err

    def _build(self):
        self.axis = np.linspace(0.0, math.log1p(self.u_max), self._sizes[0])
        mesh = np.meshgrid(*([self.axis] * self.B), indexing="ij")
        scaled = np.expm1(np.stack([m.ravel() for m in mesh], axis=-1))
        vals = mi_per_use_batch(self.omega_x, scaled, GAMMA_REF, self.cfg)
        self.values = vals.reshape(self._sizes)
        self._coef = _catmull_rom_table(self.values)

    def rayleigh(self, seed: int, n: int) -> np.ndarray:
        """`sample_rayleigh(np.random.default_rng(seed), n, B)`, read-only.

        An outage curve shares one cache between its SNR points, which all
        take the same draws (common random numbers), so the last draws are
        kept here and drawn once per curve; they go when the cache does.
        """
        if self._draws is None or self._draws[:2] != (seed, n):
            gains = sample_rayleigh(np.random.default_rng(seed), n, self.B)
            gains.setflags(write=False)
            self._draws = (seed, n, gains)
        return self._draws[2]

    def mi(self, alphas: np.ndarray, gamma: float, threshold: "float | None" = None) -> np.ndarray:
        """Per-use MI at each fading point (rows of `alphas`) at SNR gamma.

        With no threshold every out-of-grid point is evaluated directly.
        With a threshold, the values only need to decide `mi < threshold`,
        so a point is evaluated directly when the interpolation cannot
        settle that: an in-grid value within CACHE_TOL_BITS of the
        threshold, or an out-of-grid clamped-edge value below it (MI never
        decreases when a gain grows, so the edge value is a lower bound).
        """
        alphas = np.asarray(alphas, dtype=float)
        v = np.log1p(alphas * math.sqrt(2.0 * gamma))
        inside = (v <= self.axis[-1]).all(axis=1)
        out = self._interp(np.minimum(v, self.axis[-1]))
        if threshold is None:
            direct = ~inside
        else:
            direct = np.where(inside, np.abs(out - threshold) <= CACHE_TOL_BITS, out < threshold)
        if direct.any():
            out[direct] = mi_per_use_batch(self.omega_x, alphas[direct], gamma, self.cfg)
        return out

    def _interp(self, v):
        """Separable Catmull-Rom interpolation on the uniform cube; rows of v are points.

        Each point gathers its cell's row of `_coef` and runs Horner's rule,
        last axis first.
        """
        n, B = self.axis.shape[0], self.B
        x = v.T / self.axis[1]
        idx = np.clip(x.astype(int), 0, n - 2)
        t = np.clip(x - idx, 0.0, 1.0)
        cell = np.ravel_multi_index(tuple(idx), (n - 1,) * B)
        out = np.empty(v.shape[0])
        step = max(1, _LOOKUP_CAP // 4**B)
        for lo in range(0, v.shape[0], step):
            hi = min(lo + step, v.shape[0])
            c = np.take(self._coef, cell[lo:hi], axis=0).reshape((hi - lo,) + (4,) * B)
            for d in reversed(range(B)):
                td = t[d, lo:hi].reshape((hi - lo,) + (1,) * d)
                c = ((c[..., 3] * td + c[..., 2]) * td + c[..., 1]) * td + c[..., 0]
            out[lo:hi] = c
        return out

    def _validation_gains(self, seed):
        """CACHE_VALIDATE_POINTS scaled-gain rows drawn uniformly in v = log(1+u)."""
        rng = np.random.default_rng(seed)
        v = rng.uniform(0.0, math.log1p(0.98 * self.u_max), (CACHE_VALIDATE_POINTS, self.B))
        return np.expm1(v)

    def _validate(self, seed):
        """Maximum interpolation error at the validation points of `seed`."""
        scaled = self._validation_gains(seed)
        direct = mi_per_use_batch(self.omega_x, scaled, GAMMA_REF, self.cfg)
        return float(np.max(np.abs(direct - self.mi(scaled, GAMMA_REF))))


def outage_mc(
    q: OutageQuery,
    n: int,
    seed: int = 0,
    cfg: EngineConfig = DEFAULT_CONFIG,
    cache: "PolarMICache | None" = None,
) -> OutageResult:
    """Monte Carlo outage probability with a Wilson 95% interval.

    Draws n i.i.d. unit-Rayleigh fading vectors and counts per-use MI
    below R.  For B in CACHE_SHAPE the MI comes from the scaled-gain cache
    (built here unless `cache` is given), which evaluates directly every
    sample it cannot place on the right side of R, and keeps the draws for
    the next call with the same seed and n; dimensions without a cache
    shape evaluate every sample directly (slow for large n).
    """
    if n < MC_MIN_SAMPLES:
        raise ValueError(f"outage_mc needs n >= {MC_MIN_SAMPLES}, got {n}")
    omega_x = q.omega_x()
    B = omega_x.B
    if q.R >= omega_x.m / B - 1e-12:
        warnings.warn("R is at or above the alphabet limit m/B; outage is certain")
        return OutageResult(1.0, (1.0, 1.0), "mc")
    if B in CACHE_SHAPE:
        if cache is None:
            cache = PolarMICache(omega_x, cfg)
        mi = cache.mi(cache.rayleigh(seed, n), q.gamma, threshold=q.R)
    else:
        alphas = sample_rayleigh(np.random.default_rng(seed), n, B)
        mi = mi_per_use_batch(omega_x, alphas, q.gamma, cfg)
    k = int(np.count_nonzero(mi < q.R))
    return OutageResult(p_out=k / n, ci95=wilson_ci(k, n), method="mc")
