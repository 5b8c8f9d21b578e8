"""Outage probability, fading-space boundaries, anchors, and hypersphere bounds.

The fading point alpha lives in the positive orthant of R^B; the outage
region is where the per-use mutual information falls below the rate R.
Deterministic outage for B=2 integrates the traced boundary radius in
polar coordinates against the unit-Rayleigh density.  Monte Carlo counts
threshold crossings of an interpolated MI surface cached on an
SNR-invariant grid of scaled fading gains, a whole SNR curve in one pass:
a sample's MI does not decrease in gamma, so along the sorted SNR grid its
outage decisions form a prefix, and each sample bisects the grid for the
end of that prefix, starting from the bracket that its direction's radii
on the cache grid give.  The axis anchor alpha_o and the ergodic anchor
alpha_e give the radii of the outer and inner hypersphere bounds.
"""

import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import precoders
from .constellations import Constellation, _gap_labels, _runs, project
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
# gathered floats per block of `PolarMICache.mi`'s walk (2 MB); depending on
# heap layout, a single 100k-point block could hand ~20 MB back to the kernel
# per call and refault it.  A lookup that its cell's corners settle gathers
# nothing, but its block keeps the same rows, so no temporary outgrows a block.
_LOOKUP_CAP = 262_144
# slack on the corner values of the lookup screen: the exact MI never
# decreases in a gain, but quadrature rounding leaves grid first differences
# as low as -2.2e-16 bits, and the direct MI moves by as much
_SCREEN_MARGIN = 1e-9
# direction bins per axis of `PolarMICache.bracket`'s radius table, by B:
# a power of two, so that a ratio times the bin count rounds exactly
_BRACKET_BINS = {2: 128, 3: 16}
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
        if not self.R > 0:  # nan too
            raise ValueError("R must be positive")
        if not self.gamma > 0:  # nan too
            raise ValueError("gamma must be positive")
        if self.precoder.B != self.omega_z.B:
            raise ValueError("precoder and constellation dimensions differ")

    def omega_x(self) -> Constellation:
        """The precoded constellation, built on the first call and kept, so
        the anchors and the trace of one query share it (and its orbits)."""
        if "_omega_x" not in self.__dict__:
            object.__setattr__(self, "_omega_x", precoders.apply(self.precoder, self.omega_z))
        return self.__dict__["_omega_x"]


@dataclass(frozen=True)
class OutageAnchors:
    """Axis and ergodic-line crossings of the outage boundary; inf where
    the crossing does not exist (explained by `note`).  Anchors at an SNR
    array hold arrays."""

    alpha_o: float
    alpha_e: float
    note: str = ""

    @property
    def alpha_o_exists(self):
        return np.isfinite(self.alpha_o)

    @property
    def alpha_e_exists(self):
        return np.isfinite(self.alpha_e)


@dataclass(frozen=True)
class OutageResult:
    p_out: float
    ci95: tuple
    method: str


@dataclass(frozen=True)
class BoundaryTrace:
    """Boundary radius rho(lambda) on a uniform angle grid over [0, pi/2].

    A ray whose MI stays below R at every radius has rho = +inf: the whole
    ray belongs to the outage region, and `saturated` marks it.  Rescaled
    to an SNR array (`OutageGeometry.trace`), rhos holds a row per SNR.
    """

    lambdas: np.ndarray
    rhos: np.ndarray
    R: float

    @property
    def saturated(self) -> np.ndarray:
        return ~np.isfinite(self.rhos)


def sample_rayleigh(rng: "np.random.Generator", n: int, B: int) -> np.ndarray:
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


def at_alphabet_limit(omega: Constellation, R: float) -> bool:
    """Whether R is at the alphabet limit m/B or above (within 1e-12): outage is certain."""
    return R >= omega.m / omega.B - 1e-12


def ergodic_snr(omega_x: Constellation, R: float, cfg: EngineConfig = DEFAULT_CONFIG) -> float:
    """Per-block SNR alpha_e^2*gamma at which the equal-gains MI reaches R.

    The ray along (1, ..., 1), solved once at GAMMA_REF to 1e-6 relative;
    it does not depend on the SNR, nor on an orthogonal precoder (which
    keeps all pairwise distances).  Raises SaturationError at the alphabet
    limit.
    """
    if at_alphabet_limit(omega_x, R):
        raise SaturationError(f"R >= alphabet limit m/B = {omega_x.m / omega_x.B:.6g}")
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


def _ray_caps_bits(points: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Large-radius MI limit along each ray (rows of `dirs`): the entropy of
    the ray's faded points, merged as `group_points` merges them at
    RAY_CAP_TOL, for all rays in one pass.

    The faded coordinates of every ray are gap-labelled as columns of one
    array; each ray then sorts its points by their labels and counts the
    runs of equal labels (`constellations._runs`).
    """
    faded = points * dirs[:, None, :]  # (n, M, B)
    if np.iscomplexobj(faded):
        faded = np.concatenate([faded.real, faded.imag], axis=2)
    n, M, C = faded.shape
    labels = _gap_labels(faded.transpose(1, 0, 2).reshape(M, n * C), RAY_CAP_TOL)
    _, starts = _runs(labels.T.reshape(n, C, M).transpose(1, 0, 2))
    p = np.diff(np.append(starts, n * M)) / M
    return np.bincount(starts // M, weights=-p * np.log2(p), minlength=n)


def _ray_angles(n_angles: int) -> np.ndarray:
    """The B=2 boundary's ray angles: `n_angles` (at least one) evenly over [0, pi/2]."""
    if n_angles < 1:
        raise ValueError(f"a boundary trace needs at least one angle, got {n_angles}")
    return np.linspace(0.0, math.pi / 2.0, n_angles)


def trace_boundary_2d(
    q: OutageQuery, n_angles: int = 513, cfg: EngineConfig = DEFAULT_CONFIG
) -> BoundaryTrace:
    """Outage boundary rho(lambda) for B=2 on a uniform grid over [0, pi/2].

    Each ray's MI cap, the entropy of its merged faded points, comes from
    one grouping pass over all rays (`_ray_caps_bits`).  Rays whose cap
    exceeds R are solved in lock-step (doubling from 1, bisection to 1e-4
    relative); the others, and unbracketed rays, saturate.
    """
    omega_x = q.omega_x()
    if omega_x.B != 2:
        raise ValueError("boundary tracing is defined for B = 2")
    lambdas = _ray_angles(n_angles)
    dirs = np.stack([np.cos(lambdas), np.sin(lambdas)], axis=1)
    caps = _ray_caps_bits(omega_x.points, dirs) / omega_x.B
    rhos = np.full(n_angles, math.inf)
    active = np.flatnonzero(caps > q.R + 1e-12)
    if active.size:
        rhos[active] = _ray_radii(omega_x, dirs[active], q.R, q.gamma, cfg, x_start=1.0, rel_tol=1e-4)
    return BoundaryTrace(lambdas, rhos, q.R)


def check_integration_angles(n_angles: int):
    """Raise ValueError unless `n_angles` rays can be integrated (Simpson's rule takes an odd count)."""
    if n_angles < MIN_INTEGRATION_ANGLES or n_angles % 2 == 0:
        raise ValueError(f"boundary integration needs an odd number of at least "
                         f"{MIN_INTEGRATION_ANGLES} angles, got {n_angles}")


def _simpson_ray_weights(lambdas: np.ndarray) -> np.ndarray:
    """Each B=2 ray's weight in the outage integral: its Simpson coefficient
    times sin(2*lambda), the angular density of two unit-Rayleigh gains,
    scaled to sum to 1 so that a saturated trace integrates to exactly 1
    (unscaled, 65 rays sum to 1 + 3.2e-8 and 513 rays to 1 + 7.9e-12)."""
    check_integration_angles(lambdas.shape[0])
    coef = np.resize([2.0, 4.0], lambdas.shape[0])
    coef[[0, -1]] = 1.0
    w = coef * ((lambdas[1] - lambdas[0]) / 3.0) * np.sin(2.0 * lambdas)
    return w / w.sum()


def _ray_outage(weights: np.ndarray, rhos: np.ndarray, B: int) -> np.ndarray:
    """Outage probability sum_k w_k P(B, rho_k^2) over weighted boundary rays,
    per row of `rhos` (..., n); a saturated ray (rho = inf) adds its weight."""
    return np.clip((chi_square_cdf(rhos**2, B) * weights).sum(axis=-1), 0.0, 1.0)


def outage_from_boundary_2d(trace: BoundaryTrace):
    """Deterministic outage probability from a 2-D boundary trace.

    Polar integration by Simpson's rule: each ray contributes the
    unit-Rayleigh mass P(2, rho^2) inside its boundary radius (all of it
    for a saturated ray), weighted by sin(2*lambda).  A trace rescaled to
    an SNR array (rhos (K, n)) gives a list of K results.
    """
    p = _ray_outage(_simpson_ray_weights(trace.lambdas), trace.rhos, 2)
    results = [OutageResult(pk, (pk, pk), "boundary_integration") for pk in np.atleast_1d(p).tolist()]
    return results if p.ndim else results[0]


# `chi_square_cdf`: the terms of its x < 1 tail series (the j-th is at most
# 1/(j+1)! of the first, so the rest sum to below 1e-19 of it), and an x
# beyond which exp(-x) is 0 in double precision and the CDF is 1
_TAIL_TERMS, _CDF_ONE = 20, 800.0


def chi_square_cdf(x, B: int):
    """P(sum of B squared unit-Rayleigh gains < x), elementwise.

    Equals 1 - exp(-x) * sum_{k<B} x^k/k!.  Below x = 1 it is evaluated
    through the tail series exp(-x) * sum_{k>=B} x^k/k!, which does not
    cancel, to a fixed _TAIL_TERMS terms.  x = inf gives 1.  A float x
    gives a float, an array an array of its shape.  Always <= x^B.
    """
    if B < 1:
        raise ValueError("B must be >= 1")
    x = np.asarray(x, dtype=float)
    if (x < 0).any():
        raise ValueError("x must be >= 0")
    s = np.minimum(x, 1.0)
    # s^k/k! for k >= 1 as running products, summed from k = B along the last
    # axis: each x's terms in one order, whatever the shape of x
    powers = np.cumprod(s[..., None] / np.arange(1, B + _TAIL_TERMS), axis=-1)
    tail = np.exp(-s) * powers[..., B - 1:].sum(axis=-1)
    big = np.clip(x, 1.0, _CDF_ONE)
    head = np.polynomial.polynomial.polyval(big, [1.0 / math.factorial(k) for k in range(B)])
    out = np.where(x < 1.0, tail, 1.0 - np.exp(-big) * head)
    return float(out) if out.ndim == 0 else out


def hypersphere_bounds(anchors: OutageAnchors, B: int) -> tuple:
    """(p_up, p_low): chi-square mass of the outer/inner hyperspheres,
    floats, or arrays for anchors at an SNR array.

    A missing alpha_o (inf) makes the outer sphere unbounded: p_up = 1.
    A missing alpha_e leaves only the trivial lower bound: p_low = 0.
    """
    p_up = chi_square_cdf(anchors.alpha_o**2, B)
    p_low = chi_square_cdf(B * anchors.alpha_e**2, B) * np.isfinite(anchors.alpha_e)
    return p_up, p_low


@dataclass(frozen=True)
class OutageGeometry:
    """SNR-free outage geometry of one precoded constellation at rate R.

    The MI at fading point alpha and SNR gamma depends only on the scaled
    gains u = sqrt(2*gamma)*alpha.  So the axis-crossing SNR
    alpha_o^2*gamma, the ergodic SNR alpha_e^2*gamma and the B=2 boundary
    u(lambda) are the same at every SNR: `solve` finds them once at
    GAMMA_REF, where alpha = u, `gaussian` writes them in closed form, and
    `anchors`, `bounds`, `trace` and `outage` rescale them to one SNR or to
    an SNR array.  An SNR of inf marks a missing anchor (explained by `note`).
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
        written here without cancellation.  Raises ValueError unless R > 0,
        and for a boundary (`n_angles`) with B != 2.
        """
        if not R > 0:
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

    def anchors(self, gamma) -> OutageAnchors:
        """The anchors at SNR gamma, alpha = sqrt(snr/gamma); arrays for an SNR array."""
        gamma = np.asarray(gamma, dtype=float)
        return OutageAnchors(np.sqrt(self.axis_snr / gamma), np.sqrt(self.ergodic_snr / gamma),
                             self.note)

    def bounds(self, gamma) -> tuple:
        """(p_up, p_low) at SNR gamma, as `hypersphere_bounds`; arrays for an SNR array."""
        return hypersphere_bounds(self.anchors(gamma), self.B)

    def trace(self, gamma) -> BoundaryTrace:
        """The B=2 boundary at SNR gamma, rho = u/sqrt(2*gamma); a row per SNR of an array."""
        if self.boundary is None:
            raise ValueError("the geometry was solved without a boundary trace")
        scale = np.sqrt(2.0 * np.asarray(gamma, dtype=float))[..., None]
        return replace(self.boundary, rhos=self.boundary.rhos / scale)

    def outage(self, gamma):
        """Boundary-integration outage at SNR gamma: one OutageResult, or a
        list of them for an SNR array, all from one `chi_square_cdf` call."""
        return outage_from_boundary_2d(self.trace(gamma))

    def diversity_slope(self, gammas) -> float:
        """High-SNR log-log slope of p_up over the top decade of `gammas`.

        p_up(gamma) = chi_square_cdf(axis_snr/gamma, B) has slope -B when the
        projection carries B*R bits; else SaturationError (diversity loss).
        """
        if not math.isfinite(self.axis_snr):
            raise SaturationError(
                f"diversity loss: {self.note} (outage decays slower than gamma^-{self.B})")
        gammas = np.sort(np.asarray(gammas, dtype=float))
        p_up = self.bounds(gammas)[0]
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
    point is located once (`_locate`: its cell and its grid coordinates)
    and its patch (`_patch`) gathers that row and runs Horner's rule.  The
    table takes 8*(4*(n-1))^B bytes: 131 KB for B=2 at 33 points and 524 KB
    at 65; 16.8 MB for B=3 at 33 points (a 65-point B=3 cube would take
    134 MB).

    The exact MI never decreases in any gain: its derivative in alpha_b is
    alpha_b times a component MMSE (Palomar & Verdu, IEEE Trans. IT 52(1),
    2006).  So the grid values at a cell's lowest and highest corner bound
    the MI anywhere in the cell, and the lowest corner still bounds it from
    below beyond the cube, where the cell is the clamped edge cell.  A
    lookup against a threshold (`mi`) first reads its cell's two corners
    from `values` (`_screen`) and skips the patch when they alone put the
    point on one side of the threshold.  Those decisions are the direct
    MI's own, and the corners do not depend on the rate, so one cache still
    serves every R.  A lookup beyond the cube that its corners leave open
    is evaluated directly: the patch there is only clamped to the cube's
    faces.

    The same screen, run along rays, brackets a whole SNR curve before any
    lookup (`bracket`): for a rate R, each bin of fading directions gets a
    scaled radius below which the screen puts the bin's highest direction
    in outage and one above which it puts the bin's lowest direction out
    of it.  A sample then needs lookups only at the SNRs between the two:
    a seed-0 r2_4 curve at 27 degrees (100k samples, 0-20 dB) makes 64,235
    lookups instead of 366,926, and those reach the patch and the direct
    MI exactly as before.

    Construction validates against direct evaluation at CACHE_VALIDATE_POINTS
    points and refines the grid once (33 -> 65 points per axis) if the
    maximum error exceeds CACHE_TOL_BITS.  The points are drawn uniformly in
    v over the cube up to 0.98*u_max, not uniformly in u: most of the
    u-cube is saturated, so v-sampling puts far more points on the
    transition where outage decisions are made.  The name is historical:
    the B=2 surface was once tabulated on a polar grid.

    The cache holds no draws: `outage_mc` draws the gains of a curve once
    and sends each sample to `mi` at its own SNR.
    """

    def __init__(self, omega_x: Constellation, cfg: EngineConfig = DEFAULT_CONFIG):
        if omega_x.B not in CACHE_SHAPE:
            raise ValueError("the MI cache supports B in {2, 3}")
        self.omega_x = omega_x
        self.B = omega_x.B
        self.u_max, order = CACHE_SHAPE[self.B]
        self.cfg = replace(cfg, gh_order=min(cfg.gh_order, order))
        for points, seed in ((CACHE_AXIS_POINTS, CACHE_SEED), (2 * CACHE_AXIS_POINTS - 1, CACHE_SEED + 1)):
            self._sizes = [points] * self.B
            self.axis = np.linspace(0.0, math.log1p(self.u_max), points)
            mesh = np.meshgrid(*([self.axis] * self.B), indexing="ij")
            scaled = np.expm1(np.stack([m.ravel() for m in mesh], axis=-1))
            self.values = mi_per_use_batch(omega_x, scaled, GAMMA_REF, self.cfg).reshape(self._sizes)
            self._coef = _catmull_rom_table(self.values)
            self.validation_error_bits = self._validate(seed)
            if self.validation_error_bits <= CACHE_TOL_BITS:
                return
        raise CacheAccuracyError(
            f"interpolation error {self.validation_error_bits:.2e} bits exceeds {CACHE_TOL_BITS:.1e}")

    def mi(self, alphas: np.ndarray, gamma, threshold: float) -> np.ndarray:
        """Per-use MI at each fading point (rows of `alphas`) at SNR gamma,
        one SNR for all rows or one per row, close enough to the MI to
        decide `mi < threshold`.

        The points are located in blocks of at most _LOOKUP_CAP gathered
        floats.  A point is settled from its cell's corners first
        (`_screen`): not in outage when the lowest corner value is above
        the threshold, and in outage when the point lies in the cube and
        the highest corner value is below it (each with _SCREEN_MARGIN to
        spare).  It takes that corner value, which bounds its MI, and is
        never evaluated directly.

        An open point in the cube takes its patch value and is evaluated
        directly when that lies within CACHE_TOL_BITS of the threshold; an
        open point beyond the cube is evaluated directly.  The direct rows
        go through one `mi_per_use_batch` call, each at its own SNR.
        """
        alphas = np.asarray(alphas, dtype=float)
        gamma = np.asarray(gamma, dtype=float)
        root = np.broadcast_to(np.sqrt(2.0 * gamma), alphas.shape[:1])
        out = np.empty(alphas.shape[0])
        direct = np.zeros(alphas.shape[0], dtype=bool)
        step = max(1, _LOOKUP_CAP // 4**self.B)
        for lo in range(0, alphas.shape[0], step):
            rows = slice(lo, lo + step)
            v = np.multiply(alphas[rows].T, root[rows], order="C")  # (B, rows): v_b = log(1+u_b)
            np.log1p(v, out=v)
            idx, x, inside, above, below, val = self._screen(v, threshold)
            rest = np.flatnonzero(inside & ~(above | below))
            val[rest] = self._patch(idx[:, rest], x[:, rest])
            out[rows] = val
            direct[rows] = ~(above | inside)
            direct[lo + rest] = np.abs(val[rest] - threshold) <= CACHE_TOL_BITS
        if direct.any():
            rows_gamma = np.broadcast_to(gamma, out.shape)[direct]
            out[direct] = mi_per_use_batch(self.omega_x, alphas[direct], rows_gamma, self.cfg)
        return out

    def bracket(self, alphas: np.ndarray, gammas: np.ndarray, threshold: float) -> tuple:
        """The range [lo, hi) of the ascending SNR grid `gammas` that each
        fading point (rows of `alphas`) leaves open against `threshold`:
        its MI lies below the threshold at every grid SNR before lo and
        not below it from hi on.

        A point is binned by direction on the faces of the unit cube: with
        rho = max_b alpha_b, each ratio alpha_b/rho falls in one of nb =
        _BRACKET_BINS[B] equal bins or is 1, and the bin code floor(nb *
        alpha_b/rho) has a coordinate nb.  `_radii` gives each bin two
        scaled radii.  At an SNR the point's scaled gains are s*d, with s =
        sqrt(2*gamma)*rho and d its direction, so lo counts the grid points
        where s <= t_lo and hi those where s < t_hi.  The MI never decreases
        in a gain, so those decisions are the direct MI's own.  An all-zero
        row takes the code 0, which no direction has, and stays open.
        """
        nb = _BRACKET_BINS[self.B]
        t_lo, t_hi = self._radii(threshold)
        # column by column: a reduction along the rows' short axis is 50 times slower
        rho = np.maximum(functools.reduce(np.maximum, alphas.T), np.finfo(float).tiny)
        codes = alphas / rho[:, None]
        codes *= nb
        np.floor(codes, out=codes)
        box = (codes @ (nb + 1.0) ** np.arange(self.B - 1, -1, -1)).astype(np.intp)
        roots = np.sqrt(2.0 * gammas)
        with np.errstate(over="ignore"):  # a tiny rho: every s lies below both radii
            lo = np.searchsorted(roots, t_lo[box] / rho, side="right")
            hi = np.searchsorted(roots, t_hi[box] / rho, side="left")
        return lo, hi

    def _radii(self, threshold):
        """Two scaled radii per direction bin of `bracket`, flat over the
        (nb + 1)^B bin codes: t_hi (inf where none) at which the lowest
        corner of the cell of t_hi*d_lo lies above the threshold, and t_lo
        (-inf where none) at which t_lo*d_hi lies in the cube and its
        cell's highest corner lies below it, as `_screen` decides them.
        d_lo and d_hi are the componentwise lowest and highest direction of
        the bin.

        Along a ray t*d the cell changes only where a coordinate crosses a
        grid line, so the candidate radii are those crossings, just past
        each one for t_hi and just short of it for t_lo.  The screen's
        answer flips once along the sorted candidates, so a lock-step
        binary search over every bin finds the least candidate the screen
        settles for t_hi and the greatest for t_lo.  Each is then screened
        again at the returned radius, so that none rests on the search.
        """
        nb, B = _BRACKET_BINS[self.B], self.B
        codes = np.indices((nb + 1,) * B).reshape(B, -1).T
        boxes = np.flatnonzero(codes.max(axis=1) == nb)  # the codes a direction can have
        m = boxes.size
        d = np.concatenate([codes[boxes], np.minimum(codes[boxes] + 1, nb)]) / nb  # d_lo, d_hi rows
        rows = np.arange(2 * m)
        up = rows < m  # the rows searching for t_hi
        # a zero coordinate crosses no grid line: it repeats the face's crossings
        crossings = np.expm1(self.axis[1:])[:, None] / np.where(d > 0, d, 1.0)[:, None]
        cand = np.sort(crossings.reshape(2 * m, -1), axis=1)
        cand *= np.where(up, 1.0 + 1e-12, 1.0 - 1e-12)[:, None]

        def settled(j):  # the screen at each row's candidate j: above for t_hi, below for t_lo
            _, _, _, above, below, _ = self._screen(np.log1p(cand[rows, j] * d.T), threshold)
            return np.where(up, above, below)

        # run: the leading candidates of each row that t_hi's screen leaves
        # open, or that t_lo's screen settles
        run = np.zeros(2 * m, dtype=np.intp)
        size = cand.shape[1]
        for step in 1 << np.arange(size.bit_length())[::-1]:
            grow = (run + step <= size) & (settled(np.minimum(run + step, size) - 1) != up)
            run[grow] += step
        j = np.where(up, run, run - 1)
        found = (j >= 0) & (j < size)
        j = np.clip(j, 0, size - 1)
        t = np.where(found & settled(j), cand[rows, j], np.where(up, np.inf, -np.inf))
        t_lo = np.full(codes.shape[0], -np.inf)
        t_hi = np.full(codes.shape[0], np.inf)
        t_hi[boxes], t_lo[boxes] = t[:m], t[m:]
        return t_lo, t_hi

    def _screen(self, v, threshold):
        """Locate points v (B, rows), v_b = log(1+u_b), and screen each by
        its cell's corner values in `values`: `above` when the lowest
        corner lies above the threshold, `below` when the point lies in
        the cube and the highest corner lies below it, each with
        _SCREEN_MARGIN to spare.  The highest corner's flat index is the
        lowest one's plus sum_d n^d.  Returns the cell idx and coordinates
        x (`_locate`), inside, above, below, and the corner value a
        settled point takes: its lowest when above, else its highest."""
        inside = (v <= self.axis[-1]).all(axis=0)
        idx, x = self._locate(v)
        corners = self.values.ravel()
        corner = np.ravel_multi_index(tuple(idx), self.values.shape)
        low = corners[corner]
        high = corners[corner + sum(self.axis.shape[0]**d for d in range(self.B))]
        above = low > threshold + _SCREEN_MARGIN
        below = inside & (high < threshold - _SCREEN_MARGIN)
        return idx, x, inside, above, below, np.where(above, low, high)

    def _locate(self, v):
        """Each point's cell idx (B, rows) and its coordinates x (B, rows) in
        grid steps, for points v (B, rows), v_b = log(1+u_b), clamped to the
        cube's upper faces."""
        x = np.minimum(v, self.axis[-1])
        x /= self.axis[1]
        idx = x.astype(int)
        return np.clip(idx, 0, self.axis.shape[0] - 2, out=idx), x

    def _patch(self, idx, x):
        """Each point's Catmull-Rom value: its cell's row of `_coef` at its
        coordinates t = x - idx in the cell, by Horner's rule, last axis
        first.  Only the points that need it pay for t, a block-sized
        temporary otherwise."""
        rows = idx.shape[1]
        t = np.clip(x - idx, 0.0, 1.0)
        cell = np.ravel_multi_index(tuple(idx), (self.axis.shape[0] - 1,) * self.B)
        c = np.take(self._coef, cell, axis=0).reshape((rows,) + (4,) * self.B)
        for d in reversed(range(self.B)):
            td = t[d].reshape((rows,) + (1,) * d)
            c = ((c[..., 3] * td + c[..., 2]) * td + c[..., 1]) * td + c[..., 0]
        return c

    def _interp(self, v):
        """Separable Catmull-Rom interpolation on the uniform cube; rows of v
        are points v_b = log(1+u_b), clamped to the cube's upper faces."""
        return self._patch(*self._locate(v.T))

    def _validation_gains(self, seed):
        """CACHE_VALIDATE_POINTS scaled-gain rows drawn uniformly in v = log(1+u)."""
        rng = np.random.default_rng(seed)
        v = rng.uniform(0.0, math.log1p(0.98 * self.u_max), (CACHE_VALIDATE_POINTS, self.B))
        return np.expm1(v)

    def _validate(self, seed):
        """Maximum interpolation error at the validation points of `seed`."""
        scaled = self._validation_gains(seed)
        direct = mi_per_use_batch(self.omega_x, scaled, GAMMA_REF, self.cfg)
        return float(np.max(np.abs(direct - self._interp(np.log1p(scaled)))))


def outage_mc(
    omega_x: Constellation,
    n: int,
    R: float,
    gammas,
    seed: int = 0,
    cfg: EngineConfig = DEFAULT_CONFIG,
    cache: "PolarMICache | None" = None,
) -> list:
    """Monte Carlo outage curve of the precoded set `omega_x` at rate R: one
    OutageResult, with a Wilson 95% interval, per SNR of `gammas`, in the
    caller's order.

    Draws n i.i.d. unit-Rayleigh fading vectors once for the whole curve
    (common random numbers) and counts, at each SNR, the samples whose
    per-use MI falls below R.  The count takes one pass: the MI of a sample
    does not decrease in gamma, so on the sorted SNR grid its outage
    decisions form a prefix, and each sample bisects the grid for the end
    of that prefix.  It keeps the bracket [lo, hi) of grid points it has
    not decided yet and, in each round, evaluates its MI at the bracket's
    midpoint SNR.  That takes at most ceil(log2(K+1)) evaluations per
    sample for K SNRs instead of K, no round's arrays are longer than n,
    and the count at the i-th sorted SNR is #{lo > i}.  With a cache, each
    sample's bracket starts from its direction's radii
    (`PolarMICache.bracket`) instead of [0, K): the decisions outside it
    are the direct MI's own, and most samples need one lookup or none.
    Every decision is the one a separate test at that SNR would make, as
    long as the evaluated MI does not decrease in gamma: the direct rows
    are exact, and the cache must stay within CACHE_TOL_BITS of the MI, the
    premise its band around R already rests on.

    For B in CACHE_SHAPE the MI comes from the scaled-gain cache (built
    here unless `cache` is given; a cache of another set raises
    ValueError), which evaluates directly every sample it cannot place on
    the right side of R; dimensions without a cache shape evaluate every
    sample directly (slow for large n).
    """
    if n < MC_MIN_SAMPLES:
        raise ValueError(f"outage_mc needs n >= {MC_MIN_SAMPLES}, got {n}")
    if not R > 0:
        raise ValueError("R must be positive")
    gammas = np.asarray(gammas, dtype=float).reshape(-1)
    if not np.all(gammas > 0):
        raise ValueError("gamma must be positive")
    B = omega_x.B
    if cache is not None and (cache.B != B or not np.array_equal(cache.omega_x.points, omega_x.points)):
        raise ValueError("the cache was built for a different constellation")
    if at_alphabet_limit(omega_x, R):
        warnings.warn("R is at or above the alphabet limit m/B; outage is certain")
        return [OutageResult(1.0, (1.0, 1.0), "mc") for _ in gammas]
    if B in CACHE_SHAPE and cache is None:
        cache = PolarMICache(omega_x, cfg)
    alphas = sample_rayleigh(np.random.default_rng(seed), n, B)
    order = np.argsort(gammas, kind="stable")
    grid = gammas[order]
    # an open sample is in outage below grid point lo and not from hi on; a
    # settled one (lo == hi) adds its prefix length to `ends` and leaves
    if cache is not None:
        lo, hi = cache.bracket(alphas, grid, R)
    else:
        lo = np.zeros(n, dtype=np.intp)
        hi = np.full(n, grid.size, dtype=np.intp)
    ends = np.zeros(grid.size + 1, dtype=np.intp)
    while True:
        done = lo == hi
        if done.any():
            ends += np.bincount(lo[done], minlength=grid.size + 1)
            # by index, not by mask: a mask of scattered rows costs several times more
            keep = np.flatnonzero(~done)
            alphas, lo, hi = alphas.take(keep, axis=0), lo.take(keep), hi.take(keep)
        if not lo.size:
            break
        mid = (lo + hi) // 2
        if cache is not None:
            mi = cache.mi(alphas, grid[mid], threshold=R)
        else:
            mi = mi_per_use_batch(omega_x, alphas, grid[mid], cfg)
        below = mi < R
        lo = np.where(below, mid + 1, lo)
        hi = np.where(below, hi, mid)
    k_sorted = n - np.cumsum(ends)[:grid.size]  # samples in outage at each sorted SNR
    k = np.empty(grid.size, dtype=np.intp)
    k[order] = k_sorted
    return [OutageResult(p_out=int(kj) / n, ci95=wilson_ci(int(kj), n), method="mc") for kj in k]
