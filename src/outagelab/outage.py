"""Outage probability, fading-space boundaries, anchors, and hypersphere bounds.

The fading point alpha lives in the positive orthant of R^B; the outage
region is where the per-use mutual information falls below the rate R.
Deterministic outage for B=2 integrates the traced boundary radius in
polar coordinates against the unit-Rayleigh density.  Monte Carlo counts
the samples whose MI falls below R, a whole SNR curve in one pass: a
sample's MI does not decrease in gamma, so along the sorted SNR grid its
outage decisions form a prefix, and each sample bisects the grid for the
end of that prefix.  For B = 2 and 3 the bisection starts from the bracket
that exact ray roots on a lattice of fading directions give, and every
decision is the direct MI's.  The axis anchor alpha_o and the ergodic
anchor alpha_e give the radii of the outer and inner hypersphere bounds.
"""

import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

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
from .search import _solve, solve_increasing

Z95 = 1.959963984540054
RAY_CAP_TOL = 1e-9
GAMMA_REF = 0.5  # the SNR at which fading gains equal scaled gains sqrt(2*gamma)*alpha

# highest gh_order of the Monte Carlo decisions, by B (`mc_config`)
CACHE_SHAPE = {2: 20, 3: 10}
MC_MIN_SAMPLES = 1000  # fewest samples an MC outage estimate takes
MIN_INTEGRATION_ANGLES = 65  # fewest rays a boundary integration takes (an odd count)
# slack on a decided MI value: the exact MI never decreases in a gain, but
# quadrature rounding moves the direct MI at nearby points by up to ~2e-16 bits
_SCREEN_MARGIN = 1e-9
# direction bins per axis of `PolarMICache`'s face lattice, by B: a power of
# two, so that a ratio times the bin count rounds exactly.  Of 64/128/256 at
# B=2 and 8/16/32 at B=3, these gave the fastest r2_4 curves and fig9 r3_8
# curves on a 2-core VM.
_BRACKET_BINS = {2: 128, 3: 16}
_LATTICE_REL_TOL = 1e-3  # relative width of the lattice ray solves
# rows per block of `PolarMICache.bracket`: its temporaries stay in cache, where
# one pass over 100k rows allocating fresh pages for each took 1.6 times as
# long (2-core VM)
_BRACKET_BLOCK = 8192


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


def _ray_mi(omega_x: Constellation, dirs: np.ndarray, gamma: float, cfg: EngineConfig):
    """The lock-step solver's f along the rays (rows of `dirs`) at SNR gamma:
    the MI at radii r, one batch of the rays still open per kernel call
    (nan in finished rays)."""
    def f(r):
        live = np.flatnonzero(~np.isnan(r))
        vals = np.full(r.shape, np.nan)
        vals[live] = mi_per_use_batch(omega_x, dirs[live] * r[live, None], gamma, cfg)
        return vals

    return f


def _ray_radii(omega_x: Constellation, dirs: np.ndarray, R: float, gamma: float,
               cfg: EngineConfig, x_start: float, rel_tol: float) -> np.ndarray:
    """Radius along each ray (rows of `dirs`) where the MI at SNR gamma
    reaches R, all rays in lock-step; an unbracketed ray solves to inf."""
    return solve_increasing(_ray_mi(omega_x, dirs, gamma, cfg), np.full(dirs.shape[0], R),
                            x_start=x_start, rel_tol=rel_tol)


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


def mc_config(B: int, cfg: EngineConfig = DEFAULT_CONFIG) -> EngineConfig:
    """The engine config that decides a Monte Carlo outage curve over B
    blocks: `cfg` with its gh_order capped at CACHE_SHAPE[B] (20 at B=2,
    10 at B=3), and `cfg` itself at larger B."""
    if B not in CACHE_SHAPE:
        return cfg
    return replace(cfg, gh_order=min(cfg.gh_order, CACHE_SHAPE[B]))


class PolarMICache:
    """Exact ray roots of the per-use MI at rate R on a face lattice of
    fading directions, which settle most outage decisions of a Monte Carlo
    curve before any kernel call.

    The MI at fading point alpha and SNR gamma depends only on the scaled
    gains u = sqrt(2*gamma)*alpha, so the roots are solved once at
    GAMMA_REF, where alpha = u, and serve every SNR.  The lattice holds the
    directions d with max_b d_b = 1 and every coordinate in {0, 1/nb, ...,
    1}, nb = _BRACKET_BINS[B]: the (nb+1)^B - nb^B rays on the faces of the
    unit cube (257 at B=2, 817 at B=3).  All rays are solved in one
    lock-step `solve_increasing` call at `mc_config`'s order; a ray whose MI
    cap (`_ray_caps_bits`) is not above R saturates without a call.  Each
    ray keeps the solver's last decided bracket: a, where its MI was below
    R, and b, where it was not.  An end is kept when its MI clears R by
    _SCREEN_MARGIN.  Otherwise one more kernel call checks the end widened
    by _LATTICE_REL_TOL, and an end that fails that too decides nothing (a
    = 0, b = inf).

    The exact MI never decreases in any gain: its derivative in alpha_b is
    alpha_b times a component MMSE (Palomar & Verdu, IEEE Trans. IT 52(1),
    2006).  So a scaled gain vector below a(c)*c, componentwise, is in
    outage and one above b(c)*c is not, for any lattice ray c, as the
    direct MI decides them.  `bracket` applies that to the corners of each
    sample's direction bin: with the bin's componentwise lowest and highest
    directions d_lo and d_hi, every gain s*d of the bin with s <= a(d_hi)
    is in outage and every one with s >= b(d_lo) is not, and the other
    corners settle more where the boundary runs along an axis.  Every other
    pair of a sample and an SNR takes the direct MI at the same order
    (`mi`), so no decision rests on an interpolant.  On the seed-0 r2_4
    curve at 27 degrees (100k samples, 0-20 dB) that is 1,928 ray rows and
    1,533 direct rows.

    The name is historical: the class once interpolated the MI on a cube of
    scaled gains.  It keeps the name, `__init__`, `mi` and `_sizes` (whose
    product is the ray count) because the benchmark tracer
    (`perfbench/tracing.py`) patches the first two by name and reads the
    last.  A cache holds no draws: `outage_mc` draws the gains of a curve
    once.
    """

    def __init__(self, omega_x: Constellation, R: float, cfg: EngineConfig = DEFAULT_CONFIG):
        if omega_x.B not in _BRACKET_BINS:
            raise ValueError("the MC ray lattice supports B in {2, 3}")
        if not R > 0:  # nan too
            raise ValueError("R must be positive")
        self.omega_x, self.B, self.R = omega_x, omega_x.B, R
        self.cfg = mc_config(self.B, cfg)
        nb, B = _BRACKET_BINS[self.B], self.B
        codes = np.indices((nb + 1,) * B).reshape(B, -1).T
        boxes = np.flatnonzero(codes.max(axis=1) == nb)  # the codes a direction can have
        self._sizes = (boxes.size,)
        # each code's ray ends; the all-zero code, which no direction has, decides nothing
        self._a, self._b = np.zeros(codes.shape[0]), np.full(codes.shape[0], np.inf)
        self._a[boxes], self._b[boxes] = self._radii(codes[boxes] / nb)

    def _radii(self, dirs):
        """Each lattice ray's inner radius a, where its MI lies below R by
        _SCREEN_MARGIN (0 where none), and outer radius b, where it lies at
        least _SCREEN_MARGIN above R (inf where none)."""
        m, R = dirs.shape[0], self.R
        inner, outer = np.zeros(m), np.full(m, np.inf)
        live = np.flatnonzero(_ray_caps_bits(self.omega_x.points, dirs) / self.B > R + 1e-12)
        f = _ray_mi(self.omega_x, dirs[live], GAMMA_REF, self.cfg)
        _, (a, fa, b, fb) = _solve(f, np.full(live.size, R), x_start=1.0, rel_tol=_LATTICE_REL_TOL,
                                   max_doublings=80, x_below=0.0)
        ends, vals = np.concatenate([a, b]), np.concatenate([fa, fb])
        up = np.arange(ends.size) >= live.size  # the outer ends

        def clear(vals, up):
            return np.where(up, vals >= R + _SCREEN_MARGIN, vals < R - _SCREEN_MARGIN)

        ok = clear(vals, up)
        redo = np.flatnonzero(~ok & (ends > 0) & (ends < np.inf))
        if redo.size:
            ends[redo] *= np.where(up[redo], 1.0 + _LATTICE_REL_TOL, 1.0 - _LATTICE_REL_TOL)
            gains = dirs[np.tile(live, 2)[redo]] * ends[redo, None]
            ok[redo] = clear(mi_per_use_batch(self.omega_x, gains, GAMMA_REF, self.cfg), up[redo])
        ends = np.where(ok, ends, np.where(up, np.inf, 0.0))
        inner[live], outer[live] = ends[:live.size], ends[live.size:]
        return inner, outer

    def mi(self, alphas: np.ndarray, gamma) -> np.ndarray:
        """The direct per-use MI at each fading point (rows of `alphas`) at
        SNR gamma (one for all rows or one per row), at the cache's order,
        in one `mi_per_use_batch` call."""
        return mi_per_use_batch(self.omega_x, alphas, gamma, self.cfg)

    def bracket(self, alphas: np.ndarray, gammas: np.ndarray) -> tuple:
        """The range [lo, hi) of the ascending SNR grid `gammas` that each
        fading point (rows of `alphas`) leaves open at the cache's rate: its
        MI lies below R at every grid SNR before lo and not below it from
        hi on.

        A point is binned by direction on the faces of the unit cube: with
        rho = max_b alpha_b, each ratio d_b = alpha_b/rho falls in one of
        nb = _BRACKET_BINS[B] equal bins or is 1.  The bin's lowest lattice
        direction d_lo has the coordinates floor(nb*d_b)/nb, and its highest
        d_hi adds 1/nb to every coordinate below 1; its corners take each
        coordinate from one of the two.  At an SNR the point's scaled gains
        are s*d, with s = sqrt(2*gamma)*rho.  A corner c bounds them both
        ways: s*d <= a(c)*c when s <= a(c)*min_b c_b/d_b, and s*d >= b(c)*c
        when s >= b(c)*max_b c_b/d_b.  So lo counts the grid points where s
        is at most the largest of the corners' inner radii (a(d_hi) among
        them), and hi those where s lies below the smallest of their outer
        radii (b(d_lo) among them).  A corner near which the boundary runs
        along an axis settles most of the bin that way.  An all-zero row
        takes the code 0, which no direction has, and stays open.
        """
        lo = np.empty(alphas.shape[0], dtype=np.intp)
        hi = np.empty(alphas.shape[0], dtype=np.intp)
        roots = np.sqrt(2.0 * gammas)
        for start in range(0, alphas.shape[0], _BRACKET_BLOCK):
            rows = slice(start, start + _BRACKET_BLOCK)
            t_lo, t_hi = self._corner_radii(alphas[rows])
            # counts, not `searchsorted`: a handful of passes beats a branchy search per row
            lo[rows] = sum(r <= t_lo for r in roots)
            hi[rows] = sum(r < t_hi for r in roots)
        return lo, hi

    def _corner_radii(self, alphas):
        """Each point's inner and outer radius over rho, as `bracket` takes them."""
        nb, B = _BRACKET_BINS[self.B], self.B
        # column by column: a reduction along the rows' short axis is 50 times slower
        rho = np.maximum(functools.reduce(np.maximum, alphas.T), np.finfo(float).tiny)
        ratios = alphas.T / rho
        ratios *= nb
        low = np.floor(ratios)
        high = np.minimum(low + 1.0, nb)
        with np.errstate(divide="ignore", invalid="ignore"):
            q_lo, q_hi = low / ratios, high / ratios  # c_b/d_b: 0/0 where d_b = 0 bounds nothing
        weights = (nb + 1) ** np.arange(B - 1, -1, -1)
        base = (weights @ low).astype(np.intp)  # the flat code of d_lo
        steps = ((high - low) * weights[:, None]).astype(np.intp)  # 0 at the largest coordinate
        t_lo, t_hi = np.full(rho.shape, -np.inf), np.full(rho.shape, np.inf)
        # d_lo, d_hi and, at B = 3, the corners one coordinate of d_hi reaches from d_lo
        for up in [(), tuple(range(B))] + [(b,) for b in range(B) if B == 3]:
            flat = base + sum(steps[b] for b in up)
            # fmin and fmax skip the nan of a zero coordinate
            inner = functools.reduce(np.fmin, [q_lo[b] for b in range(B) if b not in up], 1.0)
            outer = functools.reduce(np.fmax, [q_hi[b] for b in up], 1.0)
            np.maximum(t_lo, self._a[flat] * inner, out=t_lo)
            np.minimum(t_hi, self._b[flat] * outer, out=t_hi)
        with np.errstate(over="ignore"):  # a tiny rho: every s lies below both radii
            t_lo /= rho
            t_hi /= rho
        return t_lo, t_hi


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
    and the count at the i-th sorted SNR is #{lo > i}.

    For B in CACHE_SHAPE each sample's bracket starts from its direction's
    ray roots on the face lattice (`PolarMICache.bracket`; the lattice is
    solved here unless `cache` is given, and a cache of another set or rate
    raises ValueError) instead of [0, K), and most samples need one
    evaluation or none.  Every decision, inside the bracket or outside it,
    is the direct MI's at `mc_config`'s order, the one a separate test at
    that SNR would make.  Larger B evaluates every sample directly at the
    run's order (slow for large n).
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
    if cache is not None and cache.R != R:
        raise ValueError(f"the cache was solved at R = {cache.R:g}, not at R = {R:g}")
    if at_alphabet_limit(omega_x, R):
        warnings.warn("R is at or above the alphabet limit m/B; outage is certain")
        return [OutageResult(1.0, (1.0, 1.0), "mc") for _ in gammas]
    if B in CACHE_SHAPE and cache is None:
        cache = PolarMICache(omega_x, R, cfg)
    alphas = sample_rayleigh(np.random.default_rng(seed), n, B)
    order = np.argsort(gammas, kind="stable")
    grid = gammas[order]
    # an open sample is in outage below grid point lo and not from hi on; a
    # settled one (lo == hi) adds its prefix length to `ends` and leaves
    if cache is not None:
        lo, hi = cache.bracket(alphas, grid)
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
            mi = cache.mi(alphas, grid[mid])
        else:
            mi = mi_per_use_batch(omega_x, alphas, grid[mid], cfg)
        below = mi < R
        lo = np.where(below, mid + 1, lo)
        hi = np.where(below, hi, mid)
    k_sorted = n - np.cumsum(ends)[:grid.size]  # samples in outage at each sorted SNR
    k = np.empty(grid.size, dtype=np.intp)
    k[order] = k_sorted
    return [OutageResult(p_out=int(kj) / n, ci95=wilson_ci(int(kj), n), method="mc") for kj in k]
