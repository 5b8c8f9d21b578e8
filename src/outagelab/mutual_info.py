"""Instantaneous mutual information of faded discrete and Gaussian inputs.

The channel is y = alpha .* x + w per B-dimensional symbol, with complex
Gaussian noise of per-real-dimension variance sigma^2 = 1/(2*gamma).  For
real constellations the imaginary noise components cancel inside the
pairwise distance differences, so the noise expectation runs over B real
dimensions; complex constellations run over 2B (the symbol is stacked into
real and imaginary halves that see the same fading gain).

Every discrete flavour -- vector, per-use, batch and scalar projection --
goes through one evaluator, `_evaluate`.  A complex input carrying a
`real_base` (a constellation or an axis projection with independent real
and imaginary parts) is reduced exactly to twice its real base at half the
SNR.  The noise expectation is then a tensor-product Gauss-Hermite rule,
or seeded Monte Carlo (a fresh generator per fading row, so rows share
common random numbers) whenever its work, orbit representatives (below) *
|alphabet| * order^dims, would exceed the configured operation budget (a
fallback logged at INFO on the "outagelab" logger).  The result is clipped
to [0, H(X)].  Everything is computed in nats internally and reported in bits.

The quadrature sums the transmitted point only over symmetry-orbit
representatives, each weighted by its orbit's probability; the sum over
the received-side points stays full.  Two maps commute with the noise,
the Gauss-Hermite grid and every fading gain diag(alpha), so the points
they exchange contribute equal terms: negation x -> -x, and, on a complex
alphabet stacked into real and imaginary halves under the same gains, the
quarter turn (re, im) -> (-im, re), i.e. x -> j*x.  The quarter turn is
never tried on a real form, where unequal gains break it.  A stacked form
takes the quarter turn when the alphabet is invariant under it; otherwise,
and on every real form, negation is tried.  An alphabet invariant under
neither (some image lies more than 1e-9 from every point of equal
probability) falls back to the full sum, every point its own
representative.  The orbits are found once per alphabet; the Monte Carlo
fallback still draws from every point.

Inverse scalar solves of many projections (`inv_mi_scalar_many`, behind
every angle sweep) run in lock-step: each solver step is one kernel call
over a stack of equal-size alphabets, one alphabet and SNR per row.  The
solver (`search.solve_increasing`) returns the roots of plain doubling and
bisection but calls the kernel only where its facts leave a bisection
point undecided, after interpolation steps in log-SNR that close each
row's bracket: about 8 calls per solve instead of 23, with every root the
same float.
No input of variance P carries more than the Gaussian one, at most
(D/2)*log2(1 + 2*snr*P/D) bits with D = 1 for a real projection and 2 for
a complex one.  So a projection's MI is below the target T at any SNR
below the Gaussian one, D*(2^(2T/D) - 1)/(2P), and each solve's bracket
starts from half of it (the 1/2 is a margin for quadrature and Monte Carlo
error); the doubling steps it skips would only have found values below T,
so every root is the same float as when doubling from the solver's start.
"""

import logging
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .constellations import Constellation, ProjectionSet
from .search import solve_increasing

LN2 = math.log(2.0)
_log = logging.getLogger("outagelab")
_MEM_CAP = 2_000_000  # floats held by one quadrature work block
# floats per work block when every row has its own alphabet (a lock-step
# sweep): larger blocks save no call overhead but raise peak memory
_STACK_CAP = 16_384
_UNIT_GAIN = np.ones((1, 1))  # the scalar channel's fading row
_ORBIT_TOL = 1e-9  # largest coordinate gap between a point's image and its match


class SaturationError(ValueError):
    """Requested rate meets or exceeds what the alphabet can carry."""


@dataclass(frozen=True)
class ChannelSample:
    """Fading point alpha (B nonnegative gains) and average SNR gamma."""

    alpha: np.ndarray
    gamma: float

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=float)
        object.__setattr__(self, "alpha", a)
        if np.any(a < 0):
            raise ValueError("fading gains must be nonnegative")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")


@dataclass(frozen=True)
class MIEstimate:
    value: float  # bits
    method: str  # "quadrature" | "monte_carlo" | "closed_form"
    std_error: float = 0.0


@dataclass(frozen=True)
class EngineConfig:
    """Noise-expectation engine settings."""

    engine: str = "quadrature"
    gh_order: int = 32
    mc_samples: int = 200_000
    seed: int = 0
    budget_ops: int = 1_000_000_000
    complex_chain: bool = True


DEFAULT_CONFIG = EngineConfig()


@lru_cache(maxsize=32)
def _gh_grid(order: int, dims: int):
    """Tensor-product Gauss-Hermite nodes and probability-normalized weights."""
    if order < 2:
        raise ValueError("gh_order must be >= 2")
    if order**dims > 5_000_000:
        raise ValueError(f"quadrature grid order^dims = {order}^{dims} is too large")
    x, w = np.polynomial.hermite.hermgauss(order)
    grids = np.meshgrid(*([x] * dims), indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=-1)
    wgrids = np.meshgrid(*([w] * dims), indexing="ij")
    weights = np.ones(nodes.shape[0])
    for g in wgrids:
        weights = weights * g.ravel()
    weights = weights / weights.sum()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


class _Form(NamedTuple):
    """Real work form of an alphabet, as the evaluator and the kernel take it.

    points (M, D) and probs (M,), the entropy H in bits, whether the points
    are complex ones stacked into real (M, 2B) halves that see the same
    fading gains, the symmetry-orbit representatives reps (R, D) with their
    orbit masses rep_w (R,), and whether the form is a complex input's real
    base under the chain rule.  A lock-step stack of equal-shape forms holds
    every array with a leading row axis.
    """

    points: np.ndarray
    probs: np.ndarray
    H: "float | np.ndarray"
    stacked: bool
    reps: np.ndarray
    rep_w: np.ndarray
    chain: bool = False


_ROW_FIELDS = ("points", "probs", "H", "reps", "rep_w")


@lru_cache(maxsize=64)
def _alphabet(x: "Constellation | ProjectionSet") -> _Form:
    """Real work form of a constellation or an axis projection.

    Both classes hash by identity, so an inverse solve builds this (and
    finds its orbits) once; the cached arrays are shared and must not be
    written to.
    """
    if isinstance(x, ProjectionSet):
        pts, probs, H = x.values[:, None], x.probs, x.entropy_bits()
    else:
        pts, probs, H = x.points, np.full(x.M, 1.0 / x.M), x.m
    stacked = np.iscomplexobj(pts)
    pts = np.hstack([pts.real, pts.imag]) if stacked else np.asarray(pts, dtype=float)
    return _Form(pts, probs, H, stacked, *_orbits(pts, probs, stacked))


def _orbits(pts, probs, stacked):
    """Orbit representatives (R, D) of the alphabet and their orbit masses (R,).

    The map is the quarter turn of a stacked form if it holds, else
    negation (see the module docstring); each orbit is represented by its
    lowest-index point.  Without either map every point represents itself.
    """
    M, D = pts.shape
    h = D // 2
    maps = [(lambda p: np.hstack([-p[:, h:], p[:, :h]]), 4)] if stacked else []
    for image, period in maps + [(np.negative, 2)]:
        match = _match(pts, probs, image(pts))
        if match is not None:
            break
    else:
        return pts, probs
    rep, step = np.arange(M), match
    for _ in range(period - 1):  # the orbit of i is i, match[i], match[match[i]], ...
        rep = np.minimum(rep, step)
        step = match[step]
    reps = np.flatnonzero(rep == np.arange(M))
    return pts[reps], np.bincount(rep, weights=probs, minlength=M)[reps]


def _match(pts, probs, image, block=128):
    """Index of the point each row of `image` lands on, or None if one misses."""
    M = pts.shape[0]
    match = np.empty(M, dtype=np.intp)
    for i0 in range(0, M, block):
        gap = np.abs(image[i0 : i0 + block, None, :] - pts[None, :, :]).max(axis=2)
        j = gap.argmin(axis=1)
        if gap[np.arange(j.size), j].max() > _ORBIT_TOL:
            return None
        match[i0 : i0 + block] = j
    if np.bincount(match, minlength=M).max() > 1 or not np.array_equal(probs[match], probs):
        return None
    return match


def _quad_nats_many(points, probs, reps, rep_w, alphas, gamma, order):
    """I(X;Y) in nats for each fading row of `alphas` (quadrature engine).

    `points` (M, D) with `probs` (M,) is the alphabet and `alphas` (A, D)
    the fading rows, already real/stacked; `gamma` is one SNR.  The outer
    sum over the transmitted point runs over `reps` (R, D) weighted by
    `rep_w` (R,): orbit representatives and their orbit masses, or the
    points and their probabilities themselves for the full sum.  A stack of
    equal-size alphabets, one per row, comes as points (A, M, D), probs
    (A, M), reps (A, R, D), rep_w (A, R) and gamma (A,).  Every row sums
    over the same node and point blocks whatever its company, so a row's
    value does not depend on the rows evaluated with it.
    """
    shared = points.ndim == 2
    if shared:
        points, probs, reps, rep_w = points[None], probs[None], reps[None], rep_w[None]
    _, M, D = points.shape
    R = reps.shape[1]
    A = alphas.shape[0]
    nodes, w = _gh_grid(order, D)
    K = nodes.shape[0]
    logp = np.log(probs)
    gamma = np.broadcast_to(np.asarray(gamma, dtype=float), (A,))
    out = np.empty(A)

    i_chunk = max(1, min(R, _MEM_CAP // (M * K)))
    a_chunk = max(1, (_MEM_CAP if shared else _STACK_CAP) // (i_chunk * M * K))
    for a0 in range(0, A, a_chunk):
        rows = slice(a0, a0 + a_chunk)
        own = slice(0, 1) if shared else rows
        al = alphas[rows]
        g = gamma[rows, None, None, None]
        acc = np.zeros(al.shape[0])
        for i0 in range(0, R, i_chunk):
            dz = reps[own, i0 : i0 + i_chunk, None, :] - points[own, None, :, :]
            d = al[:, None, None, :] * dz
            d2 = np.einsum("aijd,aijd->aij", d, d)
            e = np.tensordot(d, nodes, axes=([3], [1]))
            e *= -2.0 * np.sqrt(g)
            e -= g * d2[..., None]
            e += logp[own, None, :, None]
            mx = e.max(axis=2)
            e -= mx[:, :, None, :]
            np.exp(e, out=e)
            L = mx + np.log(e.sum(axis=2))
            p = np.broadcast_to(rep_w[own, i0 : i0 + i_chunk], L.shape[:2])
            acc -= np.einsum("ai,aik,k->a", p, L, w)
        out[a0 : a0 + al.shape[0]] = acc
    return out


def _mc_nats(points, probs, alpha, gamma, n, rng, chunk=131_072):
    """Monte Carlo I(X;Y) in nats with its standard error (stacked inputs)."""
    M, D = points.shape
    t = alpha * points
    d2 = np.sum((t[:, None, :] - t[None, :, :]) ** 2, axis=-1)
    logp = np.log(probs)
    sigma = math.sqrt(1.0 / (2.0 * gamma))
    total = 0.0
    total2 = 0.0
    done = 0
    while done < n:
        c = min(chunk, n - done)
        idx = rng.choice(M, size=c, p=probs)
        noise = rng.normal(0.0, sigma, size=(c, D))
        proj = noise @ t.T
        own = proj[np.arange(c), idx]
        e = -gamma * d2[idx] - 2.0 * gamma * (own[:, None] - proj) + logp[None, :]
        mx = e.max(axis=1)
        vals = -(mx + np.log(np.exp(e - mx[:, None]).sum(axis=1)))
        total += vals.sum()
        total2 += (vals**2).sum()
        done += c
    mean = total / n
    var = max(total2 / n - mean**2, 0.0)
    return mean, math.sqrt(var / n)


def _form(x: "Constellation | ProjectionSet", cfg: EngineConfig) -> _Form:
    """The work form `_evaluate` runs on for `x`.

    `_alphabet` of x's `real_base` when cfg.complex_chain is set and x has
    one (with `chain` set), else of x itself.
    """
    if cfg.complex_chain and x.real_base is not None:
        return _alphabet(x.real_base)._replace(chain=True)
    return _alphabet(x)


def _evaluate(form, alphas: np.ndarray, gamma, cfg: EngineConfig):
    """I(X;Y) in bits per symbol vector for each fading row of `alphas`.

    The one path behind every discrete MI flavour.  `form` is `_form` of
    one alphabet, or of equal-shape alphabets stacked per row (a leading
    row axis on every array) with `gamma` then one SNR per row.  It
    applies the complex chain rule (twice the real base at half the SNR),
    chooses quadrature or Monte Carlo by the operation budget (logging a
    fallback), and clips each evaluated alphabet's MI to [0, H].  Returns
    the values, the method and the per-row standard errors.
    """
    pts, probs, H, stacked, reps, rep_w, chain = form
    per_row = pts.ndim == 3
    scale = 1.0
    if chain:
        gamma, scale = gamma / 2.0, 2.0
    if stacked:
        alphas = np.hstack([alphas, alphas])
    M, D = pts.shape[-2:]
    ops = reps.shape[-2] * M * cfg.gh_order**D
    if cfg.engine == "quadrature" and ops <= cfg.budget_ops:
        nats = _quad_nats_many(pts, probs, reps, rep_w, alphas, gamma, cfg.gh_order)
        se = np.zeros_like(nats)
        method = "quadrature"
    else:
        if cfg.engine == "quadrature":
            _log.info("quadrature on a %d-point alphabet with %d orbit representatives in %d "
                      "dimensions needs %d operations, above budget_ops=%d: Monte Carlo with "
                      "%d samples instead", M, reps.shape[-2], D, ops, cfg.budget_ops, cfg.mc_samples)
        rows = (zip(pts, probs, alphas, gamma) if per_row
                else ((pts, probs, a, gamma) for a in alphas))
        nats, se = np.array([
            _mc_nats(*row, cfg.mc_samples, np.random.default_rng(cfg.seed)) for row in rows
        ]).T
        method = "monte_carlo"
    bits = (nats / LN2).clip(0.0, H)
    return scale * bits, method, scale * se / LN2


def mi_discrete(omega_x: Constellation, s: ChannelSample, cfg: EngineConfig = DEFAULT_CONFIG) -> MIEstimate:
    """I(X;Y | alpha, gamma) in bits per symbol vector for a discrete input.

    Complex constellations carrying a `real_base` are reduced exactly to
    twice the real computation at half the SNR (independent real/imaginary
    halves); pass a config with complex_chain=False to force the direct
    stacked evaluation instead.
    """
    alpha = np.asarray(s.alpha, dtype=float)
    if alpha.shape != (omega_x.B,):
        raise ValueError(f"alpha must have length B={omega_x.B}")
    bits, method, se = _evaluate(_form(omega_x, cfg), alpha[None, :], s.gamma, cfg)
    return MIEstimate(float(bits[0]), method, float(se[0]))


def mi_per_use(omega_x: Constellation, s: ChannelSample, cfg: EngineConfig = DEFAULT_CONFIG) -> MIEstimate:
    """mi_discrete divided by B: bits per channel use (blocks timeshare)."""
    est = mi_discrete(omega_x, s, cfg)
    return MIEstimate(est.value / omega_x.B, est.method, est.std_error / omega_x.B)


def mi_per_use_batch(
    omega_x: Constellation,
    alphas: np.ndarray,
    gamma: float,
    cfg: EngineConfig = DEFAULT_CONFIG,
) -> np.ndarray:
    """Vectorized mi_per_use over many fading points (bits per channel use).

    Quadrature only when it fits the budget; otherwise a per-point Monte
    Carlo loop with common random numbers: every point reuses the draws of
    a fresh generator seeded with cfg.seed, as `mi_discrete` does.
    """
    alphas = np.atleast_2d(np.asarray(alphas, dtype=float))
    if alphas.shape[1] != omega_x.B:
        raise ValueError(f"alphas must have {omega_x.B} columns")
    return _evaluate(_form(omega_x, cfg), alphas, gamma, cfg)[0] / omega_x.B


def mi_gaussian(s: ChannelSample, B: int | None = None) -> MIEstimate:
    """Gaussian-input MI in bits per channel use: mean of 0.5*log2(1+2*gamma*a^2).

    Orthogonal precoding leaves an i.i.d. Gaussian input distribution
    unchanged, so no precoder argument exists here.
    """
    alpha = np.asarray(s.alpha, dtype=float)
    if B is not None and alpha.shape != (B,):
        raise ValueError(f"alpha must have length B={B}")
    value = float(np.mean(0.5 * np.log2(1.0 + 2.0 * s.gamma * alpha**2)))
    return MIEstimate(value=value, method="closed_form")


def gaussian_floor(B: int, R: float, field: str = "real") -> float:
    """Least scalar SNR at which a Gaussian input carries B*R bits.

    With B=1 this is the per-block SNR at which it carries R bits per use.
    """
    if field == "real":
        return (2.0 ** (2 * B * R) - 1.0) / 2.0
    if field == "complex":
        return 2.0 ** (B * R) - 1.0
    raise ValueError(f"unknown field {field!r}")


def mi_scalar(sp: ProjectionSet, snr: float, cfg: EngineConfig = DEFAULT_CONFIG) -> float:
    """MI in bits of the scalar channel y = x + n, x from the projection.

    `snr` plays the role of alpha^2 * gamma: the noise has per-real-
    dimension variance 1/(2*snr).  Strictly increasing in snr.
    """
    if snr < 0:
        raise ValueError("snr must be >= 0")
    if snr == 0.0:
        return 0.0
    return float(_evaluate(_form(sp, cfg), _UNIT_GAIN, snr, cfg)[0][0])


def inv_mi_scalar(sp: ProjectionSet, target_bits: float, cfg: EngineConfig = DEFAULT_CONFIG) -> float:
    """SNR at which the projection's scalar MI reaches `target_bits`.

    Raises SaturationError when the target is not below the projection's
    entropy: the scalar channel can never carry that rate, which is the
    diversity-loss condition for the full system.  The one-row case of
    `inv_mi_scalar_many`.
    """
    cap = sp.entropy_bits()
    if target_bits >= cap - 1e-9:
        raise SaturationError(
            f"target {target_bits:.6g} bits >= {cap:.6g} bits achievable by the "
            f"{sp.size}-point axis projection"
        )
    snr = float(inv_mi_scalar_many([sp], target_bits, cfg)[0])
    if math.isinf(snr):
        raise SaturationError(
            f"no bracket: the scalar MI of the {sp.size}-point axis projection stays "
            f"below target={target_bits:.6g} bits"
        )
    return snr


def _gaussian_snr(sp: ProjectionSet, bits: float) -> float:
    """Scalar SNR at which a Gaussian input of the projection's variance carries `bits`.

    No input of that variance carries more, so the projection's own MI
    stays below `bits` at every smaller SNR.
    """
    v, p = sp.values, sp.probs
    power = float(p @ np.abs(v - p @ v) ** 2)
    return gaussian_floor(1, bits, "complex" if sp.is_complex else "real") / power


def inv_mi_scalar_many(sps, target_bits: float, cfg: EngineConfig = DEFAULT_CONFIG) -> np.ndarray:
    """`inv_mi_scalar` of every projection in `sps`; inf where it saturates.

    A projection saturates when the target is within 1e-9 bits of its
    entropy or its solve finds no bracket.  The others are solved in
    lock-step, one solve for each group of equal-size alphabets with as
    many orbit representatives, under the same chain-rule scale, and one
    kernel call per solver step for the rows that need a value; every row
    gets the root it would get alone.  Each row's bracket starts at half
    its Gaussian SNR (`_gaussian_snr`), below which its MI is provably
    under the target: the 1/2 is a margin for quadrature and Monte Carlo
    error, and the roots are the ones that doubling from `x_start` and
    bisecting would find (`search.solve_increasing` replays that loop and
    evaluates only the points its scouted facts leave undecided).
    """
    if target_bits <= 0:
        raise ValueError("target_bits must be positive")
    out = np.full(len(sps), math.inf)
    below = np.zeros(len(sps))
    groups = {}
    for k, sp in enumerate(sps):
        if target_bits < sp.entropy_bits() - 1e-9:
            below[k] = 0.5 * _gaussian_snr(sp, target_bits)
            form = _form(sp, cfg)
            groups.setdefault((form.points.shape, len(form.reps), form.chain), []).append((k, form))
    for members in groups.values():
        rows = [k for k, _ in members]
        stack = members[0][1]._replace(
            **{n: np.stack([getattr(form, n) for _, form in members]) for n in _ROW_FIELDS})

        def f(snr):  # called only by this group's solve, right below
            live = np.flatnonzero(~np.isnan(snr))
            bits = np.full(snr.shape, np.nan)
            form = stack._replace(**{n: getattr(stack, n)[live] for n in _ROW_FIELDS})
            bits[live] = _evaluate(form, np.ones((live.size, 1)), snr[live], cfg)[0]
            return bits

        out[rows] = solve_increasing(f, np.full(len(rows), float(target_bits)),
                                     x_start=1e-4, rel_tol=1e-6, x_below=below[rows])
    return out


def mmse_scalar(sp: ProjectionSet, snr: float, cfg: EngineConfig = DEFAULT_CONFIG) -> float:
    """MMSE of estimating the projected input from the scalar channel output."""
    if snr < 0:
        raise ValueError("snr must be >= 0")
    form = _alphabet(sp)
    pts, p = form.points, form.probs
    mean = (p[:, None] * pts).sum(axis=0)
    if snr == 0.0:
        return float((p[:, None] * (pts - mean) ** 2).sum())
    S, D = pts.shape
    nodes, w = _gh_grid(cfg.gh_order, D)
    noise = nodes / math.sqrt(snr)
    y = pts[:, None, :] + noise[None, :, :]  # (S, K, D)
    d2 = np.sum((y[:, :, None, :] - pts[None, None, :, :]) ** 2, axis=-1)  # (S, K, S)
    e = -snr * d2 + np.log(p)[None, None, :]
    e -= e.max(axis=2, keepdims=True)
    post = np.exp(e)
    post /= post.sum(axis=2, keepdims=True)
    xhat = post @ pts  # (S, K, D)
    err2 = np.sum((pts[:, None, :] - xhat) ** 2, axis=-1)
    return float(np.einsum("s,sk,k->", p, err2, w))


def mi_lowsnr_approx(omega_x: Constellation, s: ChannelSample) -> float:
    """First-order MI in bits per channel use, valid for small gamma*|alpha|^2.

    gamma * sum_b alpha_b^2 Var(X_b) / (B ln 2), with Var taken per
    component of the precoded constellation.
    """
    pts = omega_x.points
    mean = pts.mean(axis=0)
    var = (np.abs(pts - mean) ** 2).mean(axis=0)
    alpha = np.asarray(s.alpha, dtype=float)
    return float(s.gamma * np.sum(alpha**2 * var) / (omega_x.B * LN2))
