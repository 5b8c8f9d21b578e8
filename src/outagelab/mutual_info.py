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

The rule is evaluated in separable form (`_quad_nats_many`).  Its exponent,
-2*sqrt(gamma)*d.x - gamma*|d|^2 for a faded point difference d at node x,
is a sum over axes, and completing the square on each axis writes it as
|x|^2 minus sum_d (sqrt(gamma)*d_d + x_d)^2.  So the order^dims tensor grid
needs only dims*order exponentials per point pair, every one at most 1,
and the sum over the received-side points at all nodes is an outer product
over the first dims-1 axes times one matrix product against the last.
Nothing overflows, and the transmitted point's own term exp(-|x|^2) keeps
the sum from underflowing wherever the node's weight is above e^-600.

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
representative.  The orbits are found once per alphabet, and for a stack
of equal-shape alphabets in one pass with a row axis, each row taking the
first map it is invariant under or the full sum on its own; the Monte Carlo
fallback still draws from every point.

Inverse scalar solves of many projections (`inv_mi_scalar_many`, behind
every angle sweep and golden-section stage) run in lock-step.  They take
an angle family's projections as one `ProjectionStack`, already grouped by
size, whose work forms are built per group without a per-angle object;
each solver step is one kernel call over a stack of equal-size alphabets,
one alphabet and SNR per row.  The solver (`search.solve_increasing`) returns the roots of plain doubling and
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

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .constellations import Constellation, ProjectionSet, ProjectionStack, _match
from .search import solve_increasing

LN2 = math.log(2.0)
# floats in the largest temporary of one quadrature work block (F, G or S of
# `_quad_nats_many`) when the rows share one alphabet (a vector batch) ...
_BLOCK_CAP = 131_072
# ... and when every row has its own alphabet (a lock-step projection sweep)
_STACK_CAP = 16_384
_MC_CHUNK = 131_072  # noise samples per `_mc_nats` block
_UNIT_GAIN = np.ones((1, 1))  # the scalar channel's fading row
_ORBIT_TOL = 1e-9  # largest coordinate gap between a point's image and its match
_TINY = np.finfo(float).tiny


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
        if not np.all((a >= 0) & (a < np.inf)):
            raise ValueError("fading gains must be finite and nonnegative")
        if not 0 < self.gamma < math.inf:  # nan too
            raise ValueError("gamma must be positive and finite")


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

    def __post_init__(self):
        if self.mc_samples < 1:
            raise ValueError(f"mc_samples must be at least 1, got {self.mc_samples}")


DEFAULT_CONFIG = EngineConfig()


class _Grid(NamedTuple):
    """Tensor-product Gauss-Hermite rule in `dims` dimensions.

    x (order,) holds the 1-D nodes; nodes (K, dims) the tensor grid, last
    axis fastest, with probability-normalized weights (K,) and squared node
    norms r2 (K,).
    """

    x: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray
    r2: np.ndarray


@lru_cache(maxsize=32)
def _gh_grid(order: int, dims: int) -> _Grid:
    """The Gauss-Hermite rule of `order` nodes per axis in `dims` dimensions.

    Raises ValueError for an order below 2, a grid above 5e6 nodes, or an
    order whose 1-D weights numpy cannot compute: they must all be finite
    and positive (numpy's overflow above order ~370).
    """
    if order < 2:
        raise ValueError("gh_order must be >= 2")
    if order**dims > 5_000_000:
        raise ValueError(f"quadrature grid order^dims = {order}^{dims} is too large")
    with np.errstate(all="ignore"):
        x, w = np.polynomial.hermite.hermgauss(order)
    if not (np.isfinite(x).all() and np.isfinite(w).all() and (w > 0).all()):
        raise ValueError(f"gh_order={order} is too large: its Gauss-Hermite weights "
                         "are not all finite and positive")
    grids = np.meshgrid(*([x] * dims), indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=-1)
    wgrids = np.meshgrid(*([w] * dims), indexing="ij")
    weights = np.ones(nodes.shape[0])
    for g in wgrids:
        weights = weights * g.ravel()
    weights = weights / weights.sum()
    grid = _Grid(x, nodes, weights, np.einsum("kd,kd->k", nodes, nodes))
    for a in grid:
        a.setflags(write=False)
    return grid


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

    Both classes hash by identity, so a repeated evaluation builds this (and
    finds its orbits) once; the cached arrays are shared and must not be
    written to.  The one-row case of `_forms`.
    """
    if isinstance(x, ProjectionSet):
        pts, probs, H = x.values[:, None], x.probs, x.entropy_bits()
    else:
        pts, probs, H = x.points, np.full(x.M, 1.0 / x.M), x.m
    ((_, form),) = _forms(pts[None], probs[None], np.array([H]))
    return form._replace(**{n: getattr(form, n)[0] for n in _ROW_FIELDS})


def _forms(pts, probs, H):
    """Work forms of n alphabets of equal shape, one stack per orbit count.

    `pts` (n, M, B) holds each alphabet's points (complex ones are
    stacked into real (n, M, 2B) halves), `probs` (n, M) their
    probabilities and `H` (n,) their entropies in bits.  Returns
    (sel, form) pairs: the alphabets `sel` that have the same number of
    orbit representatives, and their forms with a leading row axis.
    """
    stacked = np.iscomplexobj(pts)
    pts = np.concatenate([pts.real, pts.imag], axis=-1) if stacked else np.asarray(pts, dtype=float)
    n, M, D = pts.shape
    rep = _orbits(pts, probs, stacked)
    own = rep == np.arange(M)
    mass = np.bincount((rep + M * np.arange(n)[:, None]).ravel(), weights=probs.ravel(),
                       minlength=n * M).reshape(n, M)
    counts = own.sum(axis=1)
    out = []
    for R in sorted(set(counts.tolist())):
        sel = np.flatnonzero(counts == R)
        keep = own[sel]
        out.append((sel, _Form(pts[sel], probs[sel], H[sel], stacked,
                               pts[sel][keep].reshape(sel.size, R, D), mass[sel][keep].reshape(sel.size, R))))
    return out


def _orbits(pts, probs, stacked):
    """Each point's orbit representative, per alphabet: (n, M) indices.

    The map is the quarter turn of a stacked form if it holds, else
    negation (see the module docstring); a map holds when `_match` finds
    the image within _ORBIT_TOL of the alphabet.  Each orbit is
    represented by its lowest-index point.  An alphabet under neither map
    has every point represent itself (the full sum).
    """
    n, M, D = pts.shape
    h = D // 2
    rep = np.tile(np.arange(M), (n, 1))
    todo = np.arange(n)
    maps = [(lambda p: np.concatenate([-p[..., h:], p[..., :h]], axis=-1), 4)] if stacked else []
    for image, period in maps + [(np.negative, 2)]:
        match, hit = _match(pts[todo], probs[todo], image(pts[todo]), _ORBIT_TOL)
        r, step = rep[todo[hit]], match[hit]
        for _ in range(period - 1):  # the orbit of i is i, match[i], match[match[i]], ...
            r = np.minimum(r, step)
            step = np.take_along_axis(match[hit], step, axis=1)
        rep[todo[hit]] = r
        todo = todo[~hit]
        if not todo.size:
            break
    return rep


def _quad_nats_many(points, probs, reps, rep_w, alphas, gamma, order):
    """I(X;Y) in nats for each fading row of `alphas` (quadrature engine).

    `points` (M, D) with `probs` (M,) is the alphabet and `alphas` (A, D)
    the fading rows, already real/stacked; `gamma` is one SNR, or one per
    row.  The outer sum over the transmitted point runs over `reps` (R, D)
    weighted by `rep_w` (R,): orbit representatives and their orbit masses,
    or the points and their probabilities themselves for the full sum.  A stack of
    equal-size alphabets, one per row, comes as points (A, M, D), probs
    (A, M), reps (A, R, D), rep_w (A, R) and gamma (A,).  Every row sums
    over the same node and point blocks, by matrix products of its own,
    whatever its company, so a row's value is bit for bit the same alone
    or in any batch.

    Work blocks hold whole rows, as many as keep the largest temporary
    within _BLOCK_CAP floats for rows that share one alphabet, or within
    _STACK_CAP when each row has its own, and at least one: per (row,
    representative) pair, F takes D*M*order floats, G M*order^(D-1) and S
    order^D.  A block's terms are summed over the representatives at once,
    so the block size moves no value.  Only a row whose pairs alone exceed
    _BLOCK_CAP (r3_64 at order 12, and larger alphabets in 3-4 dimensions)
    is split over blocks by representatives; BLAS then groups those node
    sums differently, which moves the last bits.

    Both caps were chosen by measurement on a 2-core Xeon VM (numpy 2.4,
    OpenBLAS, glibc's allocator), timing the benchmark's studies in fresh
    processes and counting their minor page faults.  A shared block of 1 MB
    keeps a 65-row boundary trace at order 32 in one or two blocks, and a
    trace study then refaults 1-2 pages, as before; shared blocks of 32K-64K
    floats refaulted 3,800-6,200 pages per study as their temporaries
    were returned to the kernel and touched again, and made the study
    about 15% slower.  Stacked blocks of 16K floats keep the angle
    optimizer's peak memory where it was; 128K-float stacked blocks
    raised it by 2.5 MB and refaulted 6,700 pages per study.

    Separable evaluation: at representative r and node x_k, with faded
    differences d_j = sqrt(gamma) * alpha * (r - p_j), the rule needs
    L_k = log sum_j p_j exp(-2 d_j.x_k - |d_j|^2).  Completing the square
    on each axis, L_k = log S_k + |x_k|^2 with
    S_k = sum_j p_j prod_d F_d(j, k_d) and F_d(j, k_d) =
    exp(-(d_jd + x_kd)^2) <= 1: order exponentials per axis and point pair,
    then an outer product over the first D-1 axes and one matrix product
    against the last.  No factor exceeds 1, so nothing overflows, and the
    transmitted point puts p_r * exp(-|x_k|^2) into S_k, which stays a
    normal float wherever |x_k|^2 < 600 (for p_r above e^-100).  Beyond
    that, where the node weights are below e^-600, S_k is floored at the
    smallest normal float, so an underflowed sum adds a negligible finite
    term instead of 0 * (-inf).
    """
    shared = points.ndim == 2
    if shared:
        points, probs, reps, rep_w = points[None], probs[None], reps[None], rep_w[None]
    _, M, D = points.shape
    R = reps.shape[1]
    A = alphas.shape[0]
    x, _, w, r2 = _gh_grid(order, D)
    K = w.shape[0]
    root_gamma = np.sqrt(np.broadcast_to(np.asarray(gamma, dtype=float), (A,)))
    out = np.empty(A)

    pair = max(D * M * order, M * order ** (D - 1), K)  # floats of the largest temporary
    i_chunk = min(R, max(1, _BLOCK_CAP // pair))
    a_chunk = max(1, (_BLOCK_CAP if shared else _STACK_CAP) // (i_chunk * pair))
    for a0 in range(0, A, a_chunk):
        rows = slice(a0, a0 + a_chunk)
        own = slice(0, 1) if shared else rows
        scale = alphas[rows] * root_gamma[rows, None]
        terms = np.empty((scale.shape[0], R))  # each (row, representative) term, summed at once
        for i0 in range(0, R, i_chunk):
            d = (reps[own, i0 : i0 + i_chunk, None, :] - points[own, None, :, :]) * scale[:, None, None, :]
            F = d.transpose(3, 0, 1, 2)[..., None] + x  # (D, a, i, M, order)
            np.square(F, out=F)
            np.negative(F, out=F)
            np.exp(F, out=F)
            G = probs[own, None, :, None]
            for f in F[:-1]:  # outer product over the first D-1 axes, (a, i, M, order^(D-1))
                G = (G[..., None] * f[..., None, :]).reshape(f.shape[:3] + (-1,))
            S = np.matmul(G.swapaxes(-1, -2), F[-1]).reshape(F.shape[1:3] + (K,))
            np.maximum(S, _TINY, out=S)
            L = np.log(S, out=S)
            L += r2
            np.multiply(np.matmul(L, w), rep_w[own, i0 : i0 + i_chunk], out=terms[:, i0 : i0 + i_chunk])
        out[a0 : a0 + scale.shape[0]] = 0.0 - terms.sum(axis=1)
    return out


def _mc_nats(points, probs, alpha, gamma, n, rng):
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
        c = min(_MC_CHUNK, n - done)
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


def _chained(x, cfg: EngineConfig) -> bool:
    """Whether the chain rule runs `x` (a set, a projection or a stack) on its real base."""
    return cfg.complex_chain and x.real_base is not None


def _form(x: "Constellation | ProjectionSet", cfg: EngineConfig) -> _Form:
    """The work form `_evaluate` runs on for `x`.

    `_alphabet` of x's `real_base` under the chain rule (`_chained`, with
    `chain` set), else of x itself.
    """
    if _chained(x, cfg):
        return _alphabet(x.real_base)._replace(chain=True)
    return _alphabet(x)


def _evaluate(form, alphas: np.ndarray, gamma, cfg: EngineConfig):
    """I(X;Y) in bits per symbol vector for each fading row of `alphas`.

    The one path behind every discrete MI flavour.  `form` is `_form` of
    one alphabet, or of equal-shape alphabets stacked per row (a leading
    row axis on every array); `gamma` is one SNR for all rows or one per
    row.  It applies the complex chain rule (twice the real base at half
    the SNR), chooses quadrature or Monte Carlo by the operation budget
    (logging a fallback), and clips each evaluated alphabet's MI to [0, H].
    Returns the values, the method and the per-row standard errors.
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
            import logging  # only a fallback logs, so importing the package loads no logging

            logging.getLogger("outagelab").info(
                "quadrature on a %d-point alphabet with %d orbit representatives in %d dimensions "
                "needs %d operations, above budget_ops=%d: Monte Carlo with %d samples instead",
                M, reps.shape[-2], D, ops, cfg.budget_ops, cfg.mc_samples)
        gammas = np.broadcast_to(gamma, alphas.shape[:1])
        rows = (zip(pts, probs, alphas, gammas) if per_row
                else ((pts, probs, a, g) for a, g in zip(alphas, gammas)))
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
    gamma: "float | np.ndarray",
    cfg: EngineConfig = DEFAULT_CONFIG,
) -> np.ndarray:
    """Vectorized mi_per_use over many fading points (bits per channel use),
    at one SNR `gamma` for all rows or one per row.

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

    def one(x):  # x as a one-member stack, with its real base
        base = None if x.real_base is None else one(x.real_base)
        member = ProjectionSet(x.values[None], x.probs[None])
        return ProjectionStack(1, ((np.zeros(1, dtype=np.intp), member),), base)

    snr = float(inv_mi_scalar_many(one(sp), target_bits, cfg)[0])
    if math.isinf(snr):
        raise SaturationError(
            f"no bracket: the scalar MI of the {sp.size}-point axis projection stays "
            f"below target={target_bits:.6g} bits"
        )
    return snr


def _gaussian_snr(sp: ProjectionSet, bits: float):
    """Scalar SNR at which a Gaussian input of the projection's variance carries `bits`.

    No input of that variance carries more, so the projection's own MI
    stays below `bits` at every smaller SNR.  One value per row of a
    stacked ProjectionSet; each dot product is the one the unstacked set
    takes.
    """
    v, p = sp.values[..., None], sp.probs[..., None, :]
    mean = p @ v
    power = (p @ (np.abs(v - mean) ** 2))[..., 0, 0]
    return gaussian_floor(1, bits, "complex" if sp.is_complex else "real") / power


def inv_mi_scalar_many(stack: ProjectionStack, target_bits: float,
                       cfg: EngineConfig = DEFAULT_CONFIG) -> np.ndarray:
    """`inv_mi_scalar` of every member of `stack`; inf where it saturates.

    `stack` holds a family's projections as `project_stack` makes them
    (or, for one projection, as `inv_mi_scalar` builds it).  A projection
    saturates when the target is within 1e-9 bits of its entropy or its
    solve finds no bracket.  The others are solved in lock-step, one solve
    for each group of equal-size alphabets with as many orbit
    representatives, every member under the same chain-rule choice
    (`_chained` of the stack), and one kernel call per solver step for the
    rows that need a value; every row gets the root it would get alone.

    Each row's bracket starts at half its Gaussian SNR (`_gaussian_snr`),
    below which its MI is provably under the target: the 1/2 is a margin
    for quadrature and Monte Carlo error, and the roots are the ones that
    doubling from `x_start` and bisecting would find
    (`search.solve_increasing` replays that loop and evaluates only the
    points its scouted facts leave undecided).
    """
    if not target_bits > 0:
        raise ValueError("target_bits must be positive")
    out = np.full(stack.A, math.inf)
    below = np.zeros(stack.A)
    live = np.zeros(stack.A, dtype=bool)
    for rows, sp in stack.groups:
        ok = target_bits < sp.entropy_bits() - 1e-9
        live[rows[ok]] = True
        below[rows[ok]] = 0.5 * _gaussian_snr(ProjectionSet(sp.values[ok], sp.probs[ok]), target_bits)
    for rows, stack_form in _stack_forms(stack, live, cfg):

        def f(snr):  # called only by this group's solve, right below
            on = np.flatnonzero(~np.isnan(snr))
            bits = np.full(snr.shape, np.nan)
            form = stack_form._replace(**{n: getattr(stack_form, n)[on] for n in _ROW_FIELDS})
            bits[on] = _evaluate(form, np.ones((on.size, 1)), snr[on], cfg)[0]
            return bits

        out[rows] = solve_increasing(f, np.full(rows.size, float(target_bits)),
                                     x_start=1e-4, rel_tol=1e-6, x_below=below[rows])
    return out


def _stack_forms(stack: ProjectionStack, live: np.ndarray, cfg: EngineConfig) -> list:
    """(rows, form) groups of the work forms `_form` gives the `live` members of `stack`.

    Under the chain rule (`_chained` of the stack) every member takes its
    real base's projection, else its own; each group holds members of one
    alphabet shape and orbit count.
    """
    chain = _chained(stack, cfg)
    out = []
    for rows, sp in (stack.real_base if chain else stack).groups:
        keep = live[rows]
        if keep.any():
            pts, probs = sp.values[keep][..., None], sp.probs[keep]
            out += [(rows[keep][sel], form._replace(chain=chain))
                    for sel, form in _forms(pts, probs, sp.entropy_bits()[keep])]
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
    _, nodes, w, _ = _gh_grid(cfg.gh_order, D)
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
