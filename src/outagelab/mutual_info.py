"""Instantaneous mutual information of faded discrete and Gaussian inputs.

The channel is y = alpha .* x + w per B-dimensional symbol, with complex
Gaussian noise of per-real-dimension variance sigma^2 = 1/(2*gamma).  For
real constellations the imaginary noise components cancel inside the
pairwise distance differences, so the noise expectation runs over B real
dimensions; complex constellations run over 2B (the symbol is stacked into
real and imaginary halves that see the same fading gain).

The expectation over the noise is evaluated with a tensor-product
Gauss-Hermite rule by default, falling back to seeded Monte Carlo whenever
|alphabet|^2 * order^dims would exceed the configured operation budget.
Everything is computed in nats internally and reported in bits.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constellations import Constellation, ProjectionSet
from .search import BracketError, solve_increasing

LN2 = math.log(2.0)
_MEM_CAP = 30_000_000  # floats held by one quadrature work block


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

    @property
    def sigma2(self) -> float:
        return 1.0 / (2.0 * self.gamma)


@dataclass(frozen=True)
class MIEstimate:
    value: float  # bits
    units: str  # "per_channel_use" | "per_symbol_vector"
    method: str  # "quadrature" | "monte_carlo" | "closed_form"
    std_error: float = 0.0
    nodes_or_samples: int = 0


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


def _stacked(points: np.ndarray, alpha: np.ndarray):
    """Real work representation: complex (M,B) becomes real (M,2B)."""
    if np.iscomplexobj(points):
        pts = np.hstack([points.real, points.imag])
        al = np.concatenate([alpha, alpha])
    else:
        pts = np.asarray(points, dtype=float)
        al = np.asarray(alpha, dtype=float)
    return pts, al


def _quad_nats_many(points, probs, alphas, gamma, order):
    """I(X;Y) in nats for each fading row of `alphas` (quadrature engine).

    `points` (M, D) and `alphas` (A, D) are already real/stacked.
    """
    M, D = points.shape
    A = alphas.shape[0]
    nodes, w = _gh_grid(order, D)
    K = nodes.shape[0]
    dz = points[:, None, :] - points[None, :, :]
    logp = np.log(probs)
    sqg = math.sqrt(gamma)
    out = np.empty(A)

    i_chunk = max(1, min(M, _MEM_CAP // (M * K)))
    a_chunk = max(1, _MEM_CAP // (i_chunk * M * K))
    for a0 in range(0, A, a_chunk):
        al = alphas[a0 : a0 + a_chunk]
        acc = np.zeros(al.shape[0])
        for i0 in range(0, M, i_chunk):
            d = al[:, None, None, :] * dz[None, i0 : i0 + i_chunk]
            d2 = np.einsum("aijd,aijd->aij", d, d)
            e = np.tensordot(d, nodes, axes=([3], [1]))
            e *= -2.0 * sqg
            e -= gamma * d2[..., None]
            e += logp[None, None, :, None]
            mx = e.max(axis=2)
            np.exp(e - mx[:, :, None, :], out=e)
            L = mx + np.log(e.sum(axis=2))
            acc -= np.einsum("i,aik,k->a", probs[i0 : i0 + i_chunk], L, w)
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


def _clip_bits(value, upper):
    if -1e-6 < value < 0.0:
        return 0.0
    if upper < value < upper + 1e-6:
        return upper
    return value


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
    if omega_x.field == "complex" and cfg.complex_chain and omega_x.real_base is not None:
        inner = mi_discrete(omega_x.real_base, ChannelSample(alpha, s.gamma / 2.0), cfg)
        return MIEstimate(
            value=_clip_bits(2.0 * inner.value, omega_x.m),
            units="per_symbol_vector",
            method=inner.method,
            std_error=2.0 * inner.std_error,
            nodes_or_samples=inner.nodes_or_samples,
        )
    pts, al = _stacked(omega_x.points, alpha)
    probs = np.full(omega_x.M, 1.0 / omega_x.M)
    M, D = pts.shape
    ops = M * M * cfg.gh_order**D
    if cfg.engine == "quadrature" and ops <= cfg.budget_ops:
        nats = _quad_nats_many(pts, probs, al[None, :], s.gamma, cfg.gh_order)[0]
        return MIEstimate(
            value=_clip_bits(nats / LN2, omega_x.m),
            units="per_symbol_vector",
            method="quadrature",
            nodes_or_samples=cfg.gh_order**D,
        )
    rng = np.random.default_rng(cfg.seed)
    nats, se = _mc_nats(pts, probs, al, s.gamma, cfg.mc_samples, rng)
    return MIEstimate(
        value=_clip_bits(nats / LN2, omega_x.m),
        units="per_symbol_vector",
        method="monte_carlo",
        std_error=se / LN2,
        nodes_or_samples=cfg.mc_samples,
    )


def mi_per_use(omega_x: Constellation, s: ChannelSample, cfg: EngineConfig = DEFAULT_CONFIG) -> MIEstimate:
    """mi_discrete divided by B: bits per channel use (blocks timeshare)."""
    est = mi_discrete(omega_x, s, cfg)
    return MIEstimate(
        value=est.value / omega_x.B,
        units="per_channel_use",
        method=est.method,
        std_error=est.std_error / omega_x.B,
        nodes_or_samples=est.nodes_or_samples,
    )


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
    if omega_x.field == "complex" and cfg.complex_chain and omega_x.real_base is not None:
        return 2.0 * mi_per_use_batch(omega_x.real_base, alphas, gamma / 2.0, cfg)
    pts, _ = _stacked(omega_x.points, np.zeros(omega_x.B))
    if omega_x.field == "complex":
        al = np.hstack([alphas, alphas])
    else:
        al = alphas
    probs = np.full(omega_x.M, 1.0 / omega_x.M)
    M, D = pts.shape
    ops = M * M * cfg.gh_order**D
    if cfg.engine == "quadrature" and ops <= cfg.budget_ops:
        nats = _quad_nats_many(pts, probs, al, gamma, cfg.gh_order)
    else:
        nats = np.array([
            _mc_nats(pts, probs, a, gamma, cfg.mc_samples, np.random.default_rng(cfg.seed))[0]
            for a in al
        ])
    bits = nats / LN2
    np.clip(bits, 0.0, omega_x.m, out=bits)
    return bits / omega_x.B


def mi_gaussian(s: ChannelSample, B: int | None = None) -> MIEstimate:
    """Gaussian-input MI in bits per channel use: mean of 0.5*log2(1+2*gamma*a^2).

    Orthogonal precoding leaves an i.i.d. Gaussian input distribution
    unchanged, so no precoder argument exists here.
    """
    alpha = np.asarray(s.alpha, dtype=float)
    if B is not None and alpha.shape != (B,):
        raise ValueError(f"alpha must have length B={B}")
    value = float(np.mean(0.5 * np.log2(1.0 + 2.0 * s.gamma * alpha**2)))
    return MIEstimate(value=value, units="per_channel_use", method="closed_form")


def _projection_points(sp: ProjectionSet):
    if sp.is_complex:
        return np.stack([sp.values.real, sp.values.imag], axis=1)
    return np.asarray(sp.values, dtype=float)[:, None]


def mi_scalar(sp: ProjectionSet, snr: float, cfg: EngineConfig = DEFAULT_CONFIG) -> float:
    """MI in bits of the scalar channel y = x + n, x from the projection.

    `snr` plays the role of alpha^2 * gamma: the noise has per-real-
    dimension variance 1/(2*snr).  Strictly increasing in snr.
    """
    if snr < 0:
        raise ValueError("snr must be >= 0")
    if snr == 0.0:
        return 0.0
    pts = _projection_points(sp)
    S, D = pts.shape
    ops = S * S * cfg.gh_order**D
    if cfg.engine == "quadrature" and ops <= cfg.budget_ops:
        nats = _quad_nats_many(pts, sp.probs, np.ones((1, D)), snr, cfg.gh_order)[0]
    else:
        rng = np.random.default_rng(cfg.seed)
        nats, _ = _mc_nats(pts, sp.probs, np.ones(D), snr, cfg.mc_samples, rng)
    return max(nats / LN2, 0.0)


def inv_mi_scalar(sp: ProjectionSet, target_bits: float, cfg: EngineConfig = DEFAULT_CONFIG) -> float:
    """SNR at which the projection's scalar MI reaches `target_bits`.

    Raises SaturationError when the target is not below the projection's
    entropy: the scalar channel can never carry that rate, which is the
    diversity-loss condition for the full system.
    """
    if target_bits <= 0:
        raise ValueError("target_bits must be positive")
    cap = sp.entropy_bits()
    if target_bits >= cap - 1e-9:
        raise SaturationError(
            f"target {target_bits:.6g} bits >= {cap:.6g} bits achievable by the "
            f"{sp.size}-point axis projection"
        )
    try:
        return solve_increasing(
            lambda x: mi_scalar(sp, x, cfg), target_bits, x_start=1e-4, rel_tol=1e-6
        )
    except BracketError as exc:
        raise SaturationError(str(exc)) from exc


def mmse_scalar(sp: ProjectionSet, snr: float, cfg: EngineConfig = DEFAULT_CONFIG) -> float:
    """MMSE of estimating the projected input from the scalar channel output."""
    if snr < 0:
        raise ValueError("snr must be >= 0")
    pts = _projection_points(sp)
    p = sp.probs
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


def faded_min_distance(omega_x: Constellation, alpha) -> float:
    """Minimum distance of the faded constellation alpha .* Omega_x.

    Zero is allowed: fading can collapse distinct points together.
    """
    alpha = np.asarray(alpha, dtype=float)
    t = omega_x.points * alpha
    M = t.shape[0]
    best = math.inf
    for i0 in range(0, M, 256):
        block = t[i0 : i0 + 256]
        d2 = np.sum(np.abs(block[:, None, :] - t[None, :, :]) ** 2, axis=-1)
        rows = np.arange(block.shape[0])
        d2[rows, i0 + rows] = math.inf
        best = min(best, float(d2.min()))
    return math.sqrt(best)
