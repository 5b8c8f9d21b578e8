"""Real orthogonal precoding matrices and their application to constellations.

Two constructions are provided: the plane rotation for B=2 and real
orthogonal circulants for any B, assembled from unit-magnitude eigenvalues
with conjugate symmetry so the matrix comes out real.  For B=3 the
circulant with a single eigenphase is the rotation around the (1,1,1)
axis.  `ROTATIONS` is the one table keyed on B: the single-angle rotation
of B=2 and B=3 and the angle span a sweep covers.  A rotation takes one
angle or an array of A angles; for an array its precoder holds the (A, B, B)
stack of matrices, built and checked in one pass, and `precode` applies the
whole stack with one matrix product.  Complex constellations are precoded by
applying the same real matrix to the real and imaginary parts separately.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constellations import Constellation

ORTHO_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Precoder:
    B: int
    matrix: np.ndarray  # (B, B), or (A, B, B) for a rotation over an array of A angles
    kind: str  # constructor name, carried into the precoded constellation's name


def _finish(B, matrix, kind) -> Precoder:
    """Freeze a matrix, or a stack of them, after checking every one is orthogonal.

    A non-finite entry fails the check (its error is nan), so a nan or
    infinite angle or eigenphase raises ValueError here.
    """
    matrix = np.asarray(matrix, dtype=float)
    err = np.max(np.abs(matrix @ np.swapaxes(matrix, -1, -2) - np.eye(B)), initial=0.0)
    if not err <= ORTHO_TOL:
        raise ValueError(f"constructed matrix is not orthogonal (|PP^T - I| = {err:.2e})")
    matrix.setflags(write=False)
    return Precoder(B=B, matrix=matrix, kind=kind)


def rotation2(theta) -> Precoder:
    """2x2 rotation by `theta` radians; first row (cos t, -sin t).

    An array of angles gives the (A, 2, 2) stack.
    """
    t = np.asarray(theta, dtype=float)
    # libm's cos and sin, one angle at a time as the scalar rotation has always
    # taken them: numpy's vector loops may round differently on some machines
    c = np.array([math.cos(x) for x in t.ravel()]).reshape(t.shape)
    s = np.array([math.sin(x) for x in t.ravel()]).reshape(t.shape)
    return _finish(2, np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2), "rotation2")


def rotation3(theta1) -> Precoder:
    """3x3 rotation by `theta1` around the (1,1,1)/sqrt(3) axis: eigenphases (0, theta1).

    An array of angles gives the (A, 3, 3) stack.
    """
    lam = np.ones(np.shape(theta1) + (3,), dtype=complex)
    lam[..., 1] = np.exp(1j * np.asarray(theta1, dtype=float))
    lam[..., 2] = np.conj(lam[..., 1])
    return _finish(3, _circulant(lam), "rotation3")


# B -> (single-angle rotation, the angle span in degrees one sweep covers)
ROTATIONS = {2: (rotation2, 90.0), 3: (rotation3, 120.0)}


def rotation_family(B: int) -> tuple:
    """(constructor, sweep span in degrees) of the single-angle rotation for B blocks."""
    if B not in ROTATIONS:
        raise ValueError(f"B={B} has no single-angle rotation (B = 2 and B = 3 do); use a circulant")
    return ROTATIONS[B]


def rotation(B: int, theta) -> Precoder:
    """Single-angle precoder: `rotation2` for B=2, `rotation3` for B=3 (one angle or an array)."""
    return rotation_family(B)[0](theta)


def _circulant(lam: np.ndarray) -> np.ndarray:
    """Real circulant matrices (..., B, B) from their eigenvalues lam (..., B).

    Row b of each matrix is its first row, the inverse DFT of lam, rolled by b.
    """
    B = lam.shape[-1]
    first_row = np.fft.ifft(lam, axis=-1).real
    return first_row[..., (np.arange(B) - np.arange(B)[:, None]) % B]


def circulant_from_eigenphases(B: int, phases) -> Precoder:
    """Real orthogonal circulant from its eigenphases phi_0..phi_floor(B/2), radians.

    The eigenvalues are exp(j*phi_n), and exp(-j*phi_n) at B-n, so the
    matrix comes out real.  phi_0, and phi_{B/2} for even B, belong to real
    eigenvalues: each must be 0 or pi, and its eigenvalue is exactly +1 or -1.
    """
    if len(phases) != B // 2 + 1:
        raise ValueError(f"B={B} needs {B // 2 + 1} eigenphases phi_0..phi_{B // 2}, got {len(phases)}")
    real = [0] if B % 2 else [0, B // 2]
    if not all(abs(math.sin(phases[n])) <= ORTHO_TOL for n in real):
        raise ValueError("phi_0, and phi_B/2 for even B, must be 0 or pi (180 degrees)")
    lam = np.zeros(B, dtype=complex)
    for n in range(1, (B + 1) // 2):
        lam[n] = np.exp(1j * float(phases[n]))
        lam[B - n] = np.conj(lam[n])
    for n in real:
        lam[n] = round(math.cos(phases[n]))
    return _finish(B, _circulant(lam), "circulant")


def precode(p: Precoder, points: np.ndarray) -> np.ndarray:
    """The points (M, B) under p: (M, B), or (A, M, B) for a stack of A matrices.

    The matrices are real; complex points are transformed on their real and
    imaginary parts separately.
    """
    t = np.swapaxes(p.matrix, -1, -2)
    if np.iscomplexobj(points):
        return points.real @ t + 1j * (points.imag @ t)
    return points @ t


def apply(p: Precoder, c: Constellation) -> Constellation:
    """Precoded constellation: one precoder P applied to every point of c.

    Orthogonality preserves energies and all pairwise distances, so no
    renormalization happens here.
    """
    if p.B != c.B:
        raise ValueError(f"dimension mismatch: precoder B={p.B}, constellation B={c.B}")
    pts = precode(p, c.points)
    pts.setflags(write=False)
    base = apply(p, c.real_base) if c.real_base is not None else None
    return Constellation(
        name=f"{c.name}|{p.kind}",
        B=c.B,
        field=c.field,
        points=pts,
        m=c.m,
        real_base=base,
    )
