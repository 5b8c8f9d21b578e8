"""Real orthogonal precoding matrices and their application to constellations.

Two constructions are provided: the plane rotation for B=2 and real
orthogonal circulants for any B, assembled from unit-magnitude eigenvalues
with conjugate symmetry so the matrix comes out real.  For B=3 the
circulant with a single eigenphase is the rotation around the (1,1,1)
axis.  Complex constellations are precoded by applying the same real
matrix to the real and imaginary parts separately.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constellations import Constellation

ORTHO_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Precoder:
    B: int
    matrix: np.ndarray
    kind: str  # constructor name, carried into the precoded constellation's name


def _finish(B, matrix, kind) -> Precoder:
    matrix = np.asarray(matrix, dtype=float)
    err = np.max(np.abs(matrix @ matrix.T - np.eye(B)))
    if err > ORTHO_TOL:
        raise ValueError(f"constructed matrix is not orthogonal (|PP^T - I| = {err:.2e})")
    matrix.setflags(write=False)
    return Precoder(B=B, matrix=matrix, kind=kind)


def rotation2(theta: float) -> Precoder:
    """2x2 rotation by `theta` radians; first row (cos t, -sin t)."""
    c, s = math.cos(theta), math.sin(theta)
    return _finish(2, [[c, -s], [s, c]], "rotation2")


def circulant_from_phases(B, phases, lambda0_sign=1, lambda_half_sign=None) -> Precoder:
    """Real orthogonal circulant with eigenvalues exp(j*phases).

    `phases` supplies the floor((B-1)/2) free eigenphases; the remaining
    eigenvalues are their conjugates, plus the signs at DC (and at B/2 for
    even B) which must be +-1 to keep the matrix real.
    """
    n_free = (B - 1) // 2
    phases = [float(p) for p in np.atleast_1d(phases)] if phases is not None else []
    if len(phases) != n_free:
        raise ValueError(f"B={B} needs {n_free} eigenphases, got {len(phases)}")
    if lambda0_sign not in (1, -1):
        raise ValueError("lambda0_sign must be +1 or -1")
    lam = np.zeros(B, dtype=complex)
    lam[0] = lambda0_sign
    for n, phi in enumerate(phases, start=1):
        lam[n] = np.exp(1j * phi)
        lam[B - n] = np.conj(lam[n])
    if B % 2 == 0:
        if lambda_half_sign not in (1, -1):
            raise ValueError("even B requires lambda_half_sign in {+1, -1}")
        lam[B // 2] = lambda_half_sign
    first_row = np.fft.ifft(lam)
    if np.max(np.abs(first_row.imag)) > ORTHO_TOL:
        raise ValueError("eigenvalue symmetry did not produce a real first row")
    row = first_row.real
    matrix = np.empty((B, B))
    for b in range(B):
        matrix[b] = np.roll(row, b)
    return _finish(B, matrix, "circulant")


def rotation3(theta1: float, lambda0_sign=1) -> Precoder:
    """3x3 rotation by `theta1` around the (1,1,1)/sqrt(3) axis."""
    p = circulant_from_phases(3, [theta1], lambda0_sign=lambda0_sign)
    return Precoder(B=3, matrix=p.matrix, kind="rotation3")


def apply(p: Precoder, c: Constellation) -> Constellation:
    """Precoded constellation P applied to every point of c.

    The matrix is real; complex points are transformed on their real and
    imaginary parts separately.  Orthogonality preserves energies and all
    pairwise distances, so no renormalization happens here.
    """
    if p.B != c.B:
        raise ValueError(f"dimension mismatch: precoder B={p.B}, constellation B={c.B}")
    if c.field == "complex":
        pts = c.points.real @ p.matrix.T + 1j * (c.points.imag @ p.matrix.T)
    else:
        pts = c.points @ p.matrix.T
    pts = np.asarray(pts)
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

