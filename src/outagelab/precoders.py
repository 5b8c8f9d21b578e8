"""Real orthogonal precoding matrices and their application to constellations.

Two constructions are provided: the plane rotation for B=2 and real
orthogonal circulants for any B, assembled from unit-magnitude eigenvalues
with conjugate symmetry so the matrix comes out real.  For B=3 the
circulant with a single eigenphase is the rotation around the (1,1,1)
axis.  `ROTATIONS` is the one table keyed on B: the single-angle rotation
of B=2 and B=3 and the angle span a sweep covers.  Complex constellations
are precoded by applying the same real matrix to the real and imaginary
parts separately.
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
    return _finish(B, [np.roll(first_row.real, b) for b in range(B)], "circulant")


def rotation3(theta1: float) -> Precoder:
    """3x3 rotation by `theta1` around the (1,1,1)/sqrt(3) axis."""
    return Precoder(B=3, matrix=circulant_from_phases(3, [theta1]).matrix, kind="rotation3")


# B -> (single-angle rotation, the angle span in degrees one sweep covers)
ROTATIONS = {2: (rotation2, 90.0), 3: (rotation3, 120.0)}


def rotation_family(B: int) -> tuple:
    """(constructor, sweep span in degrees) of the single-angle rotation for B blocks."""
    if B not in ROTATIONS:
        raise ValueError(f"B={B} has no single-angle rotation (B = 2 and B = 3 do); use a circulant")
    return ROTATIONS[B]


def rotation(B: int, theta: float) -> Precoder:
    """Single-angle precoder: `rotation2` for B=2, `rotation3` for B=3."""
    return rotation_family(B)[0](theta)


def circulant_from_eigenphases(B: int, phases) -> Precoder:
    """Real orthogonal circulant from its eigenphases phi_0..phi_floor(B/2), radians.

    phi_0, and phi_{B/2} for even B, belong to real eigenvalues: each must be
    0 or pi, the eigenvalue sign +1 or -1.
    """
    if len(phases) != B // 2 + 1:
        raise ValueError(f"B={B} needs {B // 2 + 1} eigenphases phi_0..phi_{B // 2}, got {len(phases)}")
    real = [phases[0]] if B % 2 else [phases[0], phases[-1]]
    if any(abs(math.sin(p)) > ORTHO_TOL for p in real):
        raise ValueError("phi_0, and phi_B/2 for even B, must be 0 or pi (180 degrees)")
    return circulant_from_phases(B, phases[1:(B + 1) // 2], *(round(math.cos(p)) for p in real))


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

