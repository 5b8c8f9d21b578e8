import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outagelab import constellations as cs
from outagelab import precoders as pc


def bisector_rotation_closed_form(theta):
    """3x3 rotation around the (1,1,1) axis, written out entrywise."""
    k, l = math.cos(theta), math.sin(theta)
    r3 = math.sqrt(3.0)
    return np.array(
        [
            [1 + 2 * k, 1 - k - r3 * l, 1 - k + r3 * l],
            [1 - k + r3 * l, 1 + 2 * k, 1 - k - r3 * l],
            [1 - k - r3 * l, 1 - k + r3 * l, 1 + 2 * k],
        ]
    ) / 3.0


def test_rotation2_cases():
    assert np.allclose(pc.rotation2(0.0).matrix, np.eye(2))
    assert np.allclose(pc.rotation2(math.pi / 2).matrix, [[0, -1], [1, 0]], atol=1e-15)
    row = pc.rotation2(math.radians(27)).matrix[0]
    assert row == pytest.approx([0.8910, -0.4540], abs=1e-4)


def test_rotation3_identity_and_shift():
    assert np.allclose(pc.rotation3(0.0).matrix, np.eye(3), atol=1e-12)
    shift = pc.rotation3(2 * math.pi / 3).matrix
    perm = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=float)
    assert np.allclose(shift, perm, atol=1e-12)


@given(theta=st.floats(min_value=-7.0, max_value=7.0))
@settings(max_examples=40, deadline=None)
def test_rotation3_matches_closed_form(theta):
    got = pc.rotation3(theta).matrix
    assert np.max(np.abs(got - bisector_rotation_closed_form(theta))) < 1e-10


@given(
    B=st.integers(2, 6),
    seed=st.integers(0, 10_000),
    lam0=st.sampled_from([1, -1]),
    lamh=st.sampled_from([1, -1]),
)
@settings(max_examples=40, deadline=None)
def test_circulant_orthogonal_real_and_shifted(B, seed, lam0, lamh):
    rng = np.random.default_rng(seed)
    free = list(rng.uniform(-math.pi, math.pi, (B - 1) // 2))
    sign_phase = {1: 0.0, -1: math.pi}
    phases = [sign_phase[lam0]] + free + ([sign_phase[lamh]] if B % 2 == 0 else [])
    m = pc.circulant_from_eigenphases(B, phases).matrix
    assert np.max(np.abs(m @ m.T - np.eye(B))) < 1e-10
    for b in range(1, B):
        assert np.allclose(m[b], np.roll(m[0], b), atol=1e-12)


def test_eigenphase_roundtrip():
    phases = [0.7, -2.1]
    p = pc.circulant_from_eigenphases(5, [0.0] + phases)
    lam = np.fft.fft(p.matrix[0])
    assert np.max(np.abs(np.abs(lam) - 1.0)) < 1e-9
    got = np.angle(lam)[1:3]
    assert np.allclose(got, phases, atol=1e-9)


def test_circulant_argument_validation():
    with pytest.raises(ValueError):
        pc.circulant_from_eigenphases(3, [0.0, 0.1, 0.2])
    with pytest.raises(ValueError):
        pc.circulant_from_eigenphases(4, [0.0, 0.1])  # missing phi_2
    with pytest.raises(ValueError):
        pc.circulant_from_eigenphases(3, [1.0, 0.1])  # a real eigenvalue that is not +-1


def test_b2_circulant_spans_rotation_cases():
    # the two real orthogonal 2x2 circulants are the 0- and 90-degree
    # rotations up to a column sign flip
    ident = pc.circulant_from_eigenphases(2, [0.0, 0.0])
    swap = pc.circulant_from_eigenphases(2, [0.0, math.pi])
    assert np.allclose(ident.matrix, pc.rotation2(0.0).matrix)
    r90 = pc.rotation2(math.pi / 2).matrix.copy()
    r90[:, 1] *= -1
    assert np.allclose(swap.matrix, r90, atol=1e-12)
    square = cs.build_named("r2_4")
    for p in (ident, swap):
        assert np.max(np.abs(p.matrix @ p.matrix.T - np.eye(2))) < 1e-10
        assert cs.project(pc.apply(p, square), 1).size == cs.project(square, 1).size


def test_rotation_is_keyed_on_B():
    for B, ctor, span in ((2, pc.rotation2, 90.0), (3, pc.rotation3, 120.0)):
        assert pc.rotation_family(B) == (ctor, span)
        assert np.array_equal(pc.rotation(B, 0.4).matrix, ctor(0.4).matrix)
    for B in (1, 4):
        with pytest.raises(ValueError, match="circulant"):
            pc.rotation(B, 0.4)


@pytest.mark.parametrize("B,phases,signs", [
    (2, [0.0, math.pi], (1, -1)),
    (3, [math.pi, 0.7], (-1,)),
    (4, [0.0, 0.7, math.pi], (1, -1)),
    (5, [math.pi, 0.7, -2.1], (-1,)),
])
def test_circulant_from_eigenphases_matches_signed_phases(B, phases, signs):
    # the real eigenvalues are exactly the signs, not exp(j*pi) = -1 + 1.2e-16j
    got = pc.circulant_from_eigenphases(B, phases).matrix
    lam = np.exp(1j * np.array(phases + [-p for p in phases[1:(B + 1) // 2][::-1]]))
    lam[0] = signs[0]
    if B % 2 == 0:
        lam[B // 2] = signs[1]
    row = np.fft.ifft(lam).real
    assert np.array_equal(got, np.array([np.roll(row, b) for b in range(B)]))
    assert np.allclose(np.fft.fft(got[0]), lam)  # lambda_{B-n} = conj(lambda_n)


@pytest.mark.parametrize("B,phases", [
    (3, [0.0]), (3, [0.0, 0.7, 0.1]), (3, [0.5, 0.7]), (4, [0.0, 0.7, 0.5]), (2, [0.5, 0.0]),
])
def test_circulant_from_eigenphases_rejects(B, phases):
    with pytest.raises(ValueError):
        pc.circulant_from_eigenphases(B, phases)


def test_apply_identity_and_mismatch():
    c = cs.build_named("r2_4")
    out = pc.apply(pc.rotation2(0.0), c)
    assert np.allclose(out.points, c.points)
    with pytest.raises(ValueError):
        pc.apply(pc.rotation3(0.0), c)


@given(theta=st.floats(min_value=0.0, max_value=math.pi))
@settings(max_examples=25, deadline=None)
def test_apply_preserves_norms_and_distances(theta):
    c = cs.build_named("r2_8")
    out = pc.apply(pc.rotation2(theta), c)
    assert np.allclose(
        np.linalg.norm(out.points, axis=1), np.linalg.norm(c.points, axis=1), atol=1e-10
    )
    assert cs._pairwise_min_distance(out.points) == pytest.approx(
        cs._pairwise_min_distance(c.points), abs=1e-10
    )


def test_apply_complex_acts_on_parts():
    c = cs.build_named("c2_16")
    p = pc.rotation2(0.61)
    out = pc.apply(p, c)
    want = c.points.real @ p.matrix.T + 1j * (c.points.imag @ p.matrix.T)
    assert np.allclose(out.points, want)
    assert out.real_base is not None
    assert np.allclose(out.real_base.points, c.real_base.points @ p.matrix.T)

