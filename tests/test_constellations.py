import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outagelab import constellations as cs
from outagelab import precoders


REGISTRY_SHAPE = {
    # name: (M, B, field)
    "bpsk": (2, 1, "real"),
    "pam4": (4, 1, "real"),
    "qam4": (4, 1, "complex"),
    "qam8_star": (8, 1, "complex"),
    "qam16_grid": (16, 1, "complex"),
    "cross_qam32": (32, 1, "complex"),
    "r2_4": (4, 2, "real"),
    "r2_8": (8, 2, "real"),
    "r2_16": (16, 2, "real"),
    "r3_8": (8, 3, "real"),
    "r3_16": (16, 3, "real"),
    "r3_64": (64, 3, "real"),
    "c2_16": (16, 2, "complex"),
    "c2_64": (64, 2, "complex"),
    "c2_256": (256, 2, "complex"),
    "c2_1024": (1024, 2, "complex"),
}


@pytest.mark.parametrize("name", sorted(REGISTRY_SHAPE))
def test_registry_entries_normalized(name):
    c = cs.build_named(name)
    M, B, field = REGISTRY_SHAPE[name]
    assert (c.M, c.B, c.field) == (M, B, field)
    assert abs(np.mean(np.abs(c.points) ** 2) - 1.0) < 1e-9
    assert c.m == pytest.approx(math.log2(M))
    assert cs._pairwise_min_distance(c.points) > 1e-9


def test_unknown_name_raises():
    with pytest.raises(KeyError):
        cs.build_named("qam_nope")


def test_square_is_bpsk_squared():
    square = cs.build_named("r2_4")
    prod = cs.cartesian_product(cs.build_named("bpsk"), 2)
    got = {tuple(p) for p in np.round(prod.points, 12).tolist()}
    want = {tuple(p) for p in np.round(square.points, 12).tolist()}
    assert got == want
    assert prod.m == 2


def test_cube_and_pam_products():
    cube = cs.cartesian_product(cs.build_named("bpsk"), 3)
    assert cube.M == 8
    assert {abs(x) for p in cube.points for x in p} == {1.0}
    big = cs.cartesian_product(cs.build_named("pam4"), 3)
    assert big.M == 64


def test_cartesian_product_requires_1d():
    with pytest.raises(ValueError):
        cs.cartesian_product(cs.build_named("r2_4"), 2)


def test_r3_16_structure():
    c = cs.build_named("r3_16")
    assert c.M == 16
    assert cs.check_symmetry(c)
    # origin present
    norms = np.linalg.norm(c.points, axis=1)
    assert norms.min() < 1e-12


@pytest.mark.parametrize(
    "deg,size,probs",
    [(0.0, 2, [0.5, 0.5]), (45.0, 3, [0.25, 0.5, 0.25]), (27.0, 4, [0.25] * 4)],
)
def test_projection_counts_rotated_square(deg, size, probs):
    c = cs.build_named("r2_4")
    omega_x = precoders.apply(precoders.rotation2(math.radians(deg)), c)
    sp = cs.project(omega_x, 1)
    assert sp.size == size
    assert np.allclose(sp.probs, probs)
    assert np.all(np.diff(sp.values) > 0)


def test_projection_axis_validation():
    c = cs.build_named("r2_4")
    with pytest.raises(ValueError):
        cs.project(c, 0)
    with pytest.raises(ValueError):
        cs.project(c, 3)


@pytest.mark.parametrize("name", ["r2_4", "r2_8", "r2_16", "r3_8", "r3_16", "c2_16"])
def test_projection_axis_independent_for_symmetric(name):
    c = cs.build_named(name)
    assert cs.check_symmetry(c)
    sps = [cs.project(c, ax) for ax in range(1, c.B + 1)]
    for sp in sps[1:]:
        assert sp.size == sps[0].size
        assert np.allclose(np.sort_complex(np.asarray(sp.values, complex)),
                           np.sort_complex(np.asarray(sps[0].values, complex)), atol=1e-8)
        assert np.allclose(sp.probs, sps[0].probs)


def test_rectangular_grid_fails_symmetry():
    pts = [(a, b) for a in (-1.0, 1.0) for b in (-3.0, -1.0, 1.0, 3.0)]
    rect = cs.make_constellation("rect8", pts, "real")
    assert not cs.check_symmetry(rect)


def test_check_symmetry_memory_guard():
    # the image is matched in blocks, never as one M x M difference array
    import tracemalloc

    c = cs.build_named("c2_1024")
    tracemalloc.start()
    try:
        assert cs.check_symmetry(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def symmetric_by_distance(c, tol):
    """Reference for `check_symmetry`: every image point lies within
    Euclidean distance tol of a point of the set, one image point at a time."""
    pts = c.points
    if c.B == 1:
        return True
    image = np.stack([-pts[:, 1], pts[:, 0]], axis=1) if c.B == 2 else np.roll(pts, 1, axis=1)
    return all(np.sqrt(np.sum(np.abs(pts - x) ** 2, axis=1)).min() <= tol for x in image)


@pytest.mark.parametrize("name", cs.registry_names() + ["rect8"])
def test_check_symmetry_verdicts_match_distance_loop(name):
    if name == "rect8":  # the rectangle of test_rectangular_grid_fails_symmetry
        c = cs.make_constellation(name, [(a, b) for a in (-1.0, 1.0) for b in (-3.0, -1.0, 1.0, 3.0)], "real")
    else:
        c = cs.build_named(name)
    assert cs.check_symmetry(c) == symmetric_by_distance(c, cs.SYMMETRY_TOL)


@pytest.mark.parametrize("k,want", [(0.5, True), (2.0, False)])
def test_check_symmetry_tolerance_per_coordinate(k, want):
    # the quarter-turn image of the first point misses the second by
    # k * SYMMETRY_TOL in one coordinate
    d = k * cs.SYMMETRY_TOL
    c = cs.from_dict({"name": "square", "B": 2, "field": "real",
                      "points": [[1.0 + d, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]})
    assert cs.check_symmetry(c) is want


def test_min_distance_bpsk():
    assert cs._pairwise_min_distance(cs.build_named("bpsk").points) == pytest.approx(2.0)


def test_product_distance_zero_at_theta0():
    c = cs.build_named("r2_4")
    assert cs.min_product_distance(c) == pytest.approx(0.0, abs=1e-12)


def test_rotation_preserves_euclidean_but_not_product_distance():
    c = cs.build_named("r2_8")
    d0 = cs._pairwise_min_distance(c.points)
    dp = []
    for deg in (10.0, 20.0, 35.0):
        omega_x = precoders.apply(precoders.rotation2(math.radians(deg)), c)
        assert cs._pairwise_min_distance(omega_x.points) == pytest.approx(d0, abs=1e-10)
        dp.append(cs.min_product_distance(omega_x))
    assert max(dp) - min(dp) > 1e-3


@given(scale=st.floats(min_value=0.01, max_value=100.0))
@settings(max_examples=25, deadline=None)
def test_normalize_is_idempotent_and_shape_preserving(scale):
    base = cs.build_named("r2_8")
    scaled = cs.make_constellation("s", base.points * scale, "real")
    again = cs.make_constellation("s", scaled.points, "real")
    assert np.allclose(scaled.points, base.points, atol=1e-12)
    assert np.allclose(again.points, scaled.points, atol=1e-12)


@given(m_bits=st.sampled_from(["bpsk", "pam4", "qam4"]), B=st.integers(2, 4))
@settings(max_examples=12, deadline=None)
def test_products_are_cyclic_symmetric(m_bits, B):
    c = cs.cartesian_product(cs.build_named(m_bits), B)
    assert cs.check_symmetry(c)


@pytest.mark.parametrize("name", sorted(cs._PRODUCTS))
def test_product_sets_are_cartesian_products(name):
    factor, B = cs._PRODUCTS[name]
    c, want = cs.build_named(name), cs.cartesian_product(cs.build_named(factor), B)
    assert c.name == name
    assert (c.B, c.field, c.m) == (want.B, want.field, want.m)
    assert np.array_equal(c.points, want.points)
    assert (c.real_base is None) == (want.real_base is None)
    if want.real_base is not None:
        assert np.array_equal(c.real_base.points, want.real_base.points)


def test_real_base_detection():
    assert cs.build_named("c2_16").real_base is not None
    assert cs.build_named("c2_256").real_base is not None
    assert cs.build_named("c2_64").real_base is None
    assert cs.build_named("c2_1024").real_base is None
    base = cs.build_named("c2_16").real_base
    want = {tuple(p) for p in cs.build_named("r2_4").points.tolist()}
    assert {tuple(p) for p in np.round(base.points, 12).tolist()} == want


def loop_cluster(col, tol):
    """Reference for `project`: the loops it ran before `group_points`.

    Real coordinates are sorted and each joins the group whose least value
    lies within tol; complex ones join the first earlier group within tol,
    and the groups are then sorted by real, then imaginary part.
    """
    if not np.iscomplexobj(col):
        v = np.sort(col)
        reps, counts = [v[0]], [1]
        for x in v[1:]:
            if x - reps[-1] <= tol:
                counts[-1] += 1
            else:
                reps.append(x)
                counts.append(1)
        return np.asarray(reps, dtype=float), np.asarray(counts, dtype=float)
    reps, counts = [], []
    for z in col:
        for k, r in enumerate(reps):
            if abs(z - r) <= tol:
                counts[k] += 1
                break
        else:
            reps.append(z)
            counts.append(1)
    order = np.lexsort((np.imag(reps), np.real(reps)))
    return np.asarray(reps, dtype=complex)[order], np.asarray(counts, dtype=float)[order]


def _precoded(c, theta_deg):
    if c.B == 1:
        return c
    return precoders.apply(precoders.rotation(c.B, math.radians(theta_deg)), c)


@pytest.mark.parametrize("name", sorted(REGISTRY_SHAPE))
def test_projection_matches_loop(name):
    c = cs.build_named(name)
    for theta_deg in (0.0, 27.0, 30.5, 45.0):
        omega_x = _precoded(c, theta_deg)
        for axis in range(1, c.B + 1):
            values, counts = loop_cluster(omega_x.points[:, axis - 1], cs.DEDUP_TOL)
            sp = cs.project(omega_x, axis)
            assert np.array_equal(sp.values, values)
            assert np.array_equal(sp.probs, counts / c.M)
            if c.real_base is None:
                assert sp.real_base is None
            else:
                want = cs.project(omega_x.real_base, axis)
                assert np.array_equal(sp.real_base.values, want.values)
                assert np.array_equal(sp.real_base.probs, want.probs)


def loop_levels(values, tol):
    """Reference for the real-base detection: the loop it ran before
    `group_points` (sorted values, chained within tol, group means)."""
    v = np.sort(values)
    groups = [[v[0]]]
    for x in v[1:]:
        if x - groups[-1][-1] <= tol:
            groups[-1].append(x)
        else:
            groups.append([x])
    return np.array([float(np.mean(g)) for g in groups])


# An unnormalised separable factor with levels {-1, L}, L = 1 + 0.5e-6 on the
# edge between two multiples of DEDUP_TOL, its two upper imaginary parts
# 1e-13 either side of L
_L = 1.0 + 0.5e-6
BUCKET_EDGE = cs.Constellation("edge", 1, "complex", np.array(
    [[-1.0 - 1.0j], [-1.0 + 1j * (_L - 1e-13)], [_L - 1.0j], [_L + 1j * (_L + 1e-13)]]), 2.0)


@pytest.mark.parametrize("factor,base", [("qam4", True), ("qam16_grid", True),
                                         ("qam8_star", False), ("cross_qam32", False),
                                         pytest.param(BUCKET_EDGE, True, id="bucket-edge")])
def test_separable_real_base_matches_loop(factor, base):
    f = factor if isinstance(factor, cs.Constellation) else cs.build_named(factor)
    got = cs._separable_real_base(f, 2)
    if not base:
        assert got is None
        return
    levels = loop_levels(f.points[:, 0].real, cs.DEDUP_TOL)
    want = cs.cartesian_product(cs.make_constellation("re", levels[:, None], "real"), 2)
    assert np.array_equal(got.points, want.points)


def pairwise_groups(points, tol):
    """Reference for `group_points`: row i joins the first row within tol in
    every real coordinate (the pairwise rule, O(M^2))."""
    x = points.reshape(len(points), -1)
    if np.iscomplexobj(x):
        x = np.hstack([x.real, x.imag])
    owner = (np.abs(x[:, None, :] - x[None, :, :]) <= tol).all(axis=2).argmax(axis=1)
    first = np.flatnonzero(owner == np.arange(len(x)))
    return first, np.bincount(owner)[first]


@pytest.mark.parametrize("name", sorted(REGISTRY_SHAPE))
def test_group_points_matches_pairwise_rule(name):
    # ray directions as boundary traces scale the points: generic, and at
    # lambda = pi/2, where cos leaves a ~6e-17 column that must merge
    c = cs.build_named(name)
    for lam in (0.3, math.pi / 4, math.pi / 2):
        d = np.resize([math.cos(lam), math.sin(lam)], c.B)
        for pts in (c.points * d, c.points[:, :1]):
            got = cs.group_points(pts, 1e-9)
            want = pairwise_groups(pts, 1e-9)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_group_points_key_fits_with_every_coordinate_distinct():
    # 1024 rows, 4 real columns, every value its own cluster: 1024^4 label combinations
    pts = np.random.default_rng(3).normal(size=(1024, 2)) * (1 + 1j)
    pts[5] = pts[900] + 1e-12
    got = cs.group_points(pts, 1e-9)
    want = pairwise_groups(pts, 1e-9)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert got[0].size == 1023


def test_group_points_beyond_one_integer_key():
    # 256 rows, 8 columns, every value its own cluster: 256^8 label
    # combinations, more than one int64 key could number
    pts = np.random.default_rng(5).normal(size=(256, 8))
    first, counts = cs.group_points(pts, 1e-9)
    assert np.array_equal(first, np.arange(256)) and (counts == 1).all()
    assert cs.make_constellation("wide", pts, "real").M == 256


def json_dict(c):
    """The JSON file form of `c`: complex components as [re, im] pairs."""
    pts = c.points
    if c.field == "complex":
        pts = np.stack([pts.real, pts.imag], axis=-1)
    return {"name": c.name, "B": c.B, "field": c.field, "points": pts.tolist()}


def test_json_roundtrip_real(tmp_path):
    c = cs.build_named("r2_8")
    d = json_dict(c)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(d))
    back = cs.load_file(path)
    assert back.B == c.B and back.M == c.M and back.field == c.field
    assert np.allclose(back.points, c.points)


def test_json_roundtrip_complex(tmp_path):
    c = cs.build_named("qam8_star")
    d = json_dict(c)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(d))
    back = cs.load_file(path)
    assert np.allclose(back.points, c.points)


def test_json_rejects_bad_field_and_unnormalized():
    with pytest.raises(ValueError):
        cs.from_dict({"name": "x", "B": 1, "field": "octonion", "points": [[1], [2]]})
    with pytest.raises(ValueError):
        cs.from_dict(
            {"name": "x", "B": 1, "field": "real", "points": [[5.0], [-5.0]], "normalize": False}
        )


def test_duplicate_points_rejected():
    with pytest.raises(ValueError):
        cs.make_constellation("dup", [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], "real")


@pytest.mark.parametrize("field,points", [
    ("real", [[0.0, 1.0], [0.5e-9, 1.0], [1.0, -1.0]]),
    ("complex", [[1j], [0.5e-9 + 1j], [1.0]]),
])
def test_near_duplicate_pair_rejected_with_its_distance(field, points):
    with pytest.raises(ValueError) as exc:
        cs.make_constellation("near", points, field)
    assert str(exc.value) == "points are not pairwise distinct (min distance 5e-10)"


def test_chained_coordinates_of_distant_points_accepted(monkeypatch):
    # 100 points 1.5e-9 apart in each coordinate, 2.1e-9 apart in all: each
    # column is one gap cluster at the screen's 2e-9, so the screen finds a
    # group and the pairwise scan, which finds no pair within 1e-9, decides
    scans = []
    pairwise = cs._pairwise_min_distance
    monkeypatch.setattr(cs, "_pairwise_min_distance", lambda pts: scans.append(len(pts)) or pairwise(pts))
    chain = 1.0 + 1.5e-9 * np.arange(100.0)
    pts = np.vstack([np.stack([chain, chain], axis=1), [[-1.0, -1.0]]])
    assert cs.make_constellation("chain", pts, "real").M == 101
    assert scans == [101]


@given(seed=st.integers(0, 2**32 - 1), B=st.integers(1, 3), complex_=st.booleans(),
       gap=st.floats(min_value=0.0, max_value=4e-9))
@settings(max_examples=200, deadline=None)
def test_distinctness_check_raises_exactly_within_the_tolerance(seed, B, complex_, gap):
    # random sets with near-duplicates `gap` away, in a random direction or
    # along one coordinate; `_pairwise_min_distance` is the reference
    rng = np.random.default_rng(seed)
    M = int(rng.integers(2, 40))
    pts = rng.uniform(-1.0, 1.0, (M, B))
    step = rng.normal(size=(3, B))
    if complex_:
        pts = pts + 1j * rng.uniform(-1.0, 1.0, (M, B))
        step = step + 1j * rng.normal(size=(3, B))
    axis_only = rng.random(3) < 0.5
    step[axis_only] *= np.arange(B) == rng.integers(0, B)
    step /= np.sqrt(np.sum(np.abs(step) ** 2, axis=1, keepdims=True))
    pts = np.vstack([pts, pts[rng.integers(0, M, 3)] + gap * step])
    d = cs._pairwise_min_distance(pts)
    if d <= cs.DISTINCT_TOL:
        with pytest.raises(ValueError) as exc:
            cs._validate_points(pts, B)
        assert str(exc.value) == f"points are not pairwise distinct (min distance {d:.3g})"
    else:
        cs._validate_points(pts, B)
