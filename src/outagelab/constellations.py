"""Multidimensional discrete constellations and their axis projections.

A constellation is a set of M points in B real or complex dimensions, used
as the input alphabet of a block-fading channel after linear precoding and
component interleaving.  Points are kept normalized so the average energy
per component is one.  The axis projection keeps the induced marginal
probabilities (coincident coordinates merge and their mass accumulates),
which is what the scalar channel of one surviving fading block sees.
"""

import itertools
import json
import math
from dataclasses import dataclass, replace

import numpy as np

DEDUP_TOL = 1e-6
DISTINCT_TOL = 1e-9
SYMMETRY_TOL = 1e-8
_MATCH_CAP = 1 << 14  # coordinate gaps per block of `_match`


@dataclass(frozen=True, eq=False)
class Constellation:
    """Labeled point set: `points` has shape (M, B), real or complex.

    `m` is bits per symbol (log2 M, possibly fractional for custom sets).
    `real_base`, when present, is the unit-energy real constellation Psi
    such that this complex constellation equals Psi + j*Psi with
    independent real/imaginary parts; it enables the exact two-channel
    reduction of the mutual information.
    """

    name: str
    B: int
    field: str  # "real" | "complex"
    points: np.ndarray
    m: float
    real_base: "Constellation | None" = None

    @property
    def M(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True, eq=False)
class ProjectionSet:
    """Distinct 1-D coordinate values of a constellation along one axis.

    `probs[k]` is the probability mass merged into `values[k]` (multiple
    points projecting onto the same coordinate accumulate).  `real_base`,
    when present, is the same axis projection of the constellation's real
    base, for the two-channel reduction of the scalar mutual information.
    Inside a `ProjectionStack`, values and probs carry a leading row axis
    (n, S): n projections of S values each, and `entropy_bits` gives one
    entropy per row.
    """

    values: np.ndarray
    probs: np.ndarray
    real_base: "ProjectionSet | None" = None

    @property
    def size(self) -> int:
        return self.values.shape[-1]

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.values)

    def entropy_bits(self):
        p = self.probs
        return -np.sum(p * np.log2(p), axis=-1)


@dataclass(frozen=True, eq=False)
class ProjectionStack:
    """Projections of the A members of a family of coordinate columns, by size.

    `groups` holds one (rows, sp) pair per projection size: the members
    `rows` (n,) whose projections have the same number S of distinct
    values, and a ProjectionSet `sp` whose values and probs hold their
    projections with a leading row axis (n, S), each row as `project`
    gives it.  `real_base`, when present, stacks the same projection of
    every member's real base: a stack has a real base for all of its
    members or for none.
    """

    A: int
    groups: tuple
    real_base: "ProjectionStack | None" = None


def _validate_points(points: np.ndarray, B: int) -> None:
    """Raise ValueError unless `points` is a valid (M, B) alphabet.

    Needs B >= 1, M >= 2, finite coordinates and points pairwise farther
    than DISTINCT_TOL apart.  Two points that close share every
    coordinate's gap cluster at twice that tolerance, so one
    `group_points` pass screens the set, and the O(M^2) pairwise scan runs
    only when the screen finds a group of more than one point.
    """
    M = points.shape[0]
    if B < 1:
        raise ValueError("B must be >= 1")
    if M < 2:
        raise ValueError("a constellation needs at least 2 points")
    if points.shape != (M, B):
        raise ValueError(f"points must have shape (M, {B})")
    if not np.isfinite(points).all():
        raise ValueError("every coordinate of a point must be finite")
    _, counts = group_points(points, 2.0 * DISTINCT_TOL)
    if counts.max() > 1:
        d = _pairwise_min_distance(points)
        if d <= DISTINCT_TOL:
            raise ValueError(f"points are not pairwise distinct (min distance {d:.3g})")


def _pairwise_min_distance(points: np.ndarray) -> float:
    """Least Euclidean distance between two points of `points` (M, B)."""
    return float(np.sqrt(_pairwise_min(points[None], lambda g: np.sum(g**2, axis=-1))[0]))


def make_constellation(name, points, field, real_base=None) -> Constellation:
    """Validate, normalize, and freeze a constellation."""
    dtype = complex if field == "complex" else float
    pts = np.asarray(points, dtype=dtype)
    if pts.ndim == 1:
        pts = pts[:, None]
    B = pts.shape[1]
    _validate_points(pts, B)
    scale = 1.0 / math.sqrt(float(np.mean(np.abs(pts) ** 2)))
    pts = pts * scale
    pts.setflags(write=False)
    m = math.log2(pts.shape[0])
    return Constellation(name=name, B=B, field=field, points=pts, m=m, real_base=real_base)


def cartesian_product(factor: Constellation, B: int) -> Constellation:
    """B-fold Cartesian product of a one-dimensional constellation."""
    if factor.B != 1:
        raise ValueError("cartesian_product needs a 1-D factor constellation")
    if B < 2:
        raise ValueError("B must be >= 2 for a product constellation")
    vals = factor.points[:, 0]
    pts = np.array(list(itertools.product(vals, repeat=B)))
    base = None
    if factor.field == "complex":
        base = _separable_real_base(factor, B)
    return make_constellation(f"{factor.name}^{B}", pts, factor.field, real_base=base)


def _separable_real_base(factor: Constellation, B: int) -> "Constellation | None":
    """Unit-energy real product base Psi for factors of the form A + jA.

    Returns None unless the factor's points are the grid of one real value
    set against itself (independent real/imaginary parts): the grid must
    match the points one to one within DEDUP_TOL (`_match`).
    """
    vals = factor.points[:, 0]
    re, im = _levels(vals.real), _levels(vals.imag)
    if len(re) != len(im) or len(re) ** 2 != vals.size or np.max(np.abs(re - im)) > DEDUP_TOL:
        return None
    grid = (re[:, None] + 1j * im[None, :]).reshape(1, -1, 1)
    _, hit = _match(vals.reshape(1, -1, 1), np.ones((1, vals.size)), grid, DEDUP_TOL)
    if not hit[0]:
        return None
    return cartesian_product(make_constellation(f"{factor.name}.re", re[:, None], "real"), B)


def _levels(values: np.ndarray) -> np.ndarray:
    """Sorted distinct real values, each the mean of the values merged into it."""
    v = np.sort(values)
    first, counts = group_points(v, DEDUP_TOL)
    return np.add.reduceat(v, first) / counts


def project(c: Constellation, axis: int) -> ProjectionSet:
    """Distinct coordinate values along `axis` (1-based), merged within DEDUP_TOL.

    Values come sorted (complex ones by real, then imaginary part); the
    projection of the constellation's real base, made in the same call,
    rides along as `real_base`.  The one-member case of `project_stack`.
    """
    if not 1 <= axis <= c.B:
        raise ValueError(f"axis must be in 1..{c.B}")
    base = None if c.real_base is None else c.real_base.points[None, :, axis - 1]
    stack = project_stack(c.points[None, :, axis - 1], base)
    ((_, sp),) = stack.groups
    if stack.real_base is not None:  # from the base's columns to its projection
        ((_, b),) = stack.real_base.groups
        base = ProjectionSet(b.values[0], b.probs[0])
    return ProjectionSet(sp.values[0], sp.probs[0], base)


def project_stack(cols: np.ndarray, real_base_cols=None) -> ProjectionStack:
    """The projections of A coordinate columns (A, M) at once, as `project` makes each.

    Each column is clustered as `group_points` clusters it: every real
    coordinate on its own, sorted and split at gaps wider than DEDUP_TOL.
    A group is represented by its first point, after a real column is
    sorted (so by its least value), and each projection's values come
    sorted by real, then imaginary part, with their masses.  The members
    are then grouped by projection size.  `real_base_cols` (A, Mb), the
    same coordinate of every member's real base, is projected alongside.
    """
    A, M = cols.shape
    if not np.iscomplexobj(cols):
        cols = np.sort(cols, axis=1)
    parts = (cols.real, cols.imag) if np.iscomplexobj(cols) else (cols,)
    order, starts = _runs(np.stack([_gap_labels(part.T, DEDUP_TOL).T for part in parts]))
    first = order.ravel()[starts]  # the first point of each group, row by row
    counts = np.diff(np.append(starts, A * M))
    sizes = np.bincount(starts // M, minlength=A)
    offsets = np.cumsum(sizes) - sizes
    groups = []
    for S in sorted(set(sizes.tolist())):
        rows = np.flatnonzero(sizes == S)
        at = offsets[rows, None] + np.arange(S)
        reps = np.take_along_axis(cols[rows], first[at], axis=1)
        by = np.lexsort((reps.imag, reps.real), axis=-1)
        groups.append((rows, ProjectionSet(np.take_along_axis(reps, by, axis=1),
                                           np.take_along_axis(counts[at], by, axis=1) / M)))
    return ProjectionStack(A, tuple(groups), None if real_base_cols is None else project_stack(real_base_cols))


def group_points(points: np.ndarray, tol: float):
    """Group the rows of `points` (real or complex) that coincide within tol.

    Each real coordinate is clustered on its own by sorting and splitting
    at gaps wider than tol; rows that share every coordinate cluster form
    one group.  For point sets whose near-duplicates differ by rounding
    noise and whose distinct points lie farther than tol apart, this is the
    pairwise rule |a - b| <= tol.  Returns the index of each group's first
    row and the group sizes, both in order of first appearance.
    """
    x = np.asarray(points).reshape(len(points), -1)
    if np.iscomplexobj(x):
        x = np.hstack([x.real, x.imag])
    order, starts = _runs(_gap_labels(x, tol).T)
    first = order[starts]
    by_first = np.argsort(first)
    return first[by_first], np.diff(np.append(starts, len(x)))[by_first]


def _gap_labels(x: np.ndarray, tol: float) -> np.ndarray:
    """Cluster label of each value in each column of x: the column is sorted
    and split at gaps wider than tol, and a label counts the splits below."""
    order = np.argsort(x, axis=0, kind="stable")
    gaps = np.diff(np.take_along_axis(x, order, axis=0), axis=0) > tol
    ranks = np.zeros(x.shape, dtype=np.intp)
    np.cumsum(gaps, axis=0, out=ranks[1:])
    labels = np.empty(x.shape, dtype=np.intp)
    np.put_along_axis(labels, order, ranks, axis=0)
    return labels


def _runs(labels: np.ndarray):
    """The stable lexicographic order (..., n) of the columns of `labels` (C, ..., n)
    along the last axis (the last of the C labels first, as `np.lexsort`
    sorts), and the flat indices into it where a run of equal columns
    starts: at each row's first column and wherever any label changes."""
    order = np.lexsort(labels)
    keys = np.take_along_axis(labels, order[None], axis=-1)
    new = np.ones(order.shape, dtype=bool)
    new[..., 1:] = (keys[..., 1:] != keys[..., :-1]).any(axis=0)
    return order, np.flatnonzero(new)


def check_symmetry(c: Constellation, tol: float = SYMMETRY_TOL) -> bool:
    """Equal-axis-projection symmetry of the point set.

    B=2: invariance under a quarter turn (u1, u2) -> (-u2, u1).
    B>2: invariance under a one-step cyclic shift of the components.
    Constellations passing this check project identically on every axis,
    so a single axis-crossing radius describes all of them.  `tol` bounds,
    per coordinate (a modulus, if complex), each image point's gap to its match.
    """
    if c.B == 1:
        return True
    if c.B == 2:
        image = np.stack([-c.points[:, 1], c.points[:, 0]], axis=1)
    else:
        image = np.roll(c.points, 1, axis=1)
    _, hit = _match(c.points[None], np.ones((1, c.M)), image[None], tol)
    return bool(hit[0])


def _match(pts, probs, image, tol):
    """For each of n point sets (n, M, D), the index of the point each image point lands on.

    Returns that (n, M) index and, per set, whether the image is the set
    itself: every image point within `tol` in every coordinate (a modulus,
    if complex) of a point of equal probability in `probs` (n, M), no two
    on the same point.  Blocks of _MATCH_CAP gaps keep memory off M^2.
    """
    n, M, D = pts.shape
    match = np.empty((n, M), dtype=np.intp)
    gap = np.empty((n, M))
    i_chunk = max(1, min(M, _MATCH_CAP // (M * D)))
    a_chunk = max(1, _MATCH_CAP // (i_chunk * M * D))
    for a0 in range(0, n, a_chunk):
        for i0 in range(0, M, i_chunk):
            rows, cols = slice(a0, a0 + a_chunk), slice(i0, i0 + i_chunk)
            g = np.abs(image[rows, cols, None, :] - pts[rows, None, :, :]).max(axis=3)
            j = g.argmin(axis=2)
            match[rows, cols] = j
            gap[rows, cols] = np.take_along_axis(g, j[..., None], axis=2)[..., 0]
    hit = gap.max(axis=1) <= tol
    landed = np.bincount((match + M * np.arange(n)[:, None]).ravel(), minlength=n * M)
    hit &= landed.reshape(n, M).max(axis=1) == 1
    hit &= (np.take_along_axis(probs, match, axis=1) == probs).all(axis=1)
    return match, hit


def min_product_distance(c: Constellation) -> float:
    """Minimum over distinct pairs of the product of per-component
    absolute differences; zero whenever two points share a coordinate."""
    return float(min_product_distances(c.points[None])[0])


def min_product_distances(points: np.ndarray) -> np.ndarray:
    """`min_product_distance` of each of A point sets (A, M, B)."""
    return _pairwise_min(points, lambda g: np.prod(g, axis=-1))


def _pairwise_min(points: np.ndarray, reduce) -> np.ndarray:
    """Least `reduce(|a - b|)` over distinct point pairs of each of A point sets (A, M, B),
    `reduce` mapping coordinate moduli (..., B) to (...); blocks of about 2^20 differences."""
    A, M, B = points.shape
    i_chunk = min(M, 256)
    a_chunk = max(1, (1 << 20) // (i_chunk * M * B))
    best = np.full(A, math.inf)
    for a0 in range(0, A, a_chunk):
        sets = points[a0 : a0 + a_chunk]
        for i0 in range(0, M, i_chunk):
            block = sets[:, i0 : i0 + i_chunk]
            d = reduce(np.abs(block[:, :, None, :] - sets[:, None, :, :]))
            rows = np.arange(block.shape[1])
            d[:, rows, i0 + rows] = math.inf
            np.minimum(best[a0 : a0 + a_chunk], d.min(axis=(1, 2)), out=best[a0 : a0 + a_chunk])
    return best


# ---------------------------------------------------------------------------
# Named registry
# ---------------------------------------------------------------------------

def _bpsk():
    return make_constellation("bpsk", [[-1.0], [1.0]], "real")


def _pam4():
    return make_constellation("pam4", [[-3.0], [-1.0], [1.0], [3.0]], "real")


def _qam4():
    pts = [[a + 1j * b] for a in (-1, 1) for b in (-1, 1)]
    return make_constellation("qam4", pts, "complex")


def _star8_points():
    # unit-radius 4-QAM corners plus axis points; the axis radius sqrt(3)
    # makes the 8-point set unit-energy per component without rescaling
    s = 1.0 / math.sqrt(2.0)
    r = math.sqrt(3.0)
    corners = [(a * s, b * s) for a in (-1, 1) for b in (-1, 1)]
    axes = [(r, 0.0), (-r, 0.0), (0.0, r), (0.0, -r)]
    return corners + axes


def _qam8_star():
    pts = [[a + 1j * b] for a, b in _star8_points()]
    return make_constellation("qam8_star", pts, "complex")


def _qam16_grid():
    levels = (-3, -1, 1, 3)
    pts = [[a + 1j * b] for a in levels for b in levels]
    return make_constellation("qam16_grid", pts, "complex")


def _cross_qam32():
    levels = (-5, -3, -1, 1, 3, 5)
    pts = [
        [a + 1j * b]
        for a in levels
        for b in levels
        if not (abs(a) == 5 and abs(b) == 5)
    ]
    return make_constellation("cross_qam32", pts, "complex")


def _r2_8():
    return make_constellation("r2_8", _star8_points(), "real")


# Five orbits of cyclic shifts plus the origin; the base triples sit on
# circles in planes perpendicular to the (1,1,1) axis.
_R3_16_BASE = [
    (0.0, 1.0, -1.0),
    (1.9, 0.12, 0.12),
    (1.3, -0.5, 1.3),
    (0.5, -1.3, -1.3),
    (-1.9, -0.1, -0.1),
]


def _r3_16():
    pts = []
    for a, b, c in _R3_16_BASE:
        pts += [(a, b, c), (b, c, a), (c, a, b)]
    pts.append((0.0, 0.0, 0.0))
    return make_constellation("r3_16", pts, "real")


_REGISTRY = {
    "bpsk": _bpsk,
    "pam4": _pam4,
    "qam4": _qam4,
    "qam8_star": _qam8_star,
    "qam16_grid": _qam16_grid,
    "cross_qam32": _cross_qam32,
    "r2_8": _r2_8,
    "r3_16": _r3_16,
}

# Product sets: registry name -> (registry name of the 1-D factor, B)
_PRODUCTS = {
    "r2_4": ("bpsk", 2), "r2_16": ("pam4", 2), "r3_8": ("bpsk", 3), "r3_64": ("pam4", 3),
    "c2_16": ("qam4", 2), "c2_64": ("qam8_star", 2), "c2_256": ("qam16_grid", 2),
    "c2_1024": ("cross_qam32", 2),
}


def registry_names():
    return sorted([*_REGISTRY, *_PRODUCTS])


def build_named(name: str) -> Constellation:
    """Build a constellation from the named registry; a product set is the
    `cartesian_product` of its factor, under its registry name."""
    if name in _PRODUCTS:
        factor, B = _PRODUCTS[name]
        return replace(cartesian_product(_REGISTRY[factor](), B), name=name)
    if name not in _REGISTRY:
        raise KeyError(f"unknown constellation {name!r}; known: {', '.join(registry_names())}")
    return _REGISTRY[name]()


# ---------------------------------------------------------------------------
# JSON constellation files
# ---------------------------------------------------------------------------

def from_dict(d: dict) -> Constellation:
    field = d["field"]
    if field not in ("real", "complex"):
        raise ValueError(f"field must be 'real' or 'complex', got {field!r}")
    B = int(d["B"])
    raw = d["points"]
    if field == "complex":
        pts = np.array([[complex(p[0], p[1]) for p in row] for row in raw])
    else:
        pts = np.array(raw, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != B:
        raise ValueError(f"points do not match B={B}")
    if not d.get("normalize", True):
        e = float(np.mean(np.abs(pts) ** 2))
        if abs(e - 1.0) > 1e-9:
            raise ValueError("normalize=false requires unit per-component energy")
    return make_constellation(d["name"], pts, field)


def load_file(path) -> Constellation:
    with open(path) as fh:
        return from_dict(json.load(fh))
