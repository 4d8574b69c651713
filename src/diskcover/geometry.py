"""2D primitives: distances, strict convex hulls, smallest enclosing disks."""

from __future__ import annotations

import math
import random
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

Point = tuple[float, float]

# Shared coverage slack: a point at distance d counts as inside a disk of
# radius rho when d <= rho * (1 + REL_TOL) + ABS_TOL.  Every radius-vs-r
# comparison in the package uses the same rule so that boundary contacts
# (points exactly at the coverage radius) survive floating point.
REL_TOL = 1e-9
ABS_TOL = 1e-12

# Internal slack for the enclosing-disk recursion only.
_MEC_EPS = 1.0 + 1e-14

# The hull prefilter drops a point only when it sits inside the extreme
# polygon by more than _HULL_MARGIN * _EPS * (largest |coordinate|) * (extent)
# in cross-product units.  It evaluates each edge test untranslated, as
# normal . p > normal . a, whose rounding grows with the coordinates'
# magnitude: at offsets such as UTM coordinates a margin of extent**2 alone
# would let a hull vertex pass as interior.
_HULL_MARGIN = 64.0
_EPS = float(np.finfo(float).eps)
# Rows: the directions -y, x - y, x, x + y, y, y - x, -x, -x - y, in
# counterclockwise order; a projection onto one is x +- y rounded once.
_EXTREME_DIRECTIONS = np.array(
    [[0.0, -1.0], [1.0, -1.0], [1.0, 0.0], [1.0, 1.0],
     [0.0, 1.0], [-1.0, 1.0], [-1.0, 0.0], [-1.0, -1.0]]
)


class Disk(NamedTuple):
    center: Point
    radius: float


def dist(a: Point, b: Point) -> float:
    """Euclidean distance between two points."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


def coverage_bound(radius: float) -> float:
    """Largest distance that still counts as within `radius` (the shared slack)."""
    return radius * (1.0 + REL_TOL) + ABS_TOL


def within_radius(radius: float, d: float) -> bool:
    """Tolerant radius comparison: d <= radius up to the shared slack."""
    return d <= coverage_bound(radius)


def covers(d: Disk, p: Point) -> bool:
    """True when p lies in d, within the shared coverage slack."""
    return within_radius(d.radius, dist(d.center, p))


def within_mask(xy: np.ndarray, center: Point, limit: float) -> np.ndarray:
    """Mask of the rows p of the ``(n, 2)`` array with ``dist(center, p) <= limit``.

    Decided exactly as :func:`dist` decides it.  ``np.hypot`` and the
    ``math.hypot`` behind :func:`dist` may round one distance to neighbouring
    floats, so ``np.hypot`` settles only the rows farther than ``1e-6 *
    limit`` from the limit, and :func:`dist` itself decides the rows within
    it; the band is relative, so it holds at every scale.  This is the
    package's only bulk distance test.
    """
    cx, cy = center
    d = np.hypot(xy[:, 0] - cx, xy[:, 1] - cy)
    mask = d <= limit
    for i in np.flatnonzero(np.abs(d - limit) <= limit * 1e-6).tolist():
        mask[i] = dist(center, (float(xy[i, 0]), float(xy[i, 1]))) <= limit
    return mask


def _cross(o: Point, a: Point, b: Point) -> float:
    """Cross product of oa and ob; positive when o->a->b turns left."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_candidates(xy: np.ndarray) -> np.ndarray:
    """Ascending indices of the points not strictly inside the extreme polygon.

    Akl & Toussaint (1978): the extremes along the eight directions of
    _EXTREME_DIRECTIONS, taken in that order, are hull vertices in
    counterclockwise order.  A point on the inner side of every edge of their
    polygon by more than the rounding of a cross product is interior to the
    hull.  With fewer than three distinct extremes nothing is dropped.
    """
    xt = np.ascontiguousarray(xy.T)
    ext = xy[np.argmax(_EXTREME_DIRECTIONS @ xt, axis=1)]
    verts: list[Point] = []
    for v in map(tuple, ext.tolist()):
        if not verts or v != verts[-1]:
            verts.append(v)
    if len(verts) > 1 and verts[0] == verts[-1]:
        verts.pop()
    if len(set(verts)) < 3:
        return np.arange(len(xy))
    # ext holds the extremes along x and y, so its bounds are the input's.
    lo, hi = ext.min(axis=0), ext.max(axis=0)
    extent = float((hi - lo).max())
    magnitude = float(np.maximum(np.abs(lo), np.abs(hi)).max())
    margin = _HULL_MARGIN * _EPS * magnitude * extent
    # Edge a -> b keeps p on its inner side when (b - a) x (p - a) > margin,
    # evaluated as normal . p > normal . a + margin for all points at once.
    a = np.array(verts)
    e = np.roll(a, -1, axis=0) - a
    normal = np.column_stack((-e[:, 1], e[:, 0]))
    offset = (normal * a).sum(axis=1) + margin
    inside = (normal @ xt > offset[:, None]).all(axis=0)
    return np.flatnonzero(~inside)


def convex_hull(points: Union[Sequence[Point], np.ndarray]) -> list[int]:
    """Indices of the strict convex hull in counterclockwise order.

    ``points`` is a sequence of (x, y) pairs or an ``(n, 2)`` float array.
    Only extreme points are listed: collinear boundary points are dropped.
    Duplicate coordinates collapse to the lowest index.  For three or more
    hull vertices the listing starts at the bottom-most (then left-most)
    vertex; a degenerate input (all points collinear) yields the two extreme
    indices, lower index first, and a single distinct point yields [index].

    Before the monotone chain runs, an Akl-Toussaint prefilter drops the
    points strictly inside the polygon of the extremes along x, y, x + y and
    x - y.  That leaves the output unchanged: a dropped point lies inside by
    a margin well above the rounding of any cross product, so the chain would
    pop it and never keep it as a vertex; every point on or near the boundary
    survives, and survivors keep their input order, so duplicates of a vertex
    still collapse to the lowest index.
    """
    xy = np.asarray(points, dtype=float)
    if len(xy) == 0:
        raise ValueError("convex_hull: empty point list")
    keep = _hull_candidates(xy)
    first_idx: dict[Point, int] = {}
    for i, (px, py) in zip(keep.tolist(), xy[keep].tolist()):
        q = (px, py)
        if q not in first_idx:
            first_idx[q] = i
    uniq = sorted(first_idx)
    if len(uniq) == 1:
        return [first_idx[uniq[0]]]

    lower: list[Point] = []
    for p in uniq:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0.0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(uniq):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0.0:
            upper.pop()
        upper.append(p)
    ring = lower[:-1] + upper[:-1]

    if len(ring) == 2:
        i, j = first_idx[ring[0]], first_idx[ring[1]]
        return [min(i, j), max(i, j)]
    start = min(range(len(ring)), key=lambda i: (ring[i][1], ring[i][0]))
    ring = ring[start:] + ring[:start]
    return [first_idx[p] for p in ring]


def one_center(points: Sequence[Point]) -> Disk:
    """Smallest disk containing every input point.

    Incremental construction over a deterministically shuffled copy, so the
    result is bit-identical across runs for identical input.  The returned
    radius is the exact maximum center-to-point distance, hence
    ``dist(center, p) <= radius`` holds for every input point as computed by
    :func:`dist`.
    """
    if not points:
        raise ValueError("one_center: empty point list")
    pts = [(float(p[0]), float(p[1])) for p in points]
    random.Random(0x5EED5).shuffle(pts)

    c: Optional[Disk] = None
    for i, p in enumerate(pts):
        if c is None or not _inside(c, p):
            c = _mec_one_known(pts[: i + 1], p)
    assert c is not None
    radius = max(dist(c.center, q) for q in pts)
    return Disk(c.center, radius)


def _inside(c: Disk, p: Point) -> bool:
    return dist(c.center, p) <= c.radius * _MEC_EPS


def _mec_one_known(points: Sequence[Point], p: Point) -> Disk:
    # Smallest disk over `points` with p known to be on the boundary.
    c = Disk(p, 0.0)
    for i, q in enumerate(points):
        if not _inside(c, q):
            if c.radius == 0.0:
                c = _diameter_disk(p, q)
            else:
                c = _mec_two_known(points[: i + 1], p, q)
    return c


def _mec_two_known(points: Sequence[Point], p: Point, q: Point) -> Disk:
    # Smallest disk over `points` with p and q known to be on the boundary.
    circ = _diameter_disk(p, q)
    left: Optional[Disk] = None
    right: Optional[Disk] = None
    px, py = p
    qx, qy = q
    for s in points:
        if _inside(circ, s):
            continue
        cross = _cross(p, q, s)
        c = _circumdisk(p, q, s)
        if c is None:
            continue
        ccx, ccy = c.center
        if cross > 0.0 and (
            left is None
            or _cross(p, q, (ccx, ccy)) > _cross(p, q, left.center)
        ):
            left = c
        elif cross < 0.0 and (
            right is None
            or _cross(p, q, (ccx, ccy)) < _cross(p, q, right.center)
        ):
            right = c
    if left is None and right is None:
        return circ
    if left is None:
        assert right is not None
        return right
    if right is None:
        return left
    return left if left.radius <= right.radius else right


def _diameter_disk(a: Point, b: Point) -> Disk:
    cx = (a[0] + b[0]) / 2.0
    cy = (a[1] + b[1]) / 2.0
    r = max(dist((cx, cy), a), dist((cx, cy), b))
    return Disk((cx, cy), r)


def _circumdisk(a: Point, b: Point, c: Point) -> Optional[Disk]:
    # Translate by a for conditioning; None for a degenerate (collinear) triple.
    bx, by = b[0] - a[0], b[1] - a[1]
    cx, cy = c[0] - a[0], c[1] - a[1]
    d = 2.0 * (bx * cy - by * cx)
    if d == 0.0:
        return None
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    ux = (cy * b2 - by * c2) / d
    uy = (bx * c2 - cx * b2) / d
    center = (a[0] + ux, a[1] + uy)
    radius = max(dist(center, a), dist(center, b), dist(center, c))
    return Disk(center, radius)
