"""2D primitives: distances, strict convex hulls, smallest enclosing disks."""

from __future__ import annotations

import functools
import math
import random
from typing import Iterable, NamedTuple, Sequence, Union

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
# Swapping an edge's (x, y) and scaling by this gives its left normal (-y, x).
_LEFT_NORMAL = np.array([-1.0, 1.0])
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


def _hull_margin(lo: Sequence[float], hi: Sequence[float]) -> float:
    """The hull prefilter's margin, in cross-product units, for points whose
    coordinates lie between the bounds ``lo`` and ``hi``."""
    (lx, ly), (hx, hy) = lo, hi
    extent = max(hx - lx, hy - ly)
    magnitude = max(abs(lx), abs(ly), abs(hx), abs(hy))
    return _HULL_MARGIN * _EPS * float(magnitude) * float(extent)


def _inside_edges(xt: np.ndarray, a: np.ndarray, b: np.ndarray, margin: float) -> np.ndarray:
    """Mask of the columns p of the ``(2, n)`` array ``xt`` that lie on the
    inner (left) side of every edge ``a[i] -> b[i]`` by more than ``margin``.

    The test ``(b - a) x (p - a) > margin`` is evaluated for all points at
    once as ``normal . p > normal . a + margin``.
    """
    normal = (b - a)[:, ::-1] * _LEFT_NORMAL
    offset = (normal * a).sum(axis=1) + margin
    return (normal @ xt > offset[:, None]).all(axis=0)


def _hull_candidates(xy: np.ndarray) -> np.ndarray:
    """Ascending indices of the points not strictly inside the extreme polygon.

    Akl & Toussaint (1978): the extremes along the eight directions of
    _EXTREME_DIRECTIONS, taken in that order, are hull vertices in
    counterclockwise order.  A point on the inner side of every edge of their
    polygon by more than the rounding of a cross product is interior to the
    hull.  With fewer than three distinct extremes nothing is dropped.
    """
    xt = np.ascontiguousarray(xy.T)
    ext = xy[np.argmax(_EXTREME_DIRECTIONS @ xt, axis=1)].tolist()
    verts: list[Point] = []
    for v in map(tuple, ext):
        if not verts or v != verts[-1]:
            verts.append(v)
    if len(verts) > 1 and verts[0] == verts[-1]:
        verts.pop()
    if len(set(verts)) < 3:
        return np.arange(len(xy))
    # The extremes along x and y are among verts, so their bounds are the input's.
    xs, ys = zip(*verts)
    margin = _hull_margin((min(xs), min(ys)), (max(xs), max(ys)))
    a = np.array(verts)
    inside = _inside_edges(xt, a, np.concatenate((a[1:], a[:1])), margin)
    return np.flatnonzero(~inside)


def _half_hull(xs: list[float], ys: list[float], positions: Iterable[int]) -> list[int]:
    """One half of Andrew's monotone chain over the points at ``positions``:
    pop the last point while o -> a -> p fails to turn left, that is while
    (a - o) x (p - o) <= 0."""
    out: list[int] = []
    for i in positions:
        px, py = xs[i], ys[i]
        while len(out) >= 2:
            o, a = out[-2], out[-1]
            if (xs[a] - xs[o]) * (py - ys[o]) - (ys[a] - ys[o]) * (px - xs[o]) <= 0.0:
                out.pop()
            else:
                break
        out.append(i)
    return out


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
    kx, ky = xy[keep, 0], xy[keep, 1]
    # Sorted by x, then y; lexsort is stable, so each run of equal points
    # starts with its lowest index, which stands for the run.
    order = np.lexsort((ky, kx))
    sx, sy = kx[order], ky[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (sx[1:] != sx[:-1]) | (sy[1:] != sy[:-1])
    ids = keep[order[first]].tolist()
    xs, ys = sx[first].tolist(), sy[first].tolist()
    n = len(ids)
    if n == 1:
        return ids
    ring = _half_hull(xs, ys, range(n))[:-1] + _half_hull(xs, ys, range(n - 1, -1, -1))[:-1]
    if len(ring) == 2:
        i, j = ids[ring[0]], ids[ring[1]]
        return [min(i, j), max(i, j)]
    start = min(range(len(ring)), key=lambda k: (ys[ring[k]], xs[ring[k]]))
    return [ids[k] for k in ring[start:] + ring[:start]]


@functools.lru_cache(maxsize=256)
def _shuffle_order(n: int) -> tuple[int, ...]:
    """Where ``random.Random(0x5EED5).shuffle`` moves the items of any n-list.

    The shuffle's swaps depend on the list's length alone, so item ``i`` of
    the shuffled list is item ``_shuffle_order(n)[i]`` of the input.
    """
    order = list(range(n))
    random.Random(0x5EED5).shuffle(order)
    return tuple(order)


def one_center(points: Sequence[Point]) -> Disk:
    """Smallest disk containing every input point.

    Incremental construction (Welzl 1991) over a deterministically shuffled
    copy, so the result is bit-identical across runs for identical input.
    The returned radius is the exact maximum center-to-point distance, hence
    ``dist(center, p) <= radius`` holds for every input point as computed by
    :func:`dist`.
    """
    if not points:
        raise ValueError("one_center: empty point list")
    pts = [points[i] for i in _shuffle_order(len(points))]
    xs = [float(p[0]) for p in pts]
    ys = [float(p[1]) for p in pts]
    hypot = math.hypot
    # The disk of the first point alone; each later point outside the
    # current disk is on the boundary of the disk over the points so far.
    cx, cy, cr = xs[0], ys[0], 0.0
    lim = 0.0
    for i in range(1, len(xs)):
        px, py = xs[i], ys[i]
        if hypot(cx - px, cy - py) > lim:
            cx, cy, cr = _mec_one_known(xs, ys, i + 1, px, py)
            lim = cr * _MEC_EPS
    return Disk((cx, cy), max([hypot(cx - x, cy - y) for x, y in zip(xs, ys)]))


# The kernels below work on the shuffled coordinates as two lists, xs and ys,
# and return a disk as (center x, center y, radius).
_Circle = tuple[float, float, float]


def _diameter_disk(px: float, py: float, qx: float, qy: float) -> _Circle:
    cx = (px + qx) / 2.0
    cy = (py + qy) / 2.0
    d1, d2 = math.hypot(cx - px, cy - py), math.hypot(cx - qx, cy - qy)
    return cx, cy, d2 if d2 > d1 else d1


def _mec_one_known(xs: list[float], ys: list[float], m: int, px: float, py: float) -> _Circle:
    # Smallest disk over the first m points with p known to be on the boundary.
    hypot = math.hypot
    cx, cy, cr = px, py, 0.0
    lim = 0.0
    for j in range(m):
        qx, qy = xs[j], ys[j]
        if hypot(cx - qx, cy - qy) <= lim:
            continue
        if cr == 0.0:
            cx, cy, cr = _diameter_disk(px, py, qx, qy)
        else:
            cx, cy, cr = _mec_two_known(xs, ys, j + 1, px, py, qx, qy)
        lim = cr * _MEC_EPS
    return cx, cy, cr


def _mec_two_known(
    xs: list[float], ys: list[float], m: int, px: float, py: float, qx: float, qy: float
) -> _Circle:
    # Smallest disk over the first m points with p and q known to be on the
    # boundary: the disk with diameter pq when it holds them all, else the
    # smaller of the circumdisks through p, q and the point whose center lies
    # farthest to each side of pq.
    hypot = math.hypot
    ox, oy, orad = _diameter_disk(px, py, qx, qy)
    lim = orad * _MEC_EPS
    bx, by = qx - px, qy - py
    b2 = bx * bx + by * by
    left = right = None
    left_t = right_t = 0.0
    for k in range(m):
        sx, sy = xs[k], ys[k]
        if hypot(ox - sx, oy - sy) <= lim:
            continue
        # Translated by p for conditioning; a collinear triple has no circumdisk.
        cx, cy = sx - px, sy - py
        cross = bx * cy - by * cx
        if cross == 0.0:
            continue
        d = 2.0 * cross
        c2 = cx * cx + cy * cy
        zx = px + (cy * b2 - by * c2) / d
        zy = py + (bx * c2 - cx * b2) / d
        # How far the circumcenter lies to the left of pq, in cross units.
        t = bx * (zy - py) - by * (zx - px)
        if cross > 0.0:
            if left is None or t > left_t:
                left, left_t = (zx, zy, sx, sy), t
        elif cross < 0.0 and (right is None or t < right_t):
            right, right_t = (zx, zy, sx, sy), t
    if left is None and right is None:
        return ox, oy, orad
    best = None
    for side in (left, right):
        if side is None:
            continue
        zx, zy, sx, sy = side
        radius = max(hypot(zx - px, zy - py), hypot(zx - qx, zy - qy), hypot(zx - sx, zy - sy))
        if best is None or radius < best[2]:
            best = (zx, zy, radius)
    return best
