"""2D primitives: distances, strict convex hulls, smallest enclosing disks."""

from __future__ import annotations

import functools
import math
import random
from typing import Iterable, NamedTuple, Sequence, Union

import numpy as np

Point = tuple[float, float]

# Shared coverage slack: a point at distance d counts as inside a disk of
# radius rho when d <= rho * (1 + REL_TOL).  Every radius-vs-r comparison in
# the package reads ``Instance.bound``, made once by this rule, so that
# boundary contacts (points exactly at the coverage radius) survive floating
# point.  The slack is relative, so a uniform scaling of an instance scales
# it too.
REL_TOL = 1e-9

# Internal slack for the enclosing-disk recursion only.
_MEC_EPS = 1.0 + 1e-14

# Shewchuk's (1997) stage-A bound, (3 + 16 eps) eps with eps = 2**-53: an
# orientation determinant left - right above it times |left| + |right| has the exact sign.
_ORIENT_BOUND = (3.0 + 16.0 * 2.0**-53) * 2.0**-53

# The squared limits at which within_mask compares squares: normal floats,
# with room above, so that a sum of two squares overflows only far past the
# band.
_SQUARE_MIN, _SQUARE_MAX = 2.0**-1022, 2.0**1023


class Disk(NamedTuple):
    center: Point
    radius: float


def dist(a: Point, b: Point) -> float:
    """Euclidean distance between two points."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


def coverage_bound(radius: float) -> float:
    """Largest distance that still counts as within `radius` (the shared slack)."""
    return radius * (1.0 + REL_TOL)


def within_radius(radius: float, d: float) -> bool:
    """Tolerant radius comparison: d <= radius up to the shared slack.

    The package reads ``Instance.bound``; this stays for perfbench's tracer.
    """
    return d <= coverage_bound(radius)


def within_mask(xy: np.ndarray, center: Union[Point, np.ndarray], limit: float) -> np.ndarray:
    """Mask of the rows p of the ``(n, 2)`` array with ``dist(center, p) <= limit``.

    ``center`` is one point, giving an ``(n,)`` mask, or an ``(m, 2)`` array
    of centers, giving an ``(m, n)`` mask whose row j is the mask of center j.
    Decided exactly as :func:`dist` decides it.  Where ``limit*limit`` is a
    normal float below ``2**1023``, the squared distance ``dx*dx + dy*dy`` is
    compared with it.  Each square is within a few units in the last place
    of its exact value and the ``math.hypot`` behind :func:`dist` within one,
    so every entry farther than ``1e-10 * limit*limit`` from the squared
    limit is decided as :func:`dist` decides it, and :func:`dist` itself
    decides the entries within that band.  The band is relative, so it holds
    at every such scale: a square that underflows errs by far less than the
    band, and one that overflows lies far outside it.  At any other limit
    ``np.hypot`` takes the squares' place, with a band of ``1e-6 * limit``
    on the distances.  This is the package's only bulk distance test; one
    point takes the same path as a block of one.
    """
    given = np.asarray(center, dtype=float)
    cs = given.reshape(-1, 2)
    lim = limit * limit
    # Near the float limit a difference or a square can overflow to inf,
    # which is outside, and so can the limit itself (twice a bound near it),
    # which puts every entry inside; inf - inf is then NaN, outside the band,
    # and the comparison's answer stands.  Each errs towards "outside", or
    # towards a pair that the caller decides again against a finite bound.
    with np.errstate(over="ignore", invalid="ignore"):
        dx, dy = xy[:, 0] - cs[:, :1], xy[:, 1] - cs[:, 1:]
        if limit > 0.0 and _SQUARE_MIN <= lim < _SQUARE_MAX:
            dx *= dx
            dy *= dy
            dx += dy
            d, width = dx, lim * 1e-10
        else:
            d, lim, width = np.hypot(dx, dy), limit, limit * 1e-6
        mask = d <= lim
        d -= lim
        band = np.flatnonzero(np.abs(d, out=d) <= width).tolist()
    for f in band:
        j, i = divmod(f, len(xy))
        mask[j, i] = dist(cs[j].tolist(), xy[i].tolist()) <= limit
    return mask if given.ndim == 2 else mask[0]


def _half_hull(xs: list[float], ys: list[float], positions: Iterable[int]) -> list[int]:
    """One half of Andrew's monotone chain over the points at ``positions``:
    pop the last point while o -> a -> p fails to turn left, that is while
    (a - o) x (p - o) <= 0, by its exact sign (a wrong sign on nearly
    collinear points can keep one point in both halves of the chain).  A
    determinant made NaN by overflowed differences is decided exactly too."""
    out: list[int] = []
    for i in positions:
        px, py = xs[i], ys[i]
        while len(out) >= 2:
            o, a = out[-2], out[-1]
            ox, oy, ax, ay = xs[o], ys[o], xs[a], ys[a]
            left = (ax - ox) * (py - oy)
            right = (ay - oy) * (px - ox)
            det = left - right
            if not abs(det) > _ORIENT_BOUND * (abs(left) + abs(right)):
                # Exactly, in integers: a float is n / q with q a power of
                # two, so over the largest q all six coordinates are integers.
                q = [v.as_integer_ratio() for v in (ox, oy, ax, ay, px, py)]
                d = max(b for _, b in q)
                iox, ioy, iax, iay, ipx, ipy = [n * (d // b) for n, b in q]
                det = (iax - iox) * (ipy - ioy) - (iay - ioy) * (ipx - iox)
            if det <= 0:
                out.pop()
            else:
                break
        out.append(i)
    return out


def convex_hull(points: Sequence[Point]) -> list[int]:
    """Indices of the strict convex hull in counterclockwise order.

    ``points`` is a sequence of (x, y) pairs.  Only extreme points are
    listed: collinear boundary points are dropped.  Duplicate coordinates
    collapse to the lowest index, and no index is listed twice.  For three
    or more hull vertices the listing starts at the bottom-most (then
    left-most) vertex; a degenerate input (all points collinear) yields the
    two extreme indices, lower index first, and a single distinct point
    yields [index].

    Andrew's monotone chain over every input point, with exact orientation
    signs, after a stable Python sort on (x, y): each run of equal points
    starts with its lowest index, which stands for the run (``-0.0`` equals
    ``0.0``).  The sequence is sorted as it is, with no array built, since
    the spiral hands over short pockets.
    """
    if len(points) == 0:
        raise ValueError("convex_hull: empty point list")
    ids: list[int] = []
    xs: list[float] = []
    ys: list[float] = []
    last = None
    for i in sorted(range(len(points)), key=points.__getitem__):
        p = points[i]
        if p != last:
            ids.append(i)
            xs.append(float(p[0]))
            ys.append(float(p[1]))
            last = p
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


def grow_disk(disk: Disk, xs: list[float], ys: list[float]) -> Disk:
    """Smallest disk over the points ``(xs[i], ys[i])``, given ``disk``, the
    one over all of them but the last, p.

    Welzl's (1991) step: a p inside ``disk`` keeps its center, and a p
    outside it lies on the boundary of the new disk, which one pass over the
    other points with p known finds.  Under the same contract as
    :func:`one_center`, which ``disk`` must meet too, the returned radius is
    the exact maximum center-to-point distance.
    """
    hypot = math.hypot
    (cx, cy), radius = disk
    px, py = xs[-1], ys[-1]
    d = hypot(cx - px, cy - py)
    if d <= radius * _MEC_EPS:
        return Disk((cx, cy), max(radius, d))
    cx, cy, _ = _mec_one_known(xs, ys, len(xs) - 1, px, py)
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
