"""Independent brute-force oracles used only by the test suite.

Nothing here shares code paths with the package's solvers: hulls come from a
triangle-containment test, enclosing disks from pair/triple enumeration, and
minimum covers from exhaustive subset search, so each comparison is a genuine
dual-route check.  The one exception is the serial k-means reference at the
end: it keeps the trial-by-trial loop that the package's lockstep k-means
replaced, on the same geometry primitives, so that the two must agree bit for
bit.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Optional, Sequence

import numpy as np

from diskcover.geometry import ABS_TOL, REL_TOL, one_center, within_radius

Point = tuple[float, float]

_ENCLOSE_EPS = 1.0 + 1e-12


def _orient(a: Point, b: Point, c: Point) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _in_triangle(p: Point, a: Point, b: Point, c: Point) -> bool:
    d1 = _orient(a, b, p)
    d2 = _orient(b, c, p)
    d3 = _orient(c, a, p)
    if d1 == 0.0 and d2 == 0.0 and d3 == 0.0:
        # Fully collinear: containment in the segment spanned by a, b, c.
        lo_x, hi_x = min(a[0], b[0], c[0]), max(a[0], b[0], c[0])
        lo_y, hi_y = min(a[1], b[1], c[1]), max(a[1], b[1], c[1])
        return lo_x <= p[0] <= hi_x and lo_y <= p[1] <= hi_y
    has_neg = d1 < 0 or d2 < 0 or d3 < 0
    has_pos = d1 > 0 or d2 > 0 or d3 > 0
    return not (has_neg and has_pos)


def extreme_indices(points: Sequence[Point]) -> set[int]:
    """Indices of extreme points: not inside (or on) any triangle of others.

    Duplicate coordinates keep the lowest index, matching the hull contract.
    """
    first: dict[Point, int] = {}
    for i, p in enumerate(points):
        first.setdefault((p[0], p[1]), i)
    uniq = list(first)
    out: set[int] = set()
    for i, p in enumerate(uniq):
        others = uniq[:i] + uniq[i + 1 :]
        if len(others) < 3:
            # A degenerate triangle (a, b, b) is the segment from a to b.
            if not any(
                _in_triangle(p, a, b, b) for a, b in itertools.combinations(others, 2)
            ):
                out.add(first[p])
            continue
        inside = any(
            _in_triangle(p, a, b, c) for a, b, c in itertools.combinations(others, 3)
        )
        if not inside:
            out.add(first[p])
    return out


def extreme_indices_bulk(points: Sequence[Point]) -> set[int]:
    """Vectorized variant of :func:`extreme_indices` for general-position sets.

    Assumes no duplicate or exactly-collinear coordinates (true almost surely
    for continuous random draws); cross-checked against the scalar oracle in
    the acceptance suite.
    """
    import numpy as np

    xy = np.asarray(points, dtype=float)
    n = len(xy)
    if n <= 2:
        return set(range(n))
    diff = xy[None, :, :] - xy[:, None, :]  # diff[a, b] = b - a
    # cross[a, b, p] = (b - a) x (p - a)
    cross = diff[:, :, 0][:, :, None] * diff[:, :, 1][:, None, :] - diff[:, :, 1][
        :, :, None
    ] * diff[:, :, 0][:, None, :]
    triples = np.array(list(itertools.combinations(range(n), 3)))
    i, j, k = triples[:, 0], triples[:, 1], triples[:, 2]
    d1 = cross[i, j, :]
    d2 = cross[j, k, :]
    d3 = cross[k, i, :]
    non_neg = (d1 >= 0) & (d2 >= 0) & (d3 >= 0)
    non_pos = (d1 <= 0) & (d2 <= 0) & (d3 <= 0)
    inside = non_neg | non_pos  # (triples, points)
    ids = np.arange(n)[None, :]
    own = (i[:, None] == ids) | (j[:, None] == ids) | (k[:, None] == ids)
    inside &= ~own  # a point never counts against its own triples
    covered = inside.any(axis=0)
    return set(int(p) for p in np.flatnonzero(~covered))


def _d(a: Point, b: Point) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def _encloses(center: Point, radius: float, points: Iterable[Point]) -> bool:
    return all(_d(center, p) <= radius * _ENCLOSE_EPS for p in points)


def brute_force_mec(points: Sequence[Point]) -> tuple[Point, float]:
    """Minimum enclosing circle by trying every pair diameter and triple circumcircle."""
    pts = list(points)
    if not pts:
        raise ValueError("empty point set")
    if len(pts) == 1:
        return pts[0], 0.0
    best: Optional[tuple[Point, float]] = None
    for a, b in itertools.combinations(pts, 2):
        center = ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)
        radius = max(_d(center, a), _d(center, b))
        if _encloses(center, radius, pts) and (best is None or radius < best[1]):
            best = (center, radius)
    for a, b, c in itertools.combinations(pts, 3):
        bx, by = b[0] - a[0], b[1] - a[1]
        cx, cy = c[0] - a[0], c[1] - a[1]
        d = 2.0 * (bx * cy - by * cx)
        if d == 0.0:
            continue
        b2 = bx * bx + by * by
        c2 = cx * cx + cy * cy
        center = (a[0] + (cy * b2 - by * c2) / d, a[1] + (bx * c2 - cx * b2) / d)
        radius = max(_d(center, a), _d(center, b), _d(center, c))
        if _encloses(center, radius, pts) and (best is None or radius < best[1]):
            best = (center, radius)
    assert best is not None
    return best


def best_single_disk_extension(
    prio: Sequence[Point], sec: Sequence[Point], r: float
) -> int:
    """Max number of `sec` points one radius-r disk can add while covering all of `prio`."""
    best = 0
    for size in range(len(sec), 0, -1):
        if size <= best:
            break
        for combo in itertools.combinations(sec, size):
            _, radius = brute_force_mec(list(prio) + list(combo))
            if radius <= r * (1.0 + 1e-9) + 1e-12:
                best = size
                break
    return best


def min_cover_size_by_enumeration(masks: Sequence[int], n_points: int) -> int:
    """Smallest number of masks whose union covers all points.

    Complete depth-first search by ascending target size: the lowest uncovered
    point must be covered by one of its masks, so trying each of them explores
    every cover of the target size.
    """
    full = (1 << n_points) - 1
    coverers: list[list[int]] = [[] for _ in range(n_points)]
    for i, m in enumerate(masks):
        b = m
        while b:
            low = b & -b
            coverers[low.bit_length() - 1].append(i)
            b ^= low
    if any(not c for c in coverers):
        raise ValueError("some point has no covering mask")

    def exists_cover(covered: int, depth: int) -> bool:
        if covered == full:
            return True
        if depth == 0:
            return False
        low = (full & ~covered) & -(full & ~covered)
        point = low.bit_length() - 1
        for i in coverers[point]:
            if exists_cover(covered | masks[i], depth - 1):
                return True
        return False

    size = 1
    while not exists_cover(0, size):
        size += 1
    return size


def min_cover_size_by_combinations(masks: Sequence[int], n_points: int) -> int:
    """Smallest cover by literally enumerating subsets in ascending size."""
    full = (1 << n_points) - 1
    for size in range(1, len(masks) + 1):
        for combo in itertools.combinations(masks, size):
            acc = 0
            for m in combo:
                acc |= m
            if acc == full:
                return size
    raise ValueError("masks cannot cover all points")


def grid_cover_masks(points: Sequence[Point], r: float, divisions: int = 50) -> list[int]:
    """Coverage masks of disks centered on an r/divisions grid over the bounding box."""
    import numpy as np

    step = r / divisions
    xy = np.asarray(points, dtype=float)
    min_x, min_y = xy.min(axis=0)
    max_x, max_y = xy.max(axis=0)
    nx = int(math.ceil((max_x - min_x) / step)) + 1
    ny = int(math.ceil((max_y - min_y) / step)) + 1
    gx = min_x + step * np.arange(nx)
    gy = min_y + step * np.arange(ny)
    centers = np.stack(np.meshgrid(gx, gy, indexing="ij"), axis=-1).reshape(-1, 2)
    bound = r * (1.0 + 1e-9) + 1e-12
    d2 = ((centers[:, None, :] - xy[None, :, :]) ** 2).sum(axis=2)
    in_disk = d2 <= bound * bound
    weights = 1 << np.arange(len(points), dtype=object)
    seen: set[int] = set()
    masks: list[int] = []
    for row in in_disk:
        m = int((weights[row]).sum()) if row.any() else 0
        if m and m not in seen:
            seen.add(m)
            masks.append(m)
    # Drop masks dominated by a superset; the optimal value is unchanged.
    kept: list[int] = []
    for m in sorted(masks, key=lambda v: -v.bit_count()):
        if not any(m | k == k for k in kept):
            kept.append(m)
    return kept


def min_grid_cover_size(points: Sequence[Point], r: float, divisions: int = 50) -> int:
    masks = grid_cover_masks(points, r, divisions)
    return min_cover_size_by_enumeration(masks, len(points))


# --- Serial k-means reference -------------------------------------------


def _kmeanspp_init(xy: np.ndarray, p: int, rng: np.random.Generator) -> np.ndarray:
    """Careful seeding: first center uniform, then squared-distance weighted."""
    n = len(xy)
    cents = np.empty((p, 2), dtype=float)
    cents[0] = xy[int(rng.integers(n))]
    d2 = ((xy - cents[0]) ** 2).sum(axis=1)
    for j in range(1, p):
        total = float(d2.sum())
        if total <= 0.0:
            cents[j:] = cents[0]
            break
        u = rng.random()
        idx = int(np.searchsorted(np.cumsum(d2 / total), u, side="right"))
        cents[j] = xy[min(idx, n - 1)]
        d2 = np.minimum(d2, ((xy - cents[j]) ** 2).sum(axis=1))
    return cents


def _lloyd_clusters(
    xy: np.ndarray,
    p: int,
    r: float,
    rng: np.random.Generator,
    max_iters: int,
) -> Optional[list[np.ndarray]]:
    """One k-means run (batch passes, then single-point refinement moves);
    returns the clusters when every one fits in a radius-r disk, else None.
    """
    n = len(xy)
    cents = _kmeanspp_init(xy, p, rng)
    labels = None
    for _ in range(max_iters):
        d2 = ((xy[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        counts = np.bincount(labels, minlength=p)
        sx = np.bincount(labels, weights=xy[:, 0], minlength=p)
        sy = np.bincount(labels, weights=xy[:, 1], minlength=p)
        nonempty = counts > 0
        cents[nonempty, 0] = sx[nonempty] / counts[nonempty]
        cents[nonempty, 1] = sy[nonempty] / counts[nonempty]
        if not nonempty.all():
            # Re-seed each empty cluster on the point farthest from its
            # assigned center, then let the next pass reassign.
            own = ((xy - cents[labels]) ** 2).sum(axis=1)
            for j in np.flatnonzero(~nonempty):
                far = int(own.argmax())
                cents[j] = xy[far]
                own[far] = 0.0
    assert labels is not None

    # Refinement: apply the best single-point move while it lowers the total
    # within-cluster squared error (sizes reweight the change: a point joining
    # a cluster of n costs n/(n+1) of its squared distance, leaving refunds
    # n/(n-1)).  Escapes the plateaus batch passes converge to.
    labels = labels.copy()
    counts = np.bincount(labels, minlength=p).astype(float)
    d2 = ((xy[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    idx = np.arange(n)
    for _ in range(3 * n):
        src_sizes = counts[labels]
        with np.errstate(divide="ignore", invalid="ignore"):
            refund = np.where(src_sizes > 1.0, src_sizes / (src_sizes - 1.0), 0.0)
        gain = refund * d2[idx, labels]
        cost = (counts / (counts + 1.0))[None, :] * d2
        delta = cost - gain[:, None]
        delta[idx, labels] = np.inf
        delta[src_sizes <= 1.0, :] = np.inf  # never empty a cluster
        flat = int(np.argmin(delta))
        i, dst = flat // p, flat % p
        if delta[i, dst] >= -1e-12:
            break
        s = int(labels[i])
        cents[s] = (counts[s] * cents[s] - xy[i]) / (counts[s] - 1.0)
        cents[dst] = (counts[dst] * cents[dst] + xy[i]) / (counts[dst] + 1.0)
        counts[s] -= 1.0
        counts[dst] += 1.0
        labels[i] = dst
        d2[:, s] = ((xy - cents[s]) ** 2).sum(axis=1)
        d2[:, dst] = ((xy - cents[dst]) ** 2).sum(axis=1)

    bound = r * (1.0 + REL_TOL) + ABS_TOL
    clusters = []
    for j in range(p):
        members = np.flatnonzero(labels == j)
        if members.size == 0:
            continue
        sub = xy[members]
        # Half the bounding-box extent lower-bounds the enclosing radius.
        if max(sub.max(axis=0) - sub.min(axis=0)) / 2.0 > bound:
            return None
        mec = one_center([(q[0], q[1]) for q in sub])
        if not within_radius(r, mec.radius):
            return None
        clusters.append(members)
    return clusters


def _kmeans_trial(
    xy: np.ndarray,
    n_distinct: int,
    r: float,
    rng: np.random.Generator,
    max_iters: int,
) -> list[np.ndarray]:
    # Bisection over the cluster count, treating feasibility as monotone.
    # One cluster per distinct position is always feasible, hence the cap.
    lo, hi = 1, n_distinct
    best: Optional[tuple[int, list[np.ndarray]]] = None
    while lo < hi:
        mid = (lo + hi) // 2
        clusters = _lloyd_clusters(xy, mid, r, rng, max_iters)
        if clusters is not None:
            hi = mid
            best = (mid, clusters)
        else:
            lo = mid + 1
    if best is None or best[0] != lo:
        clusters = _lloyd_clusters(xy, lo, r, rng, max_iters)
        if clusters is not None:
            best = (lo, clusters)
    if best is None:
        # Unreachable in practice: one cluster per distinct position has radius 0.
        by_pos: dict[tuple[float, float], list[int]] = {}
        for k, q in enumerate(xy):
            by_pos.setdefault((q[0], q[1]), []).append(k)
        best = (len(by_pos), [np.array(v) for v in by_pos.values()])
    return best[1]


def kmeans_serial(points: Sequence[Point], r: float, trials: int, seed: int, max_iters: int):
    """Best of `trials` serial k-means restarts: (centers, newly_covered)."""
    xy = np.asarray(points, dtype=float)
    n_distinct = len(np.unique(xy, axis=0))
    best = None
    for t in range(trials):
        rng = np.random.Generator(np.random.PCG64(seed + t))
        clusters = _kmeans_trial(xy, n_distinct, r, rng, max_iters)
        if best is None or len(clusters) < len(best):
            best = clusters
    centers = [one_center([(q[0], q[1]) for q in xy[m]]).center for m in best]
    return centers, [[int(k) for k in m] for m in best]
