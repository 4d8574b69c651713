"""Independent brute-force oracles used only by the test suite.

Nothing here shares code paths with the package's solvers: hulls come from a
triangle-containment test, enclosing disks from pair/triple enumeration, and
minimum covers from exhaustive subset search, so each comparison is a genuine
dual-route check.  The exceptions are the references at the end: the
unpruned candidate generator that the oracle's pruning is checked against,
the per-candidate generator that the oracle's block-wise coverage replaced,
the bit-by-bit search tables, one search reference with the full counting
bound whose packing sets (none; lowest index first; that, then fewest
neighbours first) give the trees that the oracle's packing bounds, threshold
test and relabelled masks must undercut or, with both packings, reproduce
node for node, the trial-by-trial k-means loop that the package's lockstep
k-means replaced, the strip loop that re-solves every trial disk from
scratch, the monotone chain over every point and the spiral loop
that the spiral's prefiltered, carried hull replaced, the candidate pruning
that ``local_cover``'s flat loops replaced, and the recursive enclosing-disk
construction that the flat kernel replaced.  They run on the same primitives
or the same arithmetic, so each pair must agree bit for bit.  The
exceptions are ``local_cover_serial(..., resolve="scratch")`` and
``strip_serial``, which re-solve every trial disk from scratch as
``local_cover`` and ``solve_strip`` once did, and so agree with them up to
rounding.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import sys
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from diskcover.baselines import STRIP_HEIGHT_FACTOR
from diskcover.exact import BudgetExceededError, CandidateDisk
from diskcover.geometry import (
    Disk,
    coverage_bound,
    dist,
    one_center,
    within_mask,
    within_radius,
)
from diskcover.problem import Instance, Solution
from diskcover.spiral import ContractError, LocalCoverResult, SpiralStep

Point = tuple[float, float]

_ENCLOSE_EPS = 1.0 + 1e-12
# The enclosing-disk recursion's own slack, as in diskcover.geometry.
_MEC_EPS = 1.0 + 1e-14


def covers(disk: Disk, p: Point) -> bool:
    """Whether p lies in disk, within the coverage slack of its radius."""
    return dist(disk.center, p) <= coverage_bound(disk.radius)


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
            if radius <= coverage_bound(r):
                best = size
                break
    return best


def _bits(mask: int) -> Iterable[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def min_cover_size_by_enumeration(masks: Sequence[int], n_points: int) -> int:
    """Smallest number of masks whose union covers all points.

    Complete depth-first search by ascending target size: the lowest uncovered
    point must be covered by one of its masks, so trying each of them explores
    every cover of the target size.
    """
    full = (1 << n_points) - 1
    coverers: list[list[int]] = [[] for _ in range(n_points)]
    for i, m in enumerate(masks):
        for p in _bits(m):
            coverers[p].append(i)
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
    step = r / divisions
    xy = np.asarray(points, dtype=float)
    min_x, min_y = xy.min(axis=0)
    max_x, max_y = xy.max(axis=0)
    nx = int(math.ceil((max_x - min_x) / step)) + 1
    ny = int(math.ceil((max_y - min_y) / step)) + 1
    gx = min_x + step * np.arange(nx)
    gy = min_y + step * np.arange(ny)
    centers = np.stack(np.meshgrid(gx, gy, indexing="ij"), axis=-1).reshape(-1, 2)
    bound = coverage_bound(r)
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


# --- Unpruned candidate reference ----------------------------------------


def candidates_unpruned(inst: Instance) -> list[CandidateDisk]:
    """Every candidate of :func:`diskcover.exact.generate_candidates`, in
    emission order, before the pruning of dominated coverages: each point,
    plus both radius-r circle centers per co-coverable pair (one center when
    the pair is exactly 2r apart).
    """
    r = inst.radius
    pts = inst.points
    k_total = inst.k
    xy = np.array(pts, dtype=float)
    bound = coverage_bound(r)

    def coverage_of(center: Point) -> int:
        # Bit k of the little-endian packing is point k.
        bits = np.packbits(within_mask(xy, center, bound), bitorder="little")
        return int.from_bytes(bits.tobytes(), "little")

    cands: list[CandidateDisk] = []
    for p in pts:
        cands.append(CandidateDisk(p, coverage_of(p)))

    pair_bound = 2.0 * bound
    for i in range(k_total):
        xi, yi = pts[i]
        for j in range(i + 1, k_total):
            if dist(pts[i], pts[j]) > pair_bound:
                continue
            xj, yj = pts[j]
            # In units of r; a pair whose distance squares to 0 coincides.
            ux, uy = (xj - xi) / r, (yj - yi) / r
            d2 = ux * ux + uy * uy
            if d2 == 0.0:
                continue
            d = math.sqrt(d2)
            mx, my = xi / 2.0 + xj / 2.0, yi / 2.0 + yj / 2.0
            h2 = (1.0 - d / 2.0) * (1.0 + d / 2.0)
            if h2 <= 0.0:
                centers = [(mx, my)]
            else:
                h = math.sqrt(h2) * r
                nx, ny = -uy / d * h, ux / d * h
                centers = [(mx + nx, my + ny), (mx - nx, my - ny)]
            # Past the float limit a center is inf; clamp it to the largest float.
            big = sys.float_info.max
            centers = [(min(max(x, -big), big), min(max(y, -big), big)) for x, y in centers]
            for c in centers:
                cands.append(CandidateDisk(c, coverage_of(c)))
    return cands


def candidates_serial(inst: Instance) -> list[CandidateDisk]:
    """:func:`candidates_unpruned` with dominated coverages dropped by
    comparing each candidate, largest coverage first, with every candidate
    kept so far; equal coverages keep the earliest-emitted candidate.  The
    reference for the block-wise :func:`diskcover.exact.generate_candidates`.
    """
    cands = candidates_unpruned(inst)
    order = sorted(range(len(cands)), key=lambda i: (-cands[i].coverage.bit_count(), i))
    kept: list[int] = []
    for i in order:
        m = cands[i].coverage
        if any(m | cands[j].coverage == cands[j].coverage for j in kept):
            continue
        kept.append(i)
    kept.sort()
    return [cands[i] for i in kept]


def incidence_serial(
    masks: list[int], k_total: int
) -> tuple[list[list[int]], list[int], list[int], list[int]]:
    """The search's tables bit by bit: each point's coverers, ascending; each
    point's neighbours as a mask; and the masks and neighbour masks with bit
    q standing for the point of q-th fewest neighbours, ties by index.  The
    reference for :func:`diskcover.exact._incidence`."""
    coverers: list[list[int]] = [[] for _ in range(k_total)]
    for i, m in enumerate(masks):
        for p in _bits(m):
            coverers[p].append(i)
    nbr = [0] * k_total
    for p, cs in enumerate(coverers):
        for i in cs:
            nbr[p] |= masks[i]
    order = sorted(range(k_total), key=lambda p: (nbr[p].bit_count(), p))

    def relabel(m: int) -> int:
        return sum(1 << q for q, p in enumerate(order) if m >> p & 1)

    return coverers, nbr, [relabel(m) for m in masks], [relabel(nbr[p]) for p in order]


def search_serial(
    inst: Instance, node_limit: int, packings: Sequence[str] = ("index", "degree")
) -> tuple[Solution, int]:
    """The oracle's branch and bound over :func:`candidates_serial`, seeded
    with the greedy incumbent, and the number of nodes it expanded.

    At each node the listed packings are tried in turn until one prunes:
    each takes greedily the uncovered points none of whose neighbours
    (points sharing a candidate with them) was taken, ``"index"`` walking
    them by index and ``"degree"`` by (number of neighbours, index), and
    prunes when it takes as many points as would tie the incumbent.  Where
    none prunes, the full counting bound ``ceil(uncovered / max coverage)``
    is tested, and the search branches on the lowest-index uncovered point
    with the fewest covering candidates, largest new coverage first.
    ``packings=()`` is the counting-bound search that the packings replaced;
    ``min_cover`` must return this cover at ``node_limit`` equal to the node
    count for every packing set, and raise one node below it with both.
    Raises :class:`BudgetExceededError` past ``node_limit`` nodes.
    """
    cands = candidates_serial(inst)
    masks = [c.coverage for c in cands]
    full = (1 << inst.k) - 1
    coverers, nbr, _, _ = incidence_serial(masks, inst.k)
    n_coverers = [len(cs) for cs in coverers]
    degree = [m.bit_count() for m in nbr]
    orders = {
        "index": _bits,
        "degree": lambda rem: sorted(_bits(rem), key=lambda p: (degree[p], p)),
    }
    walks = [orders[name] for name in packings]

    def packs(points: Iterable[int], need: int) -> bool:
        packed, blocked = 0, 0
        for p in points:
            if packed >= need:
                break
            if not blocked >> p & 1:
                blocked |= nbr[p]
                packed += 1
        return packed >= need

    best_sel: list[int] = []
    covered = 0
    while covered != full:
        pick = max(range(len(masks)), key=lambda i: ((masks[i] & ~covered).bit_count(), -i))
        best_sel.append(pick)
        covered |= masks[pick]
    best_m = len(best_sel)

    nodes = 0
    covered = 0
    chosen: list[int] = []
    stack: list[tuple[int, Iterator[int]]] = []
    while True:
        nodes += 1
        if nodes > node_limit:
            raise BudgetExceededError(
                f"exceeded {node_limit} search nodes (incumbent {best_m} unproven)"
            )
        if covered == full:
            if len(chosen) < best_m:
                best_sel = chosen.copy()
                best_m = len(chosen)
        else:
            need = best_m - len(chosen)  # a bound this large prunes
            rem_mask = full & ~covered
            if not any(packs(walk(rem_mask), need) for walk in walks):
                max_cov = max([(m & rem_mask).bit_count() for m in masks])
                if math.ceil(rem_mask.bit_count() / max_cov) < need:
                    branch_pt = min(_bits(rem_mask), key=n_coverers.__getitem__)
                    options = sorted(
                        coverers[branch_pt], key=lambda i: (-(masks[i] & rem_mask).bit_count(), i)
                    )
                    stack.append((covered, iter(options)))
        while stack:
            parent, branches = stack[-1]
            del chosen[len(stack) - 1 :]
            i = next(branches, None)
            if i is not None:
                chosen.append(i)
                covered = parent | masks[i]
                break
            stack.pop()
        else:
            break

    newly_all: list[list[int]] = []
    assigned = 0
    for i in best_sel:
        newly_all.append(list(_bits(masks[i] & ~assigned)))
        assigned |= masks[i]
    sol = Solution(
        algorithm="oracle",
        seed=0,
        centers=[cands[i].center for i in best_sel],
        newly_covered=newly_all,
        runtime=0.0,
    )
    return sol, nodes


# --- Serial k-means reference -------------------------------------------


def _kmeanspp_init(xy: np.ndarray, p: int, rng: np.random.Generator) -> np.ndarray:
    """Careful seeding: first center uniform, then squared-distance weighted,
    with the p - 1 uniforms of the later centers drawn up front."""
    n = len(xy)
    cents = np.empty((p, 2), dtype=float)
    cents[0] = xy[int(rng.integers(n))]
    u = rng.random(p - 1)
    d2 = ((xy - cents[0]) ** 2).sum(axis=1)
    for j in range(1, p):
        total = float(d2.sum())
        if total <= 0.0:
            cents[j:] = cents[0]
            break
        idx = int(np.searchsorted(np.cumsum(d2 / total), u[j - 1], side="right"))
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
        if delta[i, dst] >= -1e-12 * r * r:
            break
        s = int(labels[i])
        cents[s] = (counts[s] * cents[s] - xy[i]) / (counts[s] - 1.0)
        cents[dst] = (counts[dst] * cents[dst] + xy[i]) / (counts[dst] + 1.0)
        counts[s] -= 1.0
        counts[dst] += 1.0
        labels[i] = dst
        d2[:, s] = ((xy - cents[s]) ** 2).sum(axis=1)
        d2[:, dst] = ((xy - cents[dst]) ** 2).sum(axis=1)

    bound = coverage_bound(r)
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


# --- Serial strip reference ----------------------------------------------


def strip_serial(inst: Instance) -> tuple[list[Point], list[list[int]]]:
    """The strip loop that re-solves each trial disk from scratch, as
    ``solve_strip`` once did: (centers, newly_covered).

    Same strips, sweep order and stopping rule as
    :func:`diskcover.baselines.solve_strip`, but every trial calls
    ``one_center`` on the whole group plus the new point, so its disks agree
    with the grown ones up to rounding.
    """
    r = inst.radius
    pts = inst.points
    h = STRIP_HEIGHT_FACTOR * r
    min_y = min(p[1] for p in pts)
    strips: dict[int, list[int]] = {}
    for k, p in enumerate(pts):
        s = int(math.floor((p[1] / 2.0 - min_y / 2.0) / (h / 2.0) + 0.5))
        strips.setdefault(s, []).append(k)

    centers: list[Point] = []
    newly_all: list[list[int]] = []
    for s in sorted(strips):
        remaining = sorted(strips[s], key=lambda k: (pts[k][0], pts[k][1], k))
        while remaining:
            group = [remaining[0]]
            mec = one_center([pts[remaining[0]]])
            for k in remaining[1:]:
                trial = one_center([pts[g] for g in group] + [pts[k]])
                if not within_radius(r, trial.radius):
                    break
                group.append(k)
                mec = trial
            disk = Disk(mec.center, r)
            newly = [k for k in remaining if covers(disk, pts[k])]
            centers.append(mec.center)
            newly_all.append(newly)
            taken = set(newly)
            remaining = [k for k in remaining if k not in taken]
    return centers, newly_all


# --- Serial hull and spiral references -----------------------------------


# Nearly collinear runs test the same coordinates over and over.
_fraction = functools.lru_cache(maxsize=4096)(Fraction)


def _orient_exact(a: Point, b: Point, c: Point):
    """:func:`_orient` with its sign made exact: rationals decide every
    determinant within a relative 1e-6 of zero.  The band is far wider than
    the float error, so it also checks the package's narrower one.

    ``|left + right|`` is ``|left| + |right|`` when the two share a sign;
    otherwise their difference cannot be near zero."""
    (ax, ay), (bx, by), (cx, cy) = a, b, c
    left = (bx - ax) * (cy - ay)
    right = (by - ay) * (cx - ax)
    det = left - right
    if not abs(det) > 1e-6 * abs(left + right):
        ax, ay, bx, by, cx, cy = map(_fraction, (ax, ay, bx, by, cx, cy))
        det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return det


def convex_hull_serial(points: Sequence[Point]) -> list[int]:
    """The monotone chain over every input point, with no prefilter.

    Same contract as :func:`diskcover.geometry.convex_hull`: strict hull,
    counterclockwise from the bottom-most (then left-most) vertex, duplicates
    collapsed to the lowest index, orientations decided exactly.
    """
    if not points:
        raise ValueError("convex_hull: empty point list")
    first_idx: dict[Point, int] = {}
    for i, p in enumerate(points):
        q = (p[0], p[1])
        if q not in first_idx:
            first_idx[q] = i
    uniq = sorted(first_idx)
    if len(uniq) == 1:
        return [first_idx[uniq[0]]]

    lower: list[Point] = []
    for p in uniq:
        while len(lower) >= 2 and _orient_exact(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(uniq):
        while len(upper) >= 2 and _orient_exact(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    ring = lower[:-1] + upper[:-1]

    if len(ring) == 2:
        i, j = first_idx[ring[0]], first_idx[ring[1]]
        return [min(i, j), max(i, j)]
    start = min(range(len(ring)), key=lambda i: (ring[i][1], ring[i][0]))
    ring = ring[start:] + ring[:start]
    return [first_idx[p] for p in ring]


def local_cover_serial(
    u: Point,
    prio: Sequence[int],
    sec: Sequence[int],
    inst: Instance,
    resolve: str = "incremental",
) -> LocalCoverResult:
    """The candidate pruning that the flat loops of
    :func:`diskcover.spiral.local_cover` replaced: a generator of
    :func:`dist` calls per pending candidate, a list comprehension over
    :func:`covers` and a ``min`` keyed on ``(dist, index)``.

    ``resolve`` says how each trial disk is found.  ``"incremental"`` grows
    the smallest disk over the committed points with Welzl's step over the
    recursive kernels below, over the candidate and then the points
    absorbed since the last trial; it has the same contract, and the same
    distances in the same order, so its results equal ``local_cover``'s.
    ``"scratch"`` re-solves the trial disk over every committed point with
    :func:`one_center`, as ``local_cover`` once did; it may differ from it
    in the last bits of the disks.
    """
    r = inst.radius
    pts = inst.points
    if not prio:
        raise ContractError("prio set must be non-empty")
    covered = list(dict.fromkeys(prio))
    if len(covered) != len(prio):
        raise ContractError("prio set contains repeated indices")
    pending = list(dict.fromkeys(sec))
    if len(pending) != len(sec):
        raise ContractError("sec set contains repeated indices")
    if set(covered) & set(pending):
        raise ContractError("prio and sec sets overlap")
    bound = coverage_bound(r)
    loc = (float(u[0]), float(u[1]))
    if any(dist(loc, pts[k]) > bound for k in covered):
        raise ContractError("starting location does not cover the prio set")

    # A candidate farther than pair_bound from a committed point can never
    # share its disk: the pair's enclosing radius, half their distance,
    # already fails the coverage rule.  The oracle pairs points the same way.
    pair_bound = 2.0 * bound

    def keep_near(candidates: list[int], anchors: Sequence[int]) -> list[int]:
        kept = []
        for k in candidates:
            pk = pts[k]
            if all(dist(pk, pts[a]) <= pair_bound for a in anchors):
                kept.append(k)
        return kept

    pending = keep_near(pending, covered)
    disk = one_center([pts[k] for k in covered]) if pending else None
    grown = list(covered)  # the points of `disk`, in the order it took them
    while pending:
        here = Disk(loc, r)
        near = [k for k in pending if covers(here, pts[k])]
        if near:
            covered.extend(near)
            near_set = set(near)
            pending = [k for k in pending if k not in near_set]
            pending = keep_near(pending, near)
            if not pending:
                break
        k1 = min(pending, key=lambda k: (dist(loc, pts[k]), k))
        if resolve == "incremental":
            trial = disk
            for k in [k1] + near:
                trial = _grow_serial(trial, [pts[g] for g in grown], pts[k])
                grown.append(k)
        else:
            trial = one_center([pts[k] for k in covered] + [pts[k1]])
        if trial.radius > bound:
            break
        disk = trial
        loc = trial.center
        covered.append(k1)
        pending.remove(k1)
        pending = keep_near(pending, [k1])
    return LocalCoverResult(center=loc, covered=covered)


def spiral_serial(inst: Instance, resolve: str = "incremental") -> list[SpiralStep]:
    """The spiral loop with every uncovered point passed to each step.

    Each step takes the serial hull of all uncovered points, anchors at the
    carried hull point or else the hull's first (bottom-most), hands every
    interior point to the second ``local_cover_serial`` call and tests every
    uncovered point against the placed disk.  ``resolve`` is passed to
    both ``local_cover_serial`` calls.
    """
    r = inst.radius
    pts = inst.points
    uncovered = list(range(inst.k))
    carried: Optional[int] = None
    steps: list[SpiralStep] = []

    while uncovered:
        hull_local = convex_hull_serial([pts[k] for k in uncovered])
        boundary = [uncovered[i] for i in hull_local]
        bset = set(boundary)
        inner = [k for k in uncovered if k not in bset]

        k0 = carried if carried in bset else boundary[0]

        first = local_cover_serial(pts[k0], [k0], [k for k in boundary if k != k0], inst, resolve)
        second = local_cover_serial(first.center, first.covered, inner, inst, resolve)
        center = second.center

        disk = Disk(center, r)
        newly = [k for k in uncovered if covers(disk, pts[k])]
        newly_set = set(newly)
        uncovered = [k for k in uncovered if k not in newly_set]

        carried = None
        pos = boundary.index(k0)
        for off in range(1, len(boundary)):
            cand = boundary[(pos + off) % len(boundary)]
            if cand not in newly_set:
                carried = cand
                break
        steps.append(
            SpiralStep(
                k0=k0,
                boundary=boundary,
                newly_boundary=list(first.covered),
                newly=newly,
                center=center,
            )
        )
    return steps


# --- Serial enclosing-disk reference -------------------------------------


def one_center_serial(points: Sequence[Point]) -> Disk:
    """The recursive enclosing-disk construction that the flat kernel replaced.

    Same contract as :func:`diskcover.geometry.one_center`, and the same
    operations in the same order, so the two must return equal disks.

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


def _grow_serial(disk: Disk, points: Sequence[Point], p: Point) -> Disk:
    # Welzl's step: the smallest disk over `points` and p, given `disk`, the
    # one over `points` with its radius their largest distance from its center.
    d = dist(disk.center, p)
    if d <= disk.radius * _MEC_EPS:
        return Disk(disk.center, max(disk.radius, d))
    center = _mec_one_known(points, p).center
    return Disk(center, max(dist(center, q) for q in [*points, p]))


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
        cross = _orient(p, q, s)
        c = _circumdisk(p, q, s)
        if c is None:
            continue
        ccx, ccy = c.center
        if cross > 0.0 and (
            left is None
            or _orient(p, q, (ccx, ccy)) > _orient(p, q, left.center)
        ):
            left = c
        elif cross < 0.0 and (
            right is None
            or _orient(p, q, (ccx, ccy)) < _orient(p, q, right.center)
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
