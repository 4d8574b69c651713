"""Comparison heuristics: strip cover, k-means with bisection, random placement."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exact import DEFAULT_NODE_LIMIT
from .geometry import (
    Disk,
    Point,
    dist,
    grow_disk,
    one_center,
    within_mask,
)
from .problem import Instance, Solution

# Strip height over r: sqrt(3) keeps a midline-centered disk spanning the full
# strip while retaining horizontal reach at the strip edges.
STRIP_HEIGHT_FACTOR = math.sqrt(3.0)

# Batch k-means passes per probe before its labels are taken as they stand.
KMEANS_MAX_ITERS = 100


@dataclass(frozen=True)
class TrialConfig:
    """Knobs for the stochastic baselines and the oracle's search budget."""

    trials: int = 100
    node_limit: int = DEFAULT_NODE_LIMIT

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.node_limit < 1:
            raise ValueError("node_limit must be >= 1")


def solve_strip(inst: Instance, seed: int = 0) -> Solution:
    """Greedy left-to-right cover of horizontal strips, one strip at a time.

    Strip midlines sit at ``min_y + i*h`` (the bottom-most point lies on the
    first midline); each point belongs to its nearest midline.  Within a
    strip, points are swept by ascending x: starting from the leftmost
    uncovered point, the run of following points is absorbed while the group
    still fits in one radius-r disk, that group's smallest enclosing disk is
    placed, and every strip point it reaches is covered by it.  The group's
    disk grows one point at a time (:func:`grow_disk`), and the sweep stops
    at the first point that would take it past r.  Points in
    other strips are never considered by a disk, which is the strip scheme's
    defining restriction.  Fully deterministic; `seed` is only recorded.
    Far from unit scale it solves in power-of-two units
    (:meth:`Instance.in_power_of_two_units`).
    """
    t0 = time.perf_counter()
    inst, e = inst.in_power_of_two_units()
    r = inst.radius
    pts = inst.points

    h = STRIP_HEIGHT_FACTOR * r
    bound = inst.bound
    min_y = min(p[1] for p in pts)
    strips: dict[int, list[int]] = {}
    for k, p in enumerate(pts):
        # Halved, so the span cannot overflow.  Halving is exact above the
        # subnormals, so the quotient is the unhalved one wherever the span
        # is finite and no halved value is subnormal.  Under a subnormal h
        # the quotient can overflow: those points share the strip at inf.
        s = (p[1] / 2.0 - min_y / 2.0) / (h / 2.0) + 0.5
        strips.setdefault(math.floor(s) if s < math.inf else s, []).append(k)

    centers: list[Point] = []
    newly_all: list[list[int]] = []
    for s in sorted(strips):
        remaining = sorted(strips[s], key=lambda k: (pts[k][0], pts[k][1], k))
        while remaining:
            x, y = pts[remaining[0]]
            xs, ys = [x], [y]
            mec = Disk((x, y), 0.0)
            for k in remaining[1:]:
                x, y = pts[k]
                xs.append(x)
                ys.append(y)
                trial = grow_disk(mec, xs, ys)
                if not trial.radius <= bound:
                    break
                mec = trial
            # remaining ascends in x, and a point whose x exceeds the
            # center's by more than the bound is not covered, nor is any
            # later one: hypot is at least |dx|.
            cx = mec.center[0]
            stop = len(remaining)
            for i, k in enumerate(remaining):
                if pts[k][0] - cx > bound:
                    stop = i
                    break
            newly, kept = [], []
            for k in remaining[:stop]:
                (newly if dist(mec.center, pts[k]) <= bound else kept).append(k)
            centers.append(mec.center)
            newly_all.append(newly)
            remaining = kept + remaining[stop:]

    return Solution(
        algorithm="strip",
        seed=seed,
        centers=[(math.ldexp(x, e), math.ldexp(y, e)) for x, y in centers],
        newly_covered=newly_all,
        runtime=time.perf_counter() - t0,
    )


# Element budget of one lockstep k-means block, which sets how many probes
# of a bisection step run their batch passes and refinement side by side.  A
# row probing p clusters on n points costs n * (p + 8) elements: its slices of
# the two (B, n, p) working arrays (allocated once per solve at the budget
# size, 640 KiB each) plus about eight (B, n) temporaries.  Larger blocks
# amortise more numpy call overhead but raise peak memory.  Swept on a 2-core
# x86 VM: k-means time over 12 K=80 cells at D/r 2, 6 and 10 with 100 trials
# (median of 5, host speed divided out as perfbench does), and perfbench
# table-k80's peak RSS in 10 s runs (39.8 MB with the former per-block
# seeding at 49 152):
#
#   budget    k-means time   table-k80 peak RSS
#    49 152   3.07 s         39.8 MB
#    65 536   2.97 s         40.2 MB
#    81 920   2.84 s         40.3 MB
#    98 304   2.73 s         40.7 MB
#   131 072   2.66 s         41.0 MB
#   196 608   2.72 s         42.0 MB
#
# In 35 s runs, which keep more jobs, 81 920 read 1.9% over the former peak
# and 98 304 2.5% to 3.0%, more than half of the 5% the benchmark allows.
_KMEANS_BLOCK_ELEMS = 81_920
_KMEANS_ROW_TEMPS = 8


def _sqdist(
    pts: np.ndarray,
    c: np.ndarray,
    out: Optional[np.ndarray] = None,
    tmp: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Squared distances (B, n, p) from each point of ``pts`` (2, n) to each
    center of ``c`` (2, B, p), as dx*dx + dy*dy: entry (b, i, j) is point i's
    to center j of row b, +inf for a center at +inf (padding).  Written to
    ``out``, with dy in ``tmp``, when given."""
    dx = np.subtract(pts[0][None, :, None], c[0][:, None, :], out=out)
    dx *= dx
    dy = np.subtract(pts[1][None, :, None], c[1][:, None, :], out=tmp)
    dy *= dy
    dx += dy
    return dx


def _seed_lockstep(
    pts: np.ndarray, ps: np.ndarray, rngs: list[np.random.Generator]
) -> np.ndarray:
    """Careful seeding per row: first center uniform, then squared-distance
    weighted.  Returns the centers (2, B, max p), +inf past a row's own
    count.

    Row b draws its first center, then the p - 1 uniforms of its other
    centers in one call.  A row whose points all sit on its centers already
    stops early: its remaining centers copy the first, and its unused
    uniforms stay drawn.
    """
    b_rows, n, pm = len(ps), pts.shape[1], int(ps.max())
    c = np.full((2, b_rows, pm), np.inf)
    first = np.empty(b_rows, dtype=np.intp)
    u = np.empty((b_rows, pm - 1))  # column j - 1 places center j
    for b, (rng, p) in enumerate(zip(rngs, ps.tolist())):
        first[b] = rng.integers(n)
        if p > 1:
            rng.random(out=u[b, : p - 1])
    c[:, :, 0] = pts[:, first]
    at = np.flatnonzero(ps > 1)  # rows still placing centers
    d2 = _sqdist(pts, c[:, at, :1])[..., 0]
    cum = np.empty_like(d2)
    for j in range(1, pm):
        keep = ps[at] > j
        total = d2.sum(axis=1)
        if total.min() <= 0.0:
            for b in at[keep & (total <= 0.0)]:
                # Every point sits on a center already: copy the first one.
                c[:, b, j : ps[b]] = c[:, b, :1]
            keep &= total > 0.0
        if not keep.all():
            at, d2, total = at[keep], d2[keep], total[keep]
            if at.size == 0:
                break
            cum = cum[: at.size]
        np.divide(d2, total[:, None], out=cum)
        np.cumsum(cum, axis=1, out=cum)
        chosen = pts[:, np.minimum((cum <= u[at, j - 1 : j]).sum(axis=1), n - 1)]
        c[:, at, j] = chosen
        np.minimum(d2, _sqdist(pts, chosen[..., None], cum[..., None])[..., 0], out=d2)
    return c


def _batch_lockstep(
    pts: np.ndarray, labels: np.ndarray, c: np.ndarray, buf: np.ndarray, tmp_buf: np.ndarray
) -> None:
    """Batch passes per row until its labels repeat, at most KMEANS_MAX_ITERS.

    Updates the centers and the labels (B, n) in place; padding centers stay
    at +inf.  A row whose labels repeat is written back and dropped from the
    working set.
    """
    _, b_rows, pm = c.shape
    n = pts.shape[1]
    tiled = np.tile(pts, b_rows)
    at = np.arange(b_rows)  # working row -> row
    lab, wc = labels, c
    for it in range(KMEANS_MAX_ITERS):
        k = len(at)
        elems = k * n * pm
        dist2 = _sqdist(pts, wc, buf[:elems].reshape(k, n, pm), tmp_buf[:elems].reshape(k, n, pm))
        new_labels = dist2.argmin(axis=2)
        if it > 0:
            moving = (new_labels != lab).any(axis=1)
            if not moving.all():
                labels[at], c[:, at] = lab, wc
                keep = np.flatnonzero(moving)
                if keep.size == 0:
                    return
                at, new_labels, wc = at[keep], new_labels[keep], wc[:, keep]
                k = keep.size
        lab = new_labels
        g = (lab + (np.arange(k) * pm)[:, None]).ravel()
        counts = np.bincount(g, minlength=k * pm).reshape(k, pm)
        used = counts > 0
        for axis in (0, 1):
            sums = np.bincount(g, weights=tiled[axis, : k * n], minlength=k * pm)
            wc[axis][used] = sums.reshape(k, pm)[used] / counts[used]
        empty = ~used & (wc[0] < np.inf)
        for b in np.flatnonzero(empty.any(axis=1)):
            # Re-seed each empty cluster on the point farthest from its
            # assigned center, then let the next pass reassign.
            gap = pts - wc[:, b, lab[b]]
            gap *= gap
            own = gap[0] + gap[1]
            for j in np.flatnonzero(empty[b]):
                far = int(own.argmax())
                wc[:, b, j] = pts[:, far]
                own[far] = 0.0
    labels[at], c[:, at] = lab, wc


def _refine_lockstep(
    pts: np.ndarray,
    labels: np.ndarray,
    c: np.ndarray,
    buf: np.ndarray,
    tmp_buf: np.ndarray,
    r: float,
) -> None:
    """Single-point refinement moves per row while one lowers the total
    within-cluster squared error by more than ``1e-12 * r * r``.

    Sizes reweight the change: a point joining a cluster of n costs n/(n+1)
    of its squared distance, leaving refunds n/(n-1).  This escapes the
    plateaus batch passes converge to.  Updates `labels` in place (the
    centers are left stale; padding centers, at +inf, are never joined).
    Once half the working rows have stopped, their labels are written back
    and the rows dropped.
    """
    _, b_rows, pm = c.shape
    n = pts.shape[1]
    row_size = n * pm
    offsets = (np.arange(b_rows) * pm)[:, None]
    counts = np.bincount((labels + offsets).ravel(), minlength=b_rows * pm).astype(float)
    counts = counts.reshape(b_rows, pm)
    elems = b_rows * row_size
    _sqdist(pts, c, buf[:elems].reshape(b_rows, n, pm), tmp_buf[:elems].reshape(b_rows, n, pm))
    at = np.arange(b_rows)  # working row -> row
    lab, cnt, wc = labels, counts, c
    wpad = np.where(c[0] < np.inf, 0.0, np.inf)
    active = np.ones(b_rows, dtype=bool)
    k = 0  # working-set size the views below were built for
    for _ in range(3 * n):
        if 2 * np.count_nonzero(active) <= len(at):
            # Half the working rows have stopped: write them back, drop them.
            labels[at] = lab
            keep = np.flatnonzero(active)
            rows = buf[: len(at) * row_size].reshape(len(at), row_size)
            rows[: keep.size] = rows[keep]
            at, lab, cnt, wpad = at[keep], lab[keep], cnt[keep], wpad[keep]
            wc = np.ascontiguousarray(wc[:, keep])  # wc_flat must be a view
            active = active[keep]
        if k != len(at):
            k = len(at)
            dist2 = buf[: k * row_size].reshape(k, n, pm)
            work = tmp_buf[: k * row_size].reshape(k, n, pm)
            dist2_flat, delta_flat = dist2.reshape(-1), work.reshape(-1)
            delta = work.reshape(k, row_size)
            cnt_flat, wc_flat = cnt.reshape(-1), wc.reshape(2, -1)
            offsets = (np.arange(k) * pm)[:, None]
            first_cell = offsets * n + np.arange(n) * pm  # flat index of (b, i, 0)
            row_start = np.arange(k) * row_size

        # A singleton refunds nothing, so its moves never lower the error and
        # no move ever empties a cluster.
        refund = np.divide(
            cnt_flat, cnt_flat - 1.0, out=np.zeros_like(cnt_flat), where=cnt_flat > 1.0
        )
        own_cell = first_cell + lab
        gain = refund[lab + offsets] * dist2_flat[own_cell]
        np.multiply((cnt / (cnt + 1.0) + wpad)[:, None, :], dist2, out=work)
        np.subtract(work, gain[:, :, None], out=work)
        delta_flat[own_cell] = np.inf
        flat = delta.argmin(axis=1)
        active &= ~(delta_flat[row_start + flat] >= -1e-12 * r * r)
        mv = active.nonzero()[0]
        if mv.size == 0:
            break
        i, dst = np.divmod(flat[mv], pm)
        # Source then destination cluster of each move: the point leaves one
        # (sign -1) and joins the other (sign +1).
        rows = np.concatenate((mv, mv))
        cols = np.concatenate((lab[mv, i], dst))
        flat_cols = rows * pm + cols
        sign = np.ones(rows.size)
        sign[: mv.size] = -1.0
        size = cnt_flat[flat_cols]
        moved = pts[:, np.concatenate((i, i))]
        wc_flat[:, flat_cols] = (size * wc_flat[:, flat_cols] + sign * moved) / (size + sign)
        cnt_flat[flat_cols] = size + sign
        lab[mv, i] = dst
        dist2[rows, :, cols] = _sqdist(pts, wc_flat[:, flat_cols, None])[..., 0]
    labels[at] = lab


def _lloyd_lockstep(
    inst: Instance,
    ps: np.ndarray,
    rngs: list[np.random.Generator],
    buf: np.ndarray,
    tmp_buf: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One bisection step: k-means probes run side by side, one per row: row
    b clusters into ``ps[b]`` groups drawing from ``rngs[b]``; ``ps`` is
    ascending.

    Each row goes through careful seeding, batch passes, then single-point
    refinement moves, and draws exactly what a lone run would; a row that
    has converged is frozen.  Center columns beyond a row's own count are
    padding at +inf, which no point ever picks.  Seeding and the exact
    feasibility checks take every row at once; the batch passes and the
    refinement, whose (rows, n, p) arrays live in ``buf`` and ``tmp_buf``,
    take blocks of rows that fit them.
    Returns the labels (B, n) and whether each row's clusters all fit in a
    radius-r disk (B,).
    """
    r = inst.radius
    b_rows, pm = len(ps), int(ps[-1])
    n = inst.k
    pts = np.ascontiguousarray(inst.xy.T)
    seeds = _seed_lockstep(pts, ps, rngs)
    labels = np.empty((b_rows, n), dtype=np.intp)
    start = 0
    while start < b_rows:
        # Rows are ascending in p, so a block's last row has its largest count.
        stop = start + 1
        while (
            stop < b_rows
            and (stop - start + 1) * n * (ps[stop] + _KMEANS_ROW_TEMPS) <= _KMEANS_BLOCK_ELEMS
        ):
            stop += 1
        c = np.ascontiguousarray(seeds[:, start:stop, : ps[stop - 1]])
        _batch_lockstep(pts, labels[start:stop], c, buf, tmp_buf)
        _refine_lockstep(pts, labels[start:stop], c, buf, tmp_buf, r)
        start = stop

    # Feasibility over per-cluster bounding boxes, every row's at once.  Half
    # the larger extent lower-bounds the enclosing radius (too wide: reject);
    # every member lies within half the diagonal of the box centre (accept).
    # Only the clusters in between, unsure, need an exact enclosing disk.  An
    # empty or padding cluster keeps its box at +inf..-inf, extent 0: neither.
    bound = inst.bound
    g = (labels + (np.arange(b_rows) * pm)[:, None]).ravel()
    tiled = np.tile(pts, b_rows)
    lo = np.full((2, b_rows * pm), np.inf)
    hi = np.full((2, b_rows * pm), -np.inf)
    for axis in (0, 1):
        np.minimum.at(lo[axis], g, tiled[axis])
        np.maximum.at(hi[axis], g, tiled[axis])
    ex, ey = np.maximum(hi - lo, 0.0).reshape(2, b_rows, pm)
    wide = np.maximum(ex, ey) / 2.0 > bound
    unsure = ~(np.hypot(ex, ey) / 2.0 <= r)
    feasible = ~wide.any(axis=1)
    check = unsure & feasible[:, None]
    for b in np.flatnonzero(check.any(axis=1)):
        for j in np.flatnonzero(check[b]):
            mec = one_center([inst.points[k] for k in np.flatnonzero(labels[b] == j).tolist()])
            if not mec.radius <= bound:
                feasible[b] = False
                break
    return labels, feasible


def solve_kmeans(inst: Instance, seed: int = 0, cfg: Optional[TrialConfig] = None) -> Solution:
    """Best of `trials` k-means partitions, bisecting the cluster count per trial.

    A trial runs seeded k-means (careful init, batch passes, single-point
    refinement) at each probed p and is feasible when every non-empty cluster
    fits in a radius-r disk; empty clusters are dropped, so a trial's disk
    count may come in under p.  Final centers are each cluster's
    smallest-enclosing-disk center.  Far from unit scale it solves in
    power-of-two units (:meth:`Instance.in_power_of_two_units`).

    Trial t draws from PCG64(seed + t).  All trials bisect in lockstep over
    four arrays: each trial's open range ``lo``..``hi`` of counts, whether
    some count was ``found`` feasible, and the ``best`` labels found (trials,
    n).  At each step every trial whose range is open probes its midpoint,
    and so does a trial whose range has closed (``lo == hi``) with nothing
    found, at that last count; the probes run side by side, ascending in p,
    in blocks that fit the working buffers.  The winner is the first trial
    with the fewest distinct labels.  The output is the same as running the
    trials one after another.
    """
    cfg = cfg or TrialConfig()
    t0 = time.perf_counter()
    inst, e = inst.in_power_of_two_units()
    pts = inst.points
    # Distinct positions by set, not np.unique, which imports numpy.ma (about
    # 1.2 MB resident) on first use.
    n, n_distinct = inst.k, len(set(pts))
    size = min(max(_KMEANS_BLOCK_ELEMS, n * n_distinct), cfg.trials * n * n_distinct)
    buf, tmp_buf = np.empty(size), np.empty(size)

    rngs = [np.random.Generator(np.random.PCG64(seed + t)) for t in range(cfg.trials)]
    # Feasibility is treated as monotone in the count.  One cluster per
    # distinct position is always feasible, hence the cap.
    lo = np.ones(cfg.trials, dtype=np.intp)
    hi = np.full(cfg.trials, n_distinct, dtype=np.intp)
    found = np.zeros(cfg.trials, dtype=bool)
    best = np.empty((cfg.trials, n), dtype=np.intp)
    while True:
        # A failed probe at the cap leaves lo past hi, which ends the trial.
        live = np.flatnonzero((lo < hi) | ((lo == hi) & ~found))
        if live.size == 0:
            break
        mid = (lo[live] + hi[live]) // 2
        # Similar counts share a block, so little of it is padding.
        order = np.argsort(mid, kind="stable")
        live, mid = live[order], mid[order]
        # Where in_power_of_two_units declined to scale, squared distances
        # and box extents can overflow to inf and their differences to NaN.
        # That can only mislabel a probe or fail its box test; the exact
        # one_center check still decides feasibility.
        with np.errstate(over="ignore", invalid="ignore"):
            labels, feasible = _lloyd_lockstep(inst, mid, [rngs[t] for t in live], buf, tmp_buf)
        hit = live[feasible]
        best[hit], hi[hit], found[hit] = labels[feasible], mid[feasible], True
        lo[live[~feasible]] = mid[~feasible] + 1
    if not found.all():
        # Unreachable in practice: one cluster per distinct position has
        # radius 0.
        first: dict[tuple[float, float], int] = {}
        best[~found] = [first.setdefault(p, len(first)) for p in pts]
    # Labels lie below n, so an offset of n per trial gives each its own bins.
    bins = (best + (np.arange(cfg.trials) * n)[:, None]).ravel()
    used = np.bincount(bins, minlength=cfg.trials * n).reshape(cfg.trials, n)
    best = best[np.count_nonzero(used, axis=1).argmin()]

    centers: list[Point] = []
    newly_all: list[list[int]] = []
    for j in np.flatnonzero(np.bincount(best)):
        members = np.flatnonzero(best == j).tolist()
        x, y = one_center([pts[k] for k in members]).center
        centers.append((math.ldexp(x, e), math.ldexp(y, e)))
        newly_all.append(members)

    return Solution(
        algorithm="kmeans",
        seed=seed,
        centers=centers,
        newly_covered=newly_all,
        runtime=time.perf_counter() - t0,
    )


def solve_random(inst: Instance, seed: int = 0, cfg: Optional[TrialConfig] = None) -> Solution:
    """Best of `trials` passes that stack disks on uniformly drawn uncovered points."""
    cfg = cfg or TrialConfig()
    t0 = time.perf_counter()
    xy = inst.xy
    k_total = inst.k
    bound = inst.bound
    # The points each drawn center reaches, ascending, shared by every pass.
    reach: dict[int, np.ndarray] = {}

    best_centers: Optional[list[Point]] = None
    best_newly: Optional[list[list[int]]] = None
    for t in range(cfg.trials):
        rng = np.random.Generator(np.random.PCG64(seed + t))
        alive = np.ones(k_total, dtype=bool)
        centers: list[Point] = []
        newly_all: list[list[int]] = []
        while alive.any():
            live = np.flatnonzero(alive)
            pick = int(live[int(rng.integers(live.size))])
            center = inst.points[pick]
            if pick not in reach:
                reach[pick] = np.flatnonzero(within_mask(xy, center, bound))
            near = reach[pick]
            taken = near[alive[near]]
            centers.append(center)
            newly_all.append(taken.tolist())
            alive[taken] = False
        if best_centers is None or len(centers) < len(best_centers):
            best_centers = centers
            best_newly = newly_all
    assert best_centers is not None and best_newly is not None

    return Solution(
        algorithm="random",
        seed=seed,
        centers=best_centers,
        newly_covered=best_newly,
        runtime=time.perf_counter() - t0,
    )
