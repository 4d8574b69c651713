"""Sequential perimeter-first placement with greedy local disk refinement.

Each disk is anchored at a point on the convex hull of the still-uncovered
set, grown over nearby hull points first and interior points second, and the
process walks the shrinking perimeter counterclockwise until nothing is left.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from math import hypot
from typing import Iterator, Optional, Sequence

import numpy as np

from .geometry import (
    Point,
    convex_hull,
    dist,
    grow_disk,
    one_center,
)
from .problem import Instance, Solution

# Every chord test (:func:`_chord`) takes a point as inside only by more
# than _HULL_MARGIN * (largest |coordinate|) * (extent) in cross-product
# units: its rounding grows with the coordinates' magnitude, and at offsets
# such as UTM coordinates a margin of extent**2 alone would let a hull
# vertex pass as interior.
_HULL_MARGIN = 64.0 * float(np.finfo(float).eps)
# Rows: the directions -y, x - y, x, x + y, y, y - x, -x, -x - y, in
# counterclockwise order; a projection onto one is x +- y rounded once.
_EXTREME_DIRECTIONS = np.array(
    [[0.0, -1.0], [1.0, -1.0], [1.0, 0.0], [1.0, 1.0],
     [0.0, 1.0], [-1.0, 1.0], [-1.0, 0.0], [-1.0, -1.0]]
)


class ContractError(ValueError):
    """A local_cover precondition was violated by the caller."""


@dataclass
class LocalCoverResult:
    center: Point
    covered: list[int]


@dataclass
class SpiralStep:
    """One disk of the spiral, as :func:`spiral_steps` yields it.

    ``boundary`` is the hull of the uncovered points, counterclockwise;
    ``k0`` the anchor taken from it; ``newly_boundary`` the points committed
    while growing over the hull (the anchor first); ``newly`` every
    uncovered point the placed disk at ``center`` covers.
    """

    k0: int
    boundary: list[int]
    newly_boundary: list[int]
    newly: list[int]
    center: Point


def local_cover(
    u: Point,
    prio: Sequence[int],
    sec: Sequence[int],
    inst: Instance,
) -> LocalCoverResult:
    """Grow a one-disk cover around `prio` with as many `sec` points as greedily fit.

    Starting from a location `u` that already covers every prioritized point,
    repeatedly: drop secondary candidates that sit farther than 2r from some
    committed point (they can never share its disk), absorb the candidates
    within r of the current location (one pass splits them from the rest, in
    order), then try the nearest remaining candidate on the smallest disk
    enclosing the committed points, grown one point at a time
    (:func:`grow_disk`) over the candidate and then the points absorbed
    since the last trial; stop at the first candidate that would push the
    disk radius past r.  The location moves only when a candidate is
    admitted, to the center of the grown disk.

    Returns the final location and the committed indices (in admission
    order).  Raises :class:`ContractError` when the preconditions fail: prio
    empty or repeating an index, sec repeating an index, prio/sec
    overlapping, or `u` not covering all of prio under the package's
    coverage rule.  That check also rejects a prio that no radius-r disk
    covers; a prio that `u` covers fits the disk at `u`, so prio's own
    enclosing disk is not tested against r on its own.
    """
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
    bound = inst.bound
    loc = (float(u[0]), float(u[1]))
    if any(dist(loc, pts[k]) > bound for k in covered):
        raise ContractError("starting location does not cover the prio set")

    # A candidate farther than pair_bound from a committed point can never
    # share its disk: the pair's enclosing radius, half their distance,
    # already fails the coverage rule.  The oracle pairs points the same way.
    pair_bound = 2.0 * bound

    def keep_near(candidates: list[int], anchors: Sequence[int]) -> list[int]:
        anchor_pts = [pts[a] for a in anchors]
        kept = []
        for k in candidates:
            x, y = pts[k]
            for ax, ay in anchor_pts:
                if not hypot(x - ax, y - ay) <= pair_bound:
                    break
            else:
                kept.append(k)
        return kept

    pending = keep_near(pending, covered)
    if not pending:
        return LocalCoverResult(center=loc, covered=covered)
    # The smallest disk over the points committed before each pass, grown one
    # point at a time, with their coordinates in the order it took them.
    disk = one_center([pts[k] for k in covered])
    xs = [pts[k][0] for k in covered]
    ys = [pts[k][1] for k in covered]
    while pending:
        lx, ly = loc
        near, far = [], []
        for k in pending:
            x, y = pts[k]
            (near if hypot(lx - x, ly - y) <= bound else far).append(k)
        if near:
            covered.extend(near)
            pending = keep_near(far, near)
            if not pending:
                break
        # The nearest candidate, the lowest index among equals.
        k1, best = -1, 0.0
        for k in pending:
            x, y = pts[k]
            d = hypot(lx - x, ly - y)
            if k1 < 0 or d < best or (d == best and k < k1):
                k1, best = k, d
        # The disk grows over k1 first, then over the points just absorbed:
        # k1 lies outside it far more often, and the disk that holds k1
        # holds most of them.
        trial = disk
        for k in [k1, *near]:
            x, y = pts[k]
            xs.append(x)
            ys.append(y)
            trial = grow_disk(trial, xs, ys)
        if trial.radius > bound:
            break
        disk = trial
        loc = trial.center
        covered.append(k1)
        pending = keep_near([k for k in pending if k != k1], [k1])
    return LocalCoverResult(center=loc, covered=covered)


def _cell(v: float, lo: float, side: float, n: int) -> int:
    """The column (or row) of the cell that holds coordinate ``v``: the floor
    of ``(v / 2 - lo) / side``, clamped to ``0 .. n - 1``.

    ``lo`` and ``side`` are halved, as ``v`` is here, so that no difference
    of coordinates overflows.  Every point and every box corner goes through
    this one expression, which is monotone in ``v``, so a point at or beyond
    a corner falls in the corner's cell or beyond it.  (Python's float ``//``
    floors the exact quotient, not this rounded one, and mixing the two
    loses points at cell edges.)  A corner past the largest float is clamped.
    """
    q = (v / 2.0 - lo) / side
    if not q > 0.0:
        return 0
    return n - 1 if q >= n else int(q)


class _Cells:
    """The point indices bucketed once per solve into square cells.

    Each cell is a Python list of the uncovered indices in it, ascending,
    and the cells are stored row-major in ``lists``.  ``alive`` marks the
    uncovered points; :meth:`cover` clears them and rebuilds the cells that
    held them.  The side is at least ``reach`` and at least the extent over
    ``ceil(sqrt(K))``, so there are never more than about K cells; it and
    the lower corner are halved.  ``xs`` and ``ys`` are the coordinates, and
    each cell keeps the bounding box of the points it was given.
    """

    def __init__(self, xs: list[float], ys: list[float], reach: float):
        self.xs, self.ys = xs, ys
        self.lo_x, self.lo_y = min(xs) / 2.0, min(ys) / 2.0
        span_x, span_y = max(xs) / 2.0 - self.lo_x, max(ys) / 2.0 - self.lo_y
        self.side = max(reach / 2.0, max(span_x, span_y) / math.ceil(math.sqrt(len(xs))))
        self.n_cols = int(span_x / self.side) + 1
        self.n_rows = int(span_y / self.side) + 1
        self.alive = bytearray(b"\x01") * len(xs)
        self.lists: list[list[int]] = [[] for _ in range(self.n_cols * self.n_rows)]
        # The cell of each point.
        self.home = [self.column(x) * self.n_rows + self.row(y) for x, y in zip(xs, ys)]
        for k, c in enumerate(self.home):
            self.lists[c].append(k)
        self.bounds = [
            (
                min([xs[k] for k in held]),
                min([ys[k] for k in held]),
                max([xs[k] for k in held]),
                max([ys[k] for k in held]),
            )
            if held
            else None
            for held in self.lists
        ]

    def column(self, x: float) -> int:
        return _cell(x, self.lo_x, self.side, self.n_cols)

    def row(self, y: float) -> int:
        return _cell(y, self.lo_y, self.side, self.n_rows)

    def cover(self, points: list[int]) -> None:
        """Mark ``points`` covered and drop them from their cells."""
        alive, lists = self.alive, self.lists
        for k in points:
            alive[k] = 0
        for c in {self.home[k] for k in points}:
            lists[c] = [k for k in lists[c] if alive[k]]

    def _under(self, x0: float, y0: float, x1: float, y1: float) -> Iterator[int]:
        """The cells that the box ``[x0, x1] x [y0, y1]`` overlaps, which
        hold every uncovered point inside the box."""
        rows = self.n_rows
        j0, j1 = self.row(y0), self.row(y1) + 1
        for i in range(self.column(x0), self.column(x1) + 1):
            yield from range(i * rows + j0, i * rows + j1)

    def near(self, x: float, y: float, reach: float) -> list[int]:
        """Ascending, the uncovered points within ``reach`` of ``(x, y)`` by
        ``math.hypot``, read from the cells under the box around it."""
        xs, ys, lists = self.xs, self.ys, self.lists
        out: list[int] = []
        for c in self._under(x - reach, y - reach, x + reach, y + reach):
            out += [k for k in lists[c] if hypot(x - xs[k], y - ys[k]) <= reach]
        out.sort()
        return out

    def outside(
        self, x0: float, y0: float, x1: float, y1: float, nx: float, ny: float, lim: float
    ) -> list[int]:
        """Ascending, the uncovered points p of the cells under the box for
        which ``nx * p.x + ny * p.y > lim`` fails.

        A cell is passed over whole when that test holds at the corner of
        its bounding box that minimises ``nx * x + ny * y``: then every
        point of it lies above ``lim`` less the test's rounding, exactly.
        """
        xs, ys, lists, bounds = self.xs, self.ys, self.lists, self.bounds
        out: list[int] = []
        for c in self._under(x0, y0, x1, y1):
            held = lists[c]
            if held:
                bx0, by0, bx1, by1 = bounds[c]
                if not nx * (bx0 if nx > 0.0 else bx1) + ny * (by0 if ny > 0.0 else by1) > lim:
                    out += [k for k in held if not nx * xs[k] + ny * ys[k] > lim]
        out.sort()
        return out


def _chord(pts: Sequence[Point], a: int, b: int, margin: float) -> tuple[float, float, float]:
    """The chord a -> b's left normal ``(nx, ny)`` and limit ``lim``: a point
    p lies inside the chord by more than ``margin`` when ``nx * p.x + ny * p.y
    > lim``, evaluated untranslated as normal . p > normal . a + margin."""
    (ax, ay), (bx, by) = pts[a], pts[b]
    nx, ny = ay - by, bx - ax
    return nx, ny, nx * ax + ny * ay + margin


def _carried_hull(
    ring: list[int], pts: Sequence[Point], cells: _Cells, margin: float
) -> Optional[list[int]]:
    """The hull of the uncovered points, carried over from the previous hull
    ``ring``, or None when fewer than three of its vertices are uncovered.

    The uncovered set only loses points, so each surviving vertex of
    ``ring`` is still a vertex, listed in place.  Each chord a -> b between
    survivors that had vertices between them gets a new arc: the part from
    a to b of :func:`convex_hull` over its pocket.  The pocket is read from
    ``cells`` alone (:meth:`_Cells.outside`): the uncovered points of the
    cells that overlap the bounding box of a, b and the vertices the chord
    replaced, less those inside the chord by more than ``margin`` and less
    the cells wholly inside it (a and b stay, on the chord), in ascending
    index order.  This is exact:

    * a new vertex lies beyond exactly one chord, because the wedge beyond a
      survivor lies outside the previous hull, which holds every uncovered
      point;
    * every uncovered point beyond the chord, or on it, lies in the polygon
      of a, the replaced vertices and b, and so in its bounding box; the
      margin covers the rounding of the chord test (:func:`_chord`), and of
      the same test at a corner of a cell's bounding box;
    * the points left out that a test over every uncovered point would keep
      (outside the box, or in a cell passed over) are inside the chord: the
      chord's line meets the previous hull in the segment a b alone, so they
      cannot change the part of the pocket's hull beyond it.  Its vertices
      beyond the chord are the hull's, since the chain decides every turn
      exactly, and its arc from a to b lists just those; the points it keeps
      on or inside the chord lie off that arc;
    * the chord test decides by coordinates, and a cell by coordinates, so
      a point enters with all its duplicates.  A survivor is the lowest
      index of its coordinate, and so is each new vertex.

    The ring keeps its first vertex, the bottom-most (then left-most), if
    that survives, and otherwise starts at its new one, as
    :func:`convex_hull` starts its list.  The anchor of the previous step is
    a vertex of ``ring`` and its disk covers it, so three or more survivors
    leave at least one chord.
    """
    alive = cells.alive
    pos = [i for i, k in enumerate(ring) if alive[k]]
    if len(pos) < 3:
        return None
    out = [ring[i] for i in pos]
    # Splice from the last chord back, so that the earlier ones stay put.
    for e in reversed(range(len(pos))):
        i, j = pos[e], pos[(e + 1) % len(pos)]
        if (j - i) % len(ring) == 1:
            continue
        # Survivor e and the next one bound a chord: the ring had vertices
        # between them.
        span = ring[i : j + 1] if i < j else ring[i:] + ring[: j + 1]
        a, b = ring[i], ring[j]
        gx = [pts[k][0] for k in span]
        gy = [pts[k][1] for k in span]
        pocket = cells.outside(min(gx), min(gy), max(gx), max(gy), *_chord(pts, a, b, margin))
        hull = [pocket[h] for h in convex_hull([pts[k] for k in pocket])]
        at = hull.index(a)
        arc = hull[at + 1 :] + hull[:at]
        out[e + 1 : e + 1] = arc[: arc.index(b)]
    if pos[0]:
        start = min(range(len(out)), key=lambda t: (pts[out[t]][1], pts[out[t]][0]))
        out = out[start:] + out[:start]
    return out


def _first_hull(
    xy: np.ndarray, pts: Sequence[Point], cells: _Cells, margin: float, slack: float
) -> list[int]:
    """The hull of the uncovered points chained afresh, for the first hull
    and after a disk left fewer than three vertices of the previous one.

    The extremes along _EXTREME_DIRECTIONS (the lowest index among equals,
    consecutive repeats dropped) are the vertices of a polygon (Akl &
    Toussaint, 1978).  The chain gets them and, for each edge a -> b, the
    pocket :meth:`_Cells.outside` reads under the bounding box of a and b
    widened by ``slack``, by the chord test of :func:`_chord`, all in
    ascending order; with fewer than three distinct extremes it gets every
    uncovered point.  As in :func:`_carried_hull`, this is exact when every
    hull vertex is in a pocket, and it is: a hull vertex that is no extreme
    lies on or beyond an edge a -> b, on the hull's arc from a to b.  Those
    are extreme along neighbouring directions, 45 degrees apart, so the arc
    heads into one quadrant, x and y are monotone along it, and it lies in
    the box of a and b.  A diagonal extreme is taken on x +- y rounded once,
    so it may sit off the exact one by that rounding, a few units in the
    last place of the largest |coordinate|; ``slack`` is at least 64 of
    them.  Near the float limit these overflow to inf or NaN, which only errs
    towards keeping points; the chain decides a NaN orientation exactly.

    The union is chained once, not arc by arc: an extreme need not be a
    strict hull vertex (a tie on a collinear edge), and an arc cannot be
    cut at it.
    """
    uncovered = np.flatnonzero(np.frombuffer(cells.alive, dtype=bool))
    with np.errstate(over="ignore"):
        ext = uncovered[np.argmax(_EXTREME_DIRECTIONS @ xy[uncovered].T, axis=1)].tolist()
    verts = [k for i, k in enumerate(ext) if k != ext[i - 1]]
    if len(set(verts)) < 3:
        cand = uncovered.tolist()
    else:
        keep = set(verts)
        for a, b in zip(verts, verts[1:] + verts[:1]):
            (ax, ay), (bx, by) = pts[a], pts[b]
            x0, x1 = min(ax, bx) - slack, max(ax, bx) + slack
            y0, y1 = min(ay, by) - slack, max(ay, by) + slack
            keep.update(cells.outside(x0, y0, x1, y1, *_chord(pts, a, b, margin)))
        cand = sorted(keep)
    return [cand[h] for h in convex_hull([pts[k] for k in cand])]


def spiral_steps(inst: Instance) -> Iterator[SpiralStep]:
    """Place radius-r disks along the shrinking perimeter, yielding each step.

    The first anchor of each sweep is the bottom-most (then left-most) hull
    point; later anchors follow the counterclockwise walk from the previous
    anchor over the hull points that remain uncovered.  The steps' ``newly``
    lists partition the point indices.

    The hull is carried from step to step as a deletion-only hull: while
    three or more of its vertices stay uncovered, only the arc across each
    chord a disk opened is chained again (:func:`_carried_hull`).  The first
    hull, and any hull after a disk left fewer than three vertices, is
    chained over the extremes' polygon and the pockets beyond its edges
    (:func:`_first_hull`).  Both read each pocket from the cells
    (:class:`_Cells`) under one chord test (:func:`_chord`).

    Apart from finding those extremes, a step reads only the cells near its
    anchor and its chords.  One scan, :meth:`_Cells.near`, takes the
    uncovered points within ``reach``, twice the coverage bound widened by
    ``1e-12``, of the anchor k0, decided by ``math.hypot`` as :func:`dist`
    decides it.  The interior points handed to the second ``local_cover``
    and the points the placed disk covers both come from it:

    * the widening changes nothing: ``local_cover`` drops every candidate
      farther than twice the coverage bound from k0, a committed point,
      before it looks at any, and keeps the order of the rest;
    * every point the disk covers is in the scan: the disk's center is
      within the coverage bound of k0, since :func:`grow_disk` returns the
      exact largest distance to the points it holds, so such a point is
      within twice the bound of k0 up to a few units in the last place,
      far inside the widening; rounding can put it just past twice the bound.
    """
    pts = inst.points
    xy = inst.xy
    bound = inst.bound
    reach = 2.0 * bound * (1.0 + 1e-12)
    cells = _Cells([p[0] for p in pts], [p[1] for p in pts], reach)
    xs, ys, alive = cells.xs, cells.ys, cells.alive
    left = inst.k
    carried: Optional[int] = None
    # The whole instance's slack and margin are at least those of any subset,
    # so every chord test errs towards keeping; so does an extent that
    # overflows to inf near the float limit.
    slack = _HULL_MARGIN * float(np.abs(xy).max())
    with np.errstate(over="ignore"):
        margin = slack * float(np.ptp(xy, axis=0).max())
    boundary: list[int] = []

    while left:
        ring = _carried_hull(boundary, pts, cells, margin)
        boundary = _first_hull(xy, pts, cells, margin, slack) if ring is None else ring
        bset = set(boundary)

        k0 = carried if carried in bset else boundary[0]
        first = local_cover(pts[k0], [k0], [k for k in boundary if k != k0], inst)
        near = cells.near(*pts[k0], reach)
        inner = [k for k in near if k not in bset]
        second = local_cover(first.center, first.covered, inner, inst)
        center = second.center

        cx, cy = center
        newly = [k for k in near if hypot(cx - xs[k], cy - ys[k]) <= bound]
        if not newly:
            raise RuntimeError("spiral placed a disk that covers no uncovered point")
        cells.cover(newly)
        left -= len(newly)

        # The next anchor: the first hull point after k0, counterclockwise,
        # that this disk left uncovered.
        pos = boundary.index(k0)
        carried = next((k for k in boundary[pos + 1 :] + boundary[:pos] if alive[k]), None)
        yield SpiralStep(
            k0=k0,
            boundary=boundary,
            newly_boundary=list(first.covered),
            newly=newly,
            center=center,
        )


def solve_spiral(inst: Instance, seed: int = 0, deterministic_start: bool = True) -> Solution:
    """Cover every point with the disks of :func:`spiral_steps`.

    Fully deterministic; `seed` is only recorded.  ``deterministic_start``
    must be True: the bottom-most hull point is the only start.
    """
    if not deterministic_start:
        raise ValueError("deterministic_start=False: the spiral has one start")
    t0 = time.perf_counter()
    centers: list[Point] = []
    newly_all: list[list[int]] = []
    for step in spiral_steps(inst):
        centers.append(step.center)
        newly_all.append(step.newly)
    return Solution(
        algorithm="spiral",
        seed=seed,
        centers=centers,
        newly_covered=newly_all,
        runtime=time.perf_counter() - t0,
    )
