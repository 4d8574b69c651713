"""Sequential perimeter-first placement with greedy local disk refinement.

Each disk is anchored at a point on the convex hull of the still-uncovered
set, grown over nearby hull points first and interior points second, and the
process walks the shrinking perimeter counterclockwise until nothing is left.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import hypot
from typing import Iterator, Optional, Sequence

import numpy as np

from .geometry import Point, convex_hull, coverage_bound, dist, one_center, within_mask
from .problem import Instance, Solution

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
    committed point (they can never share its disk), absorb candidates already
    within r of the current location, then try the nearest remaining candidate
    by re-solving the enclosing-disk problem; stop at the first candidate that
    would push the disk radius past r.

    Returns the final location and the committed indices (in admission
    order).  Raises :class:`ContractError` when the preconditions fail: prio
    empty or repeating an index, sec repeating an index, prio/sec
    overlapping, or `u` not covering all of prio under the package's
    coverage rule.  That check also rejects a prio that no radius-r disk
    covers; a prio that `u` covers fits the disk at `u`, so prio itself is
    never re-solved.
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
    while pending:
        lx, ly = loc
        near = []
        for k in pending:
            x, y = pts[k]
            if hypot(lx - x, ly - y) <= bound:
                near.append(k)
        if near:
            covered.extend(near)
            near_set = set(near)
            pending = [k for k in pending if k not in near_set]
            pending = keep_near(pending, near)
            if not pending:
                break
        # The nearest candidate, the lowest index among equals.
        k1, best = -1, 0.0
        for k in pending:
            x, y = pts[k]
            d = hypot(lx - x, ly - y)
            if k1 < 0 or d < best or (d == best and k < k1):
                k1, best = k, d
        trial = one_center([pts[k] for k in covered] + [pts[k1]])
        if trial.radius > bound:
            break
        loc = trial.center
        covered.append(k1)
        pending.remove(k1)
        pending = keep_near(pending, [k1])
    return LocalCoverResult(center=loc, covered=covered)


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
    polygon by more than the rounding of a cross product is strictly interior
    to the hull, so :func:`convex_hull` would never list it.  Every point on
    or near the boundary survives, in input order, so duplicates of a vertex
    still collapse to the lowest index.  With fewer than three distinct
    extremes nothing is dropped.
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


def _hull_input(
    xy: np.ndarray,
    uncovered: np.ndarray,
    sub: np.ndarray,
    ring: Sequence[int],
    alive: np.ndarray,
    margin: float,
) -> np.ndarray:
    """Ascending indices of the uncovered points the next hull must be given:
    the surviving vertices of ``ring`` plus the points outside a chord.

    ``sub`` holds the coordinates of ``uncovered``; ``ring`` is the previous
    hull and ``alive`` marks the points still uncovered.  This is exact,
    because :func:`convex_hull` decides every turn exactly:

    * the surviving vertices of ``ring`` are still hull vertices;
    * any other vertex of the new hull lies strictly outside the survivors'
      polygon.  It cannot lie outside an edge of the old hull, which holds
      every uncovered point, so it lies strictly outside a chord: an edge
      of that polygon across removed vertices;
    * a point is kept unless it is inside every chord by more than
      ``margin``, which covers the rounding of the chord test (the argument
      of :func:`_hull_candidates`).  Kept points that sit on or near a chord
      are no vertices, and the exact chain drops them.

    The chord test decides by coordinates, so a point enters with all its
    duplicates, and each survivor is the lowest index of its coordinate: the
    lowest index still stands for each run of duplicates.  The anchor of the
    previous step is a ring vertex and its disk covers it, so with three or
    more survivors there is at least one chord; with fewer the prefilter runs
    afresh.
    """
    pos = [i for i, k in enumerate(ring) if alive[k]]
    if len(pos) < 3:
        return uncovered[_hull_candidates(sub)]
    # Edge e runs from survivor a[e] to the next one, b[e]; it is a chord
    # when the ring had vertices between them.
    survivors = [ring[i] for i in pos]
    a = xy[survivors]
    b = np.concatenate((a[1:], a[:1]))
    chords = [e for e, (i, j) in enumerate(zip(pos, pos[1:] + pos[:1])) if (j - i) % len(ring) != 1]
    keep = ~_inside_edges(sub.T, a[chords], b[chords], margin)
    keep[np.searchsorted(uncovered, survivors)] = True
    return uncovered[keep]


def spiral_steps(
    inst: Instance, seed: int = 0, deterministic_start: bool = True
) -> Iterator[SpiralStep]:
    """Place radius-r disks along the shrinking perimeter, yielding each step.

    With ``deterministic_start`` the first anchor of each sweep is the
    bottom-most (then left-most) hull point, making the output bit-identical
    across runs; otherwise the anchor is drawn uniformly from the hull points
    using ``seed``.  Subsequent anchors follow the counterclockwise walk from
    the previous anchor over the hull points that remain uncovered.  The
    steps' ``newly`` lists partition the point indices.
    """
    r = inst.radius
    pts = inst.points
    rng = np.random.Generator(np.random.PCG64(seed))

    xy = np.array(pts, dtype=float)
    bound = coverage_bound(r)
    alive = np.ones(inst.k, dtype=bool)
    uncovered = np.arange(inst.k)
    carried: Optional[int] = None
    # The hull is carried from step to step: each step's hull input is
    # derived from the previous hull (see _hull_input).  The whole instance's
    # margin is at least that of any subset, so it errs towards keeping.
    margin = _hull_margin(xy.min(axis=0), xy.max(axis=0))
    boundary: list[int] = []

    while uncovered.size:
        sub = xy[uncovered]
        cand = _hull_input(xy, uncovered, sub, boundary, alive, margin)
        boundary = cand[convex_hull(xy[cand])].tolist()
        bset = set(boundary)

        if carried is not None and carried in bset:
            k0 = carried
        elif deterministic_start:
            k0 = boundary[0]
        else:
            k0 = boundary[int(rng.integers(len(boundary)))]

        first = local_cover(pts[k0], [k0], [k for k in boundary if k != k0], inst)
        # local_cover drops every candidate farther than 2 * bound from the
        # anchor, so only those within it are handed over.
        near = uncovered[within_mask(sub, pts[k0], 2.0 * bound)]
        inner = [k for k in near.tolist() if k not in bset]
        second = local_cover(first.center, first.covered, inner, inst)
        center = second.center

        newly = uncovered[within_mask(sub, center, bound)].tolist()
        if not newly:
            raise RuntimeError("spiral placed a disk that covers no uncovered point")
        alive[newly] = False
        uncovered = uncovered[alive[uncovered]]

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
    """Cover every point with the disks of :func:`spiral_steps`."""
    t0 = time.perf_counter()
    centers: list[Point] = []
    newly_all: list[list[int]] = []
    for step in spiral_steps(inst, seed, deterministic_start):
        centers.append(step.center)
        newly_all.append(step.newly)
    return Solution(
        algorithm="spiral",
        seed=seed,
        centers=centers,
        newly_covered=newly_all,
        runtime=time.perf_counter() - t0,
    )
