"""Exact minimum disk cover for small instances via candidate centers.

Any radius-r disk covering two or more points can be slid until two covered
points sit on its boundary, and a disk covering one point can be centered on
it.  Enumerating those candidate centers therefore preserves the optimum, and
a branch-and-bound set cover over their coverage bitmasks finds it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .geometry import Point, coverage_bound, dist, within_mask
from .problem import Instance, Solution

DEFAULT_NODE_LIMIT = 10_000_000


class BudgetExceededError(RuntimeError):
    """The search exhausted its node budget before proving optimality."""


@dataclass(frozen=True)
class CandidateDisk:
    center: Point
    coverage: int  # bitmask over point indices


def generate_candidates(inst: Instance) -> list[CandidateDisk]:
    """Candidate centers: every point, plus both radius-r circle centers per
    co-coverable pair (one center when the pair is exactly 2r apart).

    Candidates whose coverage is a subset of another's are dropped; equal
    coverages keep the earliest-emitted candidate.
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
            d = dist(pts[i], pts[j])
            if d == 0.0 or d > pair_bound:
                continue
            xj, yj = pts[j]
            mx, my = (xi + xj) / 2.0, (yi + yj) / 2.0
            h2 = r * r - (d / 2.0) ** 2
            if h2 <= 0.0:
                centers = [(mx, my)]
            else:
                h = math.sqrt(h2)
                nx, ny = -(yj - yi) / d * h, (xj - xi) / d * h
                centers = [(mx + nx, my + ny), (mx - nx, my - ny)]
            for c in centers:
                cands.append(CandidateDisk(c, coverage_of(c)))

    order = sorted(range(len(cands)), key=lambda i: (-cands[i].coverage.bit_count(), i))
    kept: list[int] = []
    for i in order:
        m = cands[i].coverage
        if any(m | cands[j].coverage == cands[j].coverage for j in kept):
            continue
        kept.append(i)
    kept.sort()
    return [cands[i] for i in kept]


def min_cover(inst: Instance, node_limit: int = DEFAULT_NODE_LIMIT) -> Solution:
    """Provably minimum number of radius-r disks covering every point.

    Branch and bound over the candidate disks: branch on an uncovered point
    with the fewest covering candidates, bound with the counting lower bound
    ceil(uncovered / best-remaining-coverage), seeded with a greedy incumbent.
    Raises :class:`BudgetExceededError` once more than ``node_limit`` search
    nodes are expanded; it never silently returns a suboptimal cover.
    """
    t0 = time.perf_counter()
    cands = generate_candidates(inst)
    masks = [c.coverage for c in cands]
    k_total = inst.k
    full = (1 << k_total) - 1

    coverers: list[list[int]] = [[] for _ in range(k_total)]
    for i, m in enumerate(masks):
        b = m
        while b:
            low = b & -b
            coverers[low.bit_length() - 1].append(i)
            b ^= low

    # Greedy incumbent; every chosen disk covers something new, so the
    # recorded order yields non-empty per-disk assignments.
    best_sel: list[int] = []
    covered = 0
    while covered != full:
        pick = max(range(len(masks)), key=lambda i: ((masks[i] & ~covered).bit_count(), -i))
        best_sel.append(pick)
        covered |= masks[pick]
    best_m = len(best_sel)

    nodes = 0

    def dfs(covered: int, chosen: list[int]) -> None:
        nonlocal nodes, best_sel, best_m
        nodes += 1
        if nodes > node_limit:
            raise BudgetExceededError(
                f"exceeded {node_limit} search nodes (incumbent {best_m} unproven)"
            )
        if covered == full:
            if len(chosen) < best_m:
                best_sel = chosen.copy()
                best_m = len(chosen)
            return
        rem_mask = full & ~covered
        rem = rem_mask.bit_count()
        max_cov = max((m & rem_mask).bit_count() for m in masks)
        if len(chosen) + math.ceil(rem / max_cov) >= best_m:
            return
        low = rem_mask & -rem_mask
        branch_pt = low.bit_length() - 1
        scan = rem_mask
        while scan:
            b = scan & -scan
            pt = b.bit_length() - 1
            if len(coverers[pt]) < len(coverers[branch_pt]):
                branch_pt = pt
            scan ^= b
        options = sorted(
            coverers[branch_pt], key=lambda i: (-(masks[i] & rem_mask).bit_count(), i)
        )
        for i in options:
            chosen.append(i)
            dfs(covered | masks[i], chosen)
            chosen.pop()

    dfs(0, [])

    centers: list[Point] = [cands[i].center for i in best_sel]
    newly_all: list[list[int]] = [[] for _ in best_sel]
    assigned = 0
    for pos, i in enumerate(best_sel):
        fresh = masks[i] & ~assigned
        b = fresh
        while b:
            low = b & -b
            newly_all[pos].append(low.bit_length() - 1)
            b ^= low
        assigned |= masks[i]

    return Solution(
        algorithm="oracle",
        seed=0,
        centers=centers,
        newly_covered=newly_all,
        runtime=time.perf_counter() - t0,
    )
