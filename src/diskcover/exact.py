"""Exact minimum disk cover for small instances via candidate centers.

Any radius-r disk covering two or more points can be slid until two covered
points sit on its boundary, and a disk covering one point can be centered on
it.  Enumerating those candidate centers therefore preserves the optimum, and
a branch-and-bound set cover over their coverage bitmasks finds it.

The centers come from the co-coverable point pairs, found in blocks by
:func:`~diskcover.geometry.within_mask` and placed in numpy in units of r;
their coverages are then decided in blocks by one ``within_mask`` call per
block and packed into 64-bit words, on which the dominated ones are dropped
in bulk.  The search bounds each node three times, each only where the one
before does not prune: by a greedy packing of uncovered points no candidate
covers two of, taken lowest index first; by the same packing taken fewest
neighbours first; and by counting, as a threshold that the largest
candidates are scanned against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .geometry import Point, within_mask
from .problem import Instance, Solution

DEFAULT_NODE_LIMIT = 10_000_000

# Centers per within_mask call in generate_candidates: enough to amortise
# numpy's per-call cost, few enough that the (block, k) temporaries stay small.
# Swept over the coverage stage of eight K=80, D/r=2 instances (about 51 000
# centers; within_mask's time, minimum of 21 runs): 32 -> 46.8 ms,
# 64 -> 38.1 ms, 96 -> 33.8 ms, 128 -> 31.2 ms, 192 -> 29.4 ms,
# 256 -> 28.3 ms; beyond 128 the whole generation no longer gained.
_BLOCK = 128

# Elements of the (coverages, kept, words) temporary of one subset test.
_SUBSET_ELEMS = 1 << 16


class BudgetExceededError(RuntimeError):
    """The search exhausted its node budget before proving optimality."""


@dataclass(frozen=True)
class CandidateDisk:
    center: Point
    coverage: int  # bitmask over point indices


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def generate_candidates(inst: Instance) -> list[CandidateDisk]:
    """Candidate centers: every point, plus both radius-r circle centers per
    co-coverable pair (one center when the pair is exactly 2r apart).

    Candidates whose coverage is a subset of another's are dropped; equal
    coverages keep the earliest-emitted candidate.  Coverages are decided in
    blocks of centers and packed into little-endian 64-bit words, and equal
    ones are merged by one stable lexsort over all those words, which ranks
    each coverage's earliest center first among its equals.  The subset test
    keeps exactly the maximal coverages, one size class at a time, largest
    first, each against every coverage kept so far in one numpy expression.
    """
    r = inst.radius
    xy = inst.xy
    k_total = inst.k
    bound = inst.bound

    centers = np.concatenate([xy, _pair_centers(xy, r, 2.0 * bound)])

    # Every coverage packed into little-endian 64-bit words, bit k of the
    # packing being point k; zero bytes fill each row's last word.
    n_words = (k_total + 63) // 64
    packed = np.zeros((len(centers), 8 * n_words), dtype=np.uint8)
    for s in range(0, len(centers), _BLOCK):
        block = within_mask(xy, centers[s : s + _BLOCK], bound)
        packed[s : s + len(block), : (k_total + 7) // 8] = np.packbits(
            block, axis=1, bitorder="little"
        )
    every = packed.view("<u8")
    # The earliest center of each distinct coverage, ascending: the sort is
    # stable, so each run of equal coverages starts at its earliest center.
    order = np.lexsort(every.T)
    ranked = every[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    earliest = np.sort(order[first])
    words = every[earliest]
    del packed, every, order, ranked, first  # all but words and earliest

    # Keep exactly the maximal coverages: a distinct coverage is dropped iff
    # another strictly contains it.  Classes of equal size cannot contain
    # one another, so each class, largest first, is tested against the
    # coverages kept from the larger ones; an empty coverage is dropped like
    # any subset.  The classes are runs of one stable argsort by size, so
    # each lists its members in ascending order.
    sizes = np.bitwise_count(words).sum(axis=1, dtype=np.int64)
    order = np.argsort(-sizes, kind="stable")
    kept: list[np.ndarray] = []
    n_kept = 0
    kept_not = np.empty_like(words)  # the complements of the kept words
    for members in np.split(order, np.flatnonzero(np.diff(sizes[order])) + 1):
        prior = kept_not[:n_kept]
        step = max(1, _SUBSET_ELEMS // (n_words * n_kept + 1))
        drop = np.concatenate(
            [_contained(words[members[a : a + step]], prior) for a in range(0, len(members), step)]
        )
        members = members[~drop]
        kept_not[n_kept : n_kept + len(members)] = ~words[members]
        kept.append(members)
        n_kept += len(members)
    return [
        CandidateDisk(tuple(centers[earliest[u]].tolist()), int.from_bytes(words[u], "little"))
        for u in np.sort(np.concatenate(kept)).tolist()
    ]


def _pair_centers(xy: np.ndarray, r: float, pair_bound: float) -> np.ndarray:
    """Both radius-r circle centers through each pair of distinct points at
    most ``pair_bound`` apart, or the midpoint alone where the half-distance
    reaches r, as an ``(m, 2)`` array: pairs (i, j), i < j, ascending, and
    each pair's ``+`` center before its ``-`` one.  The offsets from the
    midpoint are worked in units of r with ``+ - * /`` and ``sqrt`` alone,
    so they stay finite at any scale, and a scalar run of the same formula
    rounds to the same floats.  The midpoint sums halves, so it stays
    finite too; a center past the float limit is clamped to it."""
    firsts, seconds = [], []
    for s in range(0, len(xy), _BLOCK):
        near = within_mask(xy, xy[s : s + _BLOCK], pair_bound)
        i, j = np.nonzero(np.triu(near, s + 1))
        firsts.append(i + s)
        seconds.append(j)
    pi, pj = xy[np.concatenate(firsts)], xy[np.concatenate(seconds)]
    # Where ``pair_bound`` overflowed to inf, a pair's difference near the
    # float limit can overflow too.  Its d is then inf and h2 -inf, so it
    # gives its midpoint alone; a NaN offset below is never taken.
    with np.errstate(over="ignore"):
        ux, uy = ((pj - pi) / r).T
    d2 = ux * ux + uy * uy
    # A pair closer than about 1e-154 * r counts as coincident; the slack
    # already covers its partner.
    apart = d2 != 0.0
    (xi, yi), (xj, yj), ux, uy = pi[apart].T, pj[apart].T, ux[apart], uy[apart]
    d = np.sqrt(d2[apart])
    h2 = (1.0 - d / 2.0) * (1.0 + d / 2.0)
    two = h2 > 0.0
    h = np.sqrt(np.where(two, h2, 0.0)) * r
    mx, my = xi / 2.0 + xj / 2.0, yi / 2.0 + yj / 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        nx, ny = -uy / d * h, ux / d * h
        both = np.stack(
            [np.where(two, mx + nx, mx), np.where(two, my + ny, my), mx - nx, my - ny], axis=1
        ).reshape(-1, 2)
    # A center past the float limit overflows to inf.  The largest float in
    # its place is no farther from any point along either axis, so it
    # covers at least what the true center does.
    big = np.finfo(float).max
    np.clip(both, -big, big, out=both)
    return both[np.stack([np.ones_like(two), two], axis=1).ravel()]


def _contained(test: np.ndarray, kept_not: np.ndarray) -> np.ndarray:
    """Whether each row of ``test`` lies inside some row whose complement is
    in ``kept_not``: ``(c & ~k) == 0`` in every word."""
    outside = test[:, None, 0] & kept_not[None, :, 0]
    for w in range(1, test.shape[1]):
        outside |= test[:, None, w] & kept_not[None, :, w]
    return (outside == 0).any(axis=1)


def min_cover(inst: Instance, node_limit: int = DEFAULT_NODE_LIMIT) -> Solution:
    """Provably minimum number of radius-r disks covering every point.

    Branch and bound over the candidate disks, seeded with a greedy
    incumbent: branch on an uncovered point with the fewest covering
    candidates, trying them in order of new coverage.  Each node is bounded
    first by packing: take the lowest uncovered point, drop every point some
    candidate covers together with it (its neighbours), and repeat; no
    candidate covers two taken points, so their count is a lower bound.
    Where that does not prune, the same packing takes the uncovered point
    with the fewest neighbours first, ties by index, which tends to take
    more (the min-degree rule for independent sets); the points are
    relabelled once in that order, so it walks the lowest bits as the first
    does.  Only when neither prunes is the counting bound
    ceil(uncovered / best-remaining-coverage) tested, as a threshold: with
    ``need`` disks short of tying the incumbent (at least 2 there, as the
    packings took a point), it prunes unless some candidate covers at least
    ceil(uncovered / (need - 1)) uncovered points.  Candidates are scanned
    largest first, so the scan stops at the first that does or the first
    too small to.  The bound in force is the largest of the three and each
    is valid, so the search tree is a subtree of the counting bound's alone,
    visited in the same order with the same incumbent updates: the cover is
    the one that search returns, in no more nodes.

    Raises :class:`BudgetExceededError` once more than ``node_limit`` search
    nodes are expanded, giving the incumbent and the larger packing of all
    points as the gap left; it never silently returns a suboptimal cover.
    """
    if node_limit < 1:
        raise ValueError(f"node_limit must be >= 1: {node_limit}")
    t0 = time.perf_counter()
    cands = generate_candidates(inst)
    masks = [c.coverage for c in cands]
    k_total = inst.k
    full = (1 << k_total) - 1
    coverers, nbr, pmasks, pnbr = _incidence(masks, k_total)

    # Greedy incumbent; every chosen disk covers something new, so the
    # recorded order yields non-empty per-disk assignments.
    best_sel: list[int] = []
    covered = 0
    while covered != full:
        pick = max(range(len(masks)), key=lambda i: ((masks[i] & ~covered).bit_count(), -i))
        best_sel.append(pick)
        covered |= masks[pick]

    best_sel = _search(masks, pmasks, coverers, nbr, pnbr, full, best_sel, node_limit)

    centers: list[Point] = [cands[i].center for i in best_sel]
    newly_all: list[list[int]] = []
    assigned = 0
    for i in best_sel:
        newly_all.append(list(_bits(masks[i] & ~assigned)))
        assigned |= masks[i]

    return Solution(
        algorithm="oracle",
        seed=0,
        centers=centers,
        newly_covered=newly_all,
        runtime=time.perf_counter() - t0,
    )


def _incidence(
    masks: list[int], k_total: int
) -> tuple[list[list[int]], list[int], list[int], list[int]]:
    """The search's tables over the candidates' ``masks``: each point's
    coverers, ascending; each point's neighbours (the points that share a
    candidate with it, itself among them) as a mask; and the masks and the
    neighbour masks relabelled so that bit q stands for the point of q-th
    fewest neighbours, ties by index."""
    n_bytes = (k_total + 7) // 8
    raw = b"".join(m.to_bytes(n_bytes, "little") for m in masks)
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(masks), n_bytes)
    cover = np.unpackbits(packed, axis=1, count=k_total, bitorder="little").astype(bool)
    # nonzero walks cover.T row by row: points ascending, then candidates.
    ends = cover.sum(axis=0).cumsum().tolist()
    flat = np.nonzero(cover.T)[1].tolist()
    coverers = [flat[a:b] for a, b in zip([0] + ends, ends)]
    adjacent = cover.T @ cover  # boolean: some candidate covers both points
    order = np.argsort(adjacent.sum(axis=1), kind="stable")
    return coverers, _ints(adjacent), _ints(cover[:, order]), _ints(adjacent[order][:, order])


def _ints(bits: np.ndarray) -> list[int]:
    """Each row of the boolean array ``bits`` as an int, bit k from column k."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    w = packed.shape[1]
    raw = packed.tobytes()
    return [int.from_bytes(raw[o : o + w], "little") for o in range(0, len(raw), w)]


def _packing(nbr: list[int], rest: int, need: int) -> int:
    """Greedy packing of ``rest``, capped at ``need``: take its lowest point,
    drop the point's neighbours ``nbr``, repeat.  No candidate covers two
    taken points, so their count is a lower bound on the disks ``rest``
    needs."""
    packed = 0
    while rest and packed < need:
        rest &= ~nbr[(rest & -rest).bit_length() - 1]
        packed += 1
    return packed


def _reaches(sized: list[tuple[int, int]], rem_mask: int, least: int) -> bool:
    """Whether some mask covers at least ``least`` points of ``rem_mask``;
    ``sized`` holds the masks with their sizes, largest first."""
    for size, m in sized:
        if size < least:
            return False
        if (m & rem_mask).bit_count() >= least:
            return True
    return False


def _search(
    masks: list[int],
    pmasks: list[int],
    coverers: list[list[int]],
    nbr: list[int],
    pnbr: list[int],
    full: int,
    best_sel: list[int],
    node_limit: int,
) -> list[int]:
    """Depth-first branch and bound from the incumbent ``best_sel``; returns
    the smallest selection found.  ``pmasks`` and ``pnbr`` are ``masks`` and
    ``nbr`` relabelled by :func:`_incidence`.  Iterative, so no state
    outlives the call."""
    best_m = len(best_sel)
    # The masks by descending size, for _reaches' early exit.
    sized = sorted(((m.bit_count(), m) for m in masks), reverse=True)
    # The points as one mask per coverer count, fewest coverers first: the
    # branch point is the lowest uncovered point of the first class with one.
    by_count: dict[int, int] = {}
    for p, cs in enumerate(coverers):
        by_count[len(cs)] = by_count.get(len(cs), 0) | 1 << p
    fewest_first = [by_count[n] for n in sorted(by_count)]
    nodes = 0
    covered = pcovered = 0
    chosen: list[int] = []
    # One entry per expanded node on the current path: its coverage, also
    # relabelled, and its untried branches.  chosen[d] is the branch taken
    # at depth d.
    stack: list[tuple[int, int, Iterator[int]]] = []
    while True:
        nodes += 1
        if nodes > node_limit:
            lower = max(_packing(nbr, full, len(nbr)), _packing(pnbr, full, len(nbr)))
            raise BudgetExceededError(
                f"exceeded {node_limit} search nodes (incumbent {best_m}, lower bound {lower})"
            )
        if covered == full:
            if len(chosen) < best_m:
                best_sel = chosen.copy()
                best_m = len(chosen)
        else:
            need = best_m - len(chosen)  # a bound this large prunes
            rem_mask = full & ~covered
            # The lowest-index packing, then the fewest-neighbours-first one.
            packed = _packing(nbr, rem_mask, need)
            if packed < need:
                packed = _packing(pnbr, full & ~pcovered, need)
            # The packing took a point, so here need >= 2, and the counting
            # bound ceil(uncovered / max coverage) < need iff some mask
            # covers at least ceil(uncovered / (need - 1)) of them.
            if packed < need and _reaches(sized, rem_mask, -(-rem_mask.bit_count() // (need - 1))):
                fewest = next(c for c in fewest_first if c & rem_mask) & rem_mask
                branch_pt = (fewest & -fewest).bit_length() - 1
                options = sorted(
                    coverers[branch_pt], key=lambda i: (-(masks[i] & rem_mask).bit_count(), i)
                )
                stack.append((covered, pcovered, iter(options)))
        # Move to the next untried branch of the deepest node that has one.
        while stack:
            parent, pparent, branches = stack[-1]
            del chosen[len(stack) - 1 :]
            i = next(branches, None)
            if i is not None:
                chosen.append(i)
                covered = parent | masks[i]
                pcovered = pparent | pmasks[i]
                break
            stack.pop()
        else:
            return best_sel
