import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from diskcover import (
    ContractError,
    Instance,
    local_cover,
    one_center,
    solution_violations,
    solve_spiral,
)
from diskcover.exact import min_cover
from diskcover import spiral
from diskcover.spiral import spiral_steps
from diskcover.geometry import Disk, coverage_bound, covers, dist, within_radius
from diskcover.bench import generate_topology

from conftest import grid_point_lists, instances, offsets, scales
from oracles import (
    best_single_disk_extension,
    convex_hull_serial,
    local_cover_serial,
    spiral_serial,
)
from test_acceptance import K80_BASE, K80_SPIRAL_COUNTS, K400_BASE, K400_SPIRAL_COUNTS


def make_inst(points, r):
    return Instance(points=list(points), radius=r)


class TestLocalCoverExamples:
    def test_pair_absorbed_far_point_excluded(self):
        # C sits beyond 2r of the committed point, so only B can be absorbed.
        inst = make_inst([(0.0, 0.0), (1.9, 0.0), (5.0, 0.0)], r=1.0)
        res = local_cover((0.0, 0.0), [0], [1, 2], inst)
        assert sorted(res.covered) == [0, 1]
        assert res.center == pytest.approx((0.95, 0.0))

    def test_empty_secondary_returns_start(self):
        inst = make_inst([(0.0, 0.0), (9.0, 9.0)], r=1.0)
        res = local_cover((0.0, 0.0), [0], [], inst)
        assert res.covered == [0]
        assert res.center == (0.0, 0.0)

    def test_matches_exhaustive_on_clustered_instance(self):
        # Ten points in the unit disk around the anchor plus five far beyond
        # reach: the greedy must take exactly the inner ten, which is also the
        # exhaustive optimum.
        rng = np.random.Generator(np.random.PCG64(42))
        inner = []
        while len(inner) < 10:
            q = rng.uniform(-1.0, 1.0, size=2)
            if np.hypot(*q) <= 1.0:
                inner.append((float(q[0]), float(q[1])))
        angles = rng.uniform(0.0, 2 * np.pi, size=5)
        far = [(float(4.0 * np.cos(a)), float(4.0 * np.sin(a))) for a in angles]
        pts = [(0.0, 0.0)] + inner + far
        inst = make_inst(pts, r=1.0)
        res = local_cover((0.0, 0.0), [0], list(range(1, 16)), inst)
        assert set(res.covered) == set(range(11))
        oracle_best = best_single_disk_extension(
            [pts[0]], [pts[k] for k in range(1, 16)], r=1.0
        )
        assert len(res.covered) - 1 == oracle_best == 10

    def test_contract_empty_prio(self):
        inst = make_inst([(0.0, 0.0)], r=1.0)
        with pytest.raises(ContractError):
            local_cover((0.0, 0.0), [], [0], inst)

    def test_contract_overlap(self):
        inst = make_inst([(0.0, 0.0), (0.5, 0.0)], r=1.0)
        with pytest.raises(ContractError):
            local_cover((0.0, 0.0), [0], [0, 1], inst)

    def test_contract_uncoverable_prio(self):
        inst = make_inst([(0.0, 0.0), (5.0, 0.0)], r=1.0)
        with pytest.raises(ContractError):
            local_cover((2.5, 0.0), [0, 1], [], inst)

    def test_contract_start_not_covering(self):
        inst = make_inst([(0.0, 0.0), (3.0, 0.0)], r=1.0)
        with pytest.raises(ContractError):
            local_cover((3.0, 0.0), [0], [1], inst)


class TestPairAtTheCoverageBound:
    @pytest.mark.parametrize("r", [1.0, 2e-10])
    def test_pair_that_fits_one_disk_gets_one(self, r):
        # The pair's enclosing radius d/2 passes the coverage rule, so the
        # 2r exclusion must keep it: one disk, as the oracle finds.
        d = 2.0 * coverage_bound(r) - 0.5e-12
        inst = make_inst([(0.0, 0.0), (d, 0.0)], r)
        assert within_radius(r, one_center(inst.points).radius)
        sol = solve_spiral(inst)
        assert not solution_violations(inst, sol)
        assert sol.m == min_cover(inst).m == 1


@st.composite
def local_cover_cases(draw):
    pts = draw(grid_point_lists(min_size=2, max_size=14))
    r = draw(st.floats(min_value=0.5, max_value=30.0))
    anchor = draw(st.integers(min_value=0, max_value=len(pts) - 1))
    return pts, r, anchor


class TestLocalCoverProperties:
    @given(local_cover_cases())
    @settings(max_examples=80)
    def test_result_invariants(self, case):
        pts, r, anchor = case
        inst = make_inst(pts, r)
        sec = [k for k in range(len(pts)) if k != anchor]
        res = local_cover(pts[anchor], [anchor], sec, inst)
        assert res.covered[0] == anchor
        assert set(res.covered) >= {anchor}
        # Final location covers everything committed, and the committed set
        # fits one radius-r disk.
        disk = Disk(res.center, r)
        for k in res.covered:
            assert covers(disk, pts[k])
        # Twice the coverage slack: boundary admissions may stack one
        # rounding step of tolerance onto the enclosing radius.
        mec = one_center([pts[k] for k in res.covered])
        assert mec.radius <= r + 2.0 * (coverage_bound(r) - r)

    @given(local_cover_cases())
    @settings(max_examples=80)
    def test_exclusion_soundness(self, case):
        # Anything left out because of the doubled-radius rule genuinely
        # cannot share a disk with the committed set.
        pts, r, anchor = case
        inst = make_inst(pts, r)
        sec = [k for k in range(len(pts)) if k != anchor]
        res = local_cover(pts[anchor], [anchor], sec, inst)
        two_r_bound = 2.0 * coverage_bound(r)
        for k in sec:
            if k in res.covered:
                continue
            if any(dist(pts[k], pts[c]) > two_r_bound for c in res.covered):
                grown = one_center([pts[c] for c in res.covered] + [pts[k]])
                assert grown.radius > r

    def test_gap_to_exhaustive_is_small_and_recorded(self):
        # The greedy may be suboptimal; measure the gap on seeded small cases.
        # Only feasibility and not-exceeding-the-optimum are asserted.
        rng = np.random.Generator(np.random.PCG64(77))
        gaps = []
        for _ in range(30):
            n = int(rng.integers(4, 12))
            pts = [(float(x), float(y)) for x, y in rng.random((n, 2)) * 2.0]
            inst = make_inst(pts, r=0.6)
            res = local_cover(pts[0], [0], list(range(1, n)), inst)
            best = best_single_disk_extension([pts[0]], pts[1:], r=0.6)
            got = len(res.covered) - 1
            assert 0 <= got <= best
            gaps.append(best - got)
        print(
            f"local cover vs exhaustive over 30 cases: mean gap "
            f"{sum(gaps)/len(gaps):.3f}, max gap {max(gaps)}"
        )

    @given(local_cover_cases())
    @settings(max_examples=40)
    def test_monotone_growth_vs_exhaustive(self, case):
        # The greedy never beats the exhaustive single-disk optimum and always
        # returns a superset of the committed start.
        pts, r, anchor = case
        if len(pts) > 11:
            pts = pts[:11]
            anchor = min(anchor, 10)
        inst = make_inst(pts, r)
        sec = [k for k in range(len(pts)) if k != anchor]
        res = local_cover(pts[anchor], [anchor], sec, inst)
        best = best_single_disk_extension([pts[anchor]], [pts[k] for k in sec], r)
        assert 0 <= len(res.covered) - 1 <= best


class TestSolveSpiralExamples:
    def test_single_disk_instance(self):
        inst = make_inst([(0.0, 0.0), (0.5, 0.1), (0.2, 0.6)], r=1.0)
        sol = solve_spiral(inst)
        assert sol.m == 1
        assert not solution_violations(inst, sol)

    def test_two_far_points_force_split(self):
        inst = make_inst([(0.0, 0.0), (3.0, 0.0)], r=1.0)
        sol = solve_spiral(inst)
        assert sol.m == 2
        assert sorted(len(g) for g in sol.newly_covered) == [1, 1]

    def test_points_near_the_float_limit(self):
        inst = Instance([(1e308, 1e308), (-1e308, -1e308), (1e308, -1e308)], 1.0)
        sol = solve_spiral(inst)
        assert not solution_violations(inst, sol)

    def test_reference_density_needs_about_eleven(self):
        # 80 points over ten square kilometres with half-kilometre disks.
        ms = []
        for t in range(20):
            side = 10.0 ** 0.5
            inst = generate_topology(80, side, 4000 + t, radius=0.5)
            sol = solve_spiral(inst, seed=4000 + t)
            assert not solution_violations(inst, sol)
            ms.append(sol.m)
        mean = sum(ms) / len(ms)
        assert 9.0 <= mean <= 13.0


class TestSolveSpiralProperties:
    @given(instances(max_size=30))
    @settings(max_examples=40)
    def test_feasible_and_progress(self, inst):
        sol = solve_spiral(inst)
        assert not solution_violations(inst, sol)
        assert sol.m <= inst.k
        assert all(group for group in sol.newly_covered)

    @given(instances(max_size=25))
    @settings(max_examples=25)
    def test_deterministic_bit_identical(self, inst):
        a = solve_spiral(inst)
        b = solve_spiral(inst)
        assert a.centers == b.centers
        assert a.newly_covered == b.newly_covered

    @given(instances(max_size=25), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25)
    def test_seeded_start_deterministic_and_feasible(self, inst, seed):
        a = solve_spiral(inst, seed=seed, deterministic_start=False)
        b = solve_spiral(inst, seed=seed, deterministic_start=False)
        assert a.centers == b.centers
        assert not solution_violations(inst, a)

    def test_trace_invariants_on_reference_density(self):
        for t in range(6):
            inst = generate_topology(60, 3.0, 700 + t, radius=0.5)
            uncovered = set(range(inst.k))
            for step in spiral_steps(inst, seed=700 + t):
                # The anchor is a hull point of the uncovered set and is
                # committed during the boundary phase.
                assert step.k0 in step.boundary
                assert step.k0 in step.newly_boundary
                assert set(step.newly_boundary) <= set(step.newly)
                assert set(step.boundary) <= uncovered
                uncovered -= set(step.newly)
            assert not uncovered

    def test_boundary_persistence_across_iterations(self):
        # Uncovered hull points stay hull points after a disk is removed.
        for t in range(6):
            inst = generate_topology(50, 3.0, 900 + t, radius=0.6)
            steps = list(spiral_steps(inst, seed=900 + t))
            for prev, nxt in zip(steps, steps[1:]):
                survivors = set(prev.boundary) - set(prev.newly)
                assert survivors <= set(nxt.boundary)


@st.composite
def spiral_cases(draw):
    """Instances for the windowed spiral, transformed far from the unit box.

    Families: a uniform cloud at D/r 2..12; a random part of a square lattice
    of spacing 2r (pairs exactly 2r apart, so the best disk touches both at
    exactly r) or r; points on one line at spacing 2r; a thin strip
    (near-collinear hull edges).  Each may carry duplicated points.
    """
    kind = draw(st.sampled_from(["cloud", "lattice_2r", "lattice_r", "line_2r", "strip"]))
    r = draw(st.sampled_from([0.25, 0.5, 1.0, 0.3]))
    n = draw(st.integers(min_value=1, max_value=60))
    if kind == "cloud":
        side = r * draw(st.floats(min_value=2.0, max_value=12.0))
        c = st.floats(min_value=0.0, max_value=side)
        pts = draw(st.lists(st.tuples(c, c), min_size=n, max_size=n))
    elif kind in ("lattice_2r", "lattice_r"):
        step = 2.0 * r if kind == "lattice_2r" else r
        i = st.integers(min_value=0, max_value=7)
        pts = [(a * step, b * step) for a, b in draw(st.lists(st.tuples(i, i), min_size=n, max_size=n))]
    elif kind == "line_2r":
        ts = draw(st.lists(st.integers(min_value=0, max_value=30), min_size=n, max_size=n))
        pts = [(2.0 * r * t, r * t) for t in ts]
    else:
        x = st.floats(min_value=0.0, max_value=10.0 * r)
        y = st.floats(min_value=0.0, max_value=1e-9 * r)
        pts = draw(st.lists(st.tuples(x, y), min_size=n, max_size=n))
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        pts.insert(draw(st.integers(0, len(pts))), pts[draw(st.integers(0, len(pts) - 1))])
    s, ox, oy = draw(scales), draw(offsets), draw(offsets)
    return make_inst([(x * s + ox, y * s + oy) for x, y in pts], r * s)


class TestLocalCoverMatchesSerial:
    """The flat candidate loops of local_cover decide every candidate as the
    generator-based pruning in tests/oracles.py does, with the same
    incremental trial disk."""

    @given(spiral_cases(), st.data())
    @settings(max_examples=200)
    def test_same_result_as_serial(self, inst, data):
        # A first call grows from a lone anchor over part of the points in a
        # drawn order (the order sets the ties); a second call grows the
        # result over the rest, as the spiral's two calls do.
        pts = inst.points
        anchor = data.draw(st.integers(min_value=0, max_value=inst.k - 1))
        sec = [k for k in data.draw(st.permutations(range(inst.k))) if k != anchor]
        split = data.draw(st.integers(min_value=0, max_value=len(sec)))
        first = local_cover(pts[anchor], [anchor], sec[:split], inst)
        assert first == local_cover_serial(pts[anchor], [anchor], sec[:split], inst)
        second = local_cover(first.center, first.covered, sec[split:], inst)
        assert second == local_cover_serial(first.center, first.covered, sec[split:], inst)

    @pytest.mark.parametrize("r", [1.0, 2e-10, 1e6])
    @pytest.mark.parametrize("pair", [False, True])
    def test_candidate_at_exactly_a_bound(self, r, pair):
        # A candidate exactly at the coverage bound from the location is
        # absorbed where it stands; one exactly at the pair bound from the
        # committed point is kept, then admitted.  Both tests compare with
        # <=, as the serial pruning does.
        d = 2.0 * coverage_bound(r) if pair else coverage_bound(r)
        inst = make_inst([(0.0, 0.0), (d, 0.0)], r)
        res = local_cover((0.0, 0.0), [0], [1], inst)
        assert res == local_cover_serial((0.0, 0.0), [0], [1], inst)
        assert res.covered == [0, 1]


def removed_runs(step):
    """How many runs of its hull's vertices a step's disk covers, each a
    chord that the next hull is carried across."""
    newly = set(step.newly)
    gone = [k in newly for k in step.boundary]
    return sum(1 for i in range(len(gone)) if gone[i] and not gone[i - 1])


def survivors(step):
    """The vertices of a step's hull that its disk leaves uncovered."""
    newly = set(step.newly)
    return [k for k in step.boundary if k not in newly]


def assert_same_as_serial(inst, **kwargs):
    steps = list(spiral_steps(inst, **kwargs))
    assert steps == spiral_serial(inst, **kwargs)
    sol = solve_spiral(inst, **kwargs)
    assert sol.centers == [step.center for step in steps]
    assert sol.newly_covered == [step.newly for step in steps]
    return steps


class TestSpiralMatchesSerial:
    """The windowed spiral places the same disks as the loop over every point."""

    @given(spiral_cases())
    @settings(max_examples=150)
    def test_deterministic_start(self, inst):
        assert_same_as_serial(inst)

    @given(spiral_cases(), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=100)
    def test_seeded_start(self, inst, seed):
        assert_same_as_serial(inst, seed=seed, deterministic_start=False)

    @pytest.mark.parametrize("deterministic_start", [True, False])
    def test_k2000_cell(self, deterministic_start):
        inst = generate_topology(2000, 1.0, 6000, radius=1.0 / 50.0)
        assert_same_as_serial(inst, seed=6000, deterministic_start=deterministic_start)

    @pytest.mark.parametrize("offset", [0.0, 1e9])
    @pytest.mark.parametrize("deterministic_start", [True, False])
    def test_strip_cut_into_pieces(self, offset, deterministic_start):
        # A tilted strip 1.2r wide and 120r long: a disk placed across it
        # covers hull vertices on both long sides, so one step removes
        # non-adjacent runs of the previous hull, and the next hull is
        # carried across a chord over each run.
        rng = np.random.Generator(np.random.PCG64(17))
        c, s = np.cos(0.3), np.sin(0.3)
        strip = rng.random((600, 2)) * (120.0, 1.2)
        pts = [(offset + x * c - y * s, offset + x * s + y * c) for x, y in strip]
        inst = make_inst(pts, 1.0)
        steps = assert_same_as_serial(inst, seed=17, deterministic_start=deterministic_start)
        assert len(steps) > 50
        assert sum(1 for step in steps if removed_runs(step) >= 2) >= 5

    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e6, 1e9])
    @pytest.mark.parametrize("deterministic_start", [True, False])
    def test_points_along_a_chord(self, offset, deterministic_start):
        # Fifty points along the segment from A to B, beyond which a vertex
        # V bulges out, so the first hulls skip them.  Once a disk takes V,
        # the next hull is carried across a chord that runs along them, and
        # rounding puts each of them on either side of it.
        for seed in range(6):
            rng = np.random.Generator(np.random.PCG64(seed))
            shape = [(0.0, 0.0), (40.0, 28.0), (23.0, 8.0), (10.0, 40.0), (35.0, 45.0)]
            shape += [(40.0 * t, 28.0 * t) for t in np.sort(rng.random(50))]
            inst = make_inst([(offset + x, offset + y) for x, y in shape], 1.0)
            assert_same_as_serial(inst, seed=seed, deterministic_start=deterministic_start)

    @pytest.mark.parametrize("deterministic_start", [True, False])
    def test_hull_of_points_along_a_line_lists_each_once(self, deterministic_start):
        # 200 points along the segment from (0, 0) to (40, 28).  With a float
        # orientation sign one step's hull listed a point twice, and
        # local_cover rejected the step's repeated candidate.
        rng = np.random.Generator(np.random.PCG64(4))
        shape = [(0.0, 0.0), (40.0, 28.0), (23.0, 8.0)]
        shape += [(40.0 * t, 28.0 * t) for t in np.sort(rng.random(200))]
        inst = make_inst(shape + [(10.0, 40.0), (35.0, 45.0)], 1.0)
        steps = assert_same_as_serial(inst, seed=4, deterministic_start=deterministic_start)
        assert all(len(set(step.boundary)) == len(step.boundary) for step in steps)
        sol = solve_spiral(inst, seed=4, deterministic_start=deterministic_start)
        assert not solution_violations(inst, sol)

    @pytest.mark.parametrize("deterministic_start", [True, False])
    def test_boundary_points_refit_past_the_bound_at_an_offset(self, deterministic_start):
        # At a 1e9 offset one ulp is half of r.  The points the boundary
        # phase commits are covered from its center, yet their enclosing
        # disk solved afresh comes out wider than the coverage rule allows;
        # a second local_cover that re-solved it rejected the seeded start.
        pts = [
            (1000000000.0, 2.384185791015625e-07),
            (1000000000.0000005, 9.5367431640625e-21),
            (1000000000.0000007, 0.0),
            (1000000000.0000004, 1.1920928955078125e-07),
        ]
        inst = make_inst(pts, 2.384185791015625e-07)
        assert_same_as_serial(inst, seed=1, deterministic_start=deterministic_start)
        sol = solve_spiral(inst, seed=1, deterministic_start=deterministic_start)
        assert not solution_violations(inst, sol)
        assert sol.m >= min_cover(inst).m == 2

    def test_lattice_contacts_at_exactly_r(self):
        # Spacing 2r: every disk can take a pair whose points sit exactly r
        # from its center and exactly 2r from the anchor.
        r = 0.5
        inst = make_inst([(2.0 * r * a, 2.0 * r * b) for a in range(9) for b in range(9)], r)
        sol = solve_spiral(inst)
        assert max(len(g) for g in sol.newly_covered) == 2
        assert_same_as_serial(inst)

    def test_a_covered_point_just_past_twice_the_bound(self):
        # The disk over the anchor 0 and point 1 covers point 2, which hypot puts
        # a few ulps past twice the coverage bound from the anchor: the rounded
        # differences and distances err apart.  The anchor's scan reaches it
        # only through its 1e-12 widening.
        pts = [
            (1.6671978197091633, -0.4563000203697913),
            (-0.261856249272447, 0.07166816706719206),
            (-0.26185624927244716, 0.07166816706719205),
        ]
        inst = make_inst(pts, 1.0)
        assert dist(pts[0], pts[2]) > 2.0 * coverage_bound(1.0) >= dist(pts[0], pts[1])
        steps = assert_same_as_serial(inst)
        assert [(step.k0, step.newly) for step in steps] == [(0, [0, 1, 2])]


def assert_rings_are_hulls(inst, **kwargs):
    """Every step's hull is the serial hull of all uncovered points, listed
    from the same start vertex, however it was carried."""
    pts = inst.points
    uncovered = list(range(inst.k))
    steps = list(spiral_steps(inst, **kwargs))
    for step in steps:
        hull = convex_hull_serial([pts[k] for k in uncovered])
        assert step.boundary == [uncovered[i] for i in hull]
        newly = set(step.newly)
        uncovered = [k for k in uncovered if k not in newly]
    assert not uncovered
    return steps


# UTM-sized coordinates: easting about 6.8e5 m, northing about 4.9e6 m.
UTM = (676_345.0, 4_876_210.0)


@st.composite
def ring_cases(draw):
    """Instances whose hulls are carried through degenerate steps: points on
    one line, 1/64-grid points, a part of a lattice of spacing exactly 2r and
    points on a circle (every point a hull vertex), each with duplicates, at
    an offset up to UTM-sized coordinates and beyond."""
    kind = draw(st.sampled_from(["line", "grid", "lattice_2r", "circle"]))
    r = draw(st.sampled_from([0.25, 0.5, 1.0, 3.0]))
    n = draw(st.integers(min_value=1, max_value=60))
    if kind == "line":
        ts = draw(st.lists(st.integers(min_value=0, max_value=40), min_size=n, max_size=n))
        pts = [(3.0 * r * t / 4.0, r * t / 2.0) for t in ts]
    elif kind == "grid":
        pts = draw(grid_point_lists(min_size=1, max_size=60))
        r = draw(st.sampled_from([2.0, 8.0, 25.0]))
    elif kind == "lattice_2r":
        i = st.integers(min_value=0, max_value=7)
        ab = draw(st.lists(st.tuples(i, i), min_size=n, max_size=n))
        pts = [(2.0 * r * a, 2.0 * r * b) for a, b in ab]
    else:
        rho = r * draw(st.sampled_from([1.5, 4.0, 20.0]))
        pts = [(rho * np.cos(2 * np.pi * j / n), rho * np.sin(2 * np.pi * j / n)) for j in range(n)]
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        pts.insert(draw(st.integers(0, len(pts))), pts[draw(st.integers(0, len(pts) - 1))])
    utm = st.sampled_from([(0.0, 0.0), UTM, (-UTM[0], UTM[1])])
    ox, oy = draw(utm | st.tuples(offsets, offsets))
    return make_inst([(float(x) + ox, float(y) + oy) for x, y in pts], r)


class TestCarriedHull:
    """The hull carried from step to step, re-chained only across the chords
    each disk opens, is the hull of every uncovered point."""

    @given(ring_cases())
    @settings(max_examples=200)
    def test_every_ring_is_the_hull(self, inst):
        assert_rings_are_hulls(inst)

    @given(ring_cases(), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=60)
    def test_every_ring_is_the_hull_from_a_seeded_start(self, inst, seed):
        assert_rings_are_hulls(inst, seed=seed, deterministic_start=False)

    @pytest.mark.parametrize("offset", [(0.0, 0.0), UTM])
    @pytest.mark.parametrize("deterministic_start", [True, False])
    def test_points_on_a_circle(self, offset, deterministic_start):
        # Every point is a hull vertex, so each disk opens a chord over the
        # arc it covers, and each pocket holds the chord's ends alone.
        ox, oy = offset
        t = 2 * np.pi * np.arange(300) / 300
        xs, ys = (ox + 40.0 * np.cos(t)).tolist(), (oy + 40.0 * np.sin(t)).tolist()
        inst = make_inst(list(zip(xs, ys)), 1.0)
        steps = assert_rings_are_hulls(inst, seed=3, deterministic_start=deterministic_start)
        assert len(steps[0].boundary) == inst.k

    @pytest.mark.parametrize("offset", [0.0, 1e9])
    def test_lattice_of_spacing_exactly_2r_at_an_offset(self, offset):
        r = 0.5
        pts = [(offset + 2.0 * r * a, offset + 2.0 * r * b) for a in range(12) for b in range(7)]
        assert_rings_are_hulls(make_inst(pts + pts[::5], r))

    def test_a_disk_that_opens_two_chords(self):
        # A strip 1.7r tall: the first disk takes the bottom vertex and the
        # top one, non-adjacent on the hull, and each chord's pocket holds a
        # point that becomes a vertex.
        pts = [(5.0, -0.1), (10.0, 0.0), (10.0, 1.5), (5.0, 1.6), (0.0, 1.5), (0.0, 0.0)]
        pts += [(2.5, -0.02), (7.5, -0.03), (2.5, 1.52), (7.5, 1.53), (5.0, 0.75)]
        inst = make_inst(pts, 1.0)
        steps = assert_same_as_serial(inst)
        assert removed_runs(steps[0]) == 2 and len(survivors(steps[0])) == 4
        assert {6, 7, 8, 9} <= set(steps[1].boundary)

    def test_a_disk_that_leaves_three_survivors(self):
        pts = [(2.0, -3.0), (4.0, 0.0), (2.0, 4.0), (0.0, 0.0), (2.0, -0.5), (2.0, 1.0)]
        inst = make_inst(pts, 1.0)
        steps = assert_same_as_serial(inst)
        assert survivors(steps[0]) == [1, 2, 3]
        # The lowest vertex was covered, so the ring starts at the new one.
        assert steps[1].boundary == [4, 1, 2, 3]

    def test_a_disk_that_leaves_two_survivors_mid_run(self):
        # A triangle around interior points: the first disk takes a corner,
        # so the second hull is chained afresh from the extremes.
        pts = [(0.0, 0.0), (10.0, 0.0), (5.0, 8.0), (5.0, 3.0), (4.0, 2.0), (6.0, 2.0), (1.0, 0.5)]
        inst = make_inst(pts, 1.0)
        steps = assert_same_as_serial(inst)
        assert len(survivors(steps[0])) == 2
        assert len(steps) >= 4

    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e6, 1e9])
    def test_a_pocket_of_points_exactly_on_the_chord(self, offset):
        # Covering the bottom vertex opens the chord (0, 0) -> (4, 0), and
        # its pocket holds only points on it: the chain over them is the
        # chord's two ends, and the arc between them is empty.
        shape = [(2.0, -3.0), (0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]
        shape += [(1.0, 0.0), (3.0, 0.0), (2.0, 0.0)]
        inst = make_inst([(offset + x, offset + y) for x, y in shape], 1.0)
        steps = assert_same_as_serial(inst)
        assert steps[0].newly == [0]
        assert steps[1].boundary == [1, 2, 3, 4]

    def test_a_duplicate_of_a_surviving_vertex_at_a_higher_index(self):
        # Copies of both ends of the opened chord and of another survivor,
        # after every original: the pocket holds each end twice, and the
        # ring keeps listing the lowest index.
        shape = [(2.0, -3.0), (0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0), (2.0, -0.5)]
        inst = make_inst(shape + [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0)], 1.0)
        steps = assert_same_as_serial(inst)
        assert steps[0].newly == [0]
        assert steps[1].boundary == [5, 2, 3, 4, 1]


def cell_side(r):
    """The side of the spiral's cells where no cap applies, unhalved."""
    return 2.0 * coverage_bound(r) * (1.0 + 1e-12)


def halved_side(inst):
    """The halved side of the cells the spiral builds for the instance."""
    pts = inst.points
    return spiral._Cells([p[0] for p in pts], [p[1] for p in pts], cell_side(inst.radius)).side


class TestCellEdges:
    """The spiral reads only the cells near its anchor and its chords; on
    points at, or an ulp from, the cells' edges it places the same disks as
    the loop over every uncovered point."""

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    @pytest.mark.parametrize("deterministic_start", [True, False])
    def test_lattice_of_spacing_exactly_2_bounds(self, offset, deterministic_start):
        # Neighbours exactly twice the coverage bound apart, the lowest one
        # on a cell's lower edge; the cells are wider by 1e-12, so every
        # later point sits just below an edge.
        r = 0.5
        step = 2.0 * coverage_bound(r)
        pts = [(offset + step * a, offset + step * b) for a in range(10) for b in range(10)]
        inst = make_inst(pts, r)
        assert halved_side(inst) == cell_side(r) / 2.0
        assert_same_as_serial(inst, seed=3, deterministic_start=deterministic_start)

    @pytest.mark.parametrize("deterministic_start", [True, False])
    def test_points_on_and_next_to_cell_edges(self, deterministic_start):
        r = 1.0
        side = cell_side(r)
        edges = [side * i for i in range(8)]
        # The halved coordinate over the halved side is exactly each edge's
        # number, so the points lie on the edges as the cells compute them.
        assert [spiral._cell(x, 0.0, side / 2.0, 8) for x in edges] == list(range(8))
        nudged = [(e, math.nextafter(e, -1.0), math.nextafter(e, 9e9)) for e in edges]
        coords = sorted({v for vs in nudged for v in vs})
        coords = [v for v in coords if v >= 0.0]
        rng = np.random.Generator(np.random.PCG64(8))
        pts = [(float(rng.choice(coords)), float(rng.choice(coords))) for _ in range(150)]
        inst = make_inst([(0.0, 0.0), *pts], r)
        assert halved_side(inst) == side / 2.0
        assert_same_as_serial(inst, seed=8, deterministic_start=deterministic_start)

    @pytest.mark.parametrize("deterministic_start", [True, False])
    def test_lattice_on_cell_edges_where_floor_division_differs(self, deterministic_start):
        # A lattice of spacing exactly the cell side, each point six times
        # over, so that the cells keep that side.  Its last column lies on
        # edge 17 as the cells compute it, yet Python's // floors the exact
        # quotient, which is just below 17: a box corner taken by // and a
        # point by the rounded quotient would part at that edge.
        r = 1.0
        side = cell_side(r)
        x = side * 17
        assert spiral._cell(x, 0.0, side / 2.0, 18) == 17
        assert (x / 2.0) // (side / 2.0) == 16.0
        pts = [(side * a, side * b) for a in range(18) for b in range(3)]
        inst = make_inst(pts * 6, r)
        assert halved_side(inst) == side / 2.0
        assert_same_as_serial(inst, seed=17, deterministic_start=deterministic_start)

    @pytest.mark.parametrize("deterministic_start", [True, False])
    def test_cell_cap_at_a_huge_ratio(self, deterministic_start):
        # D/r = 1e6: cells of side 2r would number about 2.5e11, so the side
        # is the extent over ceil(sqrt(K)) instead.
        inst = generate_topology(50, 1.0, 6100, radius=1e-6)
        assert halved_side(inst) > 1e4 * cell_side(inst.radius)
        steps = assert_same_as_serial(inst, seed=6100, deterministic_start=deterministic_start)
        assert len(steps) == 50

    @pytest.mark.parametrize("deterministic_start", [True, False])
    def test_utm_sized_offsets(self, deterministic_start):
        # A 10 km square of 300 terminals at UTM coordinates, 500 m disks.
        base = generate_topology(300, 1.0, 6101, radius=1.0 / 20.0)
        pts = [(UTM[0] + 1e4 * x, UTM[1] + 1e4 * y) for x, y in base.points]
        inst = make_inst(pts, 500.0)
        assert_same_as_serial(inst, seed=6101, deterministic_start=deterministic_start)

    @pytest.mark.parametrize("deterministic_start", [True, False])
    def test_all_points_duplicate(self, deterministic_start):
        inst = make_inst([UTM] * 40, 2.0)
        steps = assert_same_as_serial(inst, seed=5, deterministic_start=deterministic_start)
        assert [step.newly for step in steps] == [list(range(40))]

    @pytest.mark.parametrize("slope", [0.0, 0.37])
    @pytest.mark.parametrize("deterministic_start", [True, False])
    def test_a_straight_road(self, slope, deterministic_start):
        # Terminals along a 60r road: one row of cells when it runs level.
        rng = np.random.Generator(np.random.PCG64(12))
        ts = (60.0 * rng.random(250)).tolist()
        inst = make_inst([(UTM[0] + t, UTM[1] + slope * t) for t in ts], 1.0)
        assert_same_as_serial(inst, seed=12, deterministic_start=deterministic_start)


def assert_close_to_from_scratch(inst):
    # Every decision as when each trial disk is re-solved from scratch; the
    # centers may differ in their last bits.
    steps = list(spiral_steps(inst))
    want = spiral_serial(inst, resolve="scratch")
    assert len(steps) == len(want)
    for got, ref in zip(steps, want):
        assert (got.k0, got.boundary, got.newly_boundary, got.newly) == (
            ref.k0,
            ref.boundary,
            ref.newly_boundary,
            ref.newly,
        )
        assert dist(got.center, ref.center) <= 1e-12 * inst.radius


class TestSpiralCloseToFromScratch:
    """Growing the trial disk one point at a time commits the same points and
    places as many disks as re-solving it from scratch, on topologies in the
    unit square.  Far from the origin the two roundings may split."""

    @pytest.mark.parametrize("ratio", list(K80_SPIRAL_COUNTS))
    def test_criterion_2_topologies(self, ratio):
        for t in range(len(K80_SPIRAL_COUNTS[ratio])):
            inst = generate_topology(80, 1.0, K80_BASE + t, radius=1.0 / ratio)
            assert_close_to_from_scratch(inst)

    @pytest.mark.parametrize("ratio", list(K400_SPIRAL_COUNTS))
    def test_criterion_3_topologies(self, ratio):
        for t in range(len(K400_SPIRAL_COUNTS[ratio])):
            inst = generate_topology(400, 1.0, K400_BASE + t, radius=1.0 / ratio)
            assert_close_to_from_scratch(inst)

    # The deployment shapes: K=5000 at D/r=20 and K=2000 at D/r=50.
    @pytest.mark.parametrize("topology", [6000, 6001])
    @pytest.mark.parametrize("k, ratio", [(5000, 20.0), (2000, 50.0)])
    def test_deployment_shapes(self, k, ratio, topology):
        assert_close_to_from_scratch(generate_topology(k, 1.0, topology, radius=1.0 / ratio))


def test_one_center_runs_at_most_once_per_local_cover(monkeypatch):
    # local_cover solves prio's disk once and grows every trial disk from it.
    calls: list[int] = []
    one_center_, local_cover_ = spiral.one_center, spiral.local_cover

    def counted_one_center(points):
        calls[-1] += 1
        return one_center_(points)

    def counted_local_cover(*args):
        calls.append(0)
        return local_cover_(*args)

    monkeypatch.setattr(spiral, "one_center", counted_one_center)
    monkeypatch.setattr(spiral, "local_cover", counted_local_cover)
    sol = solve_spiral(generate_topology(400, 1.0, K400_BASE, radius=1.0 / 20.0))
    assert len(calls) == 2 * sol.m
    assert max(calls) <= 1
    assert sum(calls) > sol.m
