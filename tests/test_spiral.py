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
from diskcover.spiral import spiral_steps
from diskcover.geometry import Disk, coverage_bound, covers, dist, within_radius
from diskcover.bench import generate_topology

from conftest import grid_point_lists, instances, offsets, scales
from oracles import best_single_disk_extension, local_cover_serial, spiral_serial


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

    @pytest.mark.xfail(
        raises=ContractError,
        reason="spiral._hull_input's _EXTREME_DIRECTIONS @ sub.T and chord normals "
        "overflow near the float limit, and local_cover then raises "
        "'sec set contains repeated indices'",
    )
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
    generator-based pruning in tests/oracles.py does."""

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

        def removed_runs(step):
            newly = set(step.newly)
            gone = [k in newly for k in step.boundary]
            return sum(1 for i in range(len(gone)) if gone[i] and not gone[i - 1])

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
