import functools
import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from diskcover import (
    Instance,
    TrialConfig,
    one_center,
    solution_violations,
    solve_kmeans,
    solve_random,
    solve_spiral,
    solve_strip,
)
from diskcover import baselines, bench
from diskcover.exact import DEFAULT_NODE_LIMIT
from diskcover.geometry import dist, within_radius
from diskcover.bench import Campaign, generate_topology, run_campaign

from conftest import HYPOT_SPLIT_PAIR, grid_point_lists, instances
from oracles import _kmeanspp_init, kmeans_serial, strip_serial
from test_acceptance import K80_BASE, K80_STRIP_COUNTS, K400_BASE, K400_SPIRAL_COUNTS

H = baselines.STRIP_HEIGHT_FACTOR


class TestTrialConfig:
    def test_defaults(self):
        cfg = TrialConfig()
        assert cfg.trials == 100
        assert cfg.node_limit == DEFAULT_NODE_LIMIT

    @pytest.mark.parametrize("kwargs", [{"trials": 0}, {"node_limit": 0}, {"node_limit": -3}])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrialConfig(**kwargs)


class TestStrip:
    def test_single_point_gets_own_disk_at_itself(self):
        # One point anchors the first strip midline, so its group's enclosing
        # disk is centered on it.
        inst = Instance(points=[(0.0, 5.0)], radius=1.0)
        sol = solve_strip(inst)
        assert sol.m == 1
        assert sol.centers[0] == (0.0, 5.0)

    def test_points_near_the_float_limit(self):
        inst = Instance([(1e308, 1e308), (-1e308, -1e308), (1e308, -1e308)], 1.0)
        sol = solve_strip(inst)
        assert not solution_violations(inst, sol)

    def test_pair_in_one_strip_shares_one_disk(self):
        inst = Instance(points=[(0.0, 0.0), (1.5, 0.0)], radius=1.0)
        sol = solve_strip(inst)
        assert sol.m == 1
        assert sol.centers[0] == pytest.approx((0.75, 0.0))

    def test_points_in_different_strips_never_share(self):
        # Vertically aligned points one strip apart each get their own disk
        # even though a single disk could cover both.
        r = 1.0
        inst = Instance(points=[(0.0, 0.0), (0.0, H * r)], radius=r)
        sol = solve_strip(inst)
        assert sol.m == 2

    def test_deterministic(self):
        inst = generate_topology(40, 3.0, seed=8, radius=0.5)
        a = solve_strip(inst)
        b = solve_strip(inst)
        assert a.centers == b.centers
        assert a.newly_covered == b.newly_covered

    def test_strip_locality(self):
        # Every point is covered by a disk of its own strip: the disk center's
        # strip index matches the point's.
        inst = generate_topology(60, 3.0, seed=12, radius=0.4)
        sol = solve_strip(inst)
        assert not solution_violations(inst, sol)
        h = H * inst.radius
        min_y = min(p[1] for p in inst.points)
        for center, group in zip(sol.centers, sol.newly_covered):
            for k in group:
                s_point = math.floor((inst.points[k][1] - min_y) / h + 0.5)
                s_center = math.floor((center[1] - min_y) / h + 0.5)
                assert s_point == s_center

    def test_mean_exceeds_spiral_at_reference_density(self):
        side = 10.0 ** 0.5
        strip_ms, spiral_ms = [], []
        for t in range(20):
            inst = generate_topology(80, side, 4100 + t, radius=0.5)
            strip_ms.append(solve_strip(inst).m)
            spiral_ms.append(solve_spiral(inst, seed=4100 + t).m)
        assert sum(strip_ms) / 20 > sum(spiral_ms) / 20

    @given(instances(max_size=30))
    @settings(max_examples=40)
    def test_feasible(self, inst):
        assert not solution_violations(inst, solve_strip(inst))


def assert_close_to_from_scratch(inst):
    # The same disks and coverage as when each trial disk is re-solved from
    # scratch; the centers may differ in their last bits.
    sol = solve_strip(inst)
    centers, newly = strip_serial(inst)
    assert sol.m == len(centers)
    assert sol.newly_covered == newly
    for got, ref in zip(sol.centers, centers):
        assert dist(got, ref) <= 1e-12 * inst.radius


class TestStripCloseToFromScratch:
    """Growing the group's disk one point at a time places as many disks,
    covering the same points, as re-solving it from scratch for every point
    the sweep tries."""

    @pytest.mark.parametrize("ratio", list(K80_STRIP_COUNTS))
    def test_criterion_2_topologies(self, ratio):
        for t in range(len(K80_STRIP_COUNTS[ratio])):
            inst = generate_topology(80, 1.0, K80_BASE + t, radius=1.0 / ratio)
            assert_close_to_from_scratch(inst)

    @pytest.mark.parametrize("ratio", list(K400_SPIRAL_COUNTS))
    def test_criterion_3_topologies(self, ratio):
        for t in range(len(K400_SPIRAL_COUNTS[ratio])):
            inst = generate_topology(400, 1.0, K400_BASE + t, radius=1.0 / ratio)
            assert_close_to_from_scratch(inst)


class TestKmeans:
    def test_single_disk_instance(self):
        inst = Instance(points=[(0.0, 0.0), (0.5, 0.0), (0.0, 0.4)], radius=1.0)
        sol = solve_kmeans(inst, 0, TrialConfig(trials=3))
        assert sol.m == 1

    def test_two_far_points(self):
        inst = Instance(points=[(0.0, 0.0), (5.0, 0.0)], radius=1.0)
        sol = solve_kmeans(inst, 0, TrialConfig(trials=3))
        assert sol.m == 2

    def test_centers_are_cluster_enclosing_centers(self):
        inst = generate_topology(30, 2.0, seed=5, radius=0.6)
        sol = solve_kmeans(inst, 5, TrialConfig(trials=5))
        assert not solution_violations(inst, sol)
        for center, group in zip(sol.centers, sol.newly_covered):
            mec = one_center([inst.points[k] for k in group])
            assert center == mec.center
            assert within_radius(inst.radius, mec.radius)

    def test_partition(self):
        inst = generate_topology(25, 2.0, seed=6, radius=0.5)
        sol = solve_kmeans(inst, 6, TrialConfig(trials=5))
        seen = sorted(k for group in sol.newly_covered for k in group)
        assert seen == list(range(inst.k))

    def test_deterministic_given_seed(self):
        inst = generate_topology(25, 2.0, seed=7, radius=0.5)
        a = solve_kmeans(inst, 7, TrialConfig(trials=5))
        b = solve_kmeans(inst, 7, TrialConfig(trials=5))
        assert a.centers == b.centers

    def test_handles_duplicate_points(self):
        inst = Instance(points=[(0.0, 0.0)] * 4 + [(3.0, 0.0)] * 3, radius=0.5)
        sol = solve_kmeans(inst, 0, TrialConfig(trials=2))
        assert sol.m == 2
        assert not solution_violations(inst, sol)

    def test_best_of_trials_monotone(self):
        inst = generate_topology(30, 2.0, seed=15, radius=0.35)
        ms = [
            solve_kmeans(inst, 15, TrialConfig(trials=t)).m for t in (1, 2, 4, 8)
        ]
        assert all(a >= b for a, b in zip(ms, ms[1:]))

    @given(instances(max_size=20))
    @settings(max_examples=20)
    def test_feasible(self, inst):
        sol = solve_kmeans(inst, 3, TrialConfig(trials=2))
        assert not solution_violations(inst, sol)


coarse = st.integers(min_value=0, max_value=40).map(lambda v: v / 4.0)


@st.composite
def kmeans_cases(draw):
    """Small instances for the lockstep-vs-serial k-means check: spread
    points, duplicates of a few positions (so n_distinct, which caps the
    probed counts, falls well below n), or points on one line."""
    n = draw(st.integers(min_value=1, max_value=24))
    kind = draw(st.sampled_from(["spread", "duplicates", "collinear"]))
    if kind == "spread":
        pts = draw(st.lists(st.tuples(coarse, coarse), min_size=n, max_size=n))
    elif kind == "duplicates":
        base = draw(st.lists(st.tuples(coarse, coarse), min_size=1, max_size=4))
        pts = draw(st.lists(st.sampled_from(base), min_size=n, max_size=n))
    else:
        ts = draw(st.lists(coarse, min_size=n, max_size=n))
        slope = draw(st.sampled_from([0.0, 0.5, 1.0]))
        pts = [(t, slope * t) for t in ts]
    r = draw(st.floats(min_value=0.1, max_value=8.0))
    return Instance(points=pts, radius=r)


def kmeans_with_block(inst, seed, cfg, block, max_iters):
    """solve_kmeans with at most `max_iters` batch passes per probe and the
    block budget set so that every block holds exactly one trial (block=1),
    at least `block` trials, or all of them (None)."""
    if block is None:
        budget = 1 << 40
    elif block == 1:
        budget = 1
    else:
        xy = np.asarray(inst.points, dtype=float)
        budget = block * len(xy) * (len(np.unique(xy, axis=0)) + baselines._KMEANS_ROW_TEMPS)
    with mock.patch.object(baselines, "_KMEANS_BLOCK_ELEMS", budget), mock.patch.object(
        baselines, "KMEANS_MAX_ITERS", max_iters
    ):
        return solve_kmeans(inst, seed, cfg)


@functools.lru_cache(maxsize=None)
def serial_k80(ratio, max_iters):
    inst = generate_topology(80, 1.0, 10408, radius=1.0 / ratio)
    return kmeans_serial(inst.points, inst.radius, 11, 10408, max_iters)


class TestKmeansLockstep:
    """The lockstep k-means must reproduce the serial trial loop exactly."""

    @pytest.mark.parametrize("block", [1, 3, None])
    @given(
        inst=kmeans_cases(),
        trials=st.integers(min_value=1, max_value=12),
        max_iters=st.sampled_from([1, 2, 100]),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=40)
    def test_matches_serial_reference(self, block, inst, trials, max_iters, seed):
        cfg = TrialConfig(trials=trials)
        sol = kmeans_with_block(inst, seed, cfg, block, max_iters)
        centers, newly = kmeans_serial(inst.points, inst.radius, trials, seed, max_iters)
        assert sol.centers == centers
        assert sol.newly_covered == newly

    @pytest.mark.parametrize("block", [1, 4, None])
    @pytest.mark.parametrize("ratio,max_iters", [(2, 1), (6, 100), (10, 100)])
    def test_matches_serial_reference_at_k80(self, block, ratio, max_iters):
        # 11 trials: not a multiple of the 4-trial block, and enough rows in
        # one block for the refinement to drop stopped rows several times.
        inst = generate_topology(80, 1.0, 10408, radius=1.0 / ratio)
        cfg = TrialConfig(trials=11)
        sol = kmeans_with_block(inst, 10408, cfg, block, max_iters)
        centers, newly = serial_k80(ratio, max_iters)
        assert sol.centers == centers
        assert sol.newly_covered == newly

    @pytest.mark.parametrize("scale,offset", [(1e-6, 0.25), (1e6, -3e8)])
    def test_matches_serial_reference_beyond_unit_scale(self, scale, offset):
        # The refinement stops on a gain below 1e-12 * r * r; an absolute
        # stop would refine these far more or far less than the reference.
        base = generate_topology(80, 1.0, 10408, radius=1.0 / 6.0)
        pts = [(offset + x * scale, offset + y * scale) for x, y in base.points]
        inst = Instance(pts, radius=scale / 6.0)
        sol = solve_kmeans(inst, 10408, TrialConfig(trials=11))
        max_iters = baselines.KMEANS_MAX_ITERS
        centers, newly = kmeans_serial(inst.points, inst.radius, 11, 10408, max_iters)
        assert sol.centers == centers
        assert sol.newly_covered == newly


class TestKmeansCapProbe:
    """A trial whose bisection closes on the cap with nothing feasible yet
    probes the cap once more; its clusters, not one per position, win."""

    @pytest.mark.parametrize("block", [1, None])
    @pytest.mark.parametrize("trials", [1, 5])
    @pytest.mark.parametrize(
        "pts",
        [
            # Six points 3r apart: every count below 6 is infeasible.
            [(3.0 * i, 0.0) for i in range(6)],
            # One distinct position: the cap is 1 and the range starts closed.
            [(0.5, -2.0)] * 4,
        ],
        ids=["line-3r", "coincident"],
    )
    def test_matches_serial_reference(self, pts, trials, block):
        inst = Instance(points=pts, radius=1.0)
        cfg = TrialConfig(trials=trials)
        max_iters = baselines.KMEANS_MAX_ITERS
        for seed in range(5):
            sol = kmeans_with_block(inst, seed, cfg, block, max_iters)
            centers, newly = kmeans_serial(inst.points, inst.radius, trials, seed, max_iters)
            assert sol.centers == centers
            assert sol.newly_covered == newly


class TestKmeansAt100Trials:
    """K=80, D/r=10 solves at the table's 100 trials."""

    def test_block_budget_invariant(self):
        # 100 trials, as the table runs them: seeding and the feasibility
        # check take up to 100 rows per bisection step, while the batch
        # passes and the refinement take one row per block (budget 1), the
        # default blocks, or every row at once.
        inst = generate_topology(80, 1.0, 10408, radius=0.1)
        cfg = TrialConfig(trials=100)
        default = replace(solve_kmeans(inst, 10408, cfg), runtime=0.0)
        for block in (1, None):
            sol = kmeans_with_block(inst, 10408, cfg, block, baselines.KMEANS_MAX_ITERS)
            assert replace(sol, runtime=0.0) == default

    def test_peak_memory_within_the_block_buffers(self):
        # The two working buffers of the batch passes and the refinement
        # hold 8 B per budget element each.  Everything else a K=80, D/r=10,
        # 100-trial solve holds at once (seeding's per-step arrays, each
        # step's labels and feasibility verdicts, the refinement's copy of
        # the rows it keeps, 100 random generators, and the bisection's lo,
        # hi, found and best arrays; about 0.8 MiB) must stay within 1 MiB,
        # so that only a deliberate budget change, which moves the cap with
        # it, can raise the benchmark's peak RSS much.
        slack = 1 << 20
        inst = generate_topology(80, 1.0, 10408, radius=0.1)
        solve_kmeans(inst, 10408, TrialConfig(trials=100))  # warm the caches
        tracemalloc.start()
        try:
            solve_kmeans(inst, 10408, TrialConfig(trials=100))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * baselines._KMEANS_BLOCK_ELEMS + slack


# Points 1e-170 apart are distinct, but their squared distance (1e-340)
# underflows to 0.  Four positions lie far apart, so careful seeding finds
# every point on a center once it has placed four, before p of them when
# p > 4.
TINY = 1e-170
EARLY_STOP_POINTS = [(3.5, 1.5)] * 3 + [
    (0.0, 2.0),
    (TINY, 2.0),
    (2.0 * TINY, 2.0),
    (2.5, 0.0),
    (1.5, 1.0),
]


class TestSeedingEarlyStop:
    """Seeding stops early when every point already sits on a center: the
    row's remaining centers copy its first.  The lockstep draws the row's
    uniforms in one call, as the serial seeding does, and leaves its
    generator where that seeding leaves it."""

    def test_seeding_matches_serial_init(self):
        xy = np.array(EARLY_STOP_POINTS)
        pts = np.ascontiguousarray(xy.T)
        ps = np.array([1, 2, 3, 4, 5, 5, 6, 6])
        for seed in range(20):
            rngs = [np.random.Generator(np.random.PCG64(seed * 8 + b)) for b in range(8)]
            refs = [np.random.Generator(np.random.PCG64(seed * 8 + b)) for b in range(8)]
            for rng in rngs + refs:
                # As after an earlier probe: a 32-bit half is buffered.
                rng.integers(80)
            c = baselines._seed_lockstep(pts, ps, rngs)
            for b, p in enumerate(ps):
                assert np.array_equal(c[:, b, :p].T, _kmeanspp_init(xy, p, refs[b]))
                assert np.isinf(c[:, b, p:]).all()
                assert rngs[b].bit_generator.state == refs[b].bit_generator.state
                if p > 4:
                    # Four centers put every point on one: the rest copy
                    # the first.
                    assert (c[:, b, 4:p] == c[:, b, :1]).all()

    @pytest.mark.parametrize("block", [1, 3, None])
    def test_solve_matches_serial(self, block):
        # Each trial probes p = 3, 5 and 4 of its 6 distinct positions.  At
        # p = 5 seeding stops after four centers, with all four uniforms
        # drawn, and the p = 4 probe then draws after them.
        inst = Instance(points=EARLY_STOP_POINTS, radius=0.3)
        cfg = TrialConfig(trials=3)
        sol = kmeans_with_block(inst, 176, cfg, block, baselines.KMEANS_MAX_ITERS)
        centers, newly = kmeans_serial(inst.points, inst.radius, 3, 176, baselines.KMEANS_MAX_ITERS)
        assert sol.centers == centers
        assert sol.newly_covered == newly


class TestBoxAcceptPath:
    """A cluster whose bounding box has half-diagonal <= r fits in a radius-r
    disk, so the k-means check may accept it without an enclosing disk."""

    @staticmethod
    def half_diagonal(pts):
        xy = np.asarray(pts, dtype=float)
        ex, ey = xy.max(axis=0) - xy.min(axis=0)
        return float(np.hypot(ex, ey) / 2.0)

    @given(
        grid_point_lists(min_size=1, max_size=25),
        st.sampled_from([1e-12, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e12]),
        st.sampled_from([1.0, 1.0 + 1e-12, 1.5]),
    )
    @settings(max_examples=200)
    def test_accepted_cluster_fits(self, pts, scale, slack):
        pts = [(x * scale, y * scale) for x, y in pts]
        r = self.half_diagonal(pts) * slack
        assert within_radius(r, one_center(pts).radius)

    @pytest.mark.parametrize("scale", [1e-12, 1e-6, 1.0, 1e6, 1e12])
    @pytest.mark.parametrize(
        "pts",
        [
            # Box corners: every corner touches the disk at exactly r.
            [(0.0, 0.0), (3.0, 0.0), (0.0, 4.0), (3.0, 4.0)],
            [(-1.0, -1.0), (1.0, 1.0)],
            [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)],
            [(1.0, 1.0)] * 3,
        ],
    )
    def test_boundary_contact_at_exactly_r(self, pts, scale):
        pts = [(x * scale, y * scale) for x, y in pts]
        r = self.half_diagonal(pts)
        assert within_radius(r, one_center(pts).radius)


class TestRandom:
    @pytest.mark.parametrize("seed", range(20))
    def test_pair_where_the_hypots_disagree(self, seed):
        inst = Instance(points=HYPOT_SPLIT_PAIR, radius=1.0)
        assert not solution_violations(inst, solve_random(inst, seed))

    def test_pair_where_the_hypots_disagree_in_a_campaign(self):
        inst = Instance(points=HYPOT_SPLIT_PAIR, radius=1.0)
        campaign = Campaign(
            k=2, side=1.0, ratios=[1.0], topologies=20, base_seed=0, algorithms=["random"]
        )
        with mock.patch.object(bench, "generate_topology", return_value=inst):
            report = run_campaign(campaign)
        assert [row.topology_seed for row in report.rows] == list(range(20))

    def test_single_point(self):
        inst = Instance(points=[(1.0, 1.0)], radius=0.5)
        sol = solve_random(inst, 0, TrialConfig(trials=2))
        assert sol.m == 1
        assert sol.centers[0] == (1.0, 1.0)

    def test_midrange_pair_always_needs_two(self):
        # Centers sit on points, so a pair 1.5 r apart can never share a disk.
        inst = Instance(points=[(0.0, 0.0), (1.5, 0.0)], radius=1.0)
        sol = solve_random(inst, 1, TrialConfig(trials=10))
        assert sol.m == 2

    def test_centers_are_points(self):
        inst = generate_topology(30, 2.0, seed=9, radius=0.4)
        sol = solve_random(inst, 9, TrialConfig(trials=4))
        assert not solution_violations(inst, sol)
        assert set(sol.centers) <= set(inst.points)

    def test_best_of_trials_monotone(self):
        inst = generate_topology(50, 3.0, seed=10, radius=0.5)
        ms = [
            solve_random(inst, 10, TrialConfig(trials=t)).m for t in (1, 2, 5, 10, 20)
        ]
        assert all(a >= b for a, b in zip(ms, ms[1:]))

    @given(instances(max_size=25), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=30)
    def test_feasible_and_bounded(self, inst, seed):
        sol = solve_random(inst, seed, TrialConfig(trials=2))
        assert not solution_violations(inst, sol)
        assert sol.m <= inst.k
