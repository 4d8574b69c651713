import functools
import math
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
from diskcover import baselines
from diskcover.geometry import dist, within_radius
from diskcover.bench import generate_topology

from conftest import grid_point_lists, instances
from oracles import kmeans_serial

H = math.sqrt(3.0)  # default strip height factor


class TestTrialConfig:
    def test_defaults(self):
        cfg = TrialConfig()
        assert cfg.trials == 100
        assert cfg.max_kmeans_iters == 100
        assert cfg.strip_height_factor == pytest.approx(math.sqrt(3.0))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"trials": 0},
            {"max_kmeans_iters": 0},
            {"strip_height_factor": 0.0},
            {"strip_height_factor": 2.5},
        ],
    )
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


class TestKmeans:
    def test_single_disk_instance(self):
        inst = Instance(points=[(0.0, 0.0), (0.5, 0.0), (0.0, 0.4)], radius=1.0)
        sol = solve_kmeans(inst, TrialConfig(trials=3, seed=0))
        assert sol.m == 1

    def test_two_far_points(self):
        inst = Instance(points=[(0.0, 0.0), (5.0, 0.0)], radius=1.0)
        sol = solve_kmeans(inst, TrialConfig(trials=3, seed=0))
        assert sol.m == 2

    def test_centers_are_cluster_enclosing_centers(self):
        inst = generate_topology(30, 2.0, seed=5, radius=0.6)
        sol = solve_kmeans(inst, TrialConfig(trials=5, seed=5))
        assert not solution_violations(inst, sol)
        for center, group in zip(sol.centers, sol.newly_covered):
            mec = one_center([inst.points[k] for k in group])
            assert center == mec.center
            assert within_radius(inst.radius, mec.radius)

    def test_partition(self):
        inst = generate_topology(25, 2.0, seed=6, radius=0.5)
        sol = solve_kmeans(inst, TrialConfig(trials=5, seed=6))
        seen = sorted(k for group in sol.newly_covered for k in group)
        assert seen == list(range(inst.k))

    def test_deterministic_given_seed(self):
        inst = generate_topology(25, 2.0, seed=7, radius=0.5)
        a = solve_kmeans(inst, TrialConfig(trials=5, seed=7))
        b = solve_kmeans(inst, TrialConfig(trials=5, seed=7))
        assert a.centers == b.centers

    def test_handles_duplicate_points(self):
        inst = Instance(points=[(0.0, 0.0)] * 4 + [(3.0, 0.0)] * 3, radius=0.5)
        sol = solve_kmeans(inst, TrialConfig(trials=2, seed=0))
        assert sol.m == 2
        assert not solution_violations(inst, sol)

    def test_best_of_trials_monotone(self):
        inst = generate_topology(30, 2.0, seed=15, radius=0.35)
        ms = [
            solve_kmeans(inst, TrialConfig(trials=t, seed=15)).m for t in (1, 2, 4, 8)
        ]
        assert all(a >= b for a, b in zip(ms, ms[1:]))

    @given(instances(max_size=20))
    @settings(max_examples=20)
    def test_feasible(self, inst):
        sol = solve_kmeans(inst, TrialConfig(trials=2, seed=3))
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


def kmeans_with_block(inst, cfg, block):
    """solve_kmeans with the block budget set so that every block holds
    exactly one trial (block=1), at least `block` trials, or all of them
    (None)."""
    if block is None:
        budget = 1 << 40
    elif block == 1:
        budget = 1
    else:
        xy = np.asarray(inst.points, dtype=float)
        budget = block * len(xy) * (len(np.unique(xy, axis=0)) + baselines._KMEANS_ROW_TEMPS)
    with mock.patch.object(baselines, "_KMEANS_BLOCK_ELEMS", budget):
        return solve_kmeans(inst, cfg)


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
        cfg = TrialConfig(trials=trials, seed=seed, max_kmeans_iters=max_iters)
        sol = kmeans_with_block(inst, cfg, block)
        centers, newly = kmeans_serial(inst.points, inst.radius, trials, seed, max_iters)
        assert sol.centers == centers
        assert sol.newly_covered == newly

    @pytest.mark.parametrize("block", [1, 4, None])
    @pytest.mark.parametrize("ratio,max_iters", [(2, 1), (6, 100), (10, 100)])
    def test_matches_serial_reference_at_k80(self, block, ratio, max_iters):
        # 11 trials: not a multiple of the 4-trial block, and enough rows in
        # one block for the refinement to drop stopped rows several times.
        inst = generate_topology(80, 1.0, 10408, radius=1.0 / ratio)
        cfg = TrialConfig(trials=11, seed=10408, max_kmeans_iters=max_iters)
        sol = kmeans_with_block(inst, cfg, block)
        centers, newly = serial_k80(ratio, max_iters)
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
    def test_single_point(self):
        inst = Instance(points=[(1.0, 1.0)], radius=0.5)
        sol = solve_random(inst, TrialConfig(trials=2, seed=0))
        assert sol.m == 1
        assert sol.centers[0] == (1.0, 1.0)

    def test_midrange_pair_always_needs_two(self):
        # Centers sit on points, so a pair 1.5 r apart can never share a disk.
        inst = Instance(points=[(0.0, 0.0), (1.5, 0.0)], radius=1.0)
        sol = solve_random(inst, TrialConfig(trials=10, seed=1))
        assert sol.m == 2

    def test_centers_are_points(self):
        inst = generate_topology(30, 2.0, seed=9, radius=0.4)
        sol = solve_random(inst, TrialConfig(trials=4, seed=9))
        assert not solution_violations(inst, sol)
        assert set(sol.centers) <= set(inst.points)

    def test_best_of_trials_monotone(self):
        inst = generate_topology(50, 3.0, seed=10, radius=0.5)
        ms = [
            solve_random(inst, TrialConfig(trials=t, seed=10)).m for t in (1, 2, 5, 10, 20)
        ]
        assert all(a >= b for a, b in zip(ms, ms[1:]))

    @given(instances(max_size=25), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=30)
    def test_feasible_and_bounded(self, inst, seed):
        sol = solve_random(inst, TrialConfig(trials=2, seed=seed))
        assert not solution_violations(inst, sol)
        assert sol.m <= inst.k
