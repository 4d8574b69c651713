import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from diskcover import (
    BudgetExceededError,
    CandidateDisk,
    Instance,
    generate_candidates,
    min_cover,
    solution_violations,
    solve_kmeans,
    solve_random,
    solve_spiral,
    solve_strip,
    TrialConfig,
)
from diskcover.geometry import Disk, covers
from diskcover.bench import generate_topology
from diskcover.exact import _incidence

from conftest import grid_point_lists, instances
from oracles import (
    candidates_serial,
    candidates_unpruned,
    grid_cover_masks,
    incidence_serial,
    min_cover_size_by_combinations,
    min_cover_size_by_enumeration,
    search_serial,
)
from test_acceptance import _oracle_corpus


class TestGenerateCandidates:
    def test_single_point(self):
        inst = Instance(points=[(2.0, 3.0)], radius=1.0)
        cands = generate_candidates(inst)
        assert len(cands) == 1
        assert cands[0].center == (2.0, 3.0)
        assert cands[0].coverage == 0b1

    def test_tangent_pair_collapses_to_midpoint(self):
        inst = Instance(points=[(0.0, 0.0), (2.0, 0.0)], radius=1.0)
        unpruned = candidates_unpruned(inst)
        assert len(unpruned) == 3  # two singletons plus the midpoint
        pruned = generate_candidates(inst)
        assert len(pruned) == 1
        assert pruned[0].center == (1.0, 0.0)
        assert pruned[0].coverage == 0b11

    @staticmethod
    def covers_mask(inst, center):
        disk = Disk(center, inst.radius)
        return sum(1 << i for i, p in enumerate(inst.points) if covers(disk, p))

    def test_candidate_count_bound_and_coverage_validity(self):
        inst = generate_topology(12, 4.0, seed=9, radius=1.0)
        cands = candidates_unpruned(inst)
        k = inst.k
        assert len(cands) <= k + k * (k - 1)
        for c in cands + generate_candidates(inst):
            assert c.coverage != 0
            assert c.coverage == self.covers_mask(inst, c.center)

    @pytest.mark.parametrize("scale,offset", [(1.0, 0.0), (1e-6, 1e3), (1e6, -1e9)])
    def test_coverage_on_a_2r_lattice(self, scale, offset):
        # Every pair of neighbours is exactly 2r apart, so each pair yields
        # one candidate with both points on its boundary.
        r = scale
        pts = [(offset + 2 * r * i, offset + 2 * r * j) for i in range(5) for j in range(5)]
        inst = Instance(points=pts, radius=r)
        for c in candidates_unpruned(inst) + generate_candidates(inst):
            assert c.coverage == self.covers_mask(inst, c.center)

    def test_pruning_never_changes_optimum(self):
        for seed in range(8):
            inst = generate_topology(8, 3.0, seed=seed, radius=1.0)
            unpruned = candidates_unpruned(inst)
            pruned = generate_candidates(inst)
            # Pruning keeps a subset, in emission order, that dominates the rest.
            assert [c for c in unpruned if c in pruned] == pruned
            assert all(any(c.coverage | p.coverage == p.coverage for p in pruned) for c in unpruned)
            masks = [c.coverage for c in unpruned]
            assert min_cover(inst).m == min_cover_size_by_enumeration(masks, inst.k)


class TestBlockwiseCandidates:
    """Block-wise coverage and the lowest-point subset test give the
    candidate list of the per-candidate serial generator, bit for bit."""

    @pytest.mark.parametrize("scale,offset", [(1.0, 0.0), (1e-6, 1e3), (1e6, -1e9)])
    def test_2r_lattice(self, scale, offset):
        r = scale
        pts = [(offset + 2 * r * i, offset + 2 * r * j) for i in range(5) for j in range(5)]
        inst = Instance(points=pts, radius=r)
        assert generate_candidates(inst) == candidates_serial(inst)

    def test_duplicate_points(self):
        pts = [(0.0, 0.0), (0.5, 0.2), (0.0, 0.0), (1.5, 0.0), (0.5, 0.2), (0.0, 0.0)]
        inst = Instance(points=pts, radius=1.0)
        assert generate_candidates(inst) == candidates_serial(inst)

    def test_collinear_points(self):
        inst = Instance(points=[(0.3 * i, 0.7 * i) for i in range(12)], radius=0.5)
        assert generate_candidates(inst) == candidates_serial(inst)

    def test_large_offset(self):
        base = generate_topology(30, 3.0, seed=12, radius=0.5)
        inst = Instance(points=[(x + 1e6, y - 1e6) for x, y in base.points], radius=0.5)
        assert generate_candidates(inst) == candidates_serial(inst)

    def test_center_exactly_r_from_a_third_point(self):
        # The tangent pair (+-1, 0) yields the center (0, 0), which is exactly
        # r from (0, 1): the distance falls in within_mask's band.
        inst = Instance(points=[(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.5)], radius=1.0)
        cands = generate_candidates(inst)
        assert CandidateDisk((0.0, 0.0), 0b0111) in cands
        assert cands == candidates_serial(inst)

    def test_pair_centers_round_as_the_scalar_formula(self):
        # Half this pair's distance squares to neighbouring floats under
        # CPython's ** 2 (libm pow) and numpy's v * v, and the pair-circle
        # centers move with it.
        inst = Instance(points=[(0.0, 0.0), (1.59375, 0.234375)], radius=1.0)
        assert generate_candidates(inst) == candidates_serial(inst)

    @given(instances(max_size=20))
    @settings(max_examples=40)
    def test_random_instances(self, inst):
        assert generate_candidates(inst) == candidates_serial(inst)

    @given(grid_point_lists(max_size=20), st.sampled_from([0.25, 0.5, 1.0, 2.0]))
    @settings(max_examples=40)
    def test_grid_instances(self, pts, r):
        inst = Instance(points=pts, radius=r)
        assert generate_candidates(inst) == candidates_serial(inst)


def _search_corpus():
    """The criterion-6 corpus and 20 instances of K=30 to 60 at D/r 4 to 10."""
    corpus = [inst for inst, _ in _oracle_corpus()]
    for t in range(20):
        k, ratio = (30, 40, 50, 60)[t % 4], 4.0 + 1.5 * (t // 4)
        corpus.append(generate_topology(k, 1.0, 900 + t, radius=1.0 / ratio))
    return corpus


@pytest.mark.parametrize(
    "packings", [(), ("index",), ("index", "degree")], ids=["count", "index", "index-degree"]
)
def test_search_matches_reference_search(packings):
    # Each packing only prunes more, so min_cover must return the reference's
    # cover within the reference's node count.  With both packings the
    # threshold test decides each node as the full counting bound did, and
    # the relabelled masks pack as the per-node sort by neighbour count does,
    # so min_cover expands exactly the reference's nodes: it proves the same
    # cover in that many and runs out one node short of it.
    for inst in _search_corpus():
        ref, nodes = search_serial(inst, node_limit=200_000, packings=packings)
        sol = min_cover(inst, node_limit=nodes)
        assert sol.centers == ref.centers
        assert sol.newly_covered == ref.newly_covered
        if packings == ("index", "degree") and nodes > 1:
            with pytest.raises(BudgetExceededError, match=f"exceeded {nodes - 1} search nodes"):
                min_cover(inst, node_limit=nodes - 1)


def test_proofs_beyond_k80():
    # K=120 at D/r=6: none of the six proved within 100 000 nodes with the
    # lowest-index packing alone; with both packings all six do.
    for t in range(1, 7):
        inst = generate_topology(120, 1.0, t, radius=1.0 / 6.0)
        sol = min_cover(inst, node_limit=100_000)
        assert not solution_violations(inst, sol)
        assert sol.m <= solve_spiral(inst).m


def _check_incidence(inst):
    masks = [c.coverage for c in generate_candidates(inst)]
    assert _incidence(masks, inst.k) == incidence_serial(masks, inst.k)


def test_incidence_matches_per_bit_tables_on_the_search_corpus():
    for inst in _search_corpus():
        _check_incidence(inst)


@given(instances(max_size=20))
@settings(max_examples=40)
def test_incidence_matches_per_bit_tables(inst):
    _check_incidence(inst)


@given(grid_point_lists(max_size=20), st.sampled_from([0.25, 0.5, 1.0, 2.0]))
@settings(max_examples=40)
def test_incidence_matches_per_bit_tables_on_grids(pts, r):
    _check_incidence(Instance(points=pts, radius=r))


class TestMinCover:
    def test_three_collinear(self):
        inst = Instance(points=[(0.0, 0.0), (2.0, 0.0), (4.0, 0.0)], radius=1.0)
        sol = min_cover(inst)
        assert sol.m == 2
        assert not solution_violations(inst, sol)

    def test_two_far_points(self):
        inst = Instance(points=[(0.0, 0.0), (5.0, 0.0)], radius=1.0)
        assert min_cover(inst).m == 2

    def test_matches_exhaustive_enumeration_reference_instance(self):
        inst = generate_topology(20, 4.0, seed=11, radius=1.0)
        sol = min_cover(inst)
        masks = [c.coverage for c in generate_candidates(inst)]
        assert sol.m == min_cover_size_by_enumeration(masks, inst.k)
        assert not solution_violations(inst, sol)

    @pytest.mark.xfail(
        strict=True,
        reason="the pair-circle centers round by about 4e-9 at 2**24, past the "
        "1e-9 * r slack, so no candidate covers the pair; the fix is a "
        "magnitude term in the coverage slack",
    )
    def test_optimum_far_from_the_origin_is_not_beaten(self):
        # 1.99 apart, so one disk of radius 1 covers both: the spiral finds
        # it, and at the origin the oracle does too.
        far = 2.0**24
        inst = Instance(points=[(far, -far), (far + 1.99, -far)], radius=1.0)
        spiral = solve_spiral(inst)
        assert not solution_violations(inst, spiral)
        assert min_cover(inst).m <= spiral.m

    @pytest.mark.xfail(
        strict=True,
        raises=OverflowError,
        reason="generate_candidates' h2 = r * r - (v / 2.0) ** 2 overflows in "
        "Python's float power for a pair 1e285 apart at r = 1e300",
    )
    def test_pair_near_the_float_limit(self):
        inst = Instance([(1e300, 0.0), (1e300 + 1e285, 0.0)], 1e300)
        sol = min_cover(inst)
        assert not solution_violations(inst, sol)

    @pytest.mark.parametrize("limit", [0, -3])
    def test_node_limit_below_one_rejected(self, limit):
        with pytest.raises(ValueError):
            min_cover(Instance(points=[(0.0, 0.0)], radius=1.0), node_limit=limit)

    def test_budget_exhaustion_raises(self):
        # A proof of 2814 nodes.  The message gives the gap at the root: the
        # greedy incumbent's 22 disks against the larger packing's 16 (the
        # optimum is 18).
        inst = generate_topology(60, 1.0, seed=3, radius=0.1)
        with pytest.raises(
            BudgetExceededError,
            match=r"^exceeded 1 search nodes \(incumbent 22, lower bound 16\)$",
        ):
            min_cover(inst, node_limit=1)

    def test_enumeration_oracles_agree_on_tiny_instances(self):
        for seed in range(6):
            inst = generate_topology(7, 3.0, seed=40 + seed, radius=1.0)
            masks = [c.coverage for c in generate_candidates(inst)]
            assert min_cover_size_by_enumeration(
                masks, inst.k
            ) == min_cover_size_by_combinations(masks, inst.k)

    def test_candidates_reach_grid_optimum(self):
        for seed in (5, 6, 7):
            inst = generate_topology(10, 3.0, seed=seed, radius=1.0)
            cand_masks = [c.coverage for c in generate_candidates(inst)]
            grid_masks = grid_cover_masks(inst.points, inst.radius)
            m_cand = min_cover_size_by_enumeration(cand_masks, inst.k)
            m_grid = min_cover_size_by_enumeration(grid_masks, inst.k)
            assert m_cand == m_grid == min_cover(inst).m

    @given(instances(max_size=12))
    @settings(max_examples=30)
    def test_oracle_never_beaten_by_heuristics(self, inst):
        opt = min_cover(inst).m
        cfg = TrialConfig(trials=5)
        assert solve_spiral(inst).m >= opt
        assert solve_strip(inst, 1).m >= opt
        assert solve_kmeans(inst, 1, cfg).m >= opt
        assert solve_random(inst, 1, cfg).m >= opt

    @given(instances(max_size=12))
    @settings(max_examples=30)
    def test_solution_contract(self, inst):
        sol = min_cover(inst)
        assert not solution_violations(inst, sol)
        assert sol.m <= inst.k
