import dataclasses
import json
import math
import time
from pathlib import Path

import pytest

from diskcover import (
    Campaign,
    Instance,
    Solution,
    TrialConfig,
    generate_topology,
    solution_violations,
)
from diskcover import bench
from diskcover.bench import (
    ALGORITHMS,
    RAW_CSV_HEADER,
    aggregate_csv,
    raw_csv,
    report_json,
    run_campaign,
)


class TestGenerateTopology:
    def test_points_inside_square(self):
        inst = generate_topology(1, 5.0, seed=0, radius=0.5)
        (x, y) = inst.points[0]
        assert 0.0 <= x <= 5.0 and 0.0 <= y <= 5.0
        assert inst.radius == 0.5
        assert inst.region_side == 5.0

    def test_deterministic(self):
        a = generate_topology(50, 2.0, seed=123, radius=0.5)
        b = generate_topology(50, 2.0, seed=123, radius=0.5)
        assert a.points == b.points

    def test_seeds_differ(self):
        a = generate_topology(50, 2.0, seed=123, radius=0.5)
        b = generate_topology(50, 2.0, seed=124, radius=0.5)
        assert a.points != b.points

    def test_uniform_mean(self):
        inst = generate_topology(10_000, 1.0, seed=42, radius=0.5)
        xs = [p[0] for p in inst.points]
        ys = [p[1] for p in inst.points]
        assert abs(sum(xs) / len(xs) - 0.5) <= 0.02
        assert abs(sum(ys) / len(ys) - 0.5) <= 0.02

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            generate_topology(0, 1.0, seed=0, radius=0.5)
        with pytest.raises(ValueError):
            generate_topology(5, -1.0, seed=0, radius=0.5)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def small_campaign(**overrides):
    kwargs = dict(
        k=12,
        side=1.0,
        ratios=[2.0, 3.0],
        topologies=3,
        base_seed=50,
        algorithms=("spiral", "strip"),
        trials=TrialConfig(trials=3),
    )
    kwargs.update(overrides)
    return Campaign(**kwargs)


class TestRunCampaign:
    def test_single_cell_aggregation_identity(self):
        report = run_campaign(small_campaign(topologies=1, ratios=[2.0], algorithms=("spiral",)))
        assert len(report.rows) == 1
        row = report.rows[0]
        assert report.mean_m("spiral", 2.0) == row.m
        assert report.mean_runtime_ms("spiral", 2.0) == row.runtime_ms

    def test_row_count_and_reproducible_m_columns(self):
        a = run_campaign(small_campaign())
        b = run_campaign(small_campaign())
        assert len(a.rows) == 2 * 3 * 2
        assert [r.m for r in a.rows] == [r.m for r in b.rows]
        assert [r.topology_seed for r in a.rows] == [r.topology_seed for r in b.rows]

    def test_mean_m_nondecreasing_in_ratio(self):
        report = run_campaign(
            small_campaign(
                k=40,
                ratios=[2.0, 4.0, 6.0],
                topologies=10,
                algorithms=("spiral", "strip", "kmeans", "random"),
                trials=TrialConfig(trials=5),
            )
        )
        for algorithm in report.algorithms:
            means = [report.mean_m(algorithm, x) for x in report.ratios]
            assert all(a <= b for a, b in zip(means, means[1:]))

    def test_oracle_budget_becomes_marked_cell(self):
        report = run_campaign(
            small_campaign(
                k=40, algorithms=("oracle",), ratios=[10.0], trials=TrialConfig(node_limit=1)
            )
        )
        assert len(report.rows) == 3
        assert all(r.m is None for r in report.rows)
        assert report.mean_m("oracle", 10.0) is None
        table = aggregate_csv(report)
        assert ",oracle,mean_M,-" in table

    def test_runtime_timed_around_the_solve_only(self, monkeypatch):
        # The solver reports a runtime of zero but takes 50 ms; verification
        # takes 200 ms.  The row must carry the solve's outside time alone.
        real_solve, real_verify = bench.solve_spiral, bench.solution_violations

        def slow_solve(inst, seed=0):
            time.sleep(0.05)
            return dataclasses.replace(real_solve(inst, seed=seed), runtime=0.0)

        def slow_verify(inst, sol):
            time.sleep(0.2)
            return real_verify(inst, sol)

        monkeypatch.setattr(bench, "solve_spiral", slow_solve)
        monkeypatch.setattr(bench, "solution_violations", slow_verify)
        report = run_campaign(small_campaign(topologies=1, ratios=[2.0], algorithms=("spiral",)))
        (row,) = report.rows
        assert 50.0 <= row.runtime_ms < 200.0

    def test_oracle_included_when_budget_allows(self):
        report = run_campaign(
            small_campaign(algorithms=("spiral", "oracle"), ratios=[2.0], topologies=2)
        )
        for ratio in report.ratios:
            assert report.mean_m("oracle", ratio) <= report.mean_m("spiral", ratio)


class TestCampaignArguments:
    @pytest.mark.parametrize(
        "side,ratio",
        [
            (1.0, 0.0),
            (1.0, -2.0),
            (1.0, float("nan")),
            (1.0, float("inf")),
            (1.0, 1e-320),  # side / ratio overflows to inf
            (1e300, 1e-10),  # likewise
            (1e-300, 1e300),  # side / ratio underflows to 0
        ],
    )
    def test_rejects_a_ratio_without_a_valid_radius(self, side, ratio):
        with pytest.raises(ValueError, match="side / ratio"):
            small_campaign(side=side, ratios=[2.0, ratio])

    @pytest.mark.parametrize(
        "overrides",
        [{"ratios": [2.0, 3.0, 2.0]}, {"algorithms": ("spiral", "strip", "spiral")}],
        ids=["ratios", "algorithms"],
    )
    def test_rejects_a_repeated_entry(self, overrides):
        with pytest.raises(ValueError, match="must not repeat"):
            small_campaign(**overrides)

    def test_accepts_extreme_ratios_with_a_valid_radius(self):
        for side, ratio in [(1.0, 1e-300), (1e-300, 1e-8), (1.0, 1e300)]:
            assert math.isfinite(side / ratio) and side / ratio > 0
            assert small_campaign(side=side, ratios=[ratio]).ratios == [ratio]


class TestTracerHooks:
    def test_tracer_sees_every_solver(self, monkeypatch):
        # The benchmark's tracer wraps solver names in diskcover.bench and
        # the kernels' names in the modules that call them.  A solver table
        # that held the functions themselves, or a kernel reached other than
        # through those module attributes, would bypass the wrappers and
        # leave the per-layer metrics at zero.
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import tracer

        assert tracer.patched_attributes() == []
        t = tracer.Tracer()
        t.install()
        try:
            run_campaign(small_campaign(topologies=1, ratios=[3.0], algorithms=ALGORITHMS))
        finally:
            t.restore()
        assert tracer.patched_attributes() == []
        recorded = {span[0] for span in t.spans}
        assert {
            "spiral.solve_spiral",
            "baselines.solve_strip",
            "baselines.solve_kmeans",
            "baselines.solve_random",
            "exact.min_cover",
            "geometry.one_center",
            "geometry.convex_hull",
            "spiral.local_cover",
        } <= recorded


class TestReportFormats:
    def test_raw_csv_header_and_shape(self):
        report = run_campaign(small_campaign())
        text = raw_csv(report)
        lines = text.strip().split("\n")
        assert lines[0] == RAW_CSV_HEADER == "algorithm,k,ratio,topology_seed,M,runtime_ms"
        assert len(lines) == 1 + len(report.rows)
        first = lines[1].split(",")
        assert first[0] in ("spiral", "strip")
        assert int(first[1]) == 12

    def test_aggregate_csv_shape(self):
        report = run_campaign(small_campaign())
        lines = aggregate_csv(report).strip().split("\n")
        assert lines[0] == "k,algorithm,metric,2,3"
        assert len(lines) == 1 + 2 * len(report.algorithms)

    def test_json_fields_match(self):
        report = run_campaign(small_campaign())
        doc = json.loads(report_json(report))
        assert doc["k"] == 12
        assert doc["generator"] == "pcg64"
        assert len(doc["rows"]) == len(report.rows)
        assert {"algorithm", "k", "ratio", "topology_seed", "M", "runtime_ms"} == set(
            doc["rows"][0]
        )
        agg = {(a["algorithm"], a["ratio"]): a["mean_M"] for a in doc["aggregate"]}
        for algorithm in report.algorithms:
            for ratio in report.ratios:
                assert agg[(algorithm, ratio)] == report.mean_m(algorithm, ratio)


class TestScaleInvariance:
    """Disk counts do not change when an instance is uniformly scaled."""

    CFGS = {"random": TrialConfig(trials=20), "kmeans": TrialConfig(trials=5)}
    # Three radii apart: no disk covers both.
    PAIR = Instance(points=[(0.0, 0.0), (3e-12, 0.0)], radius=1e-12)

    def changed_counts(self, scale, names):
        """(seed, solver, unscaled M, scaled M) wherever scaling the corpus
        by ``scale`` changes a count; every scaled output must verify."""
        changed = []
        for seed in range(500, 510):
            inst = generate_topology(30, 4.0, seed, radius=1.0)
            scaled = Instance(points=[(x * scale, y * scale) for x, y in inst.points], radius=scale)
            for name in names:
                cfg = self.CFGS.get(name, TrialConfig())
                want = bench.SOLVERS[name](inst, seed, cfg).m
                got = bench.SOLVERS[name](scaled, seed, cfg)
                assert not solution_violations(scaled, got)
                if got.m != want:
                    changed.append((seed, name, want, got.m))
        return changed

    @pytest.mark.parametrize("scale", [1e-12, 2.0**-40, 1e-9, 1e-6, 1e6])
    def test_counts_equal_the_unscaled_counts(self, scale):
        assert self.changed_counts(scale, ALGORITHMS) == []

    # The spiral, strip and k-means enclose points with one_center, whose
    # disk is wrong at these scales (test_geometry pins it).
    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e160, 1e300])
    def test_oracle_and_random_counts_hold_at_the_float_extremes(self, scale):
        assert self.changed_counts(scale, ("oracle", "random")) == []

    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_points_three_radii_apart_take_two_disks(self, name):
        sol = bench.SOLVERS[name](self.PAIR, 0, TrialConfig(trials=5))
        assert sol.m == 2
        assert not solution_violations(self.PAIR, sol)

    def test_one_disk_over_points_three_radii_apart_is_rejected(self):
        one = Solution(algorithm="spiral", seed=0, centers=[(1.5e-12, 0.0)], newly_covered=[[0, 1]])
        assert solution_violations(self.PAIR, one)
