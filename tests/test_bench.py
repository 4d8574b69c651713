import dataclasses
import json
import math
import time

import numpy as np
import pytest

from diskcover import Campaign, LinkBudget, TrialConfig, coverage_radius, generate_topology
from diskcover import bench
from diskcover.bench import (
    RAW_CSV_HEADER,
    aggregate_csv,
    raw_csv,
    report_json,
    run_campaign,
)


class TestGenerateTopology:
    def test_points_inside_square(self):
        inst = generate_topology(1, 5.0, seed=0)
        (x, y) = inst.points[0]
        assert 0.0 <= x <= 5.0 and 0.0 <= y <= 5.0
        assert inst.radius is None
        assert inst.region_side == 5.0

    def test_deterministic(self):
        a = generate_topology(50, 2.0, seed=123)
        b = generate_topology(50, 2.0, seed=123)
        assert a.points == b.points

    def test_seeds_differ(self):
        a = generate_topology(50, 2.0, seed=123)
        b = generate_topology(50, 2.0, seed=124)
        assert a.points != b.points

    def test_uniform_mean(self):
        inst = generate_topology(10_000, 1.0, seed=42)
        xs = [p[0] for p in inst.points]
        ys = [p[1] for p in inst.points]
        assert abs(sum(xs) / len(xs) - 0.5) <= 0.02
        assert abs(sum(ys) / len(ys) - 0.5) <= 0.02

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            generate_topology(0, 1.0, seed=0)
        with pytest.raises(ValueError):
            generate_topology(5, -1.0, seed=0)


class TestCoverageRadius:
    def test_pythagorean_projection(self):
        # Max slant range 2 at altitude 1 projects to sqrt(3) on the ground.
        lb = LinkBudget(altitude=1.0, transmit_power_over_noise=4.0, reference_gain=1.0, snr_min=1.0)
        assert coverage_radius(lb) == pytest.approx(math.sqrt(3.0), abs=1e-12)

    def test_boundary_gives_zero(self):
        lb = LinkBudget(altitude=2.0, transmit_power_over_noise=4.0, reference_gain=1.0, snr_min=1.0)
        assert coverage_radius(lb) == 0.0

    def test_infeasible_budget_raises(self):
        lb = LinkBudget(altitude=3.0, transmit_power_over_noise=4.0, reference_gain=1.0, snr_min=1.0)
        with pytest.raises(ValueError):
            coverage_radius(lb)

    def test_rejects_nonpositive_fields(self):
        with pytest.raises(ValueError):
            LinkBudget(altitude=0.0, transmit_power_over_noise=1.0, reference_gain=1.0, snr_min=1.0)


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
                k=25, algorithms=("oracle",), ratios=[5.0], oracle_node_limit=1
            )
        )
        assert all(r.m is None for r in report.rows)
        assert report.mean_m("oracle", 5.0) is None
        table = aggregate_csv(report)
        assert ",oracle,mean_M,-" in table

    def test_progress_reported_for_budget_cells(self):
        lines: list[str] = []
        report = run_campaign(
            small_campaign(
                k=25, algorithms=("oracle",), ratios=[5.0], oracle_node_limit=1
            ),
            progress=lines.append,
        )
        assert len(lines) == len(report.rows) == 3
        assert all(line.endswith("oracle: M=unproven") for line in lines)

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
