import json
import subprocess
import sys

import pytest

from diskcover.baselines import TrialConfig
from diskcover.bench import ALGORITHMS, SOLVERS, Campaign, generate_topology, run_campaign
from diskcover.cli import EXIT_BUDGET, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from diskcover.files import emit_instance, emit_solution, parse_instance, parse_solution
from diskcover.problem import Instance, solution_violations


def gen(tmp_path, name="inst.json", k=6, side=2.0, radius=1.0, seed=4):
    path = tmp_path / name
    code = main(
        [
            "gen",
            "--k", str(k),
            "--side", str(side),
            "--radius", str(radius),
            "--seed", str(seed),
            "--output", str(path),
        ]
    )
    assert code == EXIT_OK
    return path


class TestGen:
    def test_writes_valid_instance(self, tmp_path):
        path = gen(tmp_path, k=3)
        inst = parse_instance(path.read_text())
        assert inst.k == 3
        assert inst.radius == 1.0
        assert all(0.0 <= x <= 2.0 and 0.0 <= y <= 2.0 for x, y in inst.points)

    def test_byte_identical_across_runs(self, tmp_path):
        a = gen(tmp_path, name="a.json", seed=9)
        b = gen(tmp_path, name="b.json", seed=9)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_numerics_usage_error(self, tmp_path):
        code = main(
            ["gen", "--k", "0", "--side", "1", "--radius", "1", "--seed", "0",
             "--output", str(tmp_path / "x.json")]
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "flag,value", [("--side", "inf"), ("--radius", "inf"), ("--seed", "-1")]
    )
    def test_out_of_range_usage_error(self, tmp_path, capsys, flag, value):
        argv = ["gen", "--k", "3", "--side", "1", "--radius", "1", "--seed", "0",
                "--output", str(tmp_path / "x.json")]
        argv[argv.index(flag) + 1] = value
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error:")


class TestSolve:
    def test_spiral_single_disk(self, tmp_path):
        inst_path = gen(tmp_path, k=3, side=0.5, radius=1.0)
        out = tmp_path / "sol.json"
        code = main(
            ["solve", "--algo", "spiral", "--input", str(inst_path), "--output", str(out)]
        )
        assert code == EXIT_OK
        sol, feasible = parse_solution(out.read_text())
        assert feasible is True
        assert sol.m == 1
        inst = parse_instance(inst_path.read_text())
        assert not solution_violations(inst, sol)

    def test_oracle_on_collinear_instance(self, tmp_path):
        inst_path = tmp_path / "line.json"
        inst_path.write_text(
            '{\n  "radius": 1,\n  "points": [[0, 0], [2, 0], [4, 0]]\n}\n'
        )
        out = tmp_path / "sol.json"
        code = main(
            ["solve", "--algo", "oracle", "--input", str(inst_path), "--output", str(out)]
        )
        assert code == EXIT_OK
        sol, _ = parse_solution(out.read_text())
        assert sol.m == 2

    def test_spiral_never_beats_oracle(self, tmp_path):
        inst_path = gen(tmp_path, k=20, side=4.0, radius=1.0, seed=11)
        spiral_out = tmp_path / "spiral.json"
        oracle_out = tmp_path / "oracle.json"
        assert main(["solve", "--algo", "spiral", "--input", str(inst_path),
                     "--output", str(spiral_out)]) == EXIT_OK
        assert main(["solve", "--algo", "oracle", "--input", str(inst_path),
                     "--output", str(oracle_out)]) == EXIT_OK
        spiral_sol, _ = parse_solution(spiral_out.read_text())
        oracle_sol, _ = parse_solution(oracle_out.read_text())
        assert spiral_sol.m >= oracle_sol.m

    def test_radius_flag_overrides_file(self, tmp_path):
        inst_path = tmp_path / "pair.json"
        inst_path.write_text('{\n  "radius": 0.1,\n  "points": [[0, 0], [1.5, 0]]\n}\n')
        out = tmp_path / "sol.json"
        assert main(["solve", "--algo", "oracle", "--input", str(inst_path),
                     "--radius", "2.0", "--output", str(out)]) == EXIT_OK
        sol, _ = parse_solution(out.read_text())
        assert sol.m == 1

    def test_svg_written(self, tmp_path):
        inst_path = gen(tmp_path, k=5, side=1.0, radius=0.6)
        svg_path = tmp_path / "view.svg"
        assert main(["solve", "--algo", "spiral", "--input", str(inst_path),
                     "--output", str(tmp_path / "s.json"), "--svg", str(svg_path)]) == EXIT_OK
        assert svg_path.read_text().startswith("<svg")

    def test_trials_with_spiral_usage_error(self, tmp_path):
        inst_path = gen(tmp_path)
        assert main(["solve", "--algo", "spiral", "--input", str(inst_path),
                     "--trials", "5"]) == EXIT_USAGE

    def test_node_limit_with_spiral_usage_error(self, tmp_path, capsys):
        inst_path = gen(tmp_path)
        assert main(["solve", "--algo", "spiral", "--input", str(inst_path),
                     "--node-limit", "5"]) == EXIT_USAGE
        assert "--node-limit" in capsys.readouterr().err

    def test_unknown_algo_usage_error(self, tmp_path):
        inst_path = gen(tmp_path)
        assert main(["solve", "--algo", "dance", "--input", str(inst_path)]) == EXIT_USAGE

    @pytest.mark.parametrize("limit", ["0", "-3"])
    def test_node_limit_below_one_usage_error(self, tmp_path, capsys, limit):
        inst_path = gen(tmp_path)
        assert main(["solve", "--algo", "oracle", "--input", str(inst_path),
                     "--node-limit", limit]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error:")

    @pytest.mark.parametrize(
        "extra",
        [
            ["--algo", "spiral", "--radius", "inf"],
            ["--algo", "spiral", "--seed", "-1"],
            ["--algo", "kmeans", "--trials", "0"],
        ],
    )
    def test_out_of_range_usage_error(self, tmp_path, capsys, extra):
        inst_path = gen(tmp_path)
        assert main(["solve", "--input", str(inst_path), *extra]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error:")

    def test_value_error_inside_a_solver_is_not_a_usage_error(self, tmp_path, monkeypatch):
        def fail(inst, seed, cfg):
            raise ValueError("solver bug")

        monkeypatch.setitem(SOLVERS, "spiral", fail)
        inst_path = gen(tmp_path)
        with pytest.raises(ValueError, match="solver bug"):
            main(["solve", "--algo", "spiral", "--input", str(inst_path)])

    def test_missing_file_io_error(self, tmp_path):
        assert main(["solve", "--algo", "spiral", "--input",
                     str(tmp_path / "absent.json")]) == EXIT_IO

    def test_malformed_json_io_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", "--algo", "spiral", "--input", str(bad)]) == EXIT_IO

    def test_undecodable_file_io_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe")
        assert main(["solve", "--algo", "spiral", "--input", str(bad)]) == EXIT_IO
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_key_io_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"radius": 1, "points": [[0, 0]], "name": "x"}')
        assert main(["solve", "--algo", "spiral", "--input", str(bad)]) == EXIT_IO

    def test_oracle_budget_exit_code(self, tmp_path):
        # The proof takes 2814 nodes.
        inst_path = gen(tmp_path, k=60, side=1.0, radius=0.1, seed=3)
        assert main(["solve", "--algo", "oracle", "--input", str(inst_path),
                     "--node-limit", "1"]) == EXIT_BUDGET

    def test_oracle_budget_reports_the_gap(self, tmp_path, capsys):
        # The greedy incumbent against the larger packing of every point.
        inst_path = gen(tmp_path, k=60, side=1.0, radius=0.1, seed=3)
        assert main(["solve", "--algo", "oracle", "--input", str(inst_path),
                     "--node-limit", "1"]) == EXIT_BUDGET
        err = capsys.readouterr().err
        assert err == "error: exceeded 1 search nodes (incumbent 22, lower bound 16)\n"

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_written_cover_reverifies_far_from_origin(self, tmp_path, algo):
        # An oracle center lies exactly r from two points: written with 12
        # significant digits at coordinates near 1e3, it no longer covers them.
        base = generate_topology(20, 3.0, 900, radius=0.6)
        far = Instance([(x + 1e3, y + 1e3) for x, y in base.points], radius=0.6)
        inst_path = tmp_path / "far.json"
        inst_path.write_text(emit_instance(far))
        out = tmp_path / "sol.json"
        argv = ["solve", "--algo", algo, "--input", str(inst_path), "--output", str(out)]
        if algo in ("kmeans", "random"):
            argv += ["--trials", "3"]
        assert main(argv) == EXIT_OK
        sol, feasible = parse_solution(out.read_text())
        assert feasible is True
        assert solution_violations(parse_instance(inst_path.read_text()), sol) == []


class TestSolveMatchesBench:
    """`solve` and `bench` run the same solver for the same instance and seed."""

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_same_solution_as_solver_table_and_campaign(self, tmp_path, algo, capsys):
        seed, ratio = 7, 4.0
        inst_path = gen(tmp_path, k=15, side=1.0, radius=1.0 / ratio, seed=seed)
        cfg = TrialConfig(trials=3)
        argv = ["solve", "--algo", algo, "--input", str(inst_path), "--seed", str(seed)]
        if algo in ("kmeans", "random"):
            argv += ["--trials", "3"]
        capsys.readouterr()
        assert main(argv) == EXIT_OK
        got, _ = parse_solution(capsys.readouterr().out)

        inst = parse_instance(inst_path.read_text())
        want, _ = parse_solution(emit_solution(SOLVERS[algo](inst, seed, cfg), feasible=True))
        assert got.m == want.m
        assert got.centers == want.centers
        assert got.newly_covered == want.newly_covered

        campaign = Campaign(
            k=15, side=1.0, ratios=[ratio], topologies=1, base_seed=seed,
            algorithms=[algo], trials=cfg,
        )
        (row,) = run_campaign(campaign).rows
        assert row.m == got.m


class TestBench:
    def test_csv_reports(self, tmp_path, capsys):
        out = tmp_path / "reports"
        code = main(
            ["bench", "--k", "10", "--ratios", "2,3", "--topologies", "2",
             "--algos", "spiral,strip", "--seed", "5", "--trials", "3",
             "--report", "csv", "--output", str(out)]
        )
        assert code == EXIT_OK
        raw = (out / "raw.csv").read_text().strip().split("\n")
        assert raw[0] == "algorithm,k,ratio,topology_seed,M,runtime_ms"
        assert len(raw) == 1 + 2 * 2 * 2
        agg = (out / "aggregate.csv").read_text()
        assert agg.split("\n")[0] == "k,algorithm,metric,2,3"
        assert capsys.readouterr().out == agg

    def test_json_report(self, tmp_path):
        out = tmp_path / "reports"
        code = main(
            ["bench", "--k", "8", "--ratios", "2", "--topologies", "2",
             "--algos", "spiral", "--seed", "3", "--report", "json",
             "--output", str(out)]
        )
        assert code == EXIT_OK
        doc = json.loads((out / "report.json").read_text())
        assert doc["generator"] == "pcg64"
        assert len(doc["rows"]) == 2

    def test_identical_m_columns_across_runs(self, tmp_path):
        outs = []
        for name in ("one", "two"):
            out = tmp_path / name
            assert main(
                ["bench", "--k", "10", "--ratios", "2,3", "--topologies", "2",
                 "--algos", "spiral,random", "--seed", "5", "--trials", "3",
                 "--report", "csv", "--output", str(out)]
            ) == EXIT_OK
            rows = (out / "raw.csv").read_text().strip().split("\n")[1:]
            outs.append([r.split(",")[:5] for r in rows])
        assert outs[0] == outs[1]

    def test_unknown_algo_usage_error(self, tmp_path):
        assert main(["bench", "--k", "5", "--ratios", "2", "--algos", "waltz",
                     "--output", str(tmp_path / "x")]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "extra",
        [
            ["--ratios", "2,inf"],
            ["--ratios", "nan"],
            ["--ratios", "2", "--seed", "-1"],
            ["--ratios", "1e-320"],  # side / ratio overflows to an infinite radius
            ["--ratios", "2,3,2"],
            ["--ratios", "2,2.0"],
            ["--ratios", "2", "--algos", "spiral,strip,spiral"],
        ],
    )
    def test_out_of_range_usage_error(self, tmp_path, capsys, extra):
        argv = ["bench", "--k", "5", "--algos", "spiral", "--output", str(tmp_path / "x")]
        assert main(argv + extra) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error:")


class TestEntryPoint:
    def test_console_script_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "diskcover.cli"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_USAGE

    def test_module_gen_solve_pipeline(self, tmp_path):
        inst = tmp_path / "i.json"
        proc = subprocess.run(
            [sys.executable, "-m", "diskcover.cli", "gen", "--k", "4", "--side", "1",
             "--radius", "0.8", "--seed", "2", "--output", str(inst)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_OK
        proc = subprocess.run(
            [sys.executable, "-m", "diskcover.cli", "solve", "--algo", "random",
             "--input", str(inst), "--trials", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_OK
        sol, feasible = parse_solution(proc.stdout)
        assert feasible is True
