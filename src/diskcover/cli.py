"""Command-line front end: instance generation, solving, benchmarks, SVG."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from .baselines import TrialConfig
from .bench import (
    ALGORITHMS,
    SOLVERS,
    Campaign,
    aggregate_csv,
    generate_topology,
    raw_csv,
    report_json,
    run_campaign,
)
from .exact import BudgetExceededError
from .files import SchemaError, emit_instance, emit_solution, parse_instance
from .problem import solution_violations
from .svg import render_svg

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_BUDGET = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _seed(text: str) -> int:
    """A PCG64 seed: a non-negative integer."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0: {seed}")
    return seed


def build_parser() -> _Parser:
    parser = _Parser(prog="diskcover", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("gen", help="write a random instance file")
    gen.add_argument("--k", type=int, required=True, help="number of points")
    gen.add_argument("--side", type=float, required=True, help="square side length (km)")
    gen.add_argument("--radius", type=float, required=True, help="coverage radius (km)")
    gen.add_argument("--seed", type=_seed, required=True, help="topology seed")
    gen.add_argument("--output", required=True, help="instance file to write")

    solve = sub.add_parser("solve", help="solve an instance file")
    solve.add_argument("--algo", required=True, choices=ALGORITHMS)
    solve.add_argument("--input", required=True, help="instance file to read")
    solve.add_argument("--radius", type=float, default=None, help="override the file radius (km)")
    solve.add_argument("--seed", type=_seed, default=0)
    solve.add_argument("--trials", type=int, default=None, help="kmeans/random restarts")
    solve.add_argument("--node-limit", type=int, default=None, help="oracle search node budget")
    solve.add_argument("--output", default=None, help="solution file (default: stdout)")
    solve.add_argument("--svg", default=None, help="also render the placement to this file")

    bench = sub.add_parser("bench", help="run a benchmark campaign; prints the aggregate table")
    bench.add_argument("--k", type=int, required=True)
    bench.add_argument("--ratios", required=True, help="comma-separated D/r values, e.g. 2,4,6")
    bench.add_argument("--topologies", type=int, default=5)
    bench.add_argument(
        "--algos", required=True, help=f"comma-separated subset of {','.join(ALGORITHMS)}"
    )
    bench.add_argument("--seed", type=_seed, default=0)
    bench.add_argument("--trials", type=int, default=100)
    bench.add_argument("--side", type=float, default=1.0, help="square side length (km)")
    bench.add_argument("--report", choices=("csv", "json"), default="csv")
    bench.add_argument("--output", required=True, help="directory for report files")
    return parser


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise SchemaError(f"cannot read {path}: {e}") from e


def _cmd_gen(args: argparse.Namespace) -> int:
    try:
        inst = generate_topology(args.k, args.side, args.seed, radius=args.radius)
    except ValueError as e:
        raise UsageError(str(e)) from e
    Path(args.output).write_text(emit_instance(inst))
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    if args.trials is not None and args.algo not in ("kmeans", "random"):
        raise UsageError("--trials only applies to kmeans and random")
    if args.node_limit is not None and args.algo != "oracle":
        raise UsageError("--node-limit only applies to oracle")

    inst = parse_instance(_read_text(args.input))
    try:
        if args.radius is not None:
            inst = inst.with_radius(args.radius)
        cfg = TrialConfig()
        if args.trials is not None:
            cfg = replace(cfg, trials=args.trials)
        if args.node_limit is not None:
            cfg = replace(cfg, node_limit=args.node_limit)
    except ValueError as e:
        raise UsageError(str(e)) from e
    sol = SOLVERS[args.algo](inst, args.seed, cfg)

    problems = solution_violations(inst, sol)
    if problems:
        print(f"error: solver produced an infeasible solution: {problems}", file=sys.stderr)
        return EXIT_IO
    text = emit_solution(sol, feasible=True)
    if args.output is None:
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text)
    if args.svg is not None:
        Path(args.svg).write_text(render_svg(inst, sol))
    return EXIT_OK


def _parse_list(raw: str, what: str) -> list[str]:
    items = [s.strip() for s in raw.split(",") if s.strip()]
    if not items:
        raise UsageError(f"--{what} must list at least one value")
    return items


def _cmd_bench(args: argparse.Namespace) -> int:
    try:
        ratios = [float(s) for s in _parse_list(args.ratios, "ratios")]
    except ValueError as e:
        raise UsageError(f"bad --ratios: {e}") from e
    algos = _parse_list(args.algos, "algos")
    try:
        campaign = Campaign(
            k=args.k,
            side=args.side,
            ratios=ratios,
            topologies=args.topologies,
            base_seed=args.seed,
            algorithms=algos,
            trials=TrialConfig(trials=args.trials),
        )
    except ValueError as e:
        raise UsageError(str(e)) from e
    report = run_campaign(campaign)
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    if args.report == "csv":
        (out / "raw.csv").write_text(raw_csv(report))
        (out / "aggregate.csv").write_text(aggregate_csv(report))
    else:
        (out / "report.json").write_text(report_json(report))
    sys.stdout.write(aggregate_csv(report))
    return EXIT_OK


def main(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "bench":
            return _cmd_bench(args)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except SchemaError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except BudgetExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET


def run() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    run()
