"""Seeded topologies, the solver table, and the benchmark campaign harness."""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .baselines import TrialConfig, solve_kmeans, solve_random, solve_strip
from .exact import BudgetExceededError, min_cover
from .problem import Instance, Solution, solution_violations
from .spiral import solve_spiral

# The package's seeded draws all come from this generator family (one_center's
# fixed shuffle alone uses random.Random(0x5EED5)); the name is recorded in
# every report so instances can be regenerated elsewhere.
GENERATOR_NAME = "pcg64"

# Every solver behind one signature, (instance, seed, config) -> Solution.
# Entries look their solver up in this module when called, so a solver
# replaced here (to trace or to test it) is the one that runs.
SOLVERS: dict[str, Callable[[Instance, int, TrialConfig], Solution]] = {
    "spiral": lambda inst, seed, cfg: solve_spiral(inst, seed),
    "strip": lambda inst, seed, cfg: solve_strip(inst, seed),
    "kmeans": lambda inst, seed, cfg: solve_kmeans(inst, seed, cfg),
    "random": lambda inst, seed, cfg: solve_random(inst, seed, cfg),
    "oracle": lambda inst, seed, cfg: min_cover(inst, node_limit=cfg.node_limit),
}

ALGORITHMS = tuple(SOLVERS)

RAW_CSV_HEADER = "algorithm,k,ratio,topology_seed,M,runtime_ms"


def generate_topology(k: int, side: float, seed: int, radius: float) -> Instance:
    """k points drawn i.i.d. uniform on [0, side]^2 from PCG64(seed).

    Draw order is row-major: point i consumes draws 2i (x) and 2i+1 (y), so
    the stream is reproducible from the seed alone on any platform.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not (math.isfinite(side) and side > 0):
        raise ValueError("side must be finite and positive")
    rng = np.random.Generator(np.random.PCG64(seed))
    return Instance(points=rng.random((k, 2)) * side, radius=radius, region_side=side)


@dataclass
class Campaign:
    """One benchmark sweep: K points in a side-D square, across D/r ratios."""

    k: int
    side: float
    ratios: Sequence[float]
    topologies: int = 5
    base_seed: int = 0
    algorithms: Sequence[str] = ("spiral", "strip", "kmeans", "random")
    trials: TrialConfig = field(default_factory=TrialConfig)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not (math.isfinite(self.side) and self.side > 0):
            raise ValueError("side must be finite and positive")
        # Each ratio sets the radius side / ratio, which must be a valid
        # Instance radius too: a tiny ratio overflows it to inf, a huge one
        # underflows it to 0.
        if not self.ratios or not all(
            math.isfinite(x) and x > 0 and math.isfinite(self.side / x) and self.side / x > 0
            for x in self.ratios
        ):
            raise ValueError(
                "ratios must be finite and positive, with side / ratio finite and positive"
            )
        if self.topologies < 1:
            raise ValueError("topologies must be >= 1")
        unknown = set(self.algorithms) - set(ALGORITHMS)
        if unknown:
            raise ValueError(f"unknown algorithms: {sorted(unknown)}")
        for name, values in (("ratios", self.ratios), ("algorithms", self.algorithms)):
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must not repeat an entry, got {list(values)}")


@dataclass
class BenchRow:
    algorithm: str
    k: int
    ratio: float
    topology_seed: int
    m: Optional[int]  # None marks an oracle cell whose budget ran out
    runtime_ms: float  # the solve alone, timed by the campaign


@dataclass
class BenchReport:
    k: int
    ratios: list[float]
    algorithms: list[str]
    rows: list[BenchRow]

    def cell_rows(self, algorithm: str, ratio: float) -> list[BenchRow]:
        return [r for r in self.rows if r.algorithm == algorithm and r.ratio == ratio]

    def mean_m(self, algorithm: str, ratio: float) -> Optional[float]:
        rows = self.cell_rows(algorithm, ratio)
        if not rows or any(r.m is None for r in rows):
            return None
        return sum(r.m for r in rows) / len(rows)  # type: ignore[misc]

    def mean_runtime_ms(self, algorithm: str, ratio: float) -> float:
        rows = self.cell_rows(algorithm, ratio)
        return sum(r.runtime_ms for r in rows) / len(rows)


def run_campaign(c: Campaign) -> BenchReport:
    """Execute the sweep: every ratio x topology x algorithm cell.

    Each topology uses seed ``base_seed + index``; stochastic baselines derive
    their trial seeds from the topology seed.  Every solution is re-verified
    before its disk count is recorded.  Oracle cells whose node budget runs
    out are kept as unavailable markers rather than failing the campaign.
    Every cell's runtime is timed here, around the solve only: verification
    is excluded, and budget-exhausted cells are timed the same way.
    """
    rows: list[BenchRow] = []
    for ratio in c.ratios:
        r = c.side / ratio
        for t in range(c.topologies):
            seed = c.base_seed + t
            inst = generate_topology(c.k, c.side, seed, radius=r)
            for algorithm in c.algorithms:
                start = time.perf_counter()
                try:
                    sol: Optional[Solution] = SOLVERS[algorithm](inst, seed, c.trials)
                except BudgetExceededError:
                    sol = None
                runtime_ms = (time.perf_counter() - start) * 1000.0
                m: Optional[int] = None
                if sol is not None:
                    problems = solution_violations(inst, sol)
                    if problems:
                        raise RuntimeError(
                            f"{algorithm} returned an infeasible solution on seed {seed}: {problems}"
                        )
                    m = sol.m
                rows.append(
                    BenchRow(
                        algorithm=algorithm,
                        k=c.k,
                        ratio=ratio,
                        topology_seed=seed,
                        m=m,
                        runtime_ms=runtime_ms,
                    )
                )
    return BenchReport(
        k=c.k, ratios=list(c.ratios), algorithms=list(c.algorithms), rows=rows
    )


def _num(x: float) -> str:
    return f"{x:.6g}"


def raw_csv(report: BenchReport) -> str:
    lines = [RAW_CSV_HEADER]
    for r in report.rows:
        m = "-" if r.m is None else str(r.m)
        lines.append(
            f"{r.algorithm},{r.k},{_num(r.ratio)},{r.topology_seed},{m},{r.runtime_ms:.3f}"
        )
    return "\n".join(lines) + "\n"


def aggregate_csv(report: BenchReport) -> str:
    """Algorithm x ratio table: one mean-M row and one mean-runtime row each."""
    header = "k,algorithm,metric," + ",".join(_num(x) for x in report.ratios)
    lines = [header]
    for algorithm in report.algorithms:
        cells = []
        for ratio in report.ratios:
            m = report.mean_m(algorithm, ratio)
            cells.append("-" if m is None else _num(m))
        lines.append(f"{report.k},{algorithm},mean_M," + ",".join(cells))
        times = [_num(report.mean_runtime_ms(algorithm, ratio)) for ratio in report.ratios]
        lines.append(f"{report.k},{algorithm},mean_runtime_ms," + ",".join(times))
    return "\n".join(lines) + "\n"


def report_json(report: BenchReport) -> str:
    doc = {
        "k": report.k,
        "generator": GENERATOR_NAME,
        "ratios": report.ratios,
        "algorithms": report.algorithms,
        "rows": [
            {
                "algorithm": r.algorithm,
                "k": r.k,
                "ratio": r.ratio,
                "topology_seed": r.topology_seed,
                "M": r.m,
                "runtime_ms": r.runtime_ms,
            }
            for r in report.rows
        ],
        "aggregate": [
            {
                "algorithm": algorithm,
                "ratio": ratio,
                "mean_M": report.mean_m(algorithm, ratio),
                "mean_runtime_ms": report.mean_runtime_ms(algorithm, ratio),
            }
            for algorithm in report.algorithms
            for ratio in report.ratios
        ],
    }
    return json.dumps(doc, indent=2) + "\n"
