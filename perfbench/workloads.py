"""The benchmark's workloads: inputs built from a seed, and checked runs of them.

Each workload builds its job list from the seed as ``units`` units, one
cell each: a topology at one ratio (or, on ``deploy-large``, one shape), the
topologies drawn from PCG64(``seed``), PCG64(``seed + 1``), ... in turn, so
unit ``i`` is cell ``i % cells`` of topology ``seed + i // cells``.  One pass
runs every unit once.  Units are kept short (0.05 to 1.7 s) so that a run
can time each of them several times.  Running a unit returns one :class:`Job` per output the package
produced, each re-verified here with ``problem.solution_violations`` against
an instance the benchmark built itself.  Every call into the package
goes through ``call(span_name, fn, *args)`` so that a traced run can record
it as a span; untraced, ``call`` just calls.

Why these workloads (see README.md for the numbers behind them):

* ``table-k80`` is the paper's comparison table through ``bench.run_campaign``.
  Nearly all its time is k-means, so it is the control for spiral and hull
  changes.
* ``deploy-large`` is the file-to-picture path at K=2000..5000, where the
  convex hull, ``local_cover`` and the spiral's own scan dominate and no
  k-means or oracle code runs.
* ``oracle-k80`` proves optima with ``exact.min_cover``: candidate generation
  dominates at D/r=2, branch-and-bound search at D/r=10.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from diskcover import bench, files, svg
from diskcover.baselines import TrialConfig
from diskcover.bench import Campaign, generate_topology, run_campaign
from diskcover.exact import BudgetExceededError, min_cover
from diskcover.problem import Instance, Solution, solution_violations
from diskcover.spiral import solve_spiral

# Restarts per stochastic baseline solve, as in the paper's table.
TRIALS = 100
# Search nodes one oracle proof may expand.  Proof cost at K=80 is
# heavy-tailed: of 59 topologies at D/r=10, 17 proved within 2.5*10**4 nodes,
# 26 within 5*10**4 and 47 within 2*10**5, and about one in twelve needs over
# 10**6 (over 10 s each on a 2-core x86 VM); at D/r=6, 49 of 60 proved within
# 2.5*10**4.  Under a larger cap the instance draw, not the code, sets a
# pass's time.  A proof that runs out is recorded as unproven: `min_cover`
# raising BudgetExceededError is its specified outcome, not a wrong answer,
# and it counts against `ok_frac`.
ORACLE_NODE_LIMIT = 20_000

Call = Callable[..., object]


@dataclass
class Job:
    """One output of a unit: its key, disk count and verdict.

    ``status`` is ``ok`` (verified), ``unproven`` (the oracle ran out of
    nodes; no output to check) or ``failed`` (raised, or an output failed a
    check; ``detail`` says why).
    """

    key: str
    m: Optional[int]
    status: str
    detail: str = ""


def _checked(call: Call, key: str, inst: Instance, sol: Solution) -> Job:
    problems = call("problem.solution_violations", solution_violations, inst, sol)
    if problems:
        return Job(key, sol.m, "failed", "; ".join(problems[:3]))
    return Job(key, sol.m, "ok")


# --- table-k80 -------------------------------------------------------------

TABLE_RATIOS = (2.0, 6.0, 10.0)
TABLE_ALGORITHMS = ("spiral", "strip", "kmeans", "random")


@dataclass
class TableUnit:
    campaign: Campaign  # one topology at one ratio, every algorithm
    reference: Instance  # built here to verify against


def build_table(seed: int, call: Call, n: int) -> list[TableUnit]:
    units = []
    for i in range(n):
        t, ratio = seed + i // len(TABLE_RATIOS), TABLE_RATIOS[i % len(TABLE_RATIOS)]
        campaign = Campaign(
            k=80,
            side=1.0,
            ratios=(ratio,),
            topologies=1,
            base_seed=t,
            algorithms=TABLE_ALGORITHMS,
            trials=TrialConfig(trials=TRIALS),
        )
        reference = call("bench.generate_topology", generate_topology, 80, 1.0, t, radius=1.0 / ratio)
        units.append(TableUnit(campaign, reference))
    return units


def run_table(unit: TableUnit, call: Call) -> list[Job]:
    """One table cell (topology and ratio) through run_campaign, every algorithm.

    run_campaign returns only disk counts, so the solutions are taken from
    its own call to ``solution_violations`` and verified again here.
    """
    seed = unit.campaign.base_seed
    (ratio,) = unit.campaign.ratios
    keys = [f"r={ratio:g}/t={seed}/{a}" for a in TABLE_ALGORITHMS]
    captured: list[Solution] = []
    verify = bench.solution_violations

    def capture(inst, sol):
        captured.append(sol)
        return verify(inst, sol)

    bench.solution_violations = capture
    try:
        report = call("bench.run_campaign", run_campaign, unit.campaign)
    except Exception as e:  # a job that raises is a failed job, not a crash
        return [Job(key, None, "failed", f"{type(e).__name__}: {e}") for key in keys]
    finally:
        bench.solution_violations = verify

    if len(report.rows) != len(keys) or len(captured) != len(keys):
        detail = f"{len(report.rows)} rows and {len(captured)} solutions for {len(keys)} cells"
        return [Job(key, None, "failed", detail) for key in keys]
    jobs = []
    for key, algorithm, row, sol in zip(keys, TABLE_ALGORITHMS, report.rows, captured):
        try:
            job = _checked(call, key, unit.reference, sol)
        except Exception as e:
            job = Job(key, None, "failed", f"{type(e).__name__}: {e}")
        if job.status == "ok" and (row.m, row.algorithm, row.ratio) != (sol.m, algorithm, ratio):
            job = Job(key, row.m, "failed", f"row {row.algorithm} M={row.m}, solution M={sol.m}")
        jobs.append(job)
    return jobs


# --- deploy-large ----------------------------------------------------------

# (K, D/r): dense, about 150 disks of 33 points; sparse, about 470 of 4.
DEPLOY_SHAPES = ((5000, 20.0), (2000, 50.0))


@dataclass
class DeployUnit:
    seed: int
    k: int
    ratio: float
    text: str  # the instance document


def build_deploy(seed: int, call: Call, n: int) -> list[DeployUnit]:
    units = []
    for i in range(n):
        t, (k, ratio) = seed + i // len(DEPLOY_SHAPES), DEPLOY_SHAPES[i % len(DEPLOY_SHAPES)]
        inst = call("bench.generate_topology", generate_topology, k, 1.0, t, radius=1.0 / ratio)
        units.append(DeployUnit(t, k, ratio, call("files.emit_instance", files.emit_instance, inst)))
    return units


def run_deploy(unit: DeployUnit, call: Call) -> list[Job]:
    """Instance file -> spiral -> verification -> solution file -> SVG."""
    key = f"k={unit.k}/r={unit.ratio:g}/t={unit.seed}/spiral"
    try:
        inst = call("files.parse_instance", files.parse_instance, unit.text)
        sol = call("spiral.solve_spiral", solve_spiral, inst, unit.seed, deterministic_start=True)
        job = _checked(call, key, inst, sol)
        doc = call("files.emit_solution", files.emit_solution, sol, job.status == "ok")
        picture = call("svg.render_svg", svg.render_svg, inst, sol)
        back, feasible = call("files.parse_solution", files.parse_solution, doc)
    except Exception as e:
        return [Job(key, None, "failed", f"{type(e).__name__}: {e}")]
    if job.status == "ok":
        if inst.k != unit.k or back.m != sol.m or not feasible:
            job = Job(key, sol.m, "failed", "solution file does not round-trip")
        elif picture.count("<circle") != sol.m:
            job = Job(key, sol.m, "failed", "SVG does not draw one circle per disk")
    return [job]


# --- oracle-k80 ------------------------------------------------------------

ORACLE_RATIOS = (2.0, 6.0, 10.0)


@dataclass
class OracleUnit:
    seed: int
    ratio: float
    instance: Instance


def build_oracle(seed: int, call: Call, n: int) -> list[OracleUnit]:
    units = []
    for i in range(n):
        t, ratio = seed + i // len(ORACLE_RATIOS), ORACLE_RATIOS[i % len(ORACLE_RATIOS)]
        inst = call("bench.generate_topology", generate_topology, 80, 1.0, t, radius=1.0 / ratio)
        units.append(OracleUnit(t, ratio, inst))
    return units


def run_oracle(unit: OracleUnit, call: Call) -> list[Job]:
    """Exact optimum and spiral on one instance; spiral may never beat the optimum."""
    key = f"r={unit.ratio:g}/t={unit.seed}"
    inst = unit.instance
    try:
        exact = call("exact.min_cover", min_cover, inst, node_limit=ORACLE_NODE_LIMIT)
        oracle = _checked(call, f"{key}/oracle", inst, exact)
    except BudgetExceededError:
        oracle = Job(f"{key}/oracle", None, "unproven")
    except Exception as e:
        oracle = Job(f"{key}/oracle", None, "failed", f"{type(e).__name__}: {e}")
    try:
        sol = call("spiral.solve_spiral", solve_spiral, inst, unit.seed, deterministic_start=True)
        spiral = _checked(call, f"{key}/spiral", inst, sol)
    except Exception as e:
        spiral = Job(f"{key}/spiral", None, "failed", f"{type(e).__name__}: {e}")
    if oracle.status == "ok" and spiral.status == "ok" and spiral.m < oracle.m:
        spiral = Job(spiral.key, spiral.m, "failed", f"below the proven optimum {oracle.m}")
    return [oracle, spiral]


def disks_total(jobs: list[Job]) -> int:
    """Sum of M over the verified heuristic covers.

    Proven optima are left out: they cannot improve, and whether a proof
    finishes within the node limit depends on the instance.
    """
    return sum(j.m for j in jobs if j.status == "ok" and not j.key.endswith("/oracle"))


def opt_gap(jobs: list[Job]) -> int:
    """Sum of spiral M minus the proven optimum over the proved instances."""
    by_key = {j.key: j for j in jobs}
    gap = 0
    for j in jobs:
        if j.key.endswith("/oracle") and j.status == "ok":
            spiral = by_key[j.key[: -len("oracle")] + "spiral"]
            if spiral.status == "ok":
                gap += spiral.m - j.m
    return gap


@dataclass(frozen=True)
class Workload:
    name: str
    base_seed: int  # the frozen experiment seed the repository's tests use
    units: int  # one pass over them takes 5 to 10 s on a 2-core x86 VM
    build: Callable[[int, Call, int], list]
    run: Callable[[object, Call], list[Job]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("table-k80", 10408, 2 * len(TABLE_RATIOS), build_table, run_table),
        Workload("deploy-large", 6000, 2 * len(DEPLOY_SHAPES), build_deploy, run_deploy),
        Workload("oracle-k80", 20000, 8 * len(ORACLE_RATIOS), build_oracle, run_oracle),
    )
}
