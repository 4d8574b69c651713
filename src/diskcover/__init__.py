"""Minimum-cardinality disk cover: heuristics, exact oracle, and benchmarks."""

from .baselines import TrialConfig, solve_kmeans, solve_random, solve_strip
from .bench import Campaign, generate_topology, run_campaign
from .exact import BudgetExceededError, CandidateDisk, generate_candidates, min_cover
from .geometry import Disk, Point, convex_hull, covers, dist, one_center
from .problem import Instance, Solution, solution_violations
from .spiral import ContractError, LocalCoverResult, local_cover, solve_spiral
from .svg import render_svg

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "Campaign",
    "CandidateDisk",
    "ContractError",
    "Disk",
    "Instance",
    "LocalCoverResult",
    "Point",
    "Solution",
    "TrialConfig",
    "convex_hull",
    "covers",
    "dist",
    "generate_candidates",
    "generate_topology",
    "local_cover",
    "min_cover",
    "one_center",
    "render_svg",
    "run_campaign",
    "solution_violations",
    "solve_kmeans",
    "solve_random",
    "solve_spiral",
    "solve_strip",
]
