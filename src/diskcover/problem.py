"""Instance and solution models shared by every solver."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import Point, coverage_bound, dist


@dataclass
class Instance:
    """The points to cover plus the common coverage radius.

    ``points`` is a sequence of ``(x, y)`` pairs or an ``(n, 2)`` array,
    stored as float tuples; ``xy`` holds the same floats as a read-only
    ``(n, 2)`` array, which the solvers read (an attribute, not a field).
    ``radius`` is finite and positive.  A point within ``bound`` of a center
    is covered: ``bound`` is ``coverage_bound(radius)``, worked out once,
    and every solver and :func:`solution_violations` read it (an attribute,
    as ``xy`` is).  ``region_side`` is metadata
    describing the square the points were drawn from (used by benchmarks and
    the SVG renderer).
    """

    points: list[Point]
    radius: float
    region_side: Optional[float] = None

    def __post_init__(self) -> None:
        if len(self.points) == 0:
            raise ValueError("Instance needs at least one point")
        coerced = []
        for p in self.points:
            if len(p) != 2:
                raise ValueError(f"a point needs exactly two coordinates: {p!r}")
            x, y = float(p[0]), float(p[1])
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"non-finite point coordinates: {p!r}")
            coerced.append((x, y))
        self.points = coerced
        self.xy = np.array(coerced, dtype=float)
        self.xy.flags.writeable = False
        self.radius = float(self.radius)
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise ValueError(f"radius must be finite and positive: {self.radius}")
        self.bound = coverage_bound(self.radius)
        if self.region_side is not None:
            self.region_side = float(self.region_side)
            if not (math.isfinite(self.region_side) and self.region_side > 0.0):
                raise ValueError(f"region_side must be finite and positive: {self.region_side}")

    @property
    def k(self) -> int:
        return len(self.points)

    def with_radius(self, radius: float) -> "Instance":
        return Instance(points=self.points, radius=radius, region_side=self.region_side)

    def in_power_of_two_units(self) -> tuple["Instance", int]:
        """This instance scaled by ``2**-e``, and e, where e is the binary
        exponent of the largest |coordinate|, when |e| > 100 and the scaling
        is exact (every coordinate and the radius survive the round trip);
        otherwise the instance itself and 0.

        ``one_center`` and ``grow_disk`` give wrong disks far from unit scale,
        so the heuristics built on them solve in these units and scale their
        centers back with ``math.ldexp(c, e)``.  Instances inside the band,
        UTM-sized coordinates among them, are solved as given.
        """
        e = math.frexp(float(np.abs(self.xy).max()))[1]
        if abs(e) <= 100 or math.frexp(self.radius)[1] - e > 1024:  # radius overflows
            return self, 0
        xy, radius = np.ldexp(self.xy, -e), math.ldexp(self.radius, -e)
        if math.ldexp(radius, e) != self.radius or not np.array_equal(np.ldexp(xy, e), self.xy):
            return self, 0
        return Instance(points=xy, radius=radius), e


@dataclass
class Solution:
    """Ordered disk centers and, per center, the point indices it accounts for.

    ``newly_covered[m]`` are the indices first covered by center m; the lists
    partition all point indices.  ``runtime`` is the wall-clock duration of
    the solve call in seconds.
    """

    algorithm: str
    seed: int
    centers: list[Point]
    newly_covered: list[list[int]]
    runtime: float = 0.0

    @property
    def m(self) -> int:
        return len(self.centers)


def solution_violations(inst: Instance, sol: Solution) -> list[str]:
    """Every way `sol` fails the coverage contract for `inst` (empty = feasible)."""
    problems: list[str] = []
    if len(sol.centers) != len(sol.newly_covered):
        problems.append("centers and newly_covered lengths differ")
        return problems
    if not sol.centers:
        problems.append("no centers placed")
    seen: set[int] = set()
    for m, (center, group) in enumerate(zip(sol.centers, sol.newly_covered)):
        if not group:
            problems.append(f"center {m} covers nothing new")
        for k in group:
            if not 0 <= k < inst.k:
                problems.append(f"center {m} lists invalid point index {k}")
                continue
            if k in seen:
                problems.append(f"point {k} assigned to more than one center")
            seen.add(k)
            if not dist(center, inst.points[k]) <= inst.bound:
                problems.append(f"point {k} is outside radius of center {m}")
    missing = set(range(inst.k)) - seen
    if missing:
        problems.append(f"points never covered: {sorted(missing)[:8]}")
    return problems
