import dataclasses
import math

import numpy as np
import pytest

from diskcover import Instance, Solution, TrialConfig, generate_topology, solution_violations
from diskcover.bench import SOLVERS
from diskcover.geometry import coverage_bound


class TestInstancePoints:
    def test_accepts_an_array(self):
        inst = Instance(points=np.zeros((3, 2)), radius=1)
        assert inst.points == [(0.0, 0.0)] * 3
        assert all(type(c) is float for p in inst.points for c in p)

    @pytest.mark.parametrize("points", [[(0, 0, 7)], [(1,)], np.zeros((2, 3))])
    def test_rejects_a_point_without_two_coordinates(self, points):
        with pytest.raises(ValueError, match="exactly two coordinates"):
            Instance(points, 1)

    @pytest.mark.parametrize("points", [[], np.zeros((0, 2))])
    def test_rejects_no_points(self, points):
        with pytest.raises(ValueError, match="at least one point"):
            Instance(points, 1)

    def test_xy_takes_no_part_in_equality_or_repr(self):
        a = Instance([(0.0, 1.0)], 2.0)
        assert a == Instance(np.array([[0.0, 1.0]]), 2.0)
        assert "xy" not in repr(a)
        assert "bound" not in repr(a)
        assert [f.name for f in dataclasses.fields(a)] == ["points", "radius", "region_side"]
        assert PAIR.with_radius(2.0).bound == coverage_bound(2.0)


@pytest.mark.parametrize("name", SOLVERS)
def test_solvers_read_tuples_and_arrays_alike(name):
    base = generate_topology(80, 1.0, 1400, radius=1.0 / 6.0)
    tuples = [(x, y) for x, y in base.points]
    from_tuples = Instance(tuples, base.radius, base.region_side)
    from_array = Instance(np.array(tuples), base.radius, base.region_side)
    cfg = TrialConfig(trials=10)
    got = [
        dataclasses.replace(SOLVERS[name](inst, 3, cfg), runtime=0.0)
        for inst in (from_tuples, from_array)
    ]
    assert got[0] == got[1]


# Two points one radius apart: a disk at their midpoint covers both.
PAIR = Instance([(0.0, 0.0), (1.0, 0.0)], radius=1.0)
MID = (0.5, 0.0)
BOUND = coverage_bound(0.7)
ONE = Instance([(0.0, 0.0)], radius=0.7)


@pytest.mark.parametrize(
    "inst, centers, newly, want",
    [
        (PAIR, [MID], [], ["centers and newly_covered lengths differ"]),
        (PAIR, [], [], ["no centers placed", "points never covered: [0, 1]"]),
        (PAIR, [MID, MID], [[0, 1], []], ["center 1 covers nothing new"]),
        (PAIR, [MID], [[0, 1, -1]], ["center 0 lists invalid point index -1"]),
        (PAIR, [MID], [[0, 1, 2]], ["center 0 lists invalid point index 2"]),
        (PAIR, [MID, MID], [[0, 1], [1]], ["point 1 assigned to more than one center"]),
        (ONE, [(BOUND, 0.0)], [[0]], []),
        (
            ONE,
            [(math.nextafter(BOUND, math.inf), 0.0)],
            [[0]],
            ["point 0 is outside radius of center 0"],
        ),
        (ONE, [(math.nan, 0.0)], [[0]], ["point 0 is outside radius of center 0"]),
        (PAIR, [MID], [[0]], ["points never covered: [1]"]),
    ],
    ids=[
        "lengths-differ",
        "no-centers",
        "nothing-new",
        "index-minus-one",
        "index-k",
        "assigned-twice",
        "exactly-at-the-bound",
        "one-ulp-past-the-bound",
        "nan-center",
        "never-covered",
    ],
)
def test_solution_violations(inst, centers, newly, want):
    sol = Solution(algorithm="spiral", seed=0, centers=centers, newly_covered=newly)
    assert solution_violations(inst, sol) == want
