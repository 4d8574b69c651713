import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from diskcover.geometry import (
    Disk,
    convex_hull,
    coverage_bound,
    covers,
    dist,
    grow_disk,
    one_center,
    within_mask,
    within_radius,
)
from diskcover import spiral
from diskcover.spiral import _HULL_MARGIN, _Cells, _first_hull

from conftest import HYPOT_SPLIT_PAIR, grid_point_lists, offsets, point_lists, scales
from oracles import brute_force_mec, convex_hull_serial, extreme_indices, one_center_serial


def uniform_points(n, seed, scale=1.0):
    rng = np.random.Generator(np.random.PCG64(seed))
    return [(float(x) * scale, float(y) * scale) for x, y in rng.random((n, 2))]


class TestDist:
    def test_three_four_five(self):
        assert dist((0.0, 0.0), (3.0, 4.0)) == 5.0

    def test_identical_points(self):
        assert dist((1.0, 1.0), (1.0, 1.0)) == 0.0

    def test_unit_axis(self):
        assert dist((0.0, 0.0), (1.0, 0.0)) == 1.0

    @given(point_lists(min_size=2, max_size=2))
    def test_symmetric_nonnegative(self, pts):
        a, b = pts
        assert dist(a, b) == dist(b, a) >= 0.0


class TestCovers:
    def test_boundary_point(self):
        assert covers(Disk((0.0, 0.0), 1.0), (1.0, 0.0))

    def test_outside_beyond_tolerance(self):
        assert not covers(Disk((0.0, 0.0), 1.0), (1.000001, 0.0))

    def test_center(self):
        assert covers(Disk((0.0, 0.0), 1.0), (0.0, 0.0))

    @given(point_lists(min_size=3, max_size=3), st.floats(min_value=0.01, max_value=10.0))
    def test_two_r_lemma(self, pts, r):
        # No single radius-r disk covers two points further apart than the
        # doubled coverage bound; direct consequence of the triangle inequality.
        a, b, c = pts
        if dist(a, b) <= 2.0 * coverage_bound(r):
            return
        d = Disk(c, r)
        assert not (covers(d, a) and covers(d, b))


class TestConvexHull:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            convex_hull([])

    def test_triangle_is_own_hull(self):
        hull = convex_hull([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        assert hull == [0, 1, 2]  # CCW from the bottom-most-left-most vertex

    def test_interior_point_excluded(self):
        hull = convex_hull([(0.0, 0.0), (2.0, 0.0), (1.0, 0.5), (1.0, 2.0)])
        assert set(hull) == {0, 1, 3}

    def test_collinear_point_excluded(self):
        hull = convex_hull([(0.0, 0.0), (2.0, 0.0), (1.0, 0.0), (1.0, 2.0)])
        assert set(hull) == {0, 1, 3}

    def test_single_point(self):
        assert convex_hull([(3.0, 4.0)]) == [0]

    def test_two_distinct_lower_index_first(self):
        assert convex_hull([(5.0, 5.0), (0.0, 0.0)]) == [0, 1]

    def test_all_collinear_returns_extremes(self):
        hull = convex_hull([(1.0, 1.0), (3.0, 3.0), (2.0, 2.0), (0.0, 0.0)])
        assert hull == [1, 3]

    def test_duplicates_keep_lowest_index(self):
        hull = convex_hull([(0.0, 0.0), (1.0, 0.0), (0.0, 0.0), (0.0, 1.0), (1.0, 0.0)])
        assert set(hull) == {0, 1, 3}

    def test_tuples_and_lists_agree_on_duplicates_and_negative_zero(self):
        # -0.0 equals 0.0, so (-0.0, 0.0) and (0.0, -0.0) are copies of the
        # corner (0.0, 0.0) at index 1, which stands for them.
        pts = [(0.5, 0.5), (0.0, 0.0), (1.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (1.0, 1.0)]
        pts += [(0.0, 1.0), (-0.0, 1.0), (1.0, 0.0), (0.5, -0.0)]
        want = convex_hull_serial(pts)
        assert want == [1, 2, 5, 6]
        assert convex_hull(pts) == convex_hull([list(p) for p in pts]) == want
        back = pts[::-1]
        assert convex_hull(back) == convex_hull([list(p) for p in back]) == convex_hull_serial(back)

    def test_nearly_collinear_triple_listed_once(self):
        # Three points on the line y = 0.7x up to rounding.  A float
        # orientation sign kept the middle one in both halves of the chain,
        # and the hull came back as [0, 1, 2, 1].
        pts = [
            (13.997495992890192, 9.798247195023134),
            (14.151674544782718, 9.906172181347902),
            (35.93819000800909, 25.156733005606362),
        ]
        assert convex_hull(pts) == convex_hull_serial(pts) == [0, 1, 2]

    def test_overflowed_orientation_is_decided_exactly(self):
        # Near the float limit the chain's differences overflow to inf and
        # their determinant to NaN; a NaN sign listed vertex 2 twice.
        pts = [(1e308, 1e308), (-1e308, -1e308), (1e308, -1e308)]
        assert convex_hull(pts) == convex_hull_serial(pts) == [1, 2, 0]

    def test_matches_extreme_point_oracle_seed7(self):
        pts = uniform_points(20, seed=7)
        assert set(convex_hull(pts)) == extreme_indices(pts)

    def test_starts_bottom_most_left_most(self):
        pts = uniform_points(30, seed=11)
        hull = convex_hull(pts)
        start = pts[hull[0]]
        assert start == min((pts[i] for i in hull), key=lambda p: (p[1], p[0]))

    @given(grid_point_lists(min_size=1, max_size=25))
    def test_hull_invariants(self, pts):
        hull = convex_hull(pts)
        vs = [pts[i] for i in hull]
        assert len(set(vs)) == len(vs)
        if len(hull) >= 3:
            area2 = sum(
                vs[i][0] * vs[(i + 1) % len(vs)][1] - vs[(i + 1) % len(vs)][0] * vs[i][1]
                for i in range(len(vs))
            )
            assert area2 > 0.0  # counterclockwise
            # Strict hull: no three consecutive vertices are collinear.
            scale = max(1.0, max(abs(x) for v in vs for x in v)) ** 2
            for i in range(len(vs)):
                o, a, b = vs[i - 2], vs[i - 1], vs[i]
                turn = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
                assert turn > -1e-9 * scale
            # Containment: every input point is inside or on the hull polygon.
            for p in pts:
                for i in range(len(vs)):
                    a, b = vs[i], vs[(i + 1) % len(vs)]
                    cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
                    assert cross >= -1e-7 * scale

    @given(grid_point_lists(min_size=1, max_size=10))
    def test_hull_matches_oracle_small(self, pts):
        assert set(convex_hull(pts)) == extreme_indices(pts)


unit_coordinate = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


def _nudged(v, steps):
    for _ in range(abs(steps)):
        v = math.nextafter(v, math.copysign(math.inf, steps))
    return v


@st.composite
def hull_cases(draw):
    """Point sets for the prefiltered hull, transformed far from the unit box.

    Families: a uniform cloud; a small integer lattice (duplicates and
    collinear runs); all points on one line; and a diamond or square whose
    edges carry extra points nudged a few ulps either side after the
    transform (near-collinear hull edges), around an interior cloud.
    """
    kind = draw(st.sampled_from(["cloud", "lattice", "collinear", "near_collinear"]))
    n = draw(st.integers(min_value=1, max_value=120))
    if kind == "cloud":
        pts = draw(st.lists(st.tuples(unit_coordinate, unit_coordinate), min_size=n, max_size=n))
    elif kind == "lattice":
        m = draw(st.integers(min_value=0, max_value=5))
        cell = st.integers(min_value=-m, max_value=m).map(float)
        pts = draw(st.lists(st.tuples(cell, cell), min_size=n, max_size=n))
    elif kind == "collinear":
        dx, dy = draw(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda d: d != (0, 0))
        )
        ts = draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
        pts = [(float(t * dx), float(t * dy)) for t in ts]
    else:
        corners = draw(
            st.sampled_from(
                [
                    [(0.0, -1.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)],
                    [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)],
                ]
            )
        )
        pts = list(corners)
        for _ in range(n):
            e = draw(st.integers(0, 3))
            t = draw(st.floats(min_value=0.0, max_value=1.0))
            (ax, ay), (bx, by) = corners[e], corners[(e + 1) % 4]
            pts.append((ax + t * (bx - ax), ay + t * (by - ay)))
        inner = draw(st.lists(st.tuples(unit_coordinate, unit_coordinate), max_size=n))
        pts += [(0.5 * x, 0.5 * y) for x, y in inner]
    s, ox, oy = draw(scales), draw(offsets), draw(offsets)
    pts = [(x * s + ox, y * s + oy) for x, y in pts]
    if kind == "near_collinear":
        nudge = st.integers(min_value=-4, max_value=4)
        pts = [(_nudged(x, draw(nudge)), _nudged(y, draw(nudge))) for x, y in pts]
    # Copies of drawn points at drawn positions, so duplicates interleave.
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        src = draw(st.integers(0, len(pts) - 1))
        pts.insert(draw(st.integers(0, len(pts))), pts[src])
    return pts


def prefiltered_hull(pts):
    """The spiral's first hull of ``pts``: the chain over the extremes and
    their pockets, read from the finest cells the spiral builds (side the
    extent over ceil(sqrt(K))), at the slack and margin it takes."""
    xy = np.array(pts, dtype=float)
    slack = _HULL_MARGIN * float(np.abs(xy).max())
    margin = slack * float(np.ptp(xy, axis=0).max())
    cells = _Cells(xy[:, 0].tolist(), xy[:, 1].tolist(), float(np.finfo(float).tiny))
    return _first_hull(xy, pts, cells, margin, slack)


def first_hull_input(pts, monkeypatch):
    """The points, in order, that the spiral's first hull of ``pts`` hands
    to the chain."""
    handed = []

    def chain(points):
        handed.extend(points)
        return convex_hull(points)

    monkeypatch.setattr(spiral, "convex_hull", chain)
    prefiltered_hull(pts)
    return handed


class TestHullMatchesSerial:
    """The monotone chain lists exactly what the serial chain does, with and
    without the spiral's prefilter in front of it."""

    @given(hull_cases())
    @settings(max_examples=400)
    def test_same_indices_as_serial(self, pts):
        want = convex_hull_serial(pts)
        assert convex_hull(pts) == want
        assert prefiltered_hull(pts) == want

    @pytest.mark.parametrize("offset", [0.0, 1e6, 1e9])
    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_uniform_cloud_at_offset_and_scale(self, offset, scale):
        pts = [(x * scale + offset, y * scale - offset) for x, y in uniform_points(2000, seed=61)]
        want = convex_hull_serial(pts)
        assert convex_hull(pts) == want
        assert prefiltered_hull(pts) == want

    def test_prefilter_drops_the_interior(self, monkeypatch):
        pts = uniform_points(2000, seed=62)
        index = {p: k for k, p in enumerate(pts)}
        assert len(index) == len(pts)
        keep = [index[p] for p in first_hull_input(pts, monkeypatch)]
        assert len(keep) < 200
        assert keep == sorted(set(keep))  # input order, each once
        assert set(convex_hull_serial(pts)) <= set(keep)

    def test_prefilter_keeps_every_point_of_a_degenerate_set(self, monkeypatch):
        line = [(float(t), 2.0 * t) for t in range(50)]
        assert first_hull_input(line, monkeypatch) == line
        same = [(1.0, 1.0)] * 7
        assert first_hull_input(same, monkeypatch) == same

    def test_near_tie_on_a_diagonal_across_a_cell_corner(self):
        # v sits on a cell corner and a one ulp below it in x and in y.  x
        # and y both lie a binade below x + y, so the two sums round to the
        # same float, and a, the lower index, is the polygon's x + y
        # extreme, although v is the hull vertex.  v then lies just outside
        # the boxes of both edges at a, c -> a and a -> b, in the next row
        # and column; only the slack on those boxes brings its cell in.
        v = (3000081.234567, 3100087.654321)
        a = (math.nextafter(v[0], 0.0), math.nextafter(v[1], 0.0))
        c, b = (3000121.234567, 3100046.654321), (3000040.234567, 3100127.654321)
        pts = [(3000001.234567, 3100007.654321), c, a, v, b]
        cells = _Cells([p[0] for p in pts], [p[1] for p in pts], float(np.finfo(float).tiny))
        assert a[0] + a[1] == v[0] + v[1]
        assert cells.column(a[0]) < cells.column(v[0])
        assert cells.row(a[1]) < cells.row(v[1])
        assert prefiltered_hull(pts) == convex_hull_serial(pts) == [0, 1, 3, 4]

    def test_duplicates_of_a_vertex_keep_lowest_index(self):
        pts = uniform_points(300, seed=63)
        hull = convex_hull_serial(pts)
        pts = pts[: hull[2]] + [pts[hull[2]]] + pts[hull[2] :]  # copy in front
        assert convex_hull(pts) == convex_hull_serial(pts)
        assert prefiltered_hull(pts) == convex_hull_serial(pts)
        assert hull[2] in convex_hull(pts)


class TestOneCenter:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            one_center([])

    def test_diameter_pair(self):
        disk = one_center([(0.0, 0.0), (2.0, 0.0)])
        assert disk.center == (1.0, 0.0)
        assert disk.radius == pytest.approx(1.0, abs=1e-12)

    def test_equilateral_circumcircle(self):
        disk = one_center([(0.0, 0.0), (2.0, 0.0), (1.0, math.sqrt(3.0))])
        assert disk.center[0] == pytest.approx(1.0, abs=1e-12)
        assert disk.center[1] == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)
        assert disk.radius == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-12)

    def test_matches_brute_force_seed3(self):
        pts = uniform_points(15, seed=3)
        disk = one_center(pts)
        _, brute_radius = brute_force_mec(pts)
        assert disk.radius == pytest.approx(brute_radius, rel=1e-9)

    @pytest.mark.xfail(
        reason="_mec_two_known's circumcenter terms, such as cy * b2 - by * c2, "
        "grow as the cube of the point spacing and underflow or overflow "
        "outside spacings of about 1e-103 to 1e102"
    )
    @pytest.mark.parametrize("scale", [1e-120, 1e120])
    def test_radius_scales_with_the_points(self, scale):
        # Unscaled, the smallest disk is the circumdisk, radius 0.96333...
        tri = [(0.0, 0.0), (1.6, 0.0), (0.8, 1.5)]
        want = one_center(tri).radius
        got = one_center([(x * scale, y * scale) for x, y in tri]).radius
        assert got / scale == pytest.approx(want, rel=1e-12)

    def test_deterministic(self):
        pts = uniform_points(40, seed=5)
        assert one_center(pts) == one_center(pts)

    @given(point_lists(min_size=1, max_size=12))
    def test_contains_all_points_exactly(self, pts):
        disk = one_center(pts)
        for p in pts:
            assert dist(disk.center, p) <= disk.radius

    @given(point_lists(min_size=2, max_size=12))
    @settings(max_examples=60)
    def test_minimality_and_support(self, pts):
        if len(set(pts)) < 2:
            return
        disk = one_center(pts)
        # A subnormal radius times (1 - 1e-6) rounds back to the radius; the
        # test disk must still be strictly smaller, so shrink by one ulp there.
        shrunk = min(disk.radius * (1.0 - 1e-6), math.nextafter(disk.radius, 0.0))
        assert any(dist(disk.center, p) > shrunk for p in pts)
        # Matches the pair/triple enumeration oracle.  Fuzzed inputs can be
        # nearly degenerate, where both routes lose digits to conditioning,
        # so this comparison is looser than the one on uniform random sets.
        _, brute_radius = brute_force_mec(pts)
        assert disk.radius == pytest.approx(brute_radius, rel=1e-7, abs=1e-12)

    def test_support_points_determine_same_disk(self):
        for seed in range(20):
            pts = uniform_points(10, seed=100 + seed)
            disk = one_center(pts)
            support = [
                p for p in pts if abs(dist(disk.center, p) - disk.radius) <= 1e-9 * disk.radius
            ]
            assert 1 <= len(support) <= 3
            again = one_center(support)
            assert again.radius == pytest.approx(disk.radius, rel=1e-9)
            assert again.center[0] == pytest.approx(disk.center[0], abs=1e-9)
            assert again.center[1] == pytest.approx(disk.center[1], abs=1e-9)


def _circle_lattice(r2):
    """The integer points on the circle x**2 + y**2 == r2."""
    m = math.isqrt(r2)
    span = range(-m, m + 1)
    return [(float(x), float(y)) for x in span for y in span if x * x + y * y == r2]


@st.composite
def disk_cases(draw):
    """Point sets for the enclosing-disk kernel, transformed far from the unit box.

    Families: a uniform cloud; a small integer lattice (duplicates and
    collinear runs); points on one line; points of an integer lattice on one
    circle (every support triple cocircular).  Coordinates may be nudged one
    to four ulps either way after the transform, and drawn points are copied
    to drawn positions.
    """
    kind = draw(st.sampled_from(["cloud", "lattice", "collinear", "cocircular"]))
    n = draw(st.integers(min_value=1, max_value=200))
    if kind == "cloud":
        pts = draw(st.lists(st.tuples(unit_coordinate, unit_coordinate), min_size=n, max_size=n))
    elif kind == "lattice":
        m = draw(st.integers(min_value=0, max_value=4))
        cell = st.integers(min_value=-m, max_value=m).map(float)
        pts = draw(st.lists(st.tuples(cell, cell), min_size=n, max_size=n))
    elif kind == "collinear":
        dx, dy = draw(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda d: d != (0, 0))
        )
        ts = draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
        pts = [(float(t * dx), float(t * dy)) for t in ts]
    else:
        circle = _circle_lattice(draw(st.sampled_from([1, 25, 65, 325, 1105])))
        pts = draw(st.lists(st.sampled_from(circle), min_size=1, max_size=n))
    s, ox, oy = draw(scales), draw(offsets), draw(offsets)
    pts = [(x * s + ox, y * s + oy) for x, y in pts]
    if draw(st.booleans()):
        nudge = st.integers(min_value=-4, max_value=4)
        pts = [(_nudged(x, draw(nudge)), _nudged(y, draw(nudge))) for x, y in pts]
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        src = draw(st.integers(0, len(pts) - 1))
        pts.insert(draw(st.integers(0, len(pts))), pts[src])
    return pts


class TestOneCenterMatchesSerial:
    """The flat kernel returns exactly the disk of the recursive construction."""

    @given(disk_cases())
    @settings(max_examples=300)
    def test_same_disk_as_serial(self, pts):
        assert one_center(pts) == one_center_serial(pts)

    @pytest.mark.parametrize("offset", [0.0, 1e9])
    def test_uniform_clouds_of_every_size(self, offset):
        for n in range(1, 120):
            pts = [(x + offset, y - offset) for x, y in uniform_points(n, seed=700 + n)]
            assert one_center(pts) == one_center_serial(pts)


class TestGrowDisk:
    """Welzl's step, taken one point at a time, keeps the smallest enclosing disk."""

    @given(
        grid_point_lists(min_size=1, max_size=20),
        st.sampled_from([10.0**e for e in range(-6, 7)]),
    )
    @settings(max_examples=200)
    def test_grown_from_one_point_matches_one_center(self, pts, scale):
        pts = [(x * scale, y * scale) for x, y in pts]
        # As drawn, and sorted by (x, y) as the strip sweeps them: a
        # left-to-right order is the worst case for Welzl's step.
        for order in (pts, sorted(pts)):
            disk = Disk(order[0], 0.0)
            xs, ys = [order[0][0]], [order[0][1]]
            for n, (x, y) in enumerate(order[1:], start=2):
                xs.append(x)
                ys.append(y)
                disk = grow_disk(disk, xs, ys)
                for p in order[:n]:
                    assert dist(disk.center, p) <= disk.radius
                assert disk.radius == pytest.approx(one_center(order[:n]).radius, rel=1e-12)

    @given(disk_cases())
    @settings(max_examples=150)
    def test_grown_disk_holds_every_point_exactly(self, pts):
        # The kernel's families, far from the unit box and nudged by ulps:
        # points a rounding away from the boundary must still fall inside.
        disk = Disk(pts[0], 0.0)
        xs, ys = [pts[0][0]], [pts[0][1]]
        for x, y in pts[1:]:
            xs.append(x)
            ys.append(y)
            disk = grow_disk(disk, xs, ys)
        assert all(dist(disk.center, p) <= disk.radius for p in pts)

    def test_point_inside_keeps_the_center(self):
        disk = one_center([(0.0, 0.0), (2.0, 0.0)])
        assert grow_disk(disk, [0.0, 2.0, 1.0], [0.0, 0.0, 0.5]) == disk

    def test_point_outside_lies_on_the_boundary(self):
        disk = grow_disk(Disk((1.0, 0.0), 1.0), [0.0, 2.0, 1.0], [0.0, 0.0, 3.0])
        assert disk == one_center([(0.0, 0.0), (2.0, 0.0), (1.0, 3.0)])
        assert dist(disk.center, (1.0, 3.0)) == disk.radius


class TestWithinRadius:
    def test_exact_radius_accepted(self):
        assert within_radius(1.0, 1.0)

    def test_tolerance_edge(self):
        assert within_radius(1.0, 1.0 + 5e-10)
        assert not within_radius(1.0, 1.0 + 5e-9)


@st.composite
def circle_cases(draw):
    """A center, a limit and up to 1000 points on the circle of radius
    `limit` around it, each coordinate nudged 1 to 4 ulps either way after
    the transform.

    The two hypots round about 0.6% of distances differently, so the points
    are many and drawn from a seeded generator.  The limit is then moved to
    the distance of one of the points, give or take an ulp, so that some
    distance rounds to it or next to it even far from the origin, where the
    coordinates' ulps can exceed the limit's.
    """
    s, ox, oy = draw(scales), draw(offsets), draw(offsets)
    limit = draw(st.floats(min_value=0.1, max_value=10.0)) * s
    center = (ox + draw(unit_coordinate) * s, oy + draw(unit_coordinate) * s)
    n = draw(st.integers(min_value=1, max_value=1000))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(min_value=0, max_value=2**32))))
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    xy = np.column_stack((center[0] + limit * np.cos(theta), center[1] + limit * np.sin(theta)))
    steps = rng.integers(1, 5, (n, 2)) * rng.choice([-1, 1], (n, 2))
    for k in range(4):
        xy = np.where(np.abs(steps) > k, np.nextafter(xy, steps * np.inf), xy)
    pts = [(float(x), float(y)) for x, y in xy]
    pin = draw(st.integers(min_value=0, max_value=n - 1))
    limit = _nudged(dist(center, pts[pin]), draw(st.integers(min_value=-1, max_value=1)))
    return center, limit, pts


class TestWithinMask:
    """The bulk test keeps or drops each row exactly as dist decides it."""

    @given(circle_cases())
    @settings(max_examples=300)
    def test_decides_like_dist(self, case):
        center, limit, pts = case
        mask = within_mask(np.array(pts), center, limit)
        assert mask.tolist() == [dist(center, p) <= limit for p in pts]

    def test_pair_where_the_hypots_disagree(self):
        pts = HYPOT_SPLIT_PAIR
        limit = coverage_bound(1.0)
        assert np.hypot(*pts[1]) <= limit < dist(pts[0], pts[1])
        assert within_mask(np.array(pts), pts[0], limit).tolist() == [True, False]
        xy = np.array(pts)
        assert within_mask(xy, xy, limit).tolist() == [[True, False], [False, True]]

    @given(circle_cases())
    @settings(max_examples=100)
    def test_block_rows_equal_single_centers(self, case):
        center, limit, pts = case
        xy = np.array(pts)
        centers = [center] + pts[:7]
        block = within_mask(xy, np.array(centers), limit)
        assert block.shape == (len(centers), len(pts))
        for row, c in zip(block.tolist(), centers):
            assert row == within_mask(xy, c, limit).tolist()

    @pytest.mark.parametrize(
        "limit",
        [1e-160, 2.0**-540, 1e160, 2.0**511.75, 1e-150, 1.0],
        ids=["subnormal", "zero", "infinite", "above-2**1023", "1e-150", "1"],
    )
    def test_extreme_limits(self, limit):
        # Points on, just inside and just outside the circle of radius
        # `limit`, and twice as far.  The first four limits have squares that
        # are subnormal, zero, infinite or at least 2**1023, where the squares
        # cannot decide and np.hypot must; the last two take the squares.
        rng = np.random.Generator(np.random.PCG64(5))
        theta = rng.uniform(0.0, 2.0 * math.pi, 800)
        rho = limit * np.repeat([1.0 - 1e-6, 1.0, 1.0 + 1e-6, 2.0], 200)
        pts = [(float(x), float(y)) for x, y in zip(rho * np.cos(theta), rho * np.sin(theta))]
        xy = np.array(pts)
        center = (0.0, 0.0)
        assert within_mask(xy, center, limit).tolist() == [dist(center, p) <= limit for p in pts]
        centers = [center] + pts[:5]
        block = within_mask(xy, np.array(centers), limit)
        assert block.tolist() == [[dist(c, p) <= limit for p in pts] for c in centers]

    @pytest.mark.parametrize("limit", [1.0, 1e-160, 1e160, 1e299])
    def test_points_1e300_apart(self, limit):
        # The squares of these differences overflow.
        pts = [(0.0, 0.0), (1e300, 0.0), (-1e300, 1e300), (0.0, -1e300), (1e300, 1e300)]
        xy = np.array(pts)
        block = within_mask(xy, xy, limit)
        assert block.tolist() == [[dist(c, p) <= limit for p in pts] for c in pts]
        for c in pts:
            assert within_mask(xy, c, limit).tolist() == [dist(c, p) <= limit for p in pts]
