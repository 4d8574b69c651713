import hypothesis.strategies as st
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

coordinates = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)
radii = st.floats(min_value=0.05, max_value=50.0, allow_nan=False, allow_infinity=False)


@st.composite
def point_lists(draw, min_size=1, max_size=20):
    return draw(
        st.lists(st.tuples(coordinates, coordinates), min_size=min_size, max_size=max_size)
    )


# Coordinates on a 1/64 grid in [-100, 100]: every orientation predicate is
# then exact in double precision, so degenerate (collinear/duplicate) inputs
# are decided identically by the library and by the brute-force oracles.
grid_coordinate = st.integers(min_value=-6400, max_value=6400).map(lambda v: v / 64.0)


@st.composite
def grid_point_lists(draw, min_size=1, max_size=20):
    return draw(
        st.lists(
            st.tuples(grid_coordinate, grid_coordinate),
            min_size=min_size,
            max_size=max_size,
        )
    )


@st.composite
def instances(draw, min_size=1, max_size=20):
    from diskcover import Instance

    pts = draw(point_lists(min_size=min_size, max_size=max_size))
    r = draw(radii)
    return Instance(points=pts, radius=r)


# np.hypot and math.hypot round the distance of this pair to neighbouring
# floats on either side of coverage_bound(1.0).
HYPOT_SPLIT_PAIR = [(0.0, 0.0), (0.3312114766100447, 0.9435565482586585)]

# Uniform scalings from 1e-6 to 1e6 (a power of ten rounds the coordinates,
# a power of two does not) and per-axis offsets up to 1e9 in either sign, for
# the checks that a rewrite decides exactly like its serial reference far
# from the unit box.
scales = st.sampled_from([10.0**e for e in range(-6, 7)] + [2.0**-20, 2.0**-3, 2.0**19])
offsets = st.sampled_from([0.0, 1.0, 1e3, 5e5, 1e6, 3.7e7, 1e9, 2.0**30]).flatmap(
    lambda o: st.sampled_from([o, -o])
)


def quarter_turn(inst, q):
    """The instance turned q quarter turns counterclockwise about the origin,
    each mapping (x, y) to (-y, x).

    The map is exact in floats, so lattices, lines and offsets stay exact.
    The spiral starts at the bottom-most hull vertex; on the turned instance
    that is, for q = 1, 2 and 3, the original's left-most, top-most and
    right-most one.
    """
    from diskcover import Instance

    pts = inst.points
    for _ in range(q):
        pts = [(-y, x) for x, y in pts]
    return Instance(points=pts, radius=inst.radius)
