import hashlib
import xml.etree.ElementTree as ET

from diskcover import Instance, Solution, render_svg, solve_spiral
from diskcover.bench import generate_topology


def element_counts(svg_text):
    root = ET.fromstring(svg_text)
    counts: dict[str, int] = {}
    for el in root.iter():
        tag = el.tag.split("}")[-1]
        counts[tag] = counts.get(tag, 0) + 1
    return counts


def polyline_points(svg_text):
    root = ET.fromstring(svg_text)
    for el in root.iter():
        if el.tag.split("}")[-1] == "polyline":
            return el.attrib["points"].split()
    return None


class TestRenderSvg:
    def test_single_point_single_center(self):
        inst = Instance(points=[(0.5, 0.5)], radius=1.0, region_side=1.0)
        sol = solve_spiral(inst)
        svg = render_svg(inst, sol)
        counts = element_counts(svg)
        assert counts.get("polygon") == 1  # one triangle per point
        assert counts.get("rect") == 1  # one square per center
        assert counts.get("circle") == 1  # one coverage circle per center
        assert polyline_points(svg) is None  # no path with a single center

    def test_two_centers_one_segment(self):
        inst = Instance(points=[(0.0, 0.0), (5.0, 0.0)], radius=1.0)
        sol = solve_spiral(inst)
        svg = render_svg(inst, sol)
        pts = polyline_points(svg)
        assert pts is not None and len(pts) == 2  # M points, M-1 segments

    def test_reference_density_counts(self):
        inst = generate_topology(80, 10.0 ** 0.5, seed=21, radius=0.5)
        sol = solve_spiral(inst, seed=21)
        svg = render_svg(inst, sol)
        counts = element_counts(svg)
        assert counts.get("polygon") == inst.k
        assert counts.get("rect") == sol.m
        assert counts.get("circle") == sol.m
        assert len(polyline_points(svg)) == sol.m

    def test_deterministic(self):
        inst = generate_topology(30, 2.0, seed=4, radius=0.5)
        sol = solve_spiral(inst, seed=4)
        assert render_svg(inst, sol) == render_svg(inst, sol)

    def test_viewbox_present_and_valid_xml(self):
        inst = generate_topology(10, 2.0, seed=2, radius=0.5)
        sol = solve_spiral(inst, seed=2)
        svg = render_svg(inst, sol)
        root = ET.fromstring(svg)
        assert "viewBox" in root.attrib
        w, h = float(root.attrib["width"]), float(root.attrib["height"])
        assert w > 0 and h > 0


class TestSvgBytes:
    """The exact bytes of two renders, recorded before the number formatting
    moved to one template per element."""

    def test_spiral_at_k400(self):
        inst = generate_topology(400, 1.0, 6000, radius=1.0 / 20.0)
        svg = render_svg(inst, solve_spiral(inst, seed=6000))
        digest = hashlib.sha256(svg.encode()).hexdigest()
        assert digest == "6d68bda83e098c74ae8cab04ec14fec4102b84b531ca0b67d5986560217fd075"

    def test_fixed_solution_with_a_region(self):
        inst = Instance(
            [(-3.25, 0.0), (-0.0, 1e-3), (12.5, -7.125), (12.75, -7.0), (1e3, 2.5)],
            0.75,
            region_side=20.0,
        )
        centers = [(-3.0, 0.25), (12.6, -7.0), (1e3, 2.0), (0.0, 0.0)]
        sol = Solution("spiral", 0, centers, [[0], [2, 3], [4], [1]])
        digest = hashlib.sha256(render_svg(inst, sol).encode()).hexdigest()
        assert digest == "37f59fa03e29c88e1afcfc9bbff19f6e0731853f54dd033b0ffef48e6831cb45"
