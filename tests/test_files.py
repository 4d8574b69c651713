import pytest

from diskcover import Instance, Solution
from diskcover.files import (
    SchemaError,
    emit_instance,
    emit_solution,
    parse_instance,
    parse_solution,
)
from diskcover.bench import generate_topology


class TestInstanceRoundTrip:
    def test_document_round_trip_is_identity(self):
        inst = generate_topology(25, 3.0, seed=77, radius=0.5)
        text = emit_instance(inst)
        assert emit_instance(parse_instance(text)) == text

    def test_model_fixed_point(self):
        inst = generate_topology(10, 2.0, seed=3, radius=0.4)
        once = parse_instance(emit_instance(inst))
        twice = parse_instance(emit_instance(once))
        assert once.points == twice.points
        assert once.radius == twice.radius
        assert once.region_side == twice.region_side

    def test_region_side_optional(self):
        inst = Instance(points=[(0.0, 0.0)], radius=1.0)
        text = emit_instance(inst)
        assert "region_side" not in text
        assert parse_instance(text).region_side is None


class TestInstanceSchema:
    def test_unknown_key_rejected(self):
        with pytest.raises(SchemaError):
            parse_instance('{"radius": 1.0, "points": [[0, 0]], "extra": 1}')

    def test_missing_radius_rejected(self):
        with pytest.raises(SchemaError):
            parse_instance('{"points": [[0, 0]]}')

    def test_bad_radius_rejected(self):
        with pytest.raises(SchemaError):
            parse_instance('{"radius": 0, "points": [[0, 0]]}')
        with pytest.raises(SchemaError):
            parse_instance('{"radius": "wide", "points": [[0, 0]]}')

    def test_nonpositive_region_side_rejected(self):
        for side in ("0", "-2.5"):
            with pytest.raises(SchemaError, match="region_side must be finite and positive"):
                parse_instance(f'{{"radius": 1.0, "region_side": {side}, "points": [[0, 0]]}}')

    def test_empty_points_rejected(self):
        with pytest.raises(SchemaError):
            parse_instance('{"radius": 1.0, "points": []}')

    def test_malformed_point_rejected(self):
        with pytest.raises(SchemaError):
            parse_instance('{"radius": 1.0, "points": [[0]]}')
        with pytest.raises(SchemaError):
            parse_instance('{"radius": 1.0, "points": [[0, null]]}')

    def test_not_json_rejected(self):
        with pytest.raises(SchemaError):
            parse_instance("radius: 1")
        with pytest.raises(SchemaError):
            parse_instance("[1, 2]")


class TestSolutionFiles:
    def sample(self):
        return Solution(
            algorithm="spiral",
            seed=5,
            centers=[(0.25, 0.5), (1.5, 2.0)],
            newly_covered=[[0, 2], [1]],
            runtime=0.0421,
        )

    def test_round_trip(self):
        text = emit_solution(self.sample(), feasible=True)
        sol, feasible = parse_solution(text)
        assert feasible is True
        assert sol.algorithm == "spiral"
        assert sol.seed == 5
        assert sol.m == 2
        assert sol.centers == [(0.25, 0.5), (1.5, 2.0)]
        assert sol.newly_covered == [[0, 2], [1]]
        assert sol.runtime == pytest.approx(0.0421, rel=1e-9)
        assert emit_solution(sol, feasible) == text

    def test_m_mismatch_rejected(self):
        text = emit_solution(self.sample(), feasible=True).replace('"m": 2', '"m": 3')
        with pytest.raises(SchemaError):
            parse_solution(text)

    def test_missing_key_rejected(self):
        with pytest.raises(SchemaError):
            parse_solution('{"algorithm": "spiral"}')
