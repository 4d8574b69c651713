"""JSON instance and solution documents.

Instance numbers and ``runtime_ms`` carry 12 significant digits, which keeps
regenerated files byte-identical.  Solution centers are written exactly (the
shortest form that reads back as the same float): an optimal center lies
exactly r from two points, and 12 digits would move it past the slack.
"""

from __future__ import annotations

import json
import math
from typing import Any

from .problem import Instance, Solution


class SchemaError(ValueError):
    """A document failed schema validation."""


_INSTANCE_KEYS = {"radius", "region_side", "points"}
_SOLUTION_KEYS = {
    "algorithm",
    "seed",
    "m",
    "centers",
    "newly_covered",
    "runtime_ms",
    "feasible",
}


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _require_finite_number(value: Any, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{what} must be a number, got {value!r}")
    x = float(value)
    if not math.isfinite(x):
        raise SchemaError(f"{what} must be finite, got {value!r}")
    return x


def _parse_point_list(value: Any, what: str) -> list[tuple[float, float]]:
    if not isinstance(value, list) or not value:
        raise SchemaError(f"{what} must be a non-empty list")
    out = []
    for i, item in enumerate(value):
        if not isinstance(item, list) or len(item) != 2:
            raise SchemaError(f"{what}[{i}] must be an [x, y] pair")
        out.append(
            (
                _require_finite_number(item[0], f"{what}[{i}][0]"),
                _require_finite_number(item[1], f"{what}[{i}][1]"),
            )
        )
    return out


def _loads(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise SchemaError("document must be a JSON object")
    return doc


def parse_instance(text: str) -> Instance:
    doc = _loads(text)
    unknown = set(doc) - _INSTANCE_KEYS
    if unknown:
        raise SchemaError(f"unknown instance keys: {sorted(unknown)}")
    if "radius" not in doc or "points" not in doc:
        raise SchemaError("instance requires 'radius' and 'points'")
    radius = _require_finite_number(doc["radius"], "radius")
    side = None
    if "region_side" in doc and doc["region_side"] is not None:
        side = _require_finite_number(doc["region_side"], "region_side")
    points = _parse_point_list(doc["points"], "points")
    # Instance checks the value ranges.
    try:
        return Instance(points=points, radius=radius, region_side=side)
    except ValueError as e:
        raise SchemaError(str(e)) from e


def emit_instance(inst: Instance) -> str:
    parts = [f'  "radius": {_fmt(inst.radius)}']
    if inst.region_side is not None:
        parts.append(f'  "region_side": {_fmt(inst.region_side)}')
    rows = ",\n".join(f"    [{_fmt(x)}, {_fmt(y)}]" for x, y in inst.points)
    parts.append(f'  "points": [\n{rows}\n  ]')
    return "{\n" + ",\n".join(parts) + "\n}\n"


def parse_solution(text: str) -> tuple[Solution, bool]:
    doc = _loads(text)
    unknown = set(doc) - _SOLUTION_KEYS
    if unknown:
        raise SchemaError(f"unknown solution keys: {sorted(unknown)}")
    missing = _SOLUTION_KEYS - set(doc)
    if missing:
        raise SchemaError(f"missing solution keys: {sorted(missing)}")
    if not isinstance(doc["algorithm"], str):
        raise SchemaError("algorithm must be a string")
    if isinstance(doc["seed"], bool) or not isinstance(doc["seed"], int):
        raise SchemaError("seed must be an integer")
    if isinstance(doc["m"], bool) or not isinstance(doc["m"], int):
        raise SchemaError("m must be an integer")
    if not isinstance(doc["feasible"], bool):
        raise SchemaError("feasible must be a boolean")
    centers = _parse_point_list(doc["centers"], "centers")
    if doc["m"] != len(centers):
        raise SchemaError("m does not match the number of centers")
    runtime_ms = _require_finite_number(doc["runtime_ms"], "runtime_ms")
    groups = doc["newly_covered"]
    if not isinstance(groups, list) or len(groups) != len(centers):
        raise SchemaError("newly_covered must list one index group per center")
    newly: list[list[int]] = []
    for i, group in enumerate(groups):
        if not isinstance(group, list):
            raise SchemaError(f"newly_covered[{i}] must be a list")
        for k in group:
            if isinstance(k, bool) or not isinstance(k, int) or k < 0:
                raise SchemaError(f"newly_covered[{i}] has a bad index: {k!r}")
        newly.append(list(group))
    sol = Solution(
        algorithm=doc["algorithm"],
        seed=doc["seed"],
        centers=centers,
        newly_covered=newly,
        runtime=runtime_ms / 1000.0,
    )
    return sol, doc["feasible"]


def emit_solution(sol: Solution, feasible: bool) -> str:
    centers = ",\n".join(f"    [{float(x)!r}, {float(y)!r}]" for x, y in sol.centers)
    groups = ",\n".join(
        "    [" + ", ".join(str(k) for k in group) + "]" for group in sol.newly_covered
    )
    return (
        "{\n"
        f'  "algorithm": {json.dumps(sol.algorithm)},\n'
        f'  "seed": {sol.seed},\n'
        f'  "m": {sol.m},\n'
        f'  "centers": [\n{centers}\n  ],\n'
        f'  "newly_covered": [\n{groups}\n  ],\n'
        f'  "runtime_ms": {_fmt(sol.runtime * 1000.0)},\n'
        f'  "feasible": {json.dumps(feasible)}\n'
        "}\n"
    )
