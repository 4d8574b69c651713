"""Per-layer spans recorded from outside the package.

The tracer replaces module attributes of ``diskcover`` with timing wrappers.
``from .geometry import one_center`` binds the name in each caller module, so
patching ``diskcover.spiral.one_center`` and ``diskcover.baselines.one_center``
separately also records who called.  ``covers`` and ``dist`` are left alone:
the oracle calls ``covers`` about 7*10**5 times per K=80 topology (three
ratios), and a wrapper would mostly measure itself.

A span is the tuple ``(name, caller, parent, t0, t1, size, extra)``; ``parent``
is the index of the enclosing span or -1, ``size`` the amount of work (input
points, or text bytes read or written) and ``extra`` a figure of the result
(radius, candidate count, disk count) or, when the call raised, the
exception's class name.
"""

from __future__ import annotations

import gzip
import importlib
import json
from time import perf_counter
from typing import Any, Callable

from diskcover.geometry import within_radius


def _points(args, out):
    return len(args[0]), None


def _radius(args, out):
    return len(args[0]), out.radius


def _instance(args, out):
    return args[0].k, args[0].radius


def _count(args, out):
    return args[0].k, len(out)


def _disks(args, out):
    return args[0].k, out.m


def _text_in(args, out):
    return len(args[0]), None


def _text_out(args, out):
    return len(out), None


def _nothing(args, out):
    return None, None


# What each span name records; the key is the layer that owns the function.
MEASURES: dict[str, Callable[[tuple, Any], tuple]] = {
    "geometry.one_center": _radius,
    "geometry.convex_hull": _points,
    "spiral.local_cover": _nothing,
    "spiral.solve_spiral": _disks,
    "baselines.solve_strip": _instance,
    "baselines.solve_kmeans": _instance,
    "baselines.solve_random": _instance,
    "exact.generate_candidates": _count,
    "exact.min_cover": _disks,
    "problem.solution_violations": _count,
    "bench.generate_topology": _nothing,
    "bench.run_campaign": _nothing,
    "files.parse_instance": _text_in,
    "files.parse_solution": _text_in,
    "files.emit_instance": _text_out,
    "files.emit_solution": _text_out,
    "svg.render_svg": _text_out,
}

# (caller module, attribute, span name): the names the package resolves at
# call time.  The benchmark's own calls into the package go through
# Tracer.call instead.
PATCHES = (
    ("spiral", "convex_hull", "geometry.convex_hull"),
    ("spiral", "one_center", "geometry.one_center"),
    ("spiral", "local_cover", "spiral.local_cover"),
    ("baselines", "one_center", "geometry.one_center"),
    ("exact", "generate_candidates", "exact.generate_candidates"),
    ("bench", "solve_spiral", "spiral.solve_spiral"),
    ("bench", "solve_strip", "baselines.solve_strip"),
    ("bench", "solve_kmeans", "baselines.solve_kmeans"),
    ("bench", "solve_random", "baselines.solve_random"),
    ("bench", "min_cover", "exact.min_cover"),
    ("bench", "solution_violations", "problem.solution_violations"),
    ("bench", "generate_topology", "bench.generate_topology"),
)


def call_untraced(name: str, fn: Callable, *args, **kwargs):
    """The benchmark's call into a layer when tracing is off."""
    return fn(*args, **kwargs)


class Tracer:
    """Spans in memory, with parent ids, for one benchmark run."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._open: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def _span(self, name: str, caller: str, fn: Callable, args: tuple, kwargs: dict):
        spans = self.spans
        i = len(spans)
        spans.append(None)
        stack = self._open
        parent = stack[-1] if stack else -1
        stack.append(i)
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except BaseException as e:
            t1 = perf_counter()
            stack.pop()
            spans[i] = (name, caller, parent, t0, t1, None, type(e).__name__)
            raise
        t1 = perf_counter()
        stack.pop()
        spans[i] = (name, caller, parent, t0, t1) + MEASURES[name](args, out)
        return out

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """The benchmark's call into a layer, recorded as a span."""
        return self._span(name, "perfbench", fn, args, kwargs)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name in PATCHES:
            module = importlib.import_module(f"diskcover.{module_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrapper(name, module_name, original))

    def _wrapper(self, name: str, caller: str, fn: Callable) -> Callable:
        span = self._span

        def traced(*args, **kwargs):
            return span(name, caller, fn, args, kwargs)

        return traced

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        fields = ["name", "caller", "parent", "t0", "t1", "size", "extra"]
        with gzip.open(path, "wt", compresslevel=1) as f:
            json.dump({"fields": fields, "spans": self.spans}, f)


def patched_attributes() -> list[str]:
    """Patch targets whose current value is not the package's own function."""
    stray = []
    for module_name, attr, _ in PATCHES:
        module = importlib.import_module(f"diskcover.{module_name}")
        if not getattr(module, attr).__module__.startswith("diskcover."):
            stray.append(f"diskcover.{module_name}.{attr}")
    return stray


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer totals over `spans`: calls, input sizes, time and self time.

    Self time is a span's duration minus the durations of its direct children.
    """
    n = len(spans)
    dur = [s[4] - s[3] for s in spans]
    child = [0.0] * n
    for s, d in zip(spans, dur):
        if s[2] >= 0:
            child[s[2]] += d

    calls: dict[str, int] = {}
    size: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    kmeans_checks = kmeans_rejects = budget = candidates = 0
    for i, s in enumerate(spans):
        name = s[0]
        calls[name] = calls.get(name, 0) + 1
        size[name] = size.get(name, 0) + (s[5] or 0)
        total[name] = total.get(name, 0.0) + dur[i]
        self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]
        if name == "geometry.one_center" and s[2] >= 0:
            parent = spans[s[2]]
            if parent[0] == "baselines.solve_kmeans" and isinstance(parent[6], float):
                kmeans_checks += 1
                if isinstance(s[6], float) and not within_radius(parent[6], s[6]):
                    kmeans_rejects += 1
        elif name == "exact.min_cover" and s[6] == "BudgetExceededError":
            budget += 1
        elif name == "exact.generate_candidates" and isinstance(s[6], int):
            candidates += s[6]

    return {
        "geometry.one_center.calls": calls.get("geometry.one_center", 0),
        "geometry.one_center.points": size.get("geometry.one_center", 0),
        "geometry.one_center.s": total.get("geometry.one_center", 0.0),
        "geometry.convex_hull.calls": calls.get("geometry.convex_hull", 0),
        "geometry.convex_hull.points": size.get("geometry.convex_hull", 0),
        "geometry.convex_hull.s": total.get("geometry.convex_hull", 0.0),
        "spiral.local_cover.calls": calls.get("spiral.local_cover", 0),
        "spiral.local_cover.self_s": self_s.get("spiral.local_cover", 0.0),
        "spiral.solve_spiral.self_s": self_s.get("spiral.solve_spiral", 0.0),
        "baselines.solve_kmeans.s": total.get("baselines.solve_kmeans", 0.0),
        "baselines.solve_kmeans.self_s": self_s.get("baselines.solve_kmeans", 0.0),
        "baselines.kmeans.one_center.calls": kmeans_checks,
        "baselines.kmeans.reject_ratio": kmeans_rejects / kmeans_checks if kmeans_checks else 0.0,
        "baselines.solve_strip.s": total.get("baselines.solve_strip", 0.0),
        "baselines.solve_random.s": total.get("baselines.solve_random", 0.0),
        "exact.generate_candidates.s": total.get("exact.generate_candidates", 0.0),
        "exact.candidates": candidates,
        "exact.search.s": total.get("exact.min_cover", 0.0)
        - total.get("exact.generate_candidates", 0.0),
        "exact.budget_exceeded": budget,
        "problem.solution_violations.s": total.get("problem.solution_violations", 0.0),
        "bench.generate_topology.s": total.get("bench.generate_topology", 0.0),
        "bench.run_campaign.self_s": self_s.get("bench.run_campaign", 0.0),
        "files.parse_instance.s": total.get("files.parse_instance", 0.0),
        "files.emit_solution.s": total.get("files.emit_solution", 0.0),
        "svg.render_svg.s": total.get("svg.render_svg", 0.0),
        "files.bytes": size.get("files.parse_instance", 0) + size.get("files.emit_solution", 0),
        "svg.bytes": size.get("svg.render_svg", 0),
    }
