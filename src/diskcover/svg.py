"""Static SVG rendering of a placement: points, disks, and the placement path."""

from __future__ import annotations

from .problem import Instance, Solution

_PALETTE = (
    "#1b9e77",
    "#d95f02",
    "#7570b3",
    "#e7298a",
    "#66a61e",
    "#e6ab02",
    "#a6761d",
    "#1f78b4",
    "#b2182b",
    "#542788",
)

_CANVAS = 720.0


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def render_svg(inst: Instance, sol: Solution) -> str:
    """One SVG document: a triangle per point, and per disk a square center
    marker plus a dashed coverage circle, all color-grouped by disk; disk
    centers are chained in placement order by a dash-dotted arrow path.
    """
    r = inst.radius
    pts = inst.points
    centers = sol.centers

    xs = [p[0] for p in pts] + [c[0] + s * r for c in centers for s in (-1.0, 1.0)]
    ys = [p[1] for p in pts] + [c[1] + s * r for c in centers for s in (-1.0, 1.0)]
    if inst.region_side is not None:
        xs += [0.0, inst.region_side]
        ys += [0.0, inst.region_side]
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    extent = max(max_x - min_x, max_y - min_y, r)
    margin = 0.05 * extent
    scale = _CANVAS / (extent + 2.0 * margin)
    width = (max_x - min_x + 2.0 * margin) * scale
    height = (max_y - min_y + 2.0 * margin) * scale

    def sx(x: float) -> float:
        return (x - min_x + margin) * scale

    def sy(y: float) -> float:
        return (max_y - y + margin) * scale  # flip: SVG y grows downward

    color_of_point: dict[int, str] = {}
    for m, group in enumerate(sol.newly_covered):
        for k in group:
            color_of_point[k] = _PALETTE[m % len(_PALETTE)]

    out: list[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}" '
        f'width="{_fmt(width)}" height="{_fmt(height)}">'
    )
    out.append(
        '<defs><marker id="arrow" viewBox="0 0 10 10" refX="9" refY="5" '
        'markerWidth="7" markerHeight="7" orient="auto-start-reverse">'
        '<path d="M 0 1 L 9 5 L 0 9 z" fill="#c0392b"/></marker></defs>'
    )

    for m, c in enumerate(centers):
        color = _PALETTE[m % len(_PALETTE)]
        out.append(
            f'<circle cx="{_fmt(sx(c[0]))}" cy="{_fmt(sy(c[1]))}" r="{_fmt(r * scale)}" '
            f'fill="none" stroke="{color}" stroke-width="1.2" stroke-dasharray="6 4"/>'
        )

    t = max(3.0, 0.009 * _CANVAS)
    for k, p in enumerate(pts):
        color = color_of_point.get(k, "#555555")
        x, y = sx(p[0]), sy(p[1])
        out.append(
            f'<polygon points="{_fmt(x)},{_fmt(y - t)} {_fmt(x - 0.866 * t)},{_fmt(y + 0.5 * t)} '
            f'{_fmt(x + 0.866 * t)},{_fmt(y + 0.5 * t)}" fill="{color}"/>'
        )

    if len(centers) >= 2:
        path = " ".join(f"{_fmt(sx(c[0]))},{_fmt(sy(c[1]))}" for c in centers)
        out.append(
            f'<polyline points="{path}" fill="none" stroke="#c0392b" stroke-width="1.6" '
            'stroke-dasharray="10 4 2 4" marker-mid="url(#arrow)" marker-end="url(#arrow)"/>'
        )

    for m, c in enumerate(centers):
        color = _PALETTE[m % len(_PALETTE)]
        x, y = sx(c[0]), sy(c[1])
        out.append(
            f'<rect x="{_fmt(x - t)}" y="{_fmt(y - t)}" width="{_fmt(2 * t)}" height="{_fmt(2 * t)}" '
            f'fill="{color}" stroke="#222222" stroke-width="0.8"/>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"
