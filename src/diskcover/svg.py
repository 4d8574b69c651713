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

# One template per element, every number formatted as "%.2f".
_CIRCLE = (
    '<circle cx="%.2f" cy="%.2f" r="%.2f" '
    'fill="none" stroke="%s" stroke-width="1.2" stroke-dasharray="6 4"/>'
)
_TRIANGLE = '<polygon points="%.2f,%.2f %.2f,%.2f %.2f,%.2f" fill="%s"/>'
_SQUARE = (
    '<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" '
    'fill="%s" stroke="#222222" stroke-width="0.8"/>'
)


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

    # Canvas coordinates; SVG's y grows downward.
    spots = [((c[0] - min_x + margin) * scale, (max_y - c[1] + margin) * scale) for c in centers]
    colors = [_PALETTE[m % len(_PALETTE)] for m in range(len(centers))]

    color_of_point: dict[int, str] = {}
    for m, group in enumerate(sol.newly_covered):
        for k in group:
            color_of_point[k] = _PALETTE[m % len(_PALETTE)]

    out: list[str] = []
    out.append(
        '<svg xmlns="http://www.w3.org/2000/svg" '
        'viewBox="0 0 %.2f %.2f" width="%.2f" height="%.2f">' % (width, height, width, height)
    )
    out.append(
        '<defs><marker id="arrow" viewBox="0 0 10 10" refX="9" refY="5" '
        'markerWidth="7" markerHeight="7" orient="auto-start-reverse">'
        '<path d="M 0 1 L 9 5 L 0 9 z" fill="#c0392b"/></marker></defs>'
    )

    rs = r * scale
    out += [_CIRCLE % (x, y, rs, color) for (x, y), color in zip(spots, colors)]

    t = max(3.0, 0.009 * _CANVAS)
    dx, dy = 0.866 * t, 0.5 * t
    for k, p in enumerate(pts):
        x, y = (p[0] - min_x + margin) * scale, (max_y - p[1] + margin) * scale
        color = color_of_point.get(k, "#555555")
        out.append(_TRIANGLE % (x, y - t, x - dx, y + dy, x + dx, y + dy, color))

    if len(centers) >= 2:
        path = " ".join(["%.2f,%.2f" % spot for spot in spots])
        out.append(
            f'<polyline points="{path}" fill="none" stroke="#c0392b" stroke-width="1.6" '
            'stroke-dasharray="10 4 2 4" marker-mid="url(#arrow)" marker-end="url(#arrow)"/>'
        )

    side = 2 * t
    out += [_SQUARE % (x - t, y - t, side, side, color) for (x, y), color in zip(spots, colors)]

    out.append("</svg>")
    return "\n".join(out) + "\n"
