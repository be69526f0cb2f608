"""Static SVG rendering of a scene and its plan trace."""

from __future__ import annotations

from .motion import home_tunnel
from .planner import InvalidPlanError, Plan, validate_plan
from .scene import Scene

# tab10-style palette, cycled over object ids
_PALETTE = (
    "#1f77b4",
    "#ff7f0e",
    "#2ca02c",
    "#d62728",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
    "#17becf",
)

_MARGIN = 30.0
_SCALE = 24.0  # pixels per workspace unit


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def render_svg(scene: Scene, plan: Plan) -> str:
    """One SVG 1.1 document: workspace, start/goal discs, numbered move arrows,
    and the first action's swept tunnels shaded.

    Raises ``InvalidPlanError`` when the plan does not validate against the
    scene.
    """
    check = validate_plan(scene, plan)
    if not check.valid:
        raise InvalidPlanError(f"plan failed validation at step {check.failed_step}: {check.reason}")

    ws = scene.workspace
    front_extent = max(0.0, -scene.robot_home.y) + 1.0
    width_px = 2 * _MARGIN + ws.width * _SCALE
    height_px = 2 * _MARGIN + (ws.depth + front_extent) * _SCALE

    def sx(x: float) -> float:
        return _MARGIN + x * _SCALE

    def sy(y: float) -> float:
        # +y points into the workspace; render it upward with the opening low.
        return _MARGIN + (ws.depth - y) * _SCALE

    def color(obj: int) -> str:
        return _PALETTE[obj % len(_PALETTE)]

    r_px = scene.object_radius * _SCALE
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width_px)}" height="{_fmt(height_px)}" '
        f'viewBox="0 0 {_fmt(width_px)} {_fmt(height_px)}">',
        "<defs>",
        '<marker id="arrow" viewBox="0 0 10 10" refX="9" refY="5" '
        'markerWidth="7" markerHeight="7" orient="auto-start-reverse">'
        '<path d="M 0 0 L 10 5 L 0 10 z" fill="#333"/></marker>',
        "</defs>",
        f'<rect x="{_fmt(sx(0))}" y="{_fmt(sy(ws.depth))}" width="{_fmt(ws.width * _SCALE)}" '
        f'height="{_fmt(ws.depth * _SCALE)}" fill="#fafafa" stroke="none"/>',
        # three walls solid, the front opening dashed
        f'<path d="M {_fmt(sx(0))} {_fmt(sy(0))} L {_fmt(sx(0))} {_fmt(sy(ws.depth))} '
        f'L {_fmt(sx(ws.width))} {_fmt(sy(ws.depth))} L {_fmt(sx(ws.width))} {_fmt(sy(0))}" '
        'fill="none" stroke="#444" stroke-width="2"/>',
        f'<line x1="{_fmt(sx(0))}" y1="{_fmt(sy(0))}" x2="{_fmt(sx(ws.width))}" y2="{_fmt(sy(0))}" '
        'stroke="#444" stroke-width="1" stroke-dasharray="6 4"/>',
    ]

    if plan.actions:
        first = plan.actions[0]
        for target, fill in ((first.src, "#4a90d9"), (first.dst, "#d95b4a")):
            corners = home_tunnel(scene, target).corners()
            pts = " ".join(f"{_fmt(sx(p.x))},{_fmt(sy(p.y))}" for p in corners)
            parts.append(f'<polygon points="{pts}" fill="{fill}" fill-opacity="0.15" stroke="none"/>')

    hx, hy = sx(scene.robot_home.x), sy(scene.robot_home.y)
    parts.append(f'<circle cx="{_fmt(hx)}" cy="{_fmt(hy)}" r="4" fill="#333"/>')
    parts.append(
        f'<text x="{_fmt(hx + 8)}" y="{_fmt(hy + 4)}" font-size="11" fill="#333">home</text>'
    )

    for obj, p in enumerate(scene.goal):
        parts.append(
            f'<circle cx="{_fmt(sx(p.x))}" cy="{_fmt(sy(p.y))}" r="{_fmt(r_px)}" fill="none" '
            f'stroke="{color(obj)}" stroke-width="2" stroke-dasharray="4 3"/>'
        )
    for obj, p in enumerate(scene.start):
        parts.append(
            f'<circle cx="{_fmt(sx(p.x))}" cy="{_fmt(sy(p.y))}" r="{_fmt(r_px)}" '
            f'fill="{color(obj)}" fill-opacity="0.85" stroke="none"/>'
        )
        parts.append(
            f'<text x="{_fmt(sx(p.x))}" y="{_fmt(sy(p.y) + 4)}" font-size="12" fill="#fff" '
            f'text-anchor="middle">{obj}</text>'
        )

    for step, act in enumerate(plan.actions, start=1):
        x1, y1 = sx(act.src.x), sy(act.src.y)
        x2, y2 = sx(act.dst.x), sy(act.dst.y)
        parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="#333" stroke-width="1.5" marker-end="url(#arrow)"/>'
        )
        mx, my = (x1 + x2) / 2, (y1 + y2) / 2
        parts.append(
            f'<circle cx="{_fmt(mx)}" cy="{_fmt(my)}" r="8" fill="#fff" stroke="#333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(mx)}" y="{_fmt(my + 4)}" font-size="11" fill="#333" '
            f'text-anchor="middle">{step}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts)
