"""Hand-built SVG scenes: arena geometry, trajectories, and score quivers.

No plotting dependency; documents are assembled as strings and kept simple
enough to validate with an XML parser. Arena coordinates map to a fixed
viewport with the y axis flipped so plots read the usual way up.
"""

from __future__ import annotations

import numpy as np

from .envs import EnvSpec, Region

VIEW = 600
MARGIN = 40

REGION_FILL = {
    "river": "#7db3e8",
    "mountain": "#b0a18c",
    "ice": "#cfe8f0",
    "risk_circle": "#e07a7a",
}
ARM_STYLE = {
    "baseline": ("#5b8def", "4 3"),
    "corrected": ("#2aa876", None),
}


class _Mapper:
    def __init__(self, spec: EnvSpec):
        self.lo = spec.arena_min
        span = spec.arena_max - spec.arena_min
        self.scale = (VIEW - 2 * MARGIN) / float(np.max(span))

    def x(self, v: float) -> float:
        return MARGIN + (v - self.lo[0]) * self.scale

    def y(self, v: float) -> float:
        return VIEW - MARGIN - (v - self.lo[1]) * self.scale

    def pt(self, p) -> tuple[float, float]:
        return self.x(float(p[0])), self.y(float(p[1]))


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _region_svg(reg: Region, m: _Mapper, fill: str, opacity: float = 0.55) -> str:
    if reg.shape == "circle":
        cx, cy = m.pt(reg.center)
        r = reg.radius * m.scale
        return (f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" '
                f'fill="{fill}" fill-opacity="{opacity}"/>')
    x0, y1 = m.pt(reg.rect_min)
    x1, y0 = m.pt(reg.rect_max)
    return (f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(x1 - x0)}" '
            f'height="{_fmt(y1 - y0)}" fill="{fill}" fill-opacity="{opacity}"/>')


def _geometry(spec: EnvSpec, m: _Mapper) -> list[str]:
    parts = []
    x0, y1 = m.pt(spec.arena_min)
    x1, y0 = m.pt(spec.arena_max)
    parts.append(f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(x1 - x0)}" '
                 f'height="{_fmt(y1 - y0)}" fill="#fafafa" stroke="#444"/>')
    sx0, sy1 = m.pt(spec.start_min)
    sx1, sy0 = m.pt(spec.start_max)
    parts.append(f'<rect x="{_fmt(sx0)}" y="{_fmt(sy0)}" width="{_fmt(max(sx1 - sx0, 2.0))}" '
                 f'height="{_fmt(max(sy1 - sy0, 2.0))}" fill="none" stroke="#777" '
                 f'stroke-dasharray="3 3"/>')
    for reg in spec.risk_regions:
        parts.append(_region_svg(reg, m, REGION_FILL.get(reg.label, "#e07a7a")))
    if spec.goods_region is not None:
        parts.append(_region_svg(spec.goods_region, m, "#58b368", 0.7))
    if spec.airport_region is not None:
        parts.append(_region_svg(spec.airport_region, m, "#9b7fd4", 0.7))
    if spec.landing_point is not None:
        lx, ly = m.pt(spec.landing_point)
        parts.append(f'<path d="M {_fmt(lx - 5)} {_fmt(ly - 5)} L {_fmt(lx + 5)} {_fmt(ly + 5)} '
                     f'M {_fmt(lx - 5)} {_fmt(ly + 5)} L {_fmt(lx + 5)} {_fmt(ly - 5)}" '
                     f'stroke="#9b7fd4" stroke-width="2"/>')
    gx, gy = m.pt(spec.goal)
    gr = spec.capture_radius * m.scale
    parts.append(f'<circle cx="{_fmt(gx)}" cy="{_fmt(gy)}" r="{_fmt(gr)}" '
                 f'fill="none" stroke="#d4a017" stroke-width="2"/>')
    parts.append(f'<circle cx="{_fmt(gx)}" cy="{_fmt(gy)}" r="2.5" fill="#d4a017"/>')
    return parts


def _polyline(points: np.ndarray, m: _Mapper, color: str, dash: str | None) -> str:
    # both columns mapped at once, then formatted as _fmt formats each one
    xy = np.column_stack([m.x(points[:, 0]), m.y(points[:, 1])]).ravel().tolist()
    coords = " ".join(["%.2f,%.2f"] * len(points)) % tuple(xy)
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.4" stroke-opacity="0.8"{dash_attr}/>')


def _quiver(spec: EnvSpec, m: _Mapper, quiver_fn, grid_n: int) -> list[str]:
    span = spec.arena_max - spec.arena_min
    xs = spec.arena_min[0] + (np.arange(grid_n) + 0.5) * span[0] / grid_n
    ys = spec.arena_min[1] + (np.arange(grid_n) + 0.5) * span[1] / grid_n
    pts = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    vecs = np.asarray(quiver_fn(pts), dtype=np.float64)
    mags = np.linalg.norm(vecs, axis=1)
    top = float(np.max(mags)) if len(mags) and np.max(mags) > 0 else 1.0
    cell_px = m.scale * float(np.min(span)) / grid_n
    parts = []
    for p, v, mag in zip(pts, vecs, mags):
        x0, y0 = m.pt(p)
        length = 0.9 * cell_px * mag / top
        if mag > 0:
            dx = v[0] / mag * length
            dy = -v[1] / mag * length
        else:
            dx = dy = 0.0
        parts.append(f'<line class="qv" x1="{_fmt(x0)}" y1="{_fmt(y0)}" '
                     f'x2="{_fmt(x0 + dx)}" y2="{_fmt(y0 + dy)}" '
                     f'stroke="#555" stroke-width="0.8"/>')
        parts.append(f'<circle cx="{_fmt(x0)}" cy="{_fmt(y0)}" r="0.8" fill="#555"/>')
    return parts


def render_scene(spec: EnvSpec, trajectories: dict | None = None,
                 quiver_fn=None, quiver_grid: int = 20) -> str:
    """Compose a full scene. trajectories maps arm name to Trajectory lists,
    each drawn in full; quiver_fn maps an (N, 2) array of states to (N, 2)
    arrow vectors, drawn on a quiver_grid x quiver_grid grid (ValueError
    unless quiver_grid >= 1)."""
    if quiver_grid < 1:
        raise ValueError(f"quiver_grid must be >= 1, got {quiver_grid}")
    m = _Mapper(spec)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{VIEW}" height="{VIEW}" '
             f'viewBox="0 0 {VIEW} {VIEW}">']
    parts.extend(_geometry(spec, m))
    if quiver_fn is not None:
        parts.extend(_quiver(spec, m, quiver_fn, quiver_grid))
    for arm, trajs in (trajectories or {}).items():
        color, dash = ARM_STYLE.get(arm, ("#666", None))
        for traj in trajs:
            if len(traj) == 0:
                continue
            pts = np.vstack([traj.states, traj.final_state[None, :]])
            parts.append(_polyline(pts, m, color, dash))
    parts.append("</svg>")
    return "\n".join(parts)
