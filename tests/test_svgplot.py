"""Tests for the hand-built SVG scene renderer."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from cdsa.cli import main
from cdsa.controller import control_episode
from cdsa.envs import ScriptedDirect, builtin_spec_path, load_env_spec
from cdsa.evaluation import emit_report, rollout_batch, summarize
from cdsa.neuralcore import Rng
from cdsa.svgplot import ARM_STYLE, MARGIN, VIEW, _fmt, _Mapper, _polyline, render_scene

SVG_NS = "{http://www.w3.org/2000/svg}"


def _spec(name="pointmass"):
    return load_env_spec(builtin_spec_path(name))


def _trajs(spec, n, seed0=0):
    return [control_episode(spec, ScriptedDirect(spec), None, None, Rng(seed0 + i))
            for i in range(n)]


def test_scene_parses_as_xml():
    spec = _spec("transport")
    root = ET.fromstring(render_scene(spec, {"baseline": _trajs(spec, 2)}))
    assert root.tag == f"{SVG_NS}svg"


def test_scene_has_geometry_elements():
    spec = _spec("transport")
    root = ET.fromstring(render_scene(spec))
    rects = root.findall(f"{SVG_NS}rect")
    circles = root.findall(f"{SVG_NS}circle")
    # arena frame + start box + 3 rect risk regions
    assert len(rects) == 2 + sum(r.shape == "rect" for r in spec.risk_regions)
    # goal ring + goal dot + airport circle (+ goods circle)
    assert len(circles) >= 3
    assert root.findall(f"{SVG_NS}path")  # landing-point cross


def test_scene_polylines_per_arm():
    spec = _spec()
    trajs = {"baseline": _trajs(spec, 3), "corrected": _trajs(spec, 2, seed0=10)}
    root = ET.fromstring(render_scene(spec, trajs))
    lines = root.findall(f"{SVG_NS}polyline")
    assert len(lines) == 5
    base_color, base_dash = ARM_STYLE["baseline"]
    dashed = [el for el in lines if el.get("stroke-dasharray") == base_dash]
    assert len(dashed) == 3
    assert all(el.get("stroke") == base_color for el in dashed)


def test_scene_skips_empty_trajectories():
    spec = _spec()
    traj = control_episode(spec, ScriptedDirect(spec), None, None, Rng(0),
                           max_steps=0)
    root = ET.fromstring(render_scene(spec, {"baseline": [traj]}))
    assert root.findall(f"{SVG_NS}polyline") == []


def test_quiver_line_count_matches_grid():
    spec = _spec()
    grid_n = 7
    text = render_scene(spec, quiver_fn=lambda pts: -pts, quiver_grid=grid_n)
    root = ET.fromstring(text)
    qv = [el for el in root.findall(f"{SVG_NS}line") if el.get("class") == "qv"]
    assert len(qv) == grid_n * grid_n
    # arrow lengths stay inside a cell: longest segment <= 0.9 * cell size
    span = float(np.min(spec.arena_max - spec.arena_min))
    cell_px = (600 - 2 * 40) / float(np.max(spec.arena_max - spec.arena_min)) \
        * span / grid_n
    for el in qv:
        dx = float(el.get("x2")) - float(el.get("x1"))
        dy = float(el.get("y2")) - float(el.get("y1"))
        assert np.hypot(dx, dy) <= 0.9 * cell_px + 0.02


def test_quiver_zero_field_draws_dots_only():
    spec = _spec()
    root = ET.fromstring(render_scene(spec, quiver_fn=np.zeros_like, quiver_grid=3))
    qv = [el for el in root.findall(f"{SVG_NS}line") if el.get("class") == "qv"]
    assert all(el.get("x1") == el.get("x2") and el.get("y1") == el.get("y2")
               for el in qv)


def test_y_axis_flips():
    spec = _spec()
    # goal sits at y=0.5 mid-arena; a state above it must map to a smaller
    # pixel y than one below it
    root = ET.fromstring(render_scene(spec))
    assert root.get("viewBox") == "0 0 600 600"
    from cdsa.svgplot import _Mapper
    m = _Mapper(spec)
    assert m.y(0.9) < m.y(0.1)
    assert m.x(0.9) > m.x(0.1)


def test_written_scenes_end_in_one_newline(tmp_path):
    # render_scene returns the document without a newline; its writers add one
    spec = _spec()
    trajs = []
    stats = rollout_batch(spec, ScriptedDirect(spec), None, None, episodes=1, base_seed=0,
                          trajectories_out=trajs, max_trajectories=1)
    emit_report(summarize(stats, stats, [50], spec=spec, trajectories={"baseline": trajs}),
                str(tmp_path / "r.csv"), str(tmp_path / "report.svg"))
    assert main(["plot", "--env", "pointmass", "--out", str(tmp_path / "plot.svg")]) == 0
    for name in ("report.svg", "plot.svg"):
        text = (tmp_path / name).read_text(encoding="utf-8")
        assert text.endswith("</svg>\n") and not text.endswith("\n\n")
        ET.fromstring(text)


@pytest.mark.parametrize("grid_n", [0, -3])
def test_quiver_grid_below_one_is_rejected(grid_n):
    with pytest.raises(ValueError, match=f"quiver_grid must be >= 1, got {grid_n}"):
        render_scene(_spec(), quiver_fn=lambda pts: -pts, quiver_grid=grid_n)


def test_polyline_points_match_the_per_point_format():
    # arena points that map onto pixels at two-decimal half-way values, just
    # below and above 0, and -0.0 itself; the first two are a one-step trajectory
    spec = _spec()
    m = _Mapper(spec)
    px = np.array([[0.125, 0.375], [100.005, 99.995], [-0.004, 520.0], [1e-9, -1e-9],
                   [599.995, 0.0]])
    pts = np.column_stack([spec.arena_min[0] + (px[:, 0] - MARGIN) / m.scale,
                           spec.arena_min[1] + (VIEW - MARGIN - px[:, 1]) / m.scale])
    pts = np.vstack([pts, [[-0.0, -0.0]]])
    for points in (pts, pts[:2]):
        want = " ".join(f"{_fmt(m.x(p[0]))},{_fmt(m.y(p[1]))}" for p in points)
        assert f'points="{want}"' in _polyline(points, m, "#000", None)
    assert "-0.00," in " ".join(f"{_fmt(m.x(p[0]))}," for p in pts)
