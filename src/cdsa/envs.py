"""Continuous 2-D navigation environments with risky regions, plus base policies.

Three environment kinds share one transition rule (clipped action times dt,
clamped to the arena): a risky point-mass arena, a risky transportation map
with river/mountain/ice rectangles and optional goods/airport task variants,
and a free linear point used for inverse-dynamics ground truth. Entering a
risk region triggers a large penalty with small probability; occupancy is
reported deterministically so risk statistics stay low-variance.

All numeric layout lives in versioned, hand-written JSON spec files (read
here, written nowhere), not in code. Episode bookkeeping that is not part of
the observed state (step count, goods visited, airport used) rides in
EnvState so the observed state keeps the same dims across task variants.

Stepping is batched: env_step_rows advances many episodes at once from an
EnvStates (one row per episode, each row with its own rng stream) on actions
the caller has checked and clipped, and env_step is its one-row case, which
checks and clips the action itself. Policies act on batches the same way.

Base policies: a straight-to-target scripted policy, a grid-planning scripted
policy that avoids inflated risk regions (gen-data's default, and an eval base
policy), a uniform random policy, and a behavior-cloned MLP.
"""

from __future__ import annotations

import heapq
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .dataset import Dataset, NormStats
from .neuralcore import (
    Arch,
    InferenceNet,
    MlpParams,
    Rng,
    TrainConfig,
    forward_batch,
    mse_loss,
    row_norms,
    train_mlp,
)
from .readers import Fields, read_json

ENV_KINDS = ("risky_pointmass", "risky_transport", "linear_point")
VARIANTS = ("pathfinding", "goods", "airport")

SPEC_FORMAT = "cdsa-envspec"
SPEC_VERSION = 1


class EnvError(ValueError):
    """Invalid environment spec, state, or action."""


class PlanningError(RuntimeError):
    """The grid planner found no safe route."""


@dataclass
class Region:
    """Circle or axis-aligned rectangle with a semantic label."""

    shape: str
    label: str
    center: np.ndarray | None = None
    radius: float | None = None
    rect_min: np.ndarray | None = None
    rect_max: np.ndarray | None = None

    def validate(self) -> None:
        if self.shape == "circle":
            if (self.center is None or self.radius is None
                    or not (math.isfinite(self.radius) and self.radius > 0)):
                raise EnvError(f"circle region needs center and a finite radius > 0: {self}")
        elif self.shape == "rect":
            if self.rect_min is None or self.rect_max is None:
                raise EnvError(f"rect region needs min and max: {self}")
            if not np.all(self.rect_min < self.rect_max):
                raise EnvError(f"rect region needs min < max elementwise: {self}")
        else:
            raise EnvError(f"unknown region shape {self.shape!r}")

    def contains_many(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=np.float64)
        if self.shape == "circle":
            d = pts - self.center
            return (d * d).sum(axis=1) <= self.radius**2
        return np.all((pts >= self.rect_min) & (pts <= self.rect_max), axis=1)

    def inflated(self, margin: float) -> "Region":
        if self.shape == "circle":
            return replace(self, radius=self.radius + margin)
        return replace(self, rect_min=self.rect_min - margin, rect_max=self.rect_max + margin)

    def reference_point(self) -> np.ndarray:
        if self.shape == "circle":
            return np.array(self.center, dtype=np.float64)
        return (self.rect_min + self.rect_max) / 2.0

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        if self.shape == "circle":
            r = np.array([self.radius, self.radius])
            return self.center - r, self.center + r
        return self.rect_min, self.rect_max


def _read_region(f: Fields | None) -> Region | None:
    if f is None:
        return None
    shape = f.string("shape", ("circle", "rect"))
    label = f.string("label", default="")
    if shape == "circle":
        reg = Region(shape=shape, label=label, center=f.array("center", (2,)),
                     radius=f.number("radius"))
    else:
        reg = Region(shape=shape, label=label, rect_min=f.array("min", (2,)),
                     rect_max=f.array("max", (2,)))
    reg.validate()
    return reg


@dataclass
class EnvSpec:
    kind: str
    name: str
    state_dim: int
    action_dim: int
    arena_min: np.ndarray
    arena_max: np.ndarray
    dt: float
    start_min: np.ndarray
    start_max: np.ndarray
    goal: np.ndarray
    capture_radius: float
    risk_regions: list[Region]
    risk_penalty: float
    risk_prob: float
    step_cost: float
    max_steps: int
    action_low: np.ndarray
    action_high: np.ndarray
    variant: str = "pathfinding"
    goods_region: Region | None = None
    airport_region: Region | None = None
    landing_point: np.ndarray | None = None

    def validate(self) -> None:
        if self.kind not in ENV_KINDS:
            raise EnvError(f"unknown env kind {self.kind!r}")
        if self.variant not in VARIANTS:
            raise EnvError(f"unknown variant {self.variant!r}")
        if self.state_dim != 2 or self.action_dim != 2:
            raise EnvError("only 2-D navigation is supported")
        if not np.all(self.arena_min < self.arena_max):
            raise EnvError("arena_min must be < arena_max elementwise")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise EnvError(f"dt must be finite and > 0, got {self.dt}")
        if self.max_steps < 1:
            raise EnvError(f"max_steps must be >= 1, got {self.max_steps}")
        if not 0.0 <= self.risk_prob <= 1.0:
            raise EnvError(f"risk_prob must be in [0, 1], got {self.risk_prob}")
        if not (math.isfinite(self.risk_penalty) and self.risk_penalty <= 0):
            raise EnvError(f"risk_penalty must be finite and <= 0, got {self.risk_penalty}")
        if not (math.isfinite(self.step_cost) and self.step_cost >= 0):
            raise EnvError(f"step_cost must be finite and >= 0, got {self.step_cost}")
        if not (math.isfinite(self.capture_radius) and self.capture_radius > 0):
            raise EnvError(f"capture_radius must be finite and > 0, got {self.capture_radius}")
        if not np.all(self.action_low < self.action_high):
            raise EnvError("action_low must be < action_high elementwise")
        if not (np.all(self.start_min <= self.start_max)
                and self._in_arena(self.start_min) and self._in_arena(self.start_max)):
            raise EnvError("start box must sit inside the arena")
        if not self._in_arena(self.goal):
            raise EnvError("goal must sit inside the arena")
        for reg in self.risk_regions:
            reg.validate()
            lo, hi = reg.bounds()
            if not (self._in_arena(lo) and self._in_arena(hi)):
                raise EnvError(f"region {reg.label} sticks out of the arena")
        if self.variant == "goods" and self.goods_region is None:
            raise EnvError("goods variant needs goods_region")
        if self.variant == "airport":
            if self.airport_region is None or self.landing_point is None:
                raise EnvError("airport variant needs airport_region and landing_point")
            if not self._in_arena(self.landing_point):
                raise EnvError("landing_point must sit inside the arena")

    def _in_arena(self, p: np.ndarray) -> bool:
        return bool(np.all(p >= self.arena_min) and np.all(p <= self.arena_max))

    def with_variant(self, variant: str) -> "EnvSpec":
        """Same geometry, different task variant; validates the switch."""
        out = replace(self, variant=variant)
        out.validate()
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "EnvSpec":
        f = Fields(d, EnvError)
        f.header(SPEC_FORMAT, SPEC_VERSION)
        kind = f.string("kind", ENV_KINDS)
        ds, da = f.integer("state_dim"), f.integer("action_dim")
        arena, start, goal = f.object("arena"), f.object("start"), f.object("goal")
        risk, bounds = f.object("risk"), f.object("action_bounds")
        spec = cls(
            kind=kind,
            name=f.string("name", default=kind),
            state_dim=ds,
            action_dim=da,
            arena_min=arena.array("min", (ds,)),
            arena_max=arena.array("max", (ds,)),
            dt=f.number("dt"),
            start_min=start.array("min", (ds,)),
            start_max=start.array("max", (ds,)),
            goal=goal.array("position", (ds,)),
            capture_radius=goal.number("capture_radius"),
            risk_regions=[_read_region(r) for r in risk.objects("regions")],
            risk_penalty=risk.number("penalty"),
            risk_prob=risk.number("prob"),
            step_cost=f.number("step_cost"),
            max_steps=f.integer("max_steps"),
            action_low=bounds.array("low", (da,)),
            action_high=bounds.array("high", (da,)),
            variant=f.string("variant", VARIANTS, default="pathfinding"),
            goods_region=_read_region(f.object("goods_region", None)),
            airport_region=_read_region(f.object("airport_region", None)),
            landing_point=f.array("landing_point", (ds,), default=None),
        )
        spec.validate()
        return spec


def load_env_spec(path: str) -> EnvSpec:
    d = read_json(path, EnvError, "env spec")
    try:
        return EnvSpec.from_dict(d)
    except EnvError as exc:
        raise EnvError(f"env spec {path}: {exc}") from None


def builtin_spec_path(name: str) -> str:
    """Path of a spec file shipped with the package (pointmass, transport, linear)."""
    path = os.path.join(os.path.dirname(__file__), "envspecs", f"{name}.json")
    if not os.path.exists(path):
        raise EnvError(f"no builtin env spec named {name!r}")
    return path


def risk_occupancy(spec: EnvSpec, pts: np.ndarray) -> np.ndarray:
    """Per-row flag: does the (n, 2) point lie inside any risk region."""
    hit = np.zeros(len(pts), dtype=bool)
    for reg in spec.risk_regions:
        hit |= reg.contains_many(pts)
    return hit


@dataclass
class EnvState:
    """Full per-episode state: observed position plus episode bookkeeping."""

    s: np.ndarray
    steps: int = 0
    goods_visited: bool = False
    airport_used: bool = False


@dataclass
class EnvStates:
    """The EnvState of n episodes as arrays; row i is episode i.

    s has shape (n, state_dim); the bookkeeping fields have shape (n,).
    """

    s: np.ndarray
    steps: np.ndarray
    goods_visited: np.ndarray
    airport_used: np.ndarray

    def __len__(self) -> int:
        return len(self.s)

    @classmethod
    def stack(cls, states: list[EnvState]) -> "EnvStates":
        return cls(
            s=np.array([st.s for st in states], dtype=np.float64).reshape(len(states), -1),
            steps=np.array([st.steps for st in states], dtype=np.int64),
            goods_visited=np.array([st.goods_visited for st in states], dtype=bool),
            airport_used=np.array([st.airport_used for st in states], dtype=bool),
        )

    def row(self, i: int) -> EnvState:
        return EnvState(s=self.s[i].copy(), steps=int(self.steps[i]),
                        goods_visited=bool(self.goods_visited[i]),
                        airport_used=bool(self.airport_used[i]))

    def take(self, idx) -> "EnvStates":
        """The rows selected by an index array or boolean mask, as a new batch."""
        return EnvStates(self.s[idx], self.steps[idx], self.goods_visited[idx],
                         self.airport_used[idx])

    def put(self, idx, src: "EnvStates") -> None:
        """Overwrite the rows selected by idx with the rows of src, in place."""
        self.s[idx] = src.s
        self.steps[idx] = src.steps
        self.goods_visited[idx] = src.goods_visited
        self.airport_used[idx] = src.airport_used


def env_reset(spec: EnvSpec, rng: Rng) -> EnvState:
    s = rng.uniform(spec.start_min, spec.start_max, size=spec.state_dim)
    return EnvState(s=np.asarray(s, dtype=np.float64))


def env_step_rows(spec: EnvSpec, st: EnvStates, a: np.ndarray, rngs: list):
    """One dynamics step of n episodes at once; row i draws from rngs[i].

    Returns (next EnvStates, rewards, dones, risk_entered), the last three of
    shape (n,). Every row consumes exactly one uniform draw from its own
    stream for the risk Bernoulli, whether or not it occupies a risk region,
    so paired-seed runs stay aligned. A row's result does not depend on the
    other rows or on n. Inputs are trusted: the spec is validated, and a is
    a finite float (n, action_dim) array inside the action bounds, with one
    rng per row; the episode runner's actions are, by construction.
    """
    pos = np.minimum(np.maximum(st.s + a * spec.dt, spec.arena_min), spec.arena_max)
    airport_used = st.airport_used
    if spec.variant == "airport":
        jump = ~airport_used & spec.airport_region.contains_many(pos)
        if jump.any():
            pos[jump] = spec.landing_point
            airport_used = airport_used | jump
    risk_entered = risk_occupancy(spec, pos)
    fired = np.array([rng.gen.random() for rng in rngs]) < spec.risk_prob
    dist = row_norms(pos - spec.goal)
    reward = -spec.step_cost * dist
    penalized = risk_entered & fired
    if penalized.any():
        reward[penalized] += spec.risk_penalty
    steps = st.steps + 1
    goal_counts = dist <= spec.capture_radius
    goods_visited = st.goods_visited
    if spec.variant == "goods":
        goods_visited = goods_visited | spec.goods_region.contains_many(pos)
        goal_counts &= goods_visited
    done = goal_counts | (steps >= spec.max_steps)
    nxt = EnvStates(s=pos, steps=steps, goods_visited=goods_visited,
                    airport_used=airport_used)
    return nxt, reward, done, risk_entered


def env_step(spec: EnvSpec, st: EnvState, action: np.ndarray, rng: Rng):
    """One dynamics step: the one-row case of env_step_rows, on an action it
    checks and clips into the bounds.

    Returns (next EnvState, reward, done, risk_entered).
    """
    action = np.asarray(action, dtype=np.float64)
    if action.shape != (spec.action_dim,) or not np.isfinite(action).all():
        raise EnvError(f"action must be a finite vector of dim {spec.action_dim}")
    a = np.minimum(np.maximum(action, spec.action_low), spec.action_high)
    nxt, reward, done, risk = env_step_rows(spec, EnvStates.stack([st]), a[None, :], [rng])
    return nxt.row(0), float(reward[0]), bool(done[0]), bool(risk[0])


class Policy:
    """Base policy interface.

    act_batch(states, ctx, rngs) maps an (n, state_dim) array of observed
    states, the episodes' EnvStates (None when the policy ignores context) and
    one rng per row to an (n, action_dim) array of actions. A row's action
    depends only on that row (up to the last bits of a network's batched
    matrix product), and a row draws randomness only from its own rng.
    act(s, ctx, rng) is the one-row case; every policy class binds it as its
    own attribute so per-class instrumentation can wrap it.
    """

    def act(self, s: np.ndarray, ctx: EnvState | None, rng: Rng | None) -> np.ndarray:
        batch = None if ctx is None else EnvStates.stack([ctx])
        return self.act_batch(np.asarray(s, dtype=np.float64)[None, :], batch, [rng])[0]

    def act_batch(self, states: np.ndarray, ctx: EnvStates | None, rngs: list) -> np.ndarray:
        raise NotImplementedError


def _capped_steps_toward(targets: np.ndarray, states: np.ndarray,
                         spec: EnvSpec) -> np.ndarray:
    """Per row, the step toward its target scaled down to unit norm, then clipped."""
    a = (np.asarray(targets, dtype=np.float64) - states) / spec.dt
    n = row_norms(a)
    over = n > 1.0
    if over.any():
        a[over] = a[over] / n[over, None]
    return np.clip(a, spec.action_low, spec.action_high)


def _current_targets(spec: EnvSpec, ctx: EnvStates, n: int) -> np.ndarray:
    targets = np.broadcast_to(spec.goal, (n, len(spec.goal)))
    if spec.variant == "goods":
        targets = np.where(ctx.goods_visited[:, None],
                           targets, spec.goods_region.reference_point())
    return targets


class ScriptedDirect(Policy):
    """Unit-capped step straight at the current target, through anything."""

    act = Policy.act

    def __init__(self, spec: EnvSpec):
        self.spec = spec

    def act_batch(self, states: np.ndarray, ctx: EnvStates | None, rngs: list) -> np.ndarray:
        return _capped_steps_toward(_current_targets(self.spec, ctx, len(states)), states,
                                    self.spec)


class RandomPolicy(Policy):
    act = Policy.act

    def __init__(self, spec: EnvSpec):
        self.spec = spec

    def act_batch(self, states: np.ndarray, ctx: EnvStates | None, rngs: list) -> np.ndarray:
        lo, hi, d = self.spec.action_low, self.spec.action_high, self.spec.action_dim
        return np.array([rng.uniform(lo, hi, size=d) for rng in rngs],
                        dtype=np.float64).reshape(len(rngs), d)


class _GridField:
    """Dijkstra distance-to-target field on a uniform grid over the arena.

    Cells whose centers fall inside inflated risk regions cost extra to enter
    (factor 8), which both forbids shortcuts through them in practice and
    still defines an escape gradient if the agent is pushed inside. A second,
    free-cells-only pass is kept for reachability validation.
    """

    BLOCK_FACTOR = 8.0

    def __init__(self, spec: EnvSpec, grid_n: int, inflation: float):
        self.spec = spec
        self.n = grid_n
        self.lo = spec.arena_min
        self.cell = (spec.arena_max - spec.arena_min) / grid_n
        ij = (np.arange(grid_n) + 0.5)
        cx = spec.arena_min[0] + ij * self.cell[0]
        cy = spec.arena_min[1] + ij * self.cell[1]
        self.centers = np.stack(np.meshgrid(cx, cy, indexing="ij"), axis=-1)
        pts = self.centers.reshape(-1, 2)
        blocked = np.zeros(len(pts), dtype=bool)
        for reg in spec.risk_regions:
            blocked |= reg.inflated(inflation).contains_many(pts)
        self.blocked = blocked.reshape(grid_n, grid_n)

    def cell_of(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Index arrays (i, j) of the cells of (n, 2) points; edge cells for points outside."""
        idx = np.floor((np.asarray(pts) - self.lo) / self.cell).astype(int)
        idx = np.clip(idx, 0, self.n - 1)
        return idx[:, 0], idx[:, 1]

    def _target_cells(self, point: np.ndarray, region: Region | None) -> list[list[int]]:
        """The target's [i, j] cells in row-major order: point's own cell and
        each cell whose center lies in region, or within capture radius of point."""
        pts = self.centers.reshape(-1, 2)
        if region is not None:
            hit = region.contains_many(pts)
        else:
            hit = np.linalg.norm(pts - point, axis=1) <= self.spec.capture_radius
        hit = hit.reshape(self.n, self.n)
        hit[self.cell_of(point[None])] = True
        return np.argwhere(hit).tolist()

    def solve(self, point: np.ndarray, region: Region | None, free_only: bool) -> np.ndarray:
        dist = np.full((self.n, self.n), np.inf)
        heap = []
        for i, j in self._target_cells(point, region):
            dist[i, j] = 0.0
            heapq.heappush(heap, (0.0, (i, j)))
        diag = float(np.hypot(self.cell[0], self.cell[1]))
        straight_x = float(self.cell[0])
        straight_y = float(self.cell[1])
        while heap:
            d, (i, j) = heapq.heappop(heap)
            if d > dist[i, j]:
                continue
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    if di == 0 and dj == 0:
                        continue
                    ni, nj = i + di, j + dj
                    if not (0 <= ni < self.n and 0 <= nj < self.n):
                        continue
                    if free_only and self.blocked[ni, nj]:
                        continue
                    step = diag if (di and dj) else (straight_x if di else straight_y)
                    if self.blocked[ni, nj]:
                        step *= self.BLOCK_FACTOR
                    nd = d + step
                    if nd < dist[ni, nj]:
                        dist[ni, nj] = nd
                        heapq.heappush(heap, (nd, (ni, nj)))
        return dist

    def descent(self, dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Greedy descent on a distance field: per cell, the center of its
        lowest neighbour (the first in row-major scan order on ties), and a
        flag that a point in that cell walks to it, set when the neighbour is
        strictly lower. A target cell (distance 0) has no lower neighbour."""
        n = self.n
        padded = np.full((n + 2, n + 2), np.inf)
        padded[1:-1, 1:-1] = dist
        steps = np.array([(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if di or dj])
        around = np.stack([padded[1 + di:n + 1 + di, 1 + dj:n + 1 + dj] for di, dj in steps])
        best = np.argmin(around, axis=0)  # the first of equal minima
        i, j = np.indices((n, n))
        # an off-grid neighbour is best only when no neighbour is finite; it never walks
        ni = np.clip(i + steps[best, 0], 0, n - 1)
        nj = np.clip(j + steps[best, 1], 0, n - 1)
        return self.centers[ni, nj], np.take_along_axis(around, best[None], 0)[0] < dist


def check_planner_flags(grid_n: int, inflation: float, exec_noise: float) -> None:
    """ScriptedRiskAvoiding's settings: EnvError unless grid_n >= 1 and the rest >= 0."""
    if grid_n < 1:
        raise EnvError(f"planner grid_n must be >= 1, got {grid_n}")
    for name, value in (("inflation", inflation), ("exec_noise", exec_noise)):
        if not value >= 0:
            raise EnvError(f"planner {name} must be >= 0, got {value}")


class ScriptedRiskAvoiding(Policy):
    """Greedy descent on a grid-planned distance field around inflated risks.

    gen-data's default policy, and an eval base policy. Optional Gaussian
    execution noise on the action spreads the data tube; guidance re-plans
    every step so the agent still converges on the target.
    """

    act = Policy.act

    def __init__(self, spec: EnvSpec, grid_n: int = 40, inflation: float = 0.08,
                 exec_noise: float = 0.0):
        spec.validate()
        check_planner_flags(grid_n, inflation, exec_noise)
        self.spec = spec
        self.exec_noise = exec_noise
        self._grid = _GridField(spec, grid_n, inflation)
        # row t of each stack: the goal, then the goods (goods variant only)
        fields = [self._grid.solve(spec.goal, None, free_only=False)]
        targets = [spec.goal]
        if spec.variant == "goods":
            fields.append(self._grid.solve(spec.goods_region.reference_point(),
                                           spec.goods_region, free_only=False))
            targets.append(spec.goods_region.reference_point())
        self._targets = np.array(targets)
        descents = [self._grid.descent(f) for f in fields]
        self._waypoints = np.stack([waypoints for waypoints, _ in descents])
        self._walks = np.stack([walks for _, walks in descents])
        reach = self._grid.solve(spec.goal, None, free_only=True)
        c = self._grid.cell_of(((spec.start_min + spec.start_max) / 2.0)[None])
        if self._grid.blocked[c][0] or not np.isfinite(reach[c][0]):
            raise PlanningError("no safe route from the start box to the goal")

    def act_batch(self, states: np.ndarray, ctx: EnvStates | None, rngs: list) -> np.ndarray:
        spec, n = self.spec, len(states)
        t = (~ctx.goods_visited).astype(int) if len(self._targets) > 1 else np.zeros(n, int)
        cell = (t,) + self._grid.cell_of(states)
        a = _capped_steps_toward(self._targets[t], states, spec)
        walk = self._walks[cell]
        d = self._waypoints[cell][walk] - states[walk]
        a[walk] = d / row_norms(d)[:, None]  # a waypoint is never the point itself
        if self.exec_noise > 0:
            noise = np.array([rng.normal(size=spec.action_dim) for rng in rngs])
            a = a + self.exec_noise * noise.reshape(n, spec.action_dim)
        return np.clip(a, spec.action_low, spec.action_high)


class BehaviorCloned(Policy):
    """Deterministic MLP regression policy in normalized coordinates.

    It acts on an InferenceNet snapshot of params taken when it is built,
    with the normalization folded in, so the snapshot maps raw states to
    env-unit actions; it acts on the params it was built with, and
    checkpoints save params.
    """

    arch = Arch("bc", (128, 128, 128), 0.2, lambda ds, da: (ds, da))

    def __init__(self, params: MlpParams, norm: NormStats,
                 action_low: np.ndarray, action_high: np.ndarray):
        self.arch.check(params, len(norm.state_mean), len(norm.action_mean), EnvError,
                        "behavior-cloned policy")
        self.params = params
        self.norm = norm
        self.action_low = np.asarray(action_low, dtype=np.float64)
        self.action_high = np.asarray(action_high, dtype=np.float64)
        self._net = InferenceNet(params, in_affine=norm.state_normalizer(),
                                 out_affines=[(norm.action_std, norm.action_mean)])

    act = Policy.act

    def act_batch(self, states: np.ndarray, ctx: EnvStates | None, rngs: list) -> np.ndarray:
        out, _ = forward_batch(self._net, states)
        return np.minimum(np.maximum(out, self.action_low), self.action_high)


BcTrainConfig = TrainConfig


def train_bc_policy(dataset: Dataset, config: TrainConfig,
                    action_low: np.ndarray, action_high: np.ndarray):
    """Behavior cloning by Adam regression from states to actions.

    Returns (policy, loss_history). Deterministic given config.seed.
    """
    norm = dataset.norm
    states_n = norm.normalize_state(dataset.states)
    actions_n = norm.normalize_action(dataset.actions)

    def batch_loss(net, idx, rng, bufs):
        return mse_loss(net, states_n[idx], actions_n[idx], bufs)

    net, history = train_mlp(BehaviorCloned.arch, dataset, config, batch_loss)
    return BehaviorCloned(net, norm, action_low, action_high), history
