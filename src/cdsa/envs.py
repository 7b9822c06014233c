"""Continuous 2-D navigation environments with risky regions, plus base policies.

Three environment kinds share one transition rule (clipped action times dt,
clamped to the arena): a risky point-mass arena, a risky transportation map
with river/mountain/ice rectangles and optional goods/airport task variants,
and a free linear point used for inverse-dynamics ground truth. Entering a
risk region triggers a large penalty with small probability; occupancy is
reported deterministically so risk statistics stay low-variance.

All numeric layout lives in versioned JSON spec files, not in code. Episode
bookkeeping that is not part of the observed state (step count, goods visited,
airport used) rides in EnvState so the observed state keeps the same dims
across task variants.

Stepping is batched: env_step_batch advances many episodes at once from an
EnvStates (one row per episode, each row with its own rng stream), and
env_step is its one-row case. Policies act on batches the same way.

Base policies: a straight-to-target scripted policy, a grid-planning scripted
policy that avoids inflated risk regions (dataset generation only), a uniform
random policy, and a behavior-cloned MLP.
"""

from __future__ import annotations

import heapq
import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .dataset import Dataset, NormStats
from .neuralcore import (
    InferenceNet,
    MlpParams,
    Rng,
    TrainBuffers,
    TrainConfig,
    forward_batch,
    mse_loss,
    row_norms,
    train_mlp,
)
from .readers import Fields, read_json

ENV_KINDS = ("risky_pointmass", "risky_transport", "linear_point")
VARIANTS = ("pathfinding", "goods", "airport")
RISK_LABELS = ("river", "mountain", "ice", "risk_circle")

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
            return np.sum(d * d, axis=1) <= self.radius**2
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

    def to_dict(self) -> dict:
        d: dict = {"shape": self.shape, "label": self.label}
        if self.shape == "circle":
            d["center"] = [float(v) for v in self.center]
            d["radius"] = float(self.radius)
        else:
            d["min"] = [float(v) for v in self.rect_min]
            d["max"] = [float(v) for v in self.rect_max]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Region":
        return _read_region(Fields(d, EnvError))


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

    def to_dict(self) -> dict:
        d = {
            "format": SPEC_FORMAT,
            "version": SPEC_VERSION,
            "kind": self.kind,
            "name": self.name,
            "state_dim": self.state_dim,
            "action_dim": self.action_dim,
            "arena": {"min": [float(v) for v in self.arena_min],
                      "max": [float(v) for v in self.arena_max]},
            "dt": self.dt,
            "start": {"min": [float(v) for v in self.start_min],
                      "max": [float(v) for v in self.start_max]},
            "goal": {"position": [float(v) for v in self.goal],
                     "capture_radius": self.capture_radius},
            "risk": {"penalty": self.risk_penalty, "prob": self.risk_prob,
                     "regions": [r.to_dict() for r in self.risk_regions]},
            "step_cost": self.step_cost,
            "max_steps": self.max_steps,
            "action_bounds": {"low": [float(v) for v in self.action_low],
                              "high": [float(v) for v in self.action_high]},
            "variant": self.variant,
        }
        d["goods_region"] = self.goods_region.to_dict() if self.goods_region else None
        d["airport_region"] = self.airport_region.to_dict() if self.airport_region else None
        d["landing_point"] = ([float(v) for v in self.landing_point]
                              if self.landing_point is not None else None)
        return d

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


def save_env_spec(spec: EnvSpec, path: str) -> None:
    spec.validate()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec.to_dict(), fh, indent=2)
        fh.write("\n")


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
    done: bool = False


@dataclass
class EnvStates:
    """The EnvState of n episodes as arrays; row i is episode i.

    s has shape (n, state_dim); the bookkeeping fields have shape (n,).
    """

    s: np.ndarray
    steps: np.ndarray
    goods_visited: np.ndarray
    airport_used: np.ndarray
    done: np.ndarray

    def __len__(self) -> int:
        return len(self.s)

    @classmethod
    def stack(cls, states: list[EnvState]) -> "EnvStates":
        return cls(
            s=np.array([st.s for st in states], dtype=np.float64).reshape(len(states), -1),
            steps=np.array([st.steps for st in states], dtype=np.int64),
            goods_visited=np.array([st.goods_visited for st in states], dtype=bool),
            airport_used=np.array([st.airport_used for st in states], dtype=bool),
            done=np.array([st.done for st in states], dtype=bool),
        )

    def row(self, i: int) -> EnvState:
        return EnvState(s=self.s[i].copy(), steps=int(self.steps[i]),
                        goods_visited=bool(self.goods_visited[i]),
                        airport_used=bool(self.airport_used[i]), done=bool(self.done[i]))

    def take(self, idx) -> "EnvStates":
        """The rows selected by an index array or boolean mask, as a new batch."""
        return EnvStates(self.s[idx], self.steps[idx], self.goods_visited[idx],
                         self.airport_used[idx], self.done[idx])

    def put(self, idx, src: "EnvStates") -> None:
        """Overwrite the rows selected by idx with the rows of src, in place."""
        self.s[idx] = src.s
        self.steps[idx] = src.steps
        self.goods_visited[idx] = src.goods_visited
        self.airport_used[idx] = src.airport_used
        self.done[idx] = src.done


def env_reset(spec: EnvSpec, rng: Rng) -> EnvState:
    s = rng.uniform(spec.start_min, spec.start_max, size=spec.state_dim)
    return EnvState(s=np.asarray(s, dtype=np.float64))


def env_step_batch(spec: EnvSpec, st: EnvStates, actions: np.ndarray, rngs: list):
    """One dynamics step of n episodes at once; row i draws from rngs[i].

    Returns (next EnvStates, rewards, dones, risk_entered), the last three of
    shape (n,). Every row consumes exactly one uniform draw from its own
    stream for the risk Bernoulli, whether or not it occupies a risk region,
    so paired-seed runs stay aligned. A row's result does not depend on the
    other rows or on n, so it equals env_step on that row bitwise. The spec
    is trusted to be validated; actions are checked here.
    """
    actions = np.asarray(actions, dtype=np.float64)
    n = len(st)
    if (actions.shape != (n, spec.action_dim) or len(rngs) != n
            or not np.all(np.isfinite(actions))):
        raise EnvError(f"actions must be a finite ({n}, {spec.action_dim}) array, "
                       f"one row and one rng per episode")
    a = np.clip(actions, spec.action_low, spec.action_high)
    pos = np.clip(st.s + a * spec.dt, spec.arena_min, spec.arena_max)
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
                    airport_used=airport_used, done=done)
    return nxt, reward, done, risk_entered


def env_step(spec: EnvSpec, st: EnvState, action: np.ndarray, rng: Rng):
    """One dynamics step: the one-row case of env_step_batch.

    Returns (next EnvState, reward, done, risk_entered).
    """
    action = np.asarray(action, dtype=np.float64)
    if action.shape != (spec.action_dim,):
        raise EnvError(f"action must be a finite vector of dim {spec.action_dim}")
    nxt, reward, done, risk = env_step_batch(spec, EnvStates.stack([st]), action[None, :],
                                             [rng])
    return nxt.row(0), float(reward[0]), bool(done[0]), bool(risk[0])


class Env:
    """Stateful wrapper over the pure reset/step ops, owning one rng stream."""

    def __init__(self, spec: EnvSpec, rng: Rng):
        spec.validate()
        self.spec = spec
        self.rng = rng
        self._st: EnvState | None = None

    def reset(self) -> np.ndarray:
        self._st = env_reset(self.spec, self.rng)
        return self._st.s.copy()

    def step(self, action: np.ndarray):
        if self._st is None:
            raise EnvError("step before reset")
        self._st, reward, done, risk = env_step(self.spec, self._st, action, self.rng)
        return self._st.s.copy(), reward, done, risk

    def context(self) -> EnvState:
        if self._st is None:
            raise EnvError("context before reset")
        return self._st


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

    kind = "abstract"

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

    kind = "direct"
    act = Policy.act

    def __init__(self, spec: EnvSpec):
        self.spec = spec

    def act_batch(self, states: np.ndarray, ctx: EnvStates | None, rngs: list) -> np.ndarray:
        return _capped_steps_toward(_current_targets(self.spec, ctx, len(states)), states,
                                    self.spec)


class RandomPolicy(Policy):
    kind = "random"
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

    def cell_of(self, p: np.ndarray) -> tuple[int, int]:
        idx = np.floor((np.asarray(p) - self.lo) / self.cell).astype(int)
        idx = np.clip(idx, 0, self.n - 1)
        return int(idx[0]), int(idx[1])

    def _target_cells(self, point: np.ndarray, region: Region | None) -> list[tuple[int, int]]:
        cells = {self.cell_of(point)}
        pts = self.centers.reshape(-1, 2)
        if region is not None:
            hit = region.contains_many(pts)
        else:
            hit = np.linalg.norm(pts - point, axis=1) <= self.spec.capture_radius
        for flat in np.flatnonzero(hit):
            cells.add((int(flat // self.n), int(flat % self.n)))
        return sorted(cells)

    def solve(self, point: np.ndarray, region: Region | None, free_only: bool) -> np.ndarray:
        dist = np.full((self.n, self.n), np.inf)
        heap = []
        for c in self._target_cells(point, region):
            dist[c] = 0.0
            heapq.heappush(heap, (0.0, c))
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


class ScriptedRiskAvoiding(Policy):
    """Greedy descent on a grid-planned distance field around inflated risks.

    Used for dataset generation only. Optional Gaussian execution noise on the
    action spreads the data tube; guidance re-plans every step so the agent
    still converges on the target.
    """

    kind = "risk-avoiding"
    act = Policy.act

    def __init__(self, spec: EnvSpec, grid_n: int = 40, inflation: float = 0.08,
                 exec_noise: float = 0.0):
        spec.validate()
        self.spec = spec
        self.exec_noise = exec_noise
        self._grid = _GridField(spec, grid_n, inflation)
        self._goal_field = self._grid.solve(spec.goal, None, free_only=False)
        self._goal_reach = self._grid.solve(spec.goal, None, free_only=True)
        self._goods_field = None
        if spec.variant == "goods":
            self._goods_field = self._grid.solve(
                spec.goods_region.reference_point(), spec.goods_region, free_only=False)
        mid = (spec.start_min + spec.start_max) / 2.0
        c = self._grid.cell_of(mid)
        if self._grid.blocked[c] or not np.isfinite(self._goal_reach[c]):
            raise PlanningError("no safe route from the start box to the goal")

    def _field_and_target(self, goods_visited: bool):
        if self._goods_field is not None and not goods_visited:
            return self._goods_field, self.spec.goods_region.reference_point()
        return self._goal_field, self.spec.goal

    def act_batch(self, states: np.ndarray, ctx: EnvStates | None, rngs: list) -> np.ndarray:
        visited = (ctx.goods_visited if self._goods_field is not None
                   else np.zeros(len(states), dtype=bool))
        return np.array([self._act_row(states[i], bool(visited[i]), rngs[i])
                         for i in range(len(states))],
                        dtype=np.float64).reshape(len(states), self.spec.action_dim)

    def _act_row(self, s: np.ndarray, goods_visited: bool, rng: Rng) -> np.ndarray:
        fieldv, target = self._field_and_target(goods_visited)
        g = self._grid
        i, j = g.cell_of(s)
        if fieldv[i, j] == 0.0:
            a = _capped_steps_toward(target[None, :], s[None, :], self.spec)[0]
        else:
            best, best_val = None, fieldv[i, j]
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    ni, nj = i + di, j + dj
                    if (di == 0 and dj == 0) or not (0 <= ni < g.n and 0 <= nj < g.n):
                        continue
                    if fieldv[ni, nj] < best_val:
                        best, best_val = (ni, nj), fieldv[ni, nj]
            if best is None:
                a = _capped_steps_toward(target[None, :], s[None, :], self.spec)[0]
            else:
                waypoint = g.centers[best]
                d = waypoint - s
                n = float(np.linalg.norm(d))
                a = d / n if n > 0 else d
        if self.exec_noise > 0:
            a = a + self.exec_noise * rng.normal(size=self.spec.action_dim)
        return np.clip(a, self.spec.action_low, self.spec.action_high)


class BehaviorCloned(Policy):
    """Deterministic MLP regression policy in normalized coordinates.

    It acts on an InferenceNet snapshot of params taken when it is built, so
    it acts on the params it was built with; checkpoints save params.
    """

    kind = "bc"

    def __init__(self, params: MlpParams, norm: NormStats,
                 action_low: np.ndarray, action_high: np.ndarray):
        self.params = params
        self.norm = norm
        self.action_low = np.asarray(action_low, dtype=np.float64)
        self.action_high = np.asarray(action_high, dtype=np.float64)
        self._net = InferenceNet(params)

    act = Policy.act

    def act_batch(self, states: np.ndarray, ctx: EnvStates | None, rngs: list) -> np.ndarray:
        out, _ = forward_batch(self._net, self.norm.normalize_state(states))
        return np.clip(self.norm.denormalize_action(out), self.action_low, self.action_high)


BC_HIDDEN_DIMS = [128, 128, 128]
BC_LEAKY_SLOPE = 0.2


BcTrainConfig = TrainConfig


def bc_loss(net: MlpParams, states: np.ndarray, actions: np.ndarray, bufs: TrainBuffers):
    """Mean squared error of predicted vs dataset actions, with gradients, in the set."""
    return mse_loss(net, states, actions, bufs)


def train_bc_policy(dataset: Dataset, config: TrainConfig,
                    action_low: np.ndarray, action_high: np.ndarray):
    """Behavior cloning by Adam regression from states to actions.

    Returns (policy, loss_history). Deterministic given config.seed.
    """
    norm = dataset.norm
    states_n = norm.normalize_state(dataset.states)
    actions_n = norm.normalize_action(dataset.actions)

    def batch_loss(net, idx, rng, bufs):
        return bc_loss(net, states_n[idx], actions_n[idx], bufs)

    net, history = train_mlp([dataset.state_dim] + BC_HIDDEN_DIMS + [dataset.action_dim],
                             BC_LEAKY_SLOPE, config, len(dataset), batch_loss)
    return BehaviorCloned(net, norm, action_low, action_high), history
