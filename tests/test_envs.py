import json
import re
from dataclasses import replace

import numpy as np
import pytest

from cdsa.checkpoint import CheckpointError, model_from_dict, model_to_dict
from cdsa.controller import run_episodes
from cdsa.dataset import generate_dataset
from cdsa.dataset import NormStats
from cdsa.envs import (
    BcTrainConfig,
    BehaviorCloned,
    EnvError,
    EnvState,
    EnvStates,
    PlanningError,
    RandomPolicy,
    Region,
    ScriptedDirect,
    ScriptedRiskAvoiding,
    _read_region,
    builtin_spec_path,
    env_reset,
    env_step,
    env_step_rows,
    load_env_spec,
    risk_occupancy,
    train_bc_policy,
)
from cdsa.neuralcore import Rng, forward_batch, mlp_init
from cdsa.readers import Fields
from helpers import (
    identity_norm,
    missed,
    mutated,
    mutations,
    reference_env_step,
    reference_planner_act,
    same_params,
)


def _pointmass():
    return load_env_spec(builtin_spec_path("pointmass"))


def _transport():
    return load_env_spec(builtin_spec_path("transport"))


def _linear():
    return load_env_spec(builtin_spec_path("linear"))


# ---------------------------------------------------------------------------
# regions and specs
# ---------------------------------------------------------------------------

def test_region_circle_contains():
    r = Region(shape="circle", label="risk_circle", center=np.array([0.5, 0.5]),
               radius=0.1)
    pts = np.array([[0.55, 0.5], [0.65, 0.5]])
    assert r.contains_many(pts).tolist() == [True, False]
    assert r.inflated(0.1).contains_many(pts).tolist() == [True, True]


def test_region_rect_contains():
    r = Region(shape="rect", label="river", rect_min=np.array([0.1, 0.0]),
               rect_max=np.array([0.2, 0.5]))
    pts = np.array([[0.15, 0.25], [0.15, 0.55]])
    assert r.contains_many(pts).tolist() == [True, False]
    assert r.inflated(0.06).contains_many(pts).tolist() == [True, True]


def test_regions_read_from_hand_written_objects():
    circle = _read_region(Fields({"shape": "circle", "label": "goods", "center": [0.3, 0.7],
                                  "radius": 0.05}, EnvError))
    assert (circle.shape, circle.label, circle.radius) == ("circle", "goods", 0.05)
    assert circle.center.tolist() == [0.3, 0.7] and circle.center.dtype == np.float64
    rect = _read_region(Fields({"shape": "rect", "min": [0.1, 0], "max": [0.2, 0.5]},
                               EnvError))
    assert (rect.shape, rect.label) == ("rect", "")
    assert rect.rect_min.tolist() == [0.1, 0.0] and rect.rect_max.tolist() == [0.2, 0.5]
    assert rect.rect_min.dtype == rect.rect_max.dtype == np.float64


def test_spec_files_load_and_validate():
    for name in ("pointmass", "transport", "linear"):
        spec = load_env_spec(builtin_spec_path(name))
        spec.validate()
        assert spec.state_dim == 2 and spec.action_dim == 2


def test_spec_validation_rejects_bad_fields():
    spec = _pointmass()
    with pytest.raises(EnvError):
        replace(spec, risk_prob=1.5).validate()
    with pytest.raises(EnvError):
        replace(spec, max_steps=0).validate()
    with pytest.raises(EnvError):
        replace(spec, step_cost=-1.0).validate()
    with pytest.raises(EnvError):
        replace(spec, risk_penalty=5.0).validate()
    with pytest.raises(EnvError):
        replace(spec, action_low=np.array([2.0, 2.0])).validate()


def _with(*keys_and_value):
    """A mutation that sets doc[k0][k1]... to the value and returns the document."""
    *keys, value = keys_and_value

    def mutate(doc):
        node = doc
        for k in keys[:-1]:
            node = node[k]
        node[keys[-1]] = value
        return doc
    return mutate


def _without(key):
    def mutate(doc):
        del doc[key]
        return doc
    return mutate


# each takes a valid spec document and returns a bad one
SPEC_MUTATIONS = {
    "dt nan": _with("dt", float("nan")),
    "dt inf": _with("dt", float("inf")),
    "dt zero": _with("dt", 0.0),
    "dt string": _with("dt", "fast"),
    "dt missing": _without("dt"),
    "capture_radius nan": _with("goal", "capture_radius", float("nan")),
    "capture_radius inf": _with("goal", "capture_radius", float("inf")),
    "step_cost nan": _with("step_cost", float("nan")),
    "step_cost inf": _with("step_cost", float("inf")),
    "risk_penalty nan": _with("risk", "penalty", float("nan")),
    "risk_penalty -inf": _with("risk", "penalty", float("-inf")),
    "risk_prob nan": _with("risk", "prob", float("nan")),
    "region radius nan": _with("risk", "regions", 0, "radius", float("nan")),
    "arena a list": _with("arena", [0.0, 1.0]),
    "document a list": lambda doc: [doc],
    "document a number": lambda doc: 3.5,
}


@pytest.mark.parametrize("name", sorted(SPEC_MUTATIONS))
def test_load_env_spec_rejects_bad_fields_naming_the_file(tmp_path, name):
    with open(builtin_spec_path("pointmass"), encoding="utf-8") as fh:
        doc = json.load(fh)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC_MUTATIONS[name](doc)), encoding="utf-8")
    with pytest.raises(EnvError) as err:
        load_env_spec(str(path))
    assert str(path) in str(err.value)


# fields a spec may leave out: each has a default, or is one of several regions
SPEC_OPTIONAL = {"name", "variant", "goods_region", "airport_region", "landing_point",
                 "risk.regions.0", "risk.regions.0.label", "goods_region.label",
                 "airport_region.label"}


@pytest.mark.parametrize("name", ["pointmass", "transport"])
def test_load_env_spec_rejects_every_mutated_field(tmp_path, name):
    with open(builtin_spec_path(name), encoding="utf-8") as fh:
        doc = json.load(fh)
    path = tmp_path / "spec.json"
    cases = list(mutations(doc, SPEC_OPTIONAL))
    cases += [("state_dim 2.9", mutated(doc, ("state_dim",), 2.9)),
              ("dt true", mutated(doc, ("dt",), True)),
              ("dt numeric string", mutated(doc, ("dt",), "0.1")),
              ("version true", mutated(doc, ("version",), True)),
              ("name a list", mutated(doc, ("name",), [1])),
              ("unknown variant", mutated(doc, ("variant",), "sailing")),
              ("unknown region shape", mutated(doc, ("risk", "regions", 0, "shape"), "blob"))]
    misses = missed(cases, path, lambda: load_env_spec(str(path)), EnvError)
    assert len(cases) > 100
    assert not misses, "\n".join(misses)


def test_spec_rejects_region_outside_arena():
    spec = _pointmass()
    bad = Region(shape="circle", label="risk_circle", center=np.array([1.2, 0.5]),
                 radius=0.1)
    with pytest.raises(EnvError):
        replace(spec, risk_regions=[bad]).validate()


def test_with_variant_switch_and_validation():
    spec = _transport()
    goods = spec.with_variant("goods")
    assert goods.variant == "goods"
    with pytest.raises(EnvError):
        spec.with_variant("nonsense")
    # pointmass carries no goods region, so the goods variant is invalid
    with pytest.raises(EnvError):
        _pointmass().with_variant("goods")


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------

def test_reset_samples_inside_start_box():
    spec = _pointmass()
    rng = Rng(1)
    for _ in range(200):
        st = env_reset(spec, rng)
        assert np.all(st.s >= spec.start_min) and np.all(st.s <= spec.start_max)
        assert st.steps == 0


def test_reset_deterministic():
    spec = _pointmass()
    assert np.array_equal(env_reset(spec, Rng(4)).s, env_reset(spec, Rng(4)).s)


def test_linear_point_step_example():
    # dt = 1 and no clamping inside the wide arena: s' = s + a
    spec = _linear()
    st = EnvState(s=np.zeros(2), steps=0, goods_visited=False,
                  airport_used=False)
    st2, r, done, risk = env_step(spec, st, np.array([0.3, -0.2]), Rng(0))
    assert np.allclose(st2.s, [0.3, -0.2])
    assert not risk and not done
    assert r <= 0.0


def test_step_rejects_bad_action():
    spec = _linear()
    st = env_reset(spec, Rng(1))
    with pytest.raises(EnvError):
        env_step(spec, st, np.array([np.nan, 0.0]), Rng(0))
    with pytest.raises(EnvError):
        env_step(spec, st, np.zeros(3), Rng(0))


def test_action_clipped_before_integration():
    spec = _linear()
    st = EnvState(s=np.zeros(2), steps=0, goods_visited=False,
                  airport_used=False)
    st2, _, _, _ = env_step(spec, st, np.array([10.0, 0.0]), Rng(0))
    assert np.allclose(st2.s, [spec.action_high[0], 0.0])


def test_position_clamped_to_arena():
    spec = _pointmass()
    st = EnvState(s=np.array([0.99, 0.5]), steps=0, goods_visited=False,
                  airport_used=False)
    st2, _, _, _ = env_step(spec, st, np.array([1.0, 0.0]), Rng(0))
    assert st2.s[0] <= spec.arena_max[0]


def test_goal_capture_sets_done():
    spec = _pointmass()
    st = EnvState(s=spec.goal.copy(), steps=0, goods_visited=False,
                  airport_used=False)
    _, _, done, _ = env_step(spec, st, np.zeros(2), Rng(0))
    assert done


def test_forced_bernoulli_penalty():
    # risk_prob = 1 forces the penalty every step spent inside the region
    spec = replace(_pointmass(), risk_prob=1.0)
    inside = spec.risk_regions[0].center.copy()
    st = EnvState(s=inside, steps=0, goods_visited=False,
                  airport_used=False)
    _, r, _, risk = env_step(spec, st, np.zeros(2), Rng(0))
    assert risk
    assert r <= spec.risk_penalty  # penalty plus the distance cost


def test_risk_flag_reported_without_penalty():
    # occupancy is deterministic even when the Bernoulli never fires
    spec = replace(_pointmass(), risk_prob=0.0)
    inside = spec.risk_regions[0].center.copy()
    st = EnvState(s=inside, steps=0, goods_visited=False,
                  airport_used=False)
    _, r, _, risk = env_step(spec, st, np.zeros(2), Rng(0))
    assert risk
    assert r > spec.risk_penalty


def test_rng_stream_alignment_across_risk_outcomes():
    # the Bernoulli consumes one uniform per step whether or not the agent is
    # in a risk region, so paired runs stay aligned afterward
    spec = _pointmass()
    inside = spec.risk_regions[0].center.copy()
    outside = np.array([0.05, 0.05])
    draws = []
    for pos in (inside, outside):
        rng = Rng(99)
        st = EnvState(s=pos.copy(), steps=0, goods_visited=False,
                      airport_used=False)
        env_step(spec, st, np.zeros(2), rng)
        draws.append(rng.random())
    assert draws[0] == draws[1]


def _episode(spec, policy, seed):
    """One recorded episode of policy, through the episode runner, and its
    risk entries and goal flag."""
    totals, (traj,) = run_episodes(spec, policy, None, None, Rng(seed), 1, record=1)
    return traj, int(totals.risk_entries[0]), bool(totals.reached_goal[0])


def _visited(traj):
    """The post-step positions of a trajectory."""
    return np.vstack([traj.states[1:], traj.final_state])


def test_reward_is_nonpositive():
    spec = _pointmass()
    traj, _, _ = _episode(spec, RandomPolicy(spec), 17)
    assert len(traj) > 0 and np.all(traj.rewards <= 0.0)


def test_risk_occupancy_flags_each_point():
    spec = _pointmass()
    pts = np.array([spec.risk_regions[0].center, [0.02, 0.02]])
    assert risk_occupancy(spec, pts).tolist() == [True, False]


# ---------------------------------------------------------------------------
# variants
# ---------------------------------------------------------------------------

def test_airport_teleports_exactly_once():
    spec = _transport().with_variant("airport")
    inside = spec.airport_region.center.copy()
    st = EnvState(s=inside - np.array([0.02, 0.0]), steps=0, goods_visited=False,
                  airport_used=False)
    st2, _, _, _ = env_step(spec, st, np.array([1.0, 0.0]), Rng(0))
    assert np.allclose(st2.s, spec.landing_point)
    assert st2.airport_used
    # re-entering later must not teleport again
    st3 = replace(st2, s=inside.copy())
    st4, _, _, _ = env_step(spec, st3, np.zeros(2), Rng(0))
    assert not np.allclose(st4.s, spec.landing_point)


def test_airport_inactive_outside_variant():
    spec = _transport()  # pathfinding
    inside = spec.airport_region.center.copy()
    st = EnvState(s=inside, steps=0, goods_visited=False,
                  airport_used=False)
    st2, _, _, _ = env_step(spec, st, np.zeros(2), Rng(0))
    assert not st2.airport_used
    assert not np.allclose(st2.s, spec.landing_point)


def test_goods_gate_blocks_goal():
    spec = _transport().with_variant("goods")
    at_goal = EnvState(s=spec.goal.copy(), steps=0, goods_visited=False,
                       airport_used=False)
    _, _, done, _ = env_step(spec, at_goal, np.zeros(2), Rng(0))
    assert not done
    visited = replace(at_goal, goods_visited=True)
    _, _, done2, _ = env_step(spec, visited, np.zeros(2), Rng(0))
    assert done2


def test_goods_visit_recorded():
    spec = _transport().with_variant("goods")
    near = spec.goods_region.center - np.array([0.02, 0.0])
    st = EnvState(s=near, steps=0, goods_visited=False,
                  airport_used=False)
    st2, _, _, _ = env_step(spec, st, np.array([1.0, 0.0]), Rng(0))
    assert st2.goods_visited


def test_step_budget_ends_episode():
    spec = replace(_linear(), max_steps=3)
    traj, _, reached_goal = _episode(spec, RandomPolicy(spec), 2)
    assert traj.dones.tolist() == [False, False, True]
    assert not reached_goal


# ---------------------------------------------------------------------------
# batched step
# ---------------------------------------------------------------------------

class _CountingGen:
    """Wraps an Rng's generator and counts the uniforms drawn from it."""

    def __init__(self, gen):
        self.inner = gen
        self.draws = 0

    def random(self):
        self.draws += 1
        return self.inner.random()


def _staged_rows(spec):
    """Episode states at different stages of the spec's task variant."""
    rows = [EnvState(s=np.array([0.05, 0.05])),
            EnvState(s=np.array([0.22, 0.3]), steps=7),                 # inside the river
            EnvState(s=spec.goal.copy(), steps=12),                      # at the goal
            EnvState(s=np.array([0.5, 0.5]), steps=spec.max_steps - 1)]  # last budgeted step
    if spec.variant == "goods":
        rows += [EnvState(s=spec.goods_region.center - np.array([0.04, 0.0]), steps=3),
                 EnvState(s=spec.goal - np.array([0.03, 0.0]), steps=30, goods_visited=True),
                 EnvState(s=spec.goal - np.array([0.03, 0.0]), steps=30)]
    if spec.variant == "airport":
        rows += [EnvState(s=spec.airport_region.center - np.array([0.07, 0.0]), steps=4),
                 EnvState(s=spec.airport_region.center.copy(), steps=9, airport_used=True)]
    return rows


@pytest.mark.parametrize("variant", ["pathfinding", "goods", "airport"])
def test_batched_step_matches_scalar_rows(variant):
    spec = replace(_transport().with_variant(variant), risk_prob=0.5)
    rows = _staged_rows(spec)
    n = len(rows)
    batch = EnvStates.stack(rows)
    batch_rngs = [Rng(61, (i,)) for i in range(n)]
    for rng in batch_rngs:
        rng.gen = _CountingGen(rng.gen)
    ref_rngs = [Rng(61, (i,)) for i in range(n)]
    one_rngs = [Rng(61, (i,)) for i in range(n)]
    one_rows = list(rows)
    act_rng = Rng(5)
    penalized = False
    for step in range(4):
        actions = act_rng.uniform(-1.0, 1.0, size=(n, 2))
        actions[:, 0] = np.abs(actions[:, 0])  # drift right, into goods and airport
        clipped = np.minimum(np.maximum(actions, spec.action_low), spec.action_high)
        batch, r, done, risk = env_step_rows(spec, batch, clipped, batch_rngs)
        assert [rng.gen.draws for rng in batch_rngs] == [step + 1] * n
        penalized = penalized or bool(np.any(r <= spec.risk_penalty))
        for i in range(n):
            want, want_r, want_done, want_risk = reference_env_step(
                spec, rows[i], actions[i], ref_rngs[i])
            got = batch.row(i)
            assert np.array_equal(got.s, want.s)
            assert (got.steps, got.goods_visited, got.airport_used) == (
                want.steps, want.goods_visited, want.airport_used)
            assert (r[i], done[i], risk[i]) == (want_r, want_done, want_risk)
            one_rows[i], r1, d1, k1 = env_step(spec, one_rows[i], actions[i], one_rngs[i])
            assert np.array_equal(one_rows[i].s, want.s) and (r1, d1, k1) == (
                want_r, want_done, want_risk)
            rows[i] = want
    # the staged rows exercise every branch they were built for
    assert penalized and done.any() and not done.all()
    if variant == "goods":
        assert batch.goods_visited.any() and not batch.goods_visited.all()
    if variant == "airport":
        assert batch.airport_used.sum() >= 2


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------

def test_scripted_direct_heads_to_goal():
    spec = _pointmass()
    pol = ScriptedDirect(spec)
    st = env_reset(spec, Rng(3))
    a = pol.act(st.s, st, Rng(0))
    to_goal = spec.goal - st.s
    cos = float(a @ to_goal / (np.linalg.norm(a) * np.linalg.norm(to_goal)))
    assert cos > 0.999
    assert np.linalg.norm(a) <= 1.0 + 1e-12


def test_scripted_direct_zero_at_goal():
    spec = _pointmass()
    pol = ScriptedDirect(spec)
    st = EnvState(s=spec.goal.copy(), steps=0, goods_visited=False,
                  airport_used=False)
    assert np.allclose(pol.act(spec.goal.copy(), st, Rng(0)), 0.0)


def test_planner_matches_direct_route_without_obstacles():
    # with nothing to avoid, the planned route degenerates to the straight
    # line, up to grid-cell quantization of the waypoint directions
    spec = replace(_pointmass(), risk_regions=[])
    direct = ScriptedDirect(spec)
    planner = ScriptedRiskAvoiding(spec)
    for seed in range(5):
        (t1, _, goal1), (t2, _, goal2) = (_episode(spec, pol, seed) for pol in (direct, planner))
        start = t2.states[0]
        seg = spec.goal - start
        seg_len = float(np.linalg.norm(seg))
        # cross-track deviation from the straight segment stays sub-cell
        t = np.clip((t2.states - start) @ seg / seg_len**2, 0.0, 1.0)
        assert np.all(np.linalg.norm(t2.states - (start + t[:, None] * seg), axis=1) < 0.06)
        assert goal1 and goal2
        assert abs(len(t1) - len(t2)) <= 3


def test_planner_zero_risk_occupancy_pointmass():
    spec = _pointmass()
    pol = ScriptedRiskAvoiding(spec)
    for seed in range(10):
        traj, risk_entries, reached_goal = _episode(spec, pol, seed)
        assert not risk_occupancy(spec, traj.states).any()
        assert not risk_occupancy(spec, _visited(traj)).any()
        assert risk_entries == 0
        assert reached_goal


def test_planner_zero_risk_occupancy_transport():
    spec = _transport()
    traj, risk_entries, _ = _episode(spec, ScriptedRiskAvoiding(spec), 5)
    assert not risk_occupancy(spec, _visited(traj)).any()
    assert risk_entries == 0
    assert traj.dones[-1]


def test_planner_exec_noise_is_seeded():
    spec = _pointmass()
    pol = ScriptedRiskAvoiding(spec, exec_noise=0.3)
    st = env_reset(spec, Rng(6))
    a1 = pol.act(st.s, st, Rng(42))
    a2 = pol.act(st.s, st, Rng(42))
    assert np.array_equal(a1, a2)
    a3 = pol.act(st.s, st, Rng(43))
    assert not np.array_equal(a1, a3)
    assert np.all(a1 >= spec.action_low) and np.all(a1 <= spec.action_high)


def _planner_cases():
    # every grid_n >= 7 plans on the builtin maps; at grid_n 1 the one cell's
    # center sits in an inflated risk region, so that case gets an open arena
    specs = [("pointmass", _pointmass()), ("transport", _transport())]
    specs += [(f"transport-{v}", _transport().with_variant(v)) for v in ("goods", "airport")]
    for name, spec in specs:
        for grid_n in (7, 40, 63):
            for noise in (0.0, 0.1, 0.2):
                yield pytest.param(spec, grid_n, noise, id=f"{name}-grid{grid_n}-noise{noise}")
    open_arena = replace(_pointmass(), risk_regions=[])
    for noise in (0.0, 0.2):
        yield pytest.param(open_arena, 1, noise, id=f"open-grid1-noise{noise}")


@pytest.mark.parametrize("spec,grid_n,noise", list(_planner_cases()))
def test_planner_act_batch_matches_the_neighbour_scan(spec, grid_n, noise):
    # every cell center, the goal, the goods point and points in and around
    # the arena (each with goods unvisited and visited) against the per-row scan
    pol = ScriptedRiskAvoiding(spec, grid_n=grid_n, exec_noise=noise)
    g, r = pol._grid, np.random.default_rng(grid_n)
    span = spec.arena_max - spec.arena_min
    points = [g.centers.reshape(-1, 2), spec.goal[None],
              r.uniform(spec.arena_min - 0.3 * span, spec.arena_max + 0.3 * span, (400, 2))]
    fields = {False: (g.solve(spec.goal, None, free_only=False), spec.goal)}
    fields[True] = fields[False]
    if spec.variant == "goods":
        goods = spec.goods_region
        points += [goods.reference_point()[None]]
        points += points
        fields[False] = (g.solve(goods.reference_point(), goods, free_only=False),
                         goods.reference_point())
    states = np.concatenate(points)
    n = len(states)
    visited = np.arange(n) >= n // 2
    ctx = EnvStates(states.copy(), np.zeros(n, dtype=np.int64), visited,
                    np.zeros(n, dtype=bool))
    got = pol.act_batch(states, ctx, [Rng(5).substream(i) for i in range(n)])
    want = np.array([reference_planner_act(pol, *fields[bool(visited[i])], states[i],
                                           Rng(5).substream(i)) for i in range(n)])
    assert got.tobytes() == want.tobytes()


def test_planner_raises_when_start_is_blocked():
    spec = _pointmass()
    center = 0.5 * (spec.start_min + spec.start_max)
    wall = Region(shape="circle", label="risk_circle", center=center, radius=0.08)
    blocked = replace(spec, risk_regions=[wall])
    blocked.validate()
    with pytest.raises(PlanningError):
        ScriptedRiskAvoiding(blocked)


def test_bc_policy_imitates_scripted_direct():
    spec = _linear()
    data = generate_dataset(spec, ScriptedDirect(spec), 60, spec.max_steps, Rng(21))
    bc, hist = train_bc_policy(data, BcTrainConfig(iterations=4000, seed=3),
                               spec.action_low, spec.action_high)
    assert len(hist) == 4000
    hold = generate_dataset(spec, ScriptedDirect(spec), 10, spec.max_steps, Rng(22))
    pred = np.vstack([bc.act(hold.states[i], None, None)
                      for i in range(len(hold.states))])
    err = np.mean(np.sum((data.norm.normalize_action(pred)
                          - data.norm.normalize_action(hold.actions)) ** 2, axis=1))
    assert err <= 0.05


def test_bc_output_respects_bounds():
    spec = _linear()
    data = generate_dataset(spec, RandomPolicy(spec), 5, spec.max_steps, Rng(23))
    bc, _ = train_bc_policy(data, BcTrainConfig(iterations=0, seed=0),
                            spec.action_low, spec.action_high)
    for i in range(20):
        a = bc.act(np.asarray(Rng(i).uniform(-20, 20, size=2)), None, None)
        assert np.all(a >= spec.action_low) and np.all(a <= spec.action_high)


def test_bc_act_batch_matches_the_normalized_net():
    # the policy's snapshot folds normalize_state and denormalize_action into the net
    norm = NormStats(np.array([0.7, -1.2]), np.array([2.5, 0.4]),
                     np.array([0.2, -0.3]), np.array([0.6, 1.7]))
    params = mlp_init([2, 16, 16, 2], 0.2, Rng(26))
    for b in params.biases:
        b[:] = Rng(27).normal(size=b.shape)
    low, high = np.array([-1.0, -2.0]), np.array([1.5, 2.0])
    bc = BehaviorCloned(params, norm, low, high)
    states = Rng(28).uniform(-3, 3, size=(50, 2))
    out, _ = forward_batch(params, norm.normalize_state(states))
    want = np.clip(norm.denormalize_action(out), low, high)
    got = bc.act_batch(states, None, [None] * 50)
    assert 0 < np.sum(got == high) + np.sum(got == low) < got.size
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("dims", [[3, 8, 2], [2, 8, 3]])
def test_bc_policy_refuses_a_net_that_does_not_fit_its_norm(dims):
    with pytest.raises(EnvError, match=re.escape(
            f"behavior-cloned policy: dims {dims} do not fit kind bc at state dim 2 and "
            f"action dim 2")):
        BehaviorCloned(mlp_init(dims, 0.2, Rng(0)), identity_norm(2, 2), -np.ones(2),
                       np.ones(2))


# (low, high) for a policy of action dim 3: each breaks one rule a checkpoint's bounds keep
BAD_BC_BOUNDS = [
    (-np.ones(2), np.ones(2)),
    (-np.ones((1, 3)), np.ones((1, 3))),
    (-np.ones(3), np.array([1.0, 1.0, np.inf])),
    (np.array([-1.0, np.nan, -1.0]), np.ones(3)),
    (-np.ones(3), np.array([1.0, -1.0, 1.0])),
]


@pytest.mark.parametrize("low, high", BAD_BC_BOUNDS,
                         ids=["shape", "2-D", "inf", "nan", "low-not-below-high"])
def test_bc_policy_refuses_the_bounds_its_checkpoint_reader_refuses(low, high):
    params = mlp_init(BehaviorCloned.arch.dims(2, 3), 0.2, Rng(0))
    good = BehaviorCloned(params, identity_norm(2, 3), -np.ones(3), np.ones(3))
    doc = model_to_dict(good)
    doc["bounds"] = {"low": low.tolist(), "high": high.tolist()}
    with pytest.raises(CheckpointError, match="bounds"):
        model_from_dict(doc, "bc")
    with pytest.raises(EnvError, match=re.escape(
            "behavior-cloned policy: bounds must be finite arrays of shape (3,) with low < high")):
        BehaviorCloned(params, identity_norm(2, 3), low, high)


def test_bc_training_deterministic():
    spec = _linear()
    data = generate_dataset(spec, ScriptedDirect(spec), 5, spec.max_steps, Rng(25))
    cfg = BcTrainConfig(iterations=30, seed=8)
    b1, h1 = train_bc_policy(data, cfg, spec.action_low, spec.action_high)
    b2, h2 = train_bc_policy(data, cfg, spec.action_low, spec.action_high)
    assert same_params(b1.params, b2.params)
    assert h1 == h2
