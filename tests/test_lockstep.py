"""Lockstep rollouts and dataset generation against per-episode reference loops.

rollout_batch and generate_dataset step every episode together through one
batched policy call, correction and env step. The references below are the
loops they replaced, sharing no rollout or env-step code with the runner: one
episode at a time, per step act_batch on one row, then the correction rule
written out through eval_score and infer_action
(helpers.reference_correction, not the batched rule under test), then the
env step written out row-wise (helpers.reference_env_step, not
envs.env_step_rows). Step counts, risk flags, dones and goal flags must agree
exactly. States, actions and rewards must agree to ATOL: a network evaluates
all live rows in one matrix product whose last bits depend on the row count,
and sensitive stretches of a corrected trajectory amplify that. On the
trained pointmass bundle the worst deviation over 2,100 sweep episodes was
1.4e-8 (k1 = 0.3, k2 = 0); elsewhere it stayed below 1e-12. Where no network
runs, the values agree bitwise.
"""

import errno
import os
from dataclasses import dataclass, replace

import numpy as np
import pytest

from cdsa.controller import (
    SPLIT_MIN_EPISODES,
    ControlConfig,
    ControlError,
    control_episode,
    run_episodes,
    train_cdsa,
)
from cdsa.dataset import Dataset, generate_dataset
from cdsa.envs import (
    BcTrainConfig,
    BehaviorCloned,
    EnvError,
    EnvState,
    EnvStates,
    RandomPolicy,
    ScriptedDirect,
    ScriptedRiskAvoiding,
    builtin_spec_path,
    load_env_spec,
    risk_occupancy,
    train_bc_policy,
)
from cdsa.evaluation import rollout_batch
from cdsa.invdyn import InvDynTrainConfig
from cdsa.neuralcore import MlpParams, Rng, forward_batch
from cdsa.scorefield import ScoreTrainConfig
from helpers import (
    assert_no_child_left,
    blas_threads,
    needs_openblas,
    reference_correction,
    reference_env_step,
)

ATOL = 1e-6
SPLIT_ODD = SPLIT_MIN_EPISODES | 1  # an odd episode count at or above the split minimum
SWEEP = [(0.1, 0.0), (0.1, 0.02), (0.1, 0.05), (0.3, 0.0), (0.3, 0.02), (0.3, 0.05)]


@dataclass
class RefEpisode:
    states: np.ndarray
    actions: np.ndarray
    rewards: list
    risk_flags: list
    dones: list
    final_state: np.ndarray
    reached_goal: bool


def reference_reset(spec, rng) -> EnvState:
    return EnvState(s=rng.uniform(spec.start_min, spec.start_max, size=spec.state_dim))


def reference_act(policy, st, rng) -> np.ndarray:
    """policy.act_batch on one row."""
    return np.asarray(policy.act_batch(st.s[None, :], EnvStates.stack([st]), [rng])[0],
                      dtype=np.float64)


def reference_episode(spec, policy, models, cfg, rng) -> RefEpisode:
    """One episode, one step at a time: act_batch on one row, reference_correction,
    reference_env_step."""
    st = reference_reset(spec, rng)
    rows = []
    for _ in range(spec.max_steps):
        a_o = np.clip(reference_act(policy, st, rng), spec.action_low, spec.action_high)
        a = a_o if models is None else reference_correction(models, st.s, a_o, cfg)
        nxt, r, done, risk = reference_env_step(spec, st, a, rng)
        rows.append((st.s, a, r, risk, done))
        st = nxt
        if done:
            break
    at_goal = float(np.linalg.norm(st.s - spec.goal)) <= spec.capture_radius
    reached = at_goal and (spec.variant != "goods" or st.goods_visited)
    cols = list(zip(*rows)) if rows else [[]] * 5
    return RefEpisode(np.array(cols[0]).reshape(-1, spec.state_dim),
                      np.array(cols[1]).reshape(-1, spec.action_dim),
                      list(cols[2]), list(cols[3]), list(cols[4]),
                      st.s, bool(reached and rows))


def reference_dataset(spec, policy, episodes, max_steps, rng) -> Dataset:
    """Dataset generation one episode at a time, as before lockstep."""
    rows = []
    for ep in range(episodes):
        ep_rng = rng.substream(ep)
        st = reference_reset(spec, ep_rng)
        for _ in range(max_steps):
            a = reference_act(policy, st, ep_rng)
            nxt, r, done, _risk = reference_env_step(spec, st, a, ep_rng)
            rows.append((st.s, a, float(r), nxt.s, bool(done)))
            st = nxt
            if done:
                break
    return Dataset(*(np.array(col) for col in zip(*rows)))


def _close(x, y, exact):
    if exact:
        assert np.array_equal(x, y)
    else:
        np.testing.assert_allclose(x, y, rtol=0.0, atol=ATOL)


def assert_matches_reference(spec, policy, models, cfg, episodes, base_seed,
                             max_trajectories=None, exact=False):
    """rollout_batch against the reference, episode by episode; returns the stats."""
    record = episodes if max_trajectories is None else max_trajectories
    trajs: list = []
    stats = rollout_batch(spec, policy, models, cfg, episodes, base_seed,
                          trajectories_out=trajs, max_trajectories=record)
    assert len(stats) == episodes and len(trajs) == min(record, episodes)
    root = Rng(base_seed)
    for i, st in enumerate(stats):
        ref = reference_episode(spec, policy, models, cfg, root.substream(i))
        assert st.steps == len(ref.rewards)
        assert st.risk_entries == sum(ref.risk_flags)
        assert st.reached_goal == ref.reached_goal
        np.testing.assert_allclose(st.undiscounted_return, sum(ref.rewards), rtol=0, atol=ATOL)
        if i >= len(trajs):
            continue
        tr = trajs[i]
        # the risk flags are those of the post-step positions the trajectory records
        risk = risk_occupancy(spec, np.vstack([tr.states[1:], tr.final_state]))
        # the running totals agree with the recorded trajectory's arrays
        assert (len(tr), int(risk.sum())) == (st.steps, st.risk_entries)
        np.testing.assert_allclose(st.undiscounted_return, tr.rewards.sum(), rtol=0, atol=1e-9)
        assert risk.tolist() == ref.risk_flags
        assert tr.dones.tolist() == ref.dones
        _close(tr.states, ref.states, exact)
        _close(tr.actions, ref.actions, exact)
        _close(tr.rewards, np.array(ref.rewards), exact)
        _close(tr.final_state, ref.final_state, exact)
    return stats


@pytest.fixture(scope="module")
def pointmass():
    """Small models and an under-trained BC policy on planner data, for numerics only."""
    spec = load_env_spec(builtin_spec_path("pointmass"))
    data = generate_dataset(spec, ScriptedRiskAvoiding(spec, exec_noise=0.2), 24,
                            spec.max_steps, Rng(100))
    models = train_cdsa(data, ScoreTrainConfig(sigma=0.2, iterations=300, batch_size=64,
                                               seed=21),
                        InvDynTrainConfig(iterations=300, batch_size=64, seed=31))
    bc, _ = train_bc_policy(data, BcTrainConfig(iterations=150, batch_size=64, seed=11),
                            spec.action_low, spec.action_high)
    return spec, models, bc


def test_pointmass_bc_sweep_matches_reference(pointmass):
    spec, models, bc = pointmass
    stats = assert_matches_reference(spec, bc, None, None, 16, 7000)
    assert len({s.steps for s in stats}) > 1, "episodes should end at different steps"
    for k1, k2 in SWEEP:
        cfg = ControlConfig(k1, k2, spec.action_low, spec.action_high)
        assert_matches_reference(spec, bc, models, cfg, 16, 7000)


def test_partial_trajectories_keep_totals_for_the_rest(pointmass):
    spec, models, bc = pointmass
    cfg = ControlConfig(0.3, 0.02, spec.action_low, spec.action_high, n_refine=2)
    stats = assert_matches_reference(spec, bc, models, cfg, 12, 9100, max_trajectories=3)
    assert len({s.steps for s in stats}) > 1


def test_transport_variants_match_reference(pointmass):
    _, models, _ = pointmass
    transport = load_env_spec(builtin_spec_path("transport"))
    for variant in ("goods", "airport"):
        spec = transport.with_variant(variant)
        pol = ScriptedDirect(spec)
        assert_matches_reference(spec, pol, None, None, 10, 4000, exact=True)
        cfg = ControlConfig(0.3, 0.02, spec.action_low, spec.action_high)
        assert_matches_reference(spec, pol, models, cfg, 10, 4000)


def test_linear_random_policy_matches_reference():
    spec = load_env_spec(builtin_spec_path("linear"))
    pol = RandomPolicy(spec)
    assert_matches_reference(spec, pol, None, None, 9, 42, max_trajectories=4, exact=True)
    data = generate_dataset(spec, pol, 8, spec.max_steps, Rng(3))
    models = train_cdsa(data, ScoreTrainConfig(sigma=0.2, iterations=60, batch_size=32, seed=5),
                        InvDynTrainConfig(iterations=60, batch_size=32, seed=7))
    cfg = ControlConfig(0.2, 0.1, spec.action_low, spec.action_high)
    assert_matches_reference(spec, pol, models, cfg, 9, 42)


def test_control_episode_is_a_one_episode_batch(pointmass):
    # episode 0 of rollout_batch and of run_episodes on the same root, bitwise
    spec, models, bc = pointmass
    cfg = ControlConfig(0.1, 0.05, spec.action_low, spec.action_high)
    trajs: list = []
    stats = rollout_batch(spec, bc, models, cfg, 1, 55, 1.0, trajs, 1)
    rng = Rng(55)
    one = control_episode(spec, bc, models, cfg, rng)
    _, (run,) = run_episodes(spec, bc, models, cfg, rng, 1, record=1)
    for batch in (trajs[0], run):
        for name in ("states", "actions", "rewards", "dones", "final_state"):
            assert getattr(one, name).tobytes() == getattr(batch, name).tobytes(), name
    assert len(one) == stats[0].steps > 1


def test_batch_sees_writes_into_params_made_before_it(pointmass):
    # rollouts run on snapshots taken when the batch starts, so a write into
    # g's params between two batches reaches the second one
    spec, models, bc = pointmass
    p = models.action_score.params
    g = MlpParams(p.layer_dims, p.leaky_slope, p.flat.copy())
    mine = replace(models, action_score=replace(models.action_score, params=g))
    cfg = ControlConfig(0.3, 0.02, spec.action_low, spec.action_high)
    before: list = []
    rollout_batch(spec, bc, mine, cfg, 4, 9200, 1.0, before, 4)
    g.biases[-1][:] += 0.5
    after: list = []
    rollout_batch(spec, bc, mine, cfg, 4, 9200, 1.0, after, 4)
    assert not np.allclose(before[0].actions[0], after[0].actions[0], rtol=0, atol=1e-3)
    assert_matches_reference(spec, bc, mine, cfg, 4, 9200)
    g.biases[-1][0] = np.nan
    for episodes in (4, SPLIT_MIN_EPISODES):
        with pytest.raises(ControlError, match="non-finite"):
            rollout_batch(spec, bc, mine, cfg, episodes, 9200)
    assert_no_child_left()


def test_behavior_cloned_acts_on_the_params_it_was_built_with(pointmass):
    spec, _, bc = pointmass
    params = MlpParams(bc.params.layer_dims, bc.params.leaky_slope, bc.params.flat.copy())
    pol = BehaviorCloned(params, bc.norm, bc.action_low, bc.action_high)
    states = Rng(5).normal(size=(9, spec.state_dim)) * 3.0
    acted = pol.act_batch(states, None, [])
    out, _ = forward_batch(params, bc.norm.normalize_state(states))
    want = np.clip(bc.norm.denormalize_action(out), bc.action_low, bc.action_high)
    np.testing.assert_allclose(acted, want, rtol=0, atol=1e-12)
    params.flat[:] = np.nan
    assert np.array_equal(pol.act_batch(states, None, []), acted)
    rebuilt = BehaviorCloned(params, bc.norm, bc.action_low, bc.action_high)
    assert np.isnan(rebuilt.act_batch(states, None, [])).all()


@pytest.mark.parametrize("env,variant,policy", [
    ("transport", None, "risk-avoiding"),
    ("transport", None, "direct"),
    ("transport", None, "random"),
    ("pointmass", None, "risk-avoiding"),
    ("linear", None, "random"),
    ("transport", "goods", "risk-avoiding"),
    ("transport", "airport", "risk-avoiding"),
])
def test_generate_dataset_matches_reference(env, variant, policy):
    # the three gen-data policies; every one acts in bounds, so the executed
    # (clipped) actions the lockstep runner stores equal the policy's own
    spec = load_env_spec(builtin_spec_path(env))
    if variant:
        spec = spec.with_variant(variant)
    pol = {"risk-avoiding": lambda: ScriptedRiskAvoiding(spec, exec_noise=0.2),
           "direct": lambda: ScriptedDirect(spec),
           "random": lambda: RandomPolicy(spec)}[policy]()
    got = generate_dataset(spec, pol, 6, spec.max_steps, Rng(61))
    want = reference_dataset(spec, pol, 6, spec.max_steps, Rng(61))
    assert len(got) == len(want) > 6
    for name in ("states", "actions", "rewards", "next_states", "dones"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.norm.equals(want.norm)


# ---------------------------------------------------------------------------
# Batches of SPLIT_MIN_EPISODES or more run as two halves, one in a forked child
# ---------------------------------------------------------------------------


class HalfFailure(Exception):
    pass


class HalfProbe:
    """Wraps a policy. In the process that built it, counts calls and records the
    OpenBLAS thread count; in any other process, raises HalfFailure when told to."""

    def __init__(self, policy, fail_in_child):
        self.policy, self.fail_in_child = policy, fail_in_child
        self.pid = os.getpid()
        self.parent_calls = 0
        self.blas_threads = []

    def act_batch(self, states, ctx, rngs):
        if os.getpid() != self.pid:
            if self.fail_in_child:
                raise HalfFailure(f"policy failed on {len(rngs)} rows of the child's half")
        else:
            self.parent_calls += 1
            self.blas_threads.append(blas_threads())
        return self.policy.act_batch(states, ctx, rngs)


def test_split_rollout_matches_reference(pointmass):
    spec, models, bc = pointmass
    h = SPLIT_ODD // 2
    cfg = ControlConfig(0.3, 0.02, spec.action_low, spec.action_high, n_refine=2)
    # the recorded trajectories run from the parent's half into the child's
    for m, c in ((None, None), (models, cfg)):
        stats = assert_matches_reference(spec, bc, m, c, SPLIT_ODD, 9100,
                                         max_trajectories=h + 3)
        assert len({s.steps for s in stats}) > 1, "episodes should end at different steps"
    assert_no_child_left()


def test_split_generate_dataset_matches_reference_bitwise():
    spec = load_env_spec(builtin_spec_path("transport"))
    pol = ScriptedRiskAvoiding(spec, exec_noise=0.2)
    got = generate_dataset(spec, pol, SPLIT_ODD, spec.max_steps, Rng(62))
    want = reference_dataset(spec, pol, SPLIT_ODD, spec.max_steps, Rng(62))
    assert len(got) == len(want) > SPLIT_ODD
    for name in ("states", "actions", "rewards", "next_states", "dones"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert_no_child_left()


@pytest.mark.parametrize("episodes", [4, SPLIT_MIN_EPISODES])
def test_run_episodes_leaves_root_unadvanced(episodes):
    # each half builds its episodes' streams from root, split or not, and
    # draws nothing from root itself
    spec = load_env_spec(builtin_spec_path("linear"))
    root = Rng(8)
    run_episodes(spec, RandomPolicy(spec), None, None, root, episodes)
    assert root.random() == Rng(8).random()
    assert_no_child_left()


def test_split_child_failure_raises_in_parent(pointmass):
    spec, _, bc = pointmass
    pol = HalfProbe(bc, fail_in_child=True)
    with pytest.raises(HalfFailure) as info:
        rollout_batch(spec, pol, None, None, SPLIT_ODD, 5)
    child_rows = SPLIT_ODD - SPLIT_ODD // 2
    assert str(info.value) == f"policy failed on {child_rows} rows of the child's half"
    assert pol.parent_calls > 0  # the parent's half ran
    assert_no_child_left()


@needs_openblas
@pytest.mark.parametrize("fail", [False, True], ids=["success", "failure"])
def test_split_runs_on_one_blas_thread(pointmass, fail):
    # importing cdsa set the count; a split neither sets it nor leaves it changed
    spec, models, bc = pointmass
    pol = HalfProbe(bc, fail_in_child=fail)
    cfg = ControlConfig(0.1, 0.02, spec.action_low, spec.action_high)
    if fail:
        with pytest.raises(HalfFailure):
            rollout_batch(spec, pol, models, cfg, SPLIT_MIN_EPISODES, 6)
    else:
        rollout_batch(spec, pol, models, cfg, SPLIT_MIN_EPISODES, 6)
    assert pol.blas_threads and set(pol.blas_threads) == {1}
    assert blas_threads() == 1
    assert_no_child_left()


def test_small_batches_stay_in_one_process(pointmass, monkeypatch):
    spec, models, bc = pointmass
    cfg = ControlConfig(0.1, 0.05, spec.action_low, spec.action_high)

    def no_fork():
        raise OSError(errno.EAGAIN, "fork is patched out")

    monkeypatch.setattr(os, "fork", no_fork)
    stats = rollout_batch(spec, bc, models, cfg, SPLIT_MIN_EPISODES - 1, 7)
    assert len(stats) == SPLIT_MIN_EPISODES - 1
    control_episode(spec, bc, models, cfg, Rng(7))
    generate_dataset(spec, ScriptedDirect(spec), 2, spec.max_steps, Rng(7))
    with pytest.raises(OSError, match="fork is patched out"):
        rollout_batch(spec, bc, models, cfg, SPLIT_MIN_EPISODES, 7)


class NanPolicy:
    """Returns NaN actions: a base policy whose own net has diverged."""

    def act_batch(self, states, ctx, rngs):
        return np.full((len(rngs), 2), np.nan)


def test_nan_base_actions_raise_env_error_uncorrected_and_control_error_corrected(pointmass):
    spec, models, _ = pointmass
    baseline = ControlConfig(0.4, 0.2, spec.action_low, spec.action_high, ablation="baseline")
    for m, c in ((None, None), (models, baseline)):
        with pytest.raises(EnvError, match="finite"):
            run_episodes(spec, NanPolicy(), m, c, Rng(9), 3)
    corrected = ControlConfig(0.1, 0.02, spec.action_low, spec.action_high)
    with pytest.raises(ControlError, match="diverged model"):
        run_episodes(spec, NanPolicy(), models, corrected, Rng(9), 3)


def test_config_bounds_must_be_the_spec_bounds(pointmass):
    # the lockstep clips base actions once, to bounds both must share
    spec, models, bc = pointmass
    cfg = ControlConfig(0.1, 0.02, spec.action_low, 0.5 * spec.action_high)
    with pytest.raises(ControlError, match="action bounds"):
        run_episodes(spec, bc, models, cfg, Rng(9), 1)
