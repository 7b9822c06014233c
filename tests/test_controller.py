import re
from dataclasses import replace

import numpy as np
import pytest

from cdsa.controller import (
    ABLATIONS,
    CdsaModels,
    ControlConfig,
    ControlError,
    LangevinConfig,
    _correct_rows,
    _inference_nets,
    conditional_score_fn,
    control_episode,
    correct_action,
    langevin_sample,
    load_trajectory_csv,
    save_trajectory_csv,
    train_cdsa,
)
from cdsa.dataset import NormStats, generate_dataset
from cdsa.envs import RandomPolicy, ScriptedDirect, builtin_spec_path, load_env_spec
from cdsa.invdyn import InvDynModel, InvDynTrainConfig, model_dims, train_invdyn
from cdsa.neuralcore import Rng, mlp_init
from cdsa.scorefield import (
    ScoreField,
    ScoreKind,
    ScoreTrainConfig,
    field_dims,
    train_score_field,
)
from helpers import reference_correction


def _const_net(dims, value, slope):
    p = mlp_init(dims, slope, Rng(0))
    for w in p.weights:
        w[:] = 0.0
    for b in p.biases:
        b[:] = 0.0
    p.biases[-1][:] = value
    return p


def _stub_models(g_value=(0.1, 0.0), h_value=(0.0, 0.0)):
    norm = NormStats.identity(2, 2)
    action = ScoreField(params=_const_net(field_dims(ScoreKind.ACTION, 2, 2),
                                          np.array(g_value), 0.1),
                        kind=ScoreKind.ACTION, sigma=0.1, norm=norm)
    state = ScoreField(params=_const_net(field_dims(ScoreKind.STATE, 2, 2),
                                         np.array(h_value), 0.1),
                       kind=ScoreKind.STATE, sigma=0.1, norm=norm)
    inv = InvDynModel(params=_const_net(model_dims(2, 2), np.zeros(2), 0.2),
                      norm=norm)
    return CdsaModels(action_score=action, state_score=state, invdyn=inv, norm=norm)


def _wide_cfg(**kw):
    base = dict(k1=1.0, k2=1.0, action_low=np.array([-10.0, -10.0]),
                action_high=np.array([10.0, 10.0]), n_refine=0, ablation="full")
    base.update(kw)
    return ControlConfig(**base)


def _trained_models(iterations=60):
    spec = load_env_spec(builtin_spec_path("linear"))
    data = generate_dataset(spec, RandomPolicy(spec), 8, spec.max_steps, Rng(3))
    return spec, data, train_cdsa(
        data,
        ScoreTrainConfig(sigma=0.2, iterations=iterations, batch_size=32, seed=5),
        InvDynTrainConfig(iterations=iterations, batch_size=32, seed=7),
    )


def test_identity_when_gains_zero():
    models = _stub_models()
    cfg = _wide_cfg(k1=0.0, k2=0.0, n_refine=3)
    a_o = np.array([0.37, -0.12])
    out = correct_action(models, np.zeros(2), a_o, cfg)
    assert np.array_equal(out, a_o)


def test_baseline_ablation_is_identity():
    models = _stub_models(g_value=(5.0, 5.0), h_value=(5.0, 5.0))
    cfg = _wide_cfg(ablation="baseline")
    a_o = np.array([-0.4, 0.9])
    assert np.array_equal(correct_action(models, np.zeros(2), a_o, cfg), a_o)


def test_stubbed_constant_correction():
    # g = (0.1, 0) in normalized units, h = 0, zero inverse dynamics:
    # one pass adds exactly k1 * 0.1 in the first action coordinate
    models = _stub_models()
    out = correct_action(models, np.zeros(2), np.zeros(2), _wide_cfg())
    assert np.allclose(out, [0.1, 0.0], atol=1e-12)


def test_refinement_applies_field_each_pass():
    models = _stub_models()
    out = correct_action(models, np.zeros(2), np.zeros(2), _wide_cfg(n_refine=2))
    assert np.allclose(out, [0.3, 0.0], atol=1e-12)


def test_k1_term_scaled_by_action_std():
    models = _stub_models()
    scaled = replace(models.norm, action_std=np.array([2.0, 2.0]))
    models = CdsaModels(
        action_score=ScoreField(models.action_score.params, ScoreKind.ACTION, 0.1, scaled),
        state_score=ScoreField(models.state_score.params, ScoreKind.STATE, 0.1, scaled),
        invdyn=InvDynModel(models.invdyn.params, scaled),
        norm=scaled,
    )
    out = correct_action(models, np.zeros(2), np.zeros(2), _wide_cfg(k2=0.0))
    assert np.allclose(out, [0.2, 0.0], atol=1e-12)


def test_correction_clipped_to_bounds():
    models = _stub_models(g_value=(50.0, 0.0))
    cfg = _wide_cfg(action_low=np.array([-1.0, -1.0]),
                    action_high=np.array([1.0, 1.0]))
    out = correct_action(models, np.zeros(2), np.array([1.0, 0.0]), cfg)
    assert np.array_equal(out, [1.0, 0.0])


def test_ablation_algebra_bitwise():
    _, _, models = _trained_models()
    rng = Rng(11)
    for _ in range(10):
        s = np.asarray(rng.uniform(-2, 2, size=2))
        a_o = np.asarray(rng.uniform(-1, 1, size=2))
        # k2 = 0: full == no_a2; k1 = 0: full == no_a1
        full_k2z = correct_action(models, s, a_o, _wide_cfg(k1=0.3, k2=0.0))
        noa2 = correct_action(models, s, a_o, _wide_cfg(k1=0.3, k2=0.0, ablation="no_a2"))
        assert np.array_equal(full_k2z, noa2)
        full_k1z = correct_action(models, s, a_o, _wide_cfg(k1=0.0, k2=0.4))
        noa1 = correct_action(models, s, a_o, _wide_cfg(k1=0.0, k2=0.4, ablation="no_a1"))
        assert np.array_equal(full_k1z, noa1)


@pytest.mark.parametrize("k1,k2", [(0.3, 0.0), (0.0, 0.4), (0.3, 0.4)])
def test_batched_correction_matches_the_rule_on_the_models(k1, k2):
    # rollouts correct on inference snapshots (g and h stacked); values must
    # match the rule evaluated on the models' own params to float tolerance
    _, _, models = _trained_models()
    rng = Rng(12)
    s = rng.uniform(-2, 2, size=(40, 2))
    a_o = rng.uniform(-1, 1, size=(40, 2))
    cfg = _wide_cfg(k1=k1, k2=k2, n_refine=2)
    got = _correct_rows(models, _inference_nets(models), s, a_o, cfg, None)
    want = np.array([reference_correction(models, s[i], a_o[i], cfg) for i in range(40)])
    assert not np.allclose(got, a_o, rtol=0, atol=1e-3)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


def test_rejects_unknown_ablation():
    with pytest.raises(ValueError):
        _wide_cfg(ablation="bogus").validate()
    assert set(ABLATIONS) == {"full", "no_a1", "no_a2", "baseline"}


def test_models_norm_consistency_enforced():
    models = _stub_models()
    other = NormStats(np.ones(2), np.ones(2), np.zeros(2), np.ones(2))
    bad = CdsaModels(action_score=models.action_score,
                     state_score=models.state_score,
                     invdyn=InvDynModel(models.invdyn.params, other),
                     norm=models.norm)
    with pytest.raises(ControlError):
        bad.validate()


def test_models_fields_must_stack():
    # rollouts evaluate g and h as one stack, so they share all dims but the output
    models = _stub_models()
    wider = ScoreField(params=_const_net([4, 32, 64, 32, 2], np.zeros(2), 0.1),
                       kind=ScoreKind.STATE, sigma=0.1, norm=models.norm)
    steeper = ScoreField(params=_const_net(field_dims(ScoreKind.STATE, 2, 2), np.zeros(2), 0.2),
                         kind=ScoreKind.STATE, sigma=0.1, norm=models.norm)
    for state in (wider, steeper):
        with pytest.raises(ControlError, match="stack"):
            replace(models, state_score=state).validate()


def test_non_finite_correction_raises():
    # clip maps +-inf onto the bounds, so only nan survives to the check
    models = _stub_models(g_value=(np.nan, 0.0))
    with pytest.raises(ControlError):
        correct_action(models, np.zeros(2), np.zeros(2), _wide_cfg())


def test_train_cdsa_matches_standalone_trainers():
    spec = load_env_spec(builtin_spec_path("linear"))
    data = generate_dataset(spec, RandomPolicy(spec), 8, spec.max_steps, Rng(3))
    score_cfg = ScoreTrainConfig(sigma=0.2, iterations=40, batch_size=32, seed=5)
    inv_cfg = InvDynTrainConfig(iterations=40, batch_size=32, seed=7)
    hist = {}
    models = train_cdsa(data, score_cfg, inv_cfg, histories_out=hist)

    a_ref, ha = train_score_field(data, ScoreKind.ACTION, score_cfg)
    s_ref, hs = train_score_field(data, ScoreKind.STATE, replace(score_cfg, seed=score_cfg.seed + 1))
    i_ref, hi = train_invdyn(data, inv_cfg)
    assert models.action_score.params.allclose(a_ref.params)
    assert models.state_score.params.allclose(s_ref.params)
    assert models.invdyn.params.allclose(i_ref.params)
    assert hist["action_score"] == ha
    assert hist["state_score"] == hs
    assert hist["invdyn"] == hi


def test_control_episode_baseline_matches_bare_policy():
    spec, data, models = _trained_models()
    pol = ScriptedDirect(spec)
    cfg = ControlConfig(k1=0.5, k2=0.5, action_low=spec.action_low,
                        action_high=spec.action_high, ablation="baseline")
    t1 = control_episode(spec, pol, models, cfg, Rng(31))
    t2 = control_episode(spec, pol, None, None, Rng(31))
    assert np.array_equal(t1.states, t2.states)
    assert np.array_equal(t1.actions, t2.actions)
    assert np.array_equal(t1.rewards, t2.rewards)


def test_control_episode_with_models_needs_config():
    spec, _, models = _trained_models(iterations=0)
    with pytest.raises(ControlError, match="ControlConfig"):
        control_episode(spec, ScriptedDirect(spec), models, None, Rng(1))


def test_correct_action_reports_one_float_per_pass():
    models = _stub_models()
    deltas = []
    out = correct_action(models, np.zeros(2), np.zeros(2), _wide_cfg(n_refine=2), deltas)
    assert np.allclose(out, [0.3, 0.0], atol=1e-12)
    assert len(deltas) == 3 and all(type(d) is float for d in deltas)
    assert np.allclose(deltas, 0.1, atol=1e-12)


def test_control_episode_zero_budget():
    spec, _, _ = _trained_models(iterations=0)
    traj = control_episode(spec, ScriptedDirect(spec), None, None, Rng(1),
                           max_steps=0)
    assert len(traj) == 0
    assert traj.undiscounted_return == 0.0


def test_control_episode_records_base_and_corrected():
    spec, data, models = _trained_models()
    cfg = ControlConfig(k1=0.2, k2=0.1, action_low=spec.action_low,
                        action_high=spec.action_high)
    traj = control_episode(spec, ScriptedDirect(spec), models, cfg, Rng(8))
    assert len(traj) > 0
    assert traj.states.shape[0] == traj.actions.shape[0] == len(traj.rewards)
    assert not np.array_equal(traj.actions_base, traj.actions)
    assert np.all(traj.actions >= spec.action_low - 1e-12)
    assert np.all(traj.actions <= spec.action_high + 1e-12)
    assert len(traj.delta_norms) == len(traj.rewards)


def test_trajectory_csv_roundtrip(tmp_path):
    spec, _, _ = _trained_models(iterations=0)
    traj = control_episode(spec, ScriptedDirect(spec), None, None, Rng(13))
    path = tmp_path / "traj.csv"
    save_trajectory_csv(traj, str(path))
    back = load_trajectory_csv(str(path))
    assert np.array_equal(back.states, traj.states)
    assert np.array_equal(back.actions_base, traj.actions_base)
    assert np.array_equal(back.actions, traj.actions)
    assert np.array_equal(back.rewards, traj.rewards)
    assert np.array_equal(back.risk_flags, traj.risk_flags)
    assert np.array_equal(back.dones, traj.dones)
    # the csv holds step rows only: final_state comes back as the last
    # pre-step state and reached_goal resets, both documented as lossy
    assert np.array_equal(back.final_state, traj.states[-1])
    assert back.reached_goal is False


# (name, line, column, text): one damaged field of a saved trajectory CSV
TRAJECTORY_CSV_MUTATIONS = [
    ("state nan", 3, 1, "nan"), ("state inf", 3, 2, "inf"), ("action string", 4, 3, "x"),
    ("reward -inf", 2, 7, "-inf"), ("risk flag 2", 3, 8, "2"), ("done 0.5", 3, 9, "0.5"),
    ("step 1.5", 3, 0, "1.5"), ("short row", 3, 9, None), ("extra field", 3, 9, "0,1"),
    ("foreign header", 1, 1, "x0"), ("header without done", 1, 9, None),
]


@pytest.mark.parametrize("line, col, text", [m[1:] for m in TRAJECTORY_CSV_MUTATIONS],
                         ids=[m[0] for m in TRAJECTORY_CSV_MUTATIONS])
def test_trajectory_csv_rejects_damaged_fields_naming_the_line(tmp_path, line, col, text):
    spec, _, _ = _trained_models(iterations=0)
    path = tmp_path / "traj.csv"
    save_trajectory_csv(control_episode(spec, ScriptedDirect(spec), None, None, Rng(13)),
                        str(path))
    lines = path.read_text().splitlines()
    fields = lines[line - 1].split(",")
    if text is None:
        del fields[col]
    else:
        fields[col] = text
    lines[line - 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ControlError, match=f"^{re.escape(str(path))}:{line}: "):
        load_trajectory_csv(str(path))


class _ZeroNoise:
    def normal(self, size=None):
        return np.zeros(size)


def test_langevin_zero_steps_returns_x0():
    x0 = np.array([1.0, -2.0])
    out = langevin_sample(lambda x: -x, x0, LangevinConfig(alpha=0.01, steps=0), Rng(0))
    assert np.array_equal(out, x0)


def test_langevin_noise_free_contraction():
    # score of N(0, I) with zero noise is gradient flow: x_t = (1-alpha)^t x_0
    alpha, steps = 0.01, 50
    x0 = np.array([2.0, -3.0])
    out = langevin_sample(lambda x: -x, x0, LangevinConfig(alpha=alpha, steps=steps),
                          _ZeroNoise())
    assert np.allclose(out, (1 - alpha) ** steps * x0, rtol=1e-12)


def test_langevin_divergence_reports_step():
    big = lambda x: x * 1e200
    with np.errstate(over="ignore"):
        with pytest.raises(ControlError, match="step"):
            langevin_sample(big, np.ones(2), LangevinConfig(alpha=1.0, steps=10), Rng(2))


def test_langevin_batched_chains_shape():
    x0 = np.zeros((100, 2))
    out = langevin_sample(lambda x: -x, x0, LangevinConfig(alpha=0.05, steps=20), Rng(3))
    assert out.shape == (100, 2)


def test_conditional_score_fn_constant_field():
    models = _stub_models(g_value=(0.1, -0.2))
    fn = conditional_score_fn(models.action_score, np.zeros(2))
    single = fn(np.array([0.3, 0.4]))
    assert np.allclose(single, [0.1, -0.2])
    batch = fn(np.zeros((7, 2)))
    assert batch.shape == (7, 2)
    assert np.allclose(batch, np.tile([0.1, -0.2], (7, 1)))


@pytest.mark.parametrize("k1, k2", [(np.inf, 0.1), (0.1, np.inf), (np.nan, 0.1),
                                    (0.1, np.nan), (-0.1, 0.1), (0.1, -np.inf)])
def test_control_config_rejects_gains_that_are_not_finite_and_non_negative(k1, k2):
    with pytest.raises(ControlError, match="k1 and k2 must be finite and >= 0"):
        _wide_cfg(k1=k1, k2=k2).validate()


def test_control_config_validation():
    with pytest.raises(ValueError):
        _wide_cfg(n_refine=-1).validate()
    with pytest.raises(ValueError):
        ControlConfig(k1=0.1, k2=0.1, action_low=np.array([1.0, 1.0]),
                      action_high=np.array([-1.0, -1.0])).validate()
    with pytest.raises(ValueError):
        LangevinConfig(alpha=0.0, steps=5).validate()
