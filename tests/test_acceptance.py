"""Acceptance suite: nine numbered end-to-end checks with runtime budgets.

Each test prints exactly one line, `acceptance N/9 (<name>): PASS|FAIL — ...`,
carrying the measured quantities, and then asserts both the quality bar and
the runtime budget. Training-heavy checks (3, 4, 6, 7) run the full default
configurations (10000 iterations, batch 256), so this file dominates the
suite's wall time.
"""

import time

import numpy as np

from cdsa.controller import (ControlConfig, LangevinConfig, control_episode,
                             langevin_sample, train_cdsa)
from cdsa.dataset import Dataset, generate_dataset
from cdsa.envs import (BcTrainConfig, RandomPolicy, ScriptedDirect,
                       ScriptedRiskAvoiding, builtin_spec_path, load_env_spec,
                       train_bc_policy)
from cdsa.evaluation import risk_entry_rate, rollout_batch, var_at
from cdsa.invdyn import (InvDynTrainConfig, infer_action, invdyn_loss,
                         model_dims, train_invdyn)
from cdsa.neuralcore import Rng, TrainBuffers, fd_grads, mlp_init
from cdsa.scorefield import (ScoreKind, ScoreTrainConfig, dsm_loss_reference,
                             dsm_loss_reparam_given_noise, eval_score,
                             field_dims, train_score_field)
from helpers import squared_error


def _verdict(num: int, name: str, ok: bool, detail: str,
             elapsed: float | None = None, budget: float | None = None) -> None:
    if budget is not None:
        ok = ok and elapsed <= budget
        detail = f"{detail}; {elapsed:.1f}s of {budget:.0f}s budget"
    line = f"acceptance {num}/9 ({name}): {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


def test_01_loss_form_identity():
    # the in-expectation and expanded forms of the denoising loss must agree
    # to float precision on identical (inputs, noise, sigma)
    t0 = time.perf_counter()
    rng = Rng(1001)
    worst = 0.0
    for trial in range(100):
        kind = ScoreKind.ACTION if trial % 2 == 0 else ScoreKind.STATE
        sigma = 0.1 + 0.5 * float(rng.random())
        net = mlp_init([4, 24, 16, 2], 0.1, rng)
        s = rng.normal(size=(256, 2))
        a = rng.normal(size=(256, 2))
        z = rng.normal(size=(256, 2))
        loss, _ = dsm_loss_reparam_given_noise(net, s, a, sigma, z, kind,
                                               TrainBuffers(256, net))
        pert = (a if kind is ScoreKind.ACTION else s) + sigma * z
        ref = dsm_loss_reference(net, (s, a, pert), sigma, kind)
        worst = max(worst, abs(loss - ref) / (1.0 + abs(loss)))
    elapsed = time.perf_counter() - t0
    _verdict(1, "loss-form identity", worst <= 1e-10,
             f"max |L1-L2|/(1+|L|) = {worst:.2e} (tol 1e-10) over 100 batches of 256",
             elapsed, 5.0)


def _max_rel_err(analytic, fd) -> float:
    # relative error floored at 1e-3 of the gradient scale so near-zero
    # entries do not divide by ~0
    scale = 0.0
    for arrays in ("weights", "biases"):
        for arr in getattr(fd, arrays):
            if arr.size:
                scale = max(scale, float(np.max(np.abs(arr))))
    floor = max(1e-3 * scale, 1e-12)
    worst = 0.0
    for arrays in ("weights", "biases"):
        for a_arr, f_arr in zip(getattr(analytic, arrays), getattr(fd, arrays)):
            denom = np.maximum(np.maximum(np.abs(a_arr), np.abs(f_arr)), floor)
            worst = max(worst, float(np.max(np.abs(a_arr - f_arr) / denom)))
    return worst


def test_02_gradient_exactness_vs_finite_differences():
    # 20 randomly initialized production-size networks: 8 per score loss,
    # 4 for the inverse-dynamics loss, central differences h=1e-6. The
    # gradients are those of the training path (a TrainBuffers set); the fd
    # oracle runs forward arithmetic alone on the same losses of the net's
    # output, the denoising one in its analytic-target form
    # (dsm_loss_reference's), so it never touches the backward code it checks.
    t0 = time.perf_counter()
    rng = Rng(2002)
    worst = 0.0
    for kind in (ScoreKind.ACTION, ScoreKind.STATE):
        for _ in range(8):
            net = mlp_init(field_dims(kind, 2, 2), 0.2, rng)
            s = rng.normal(size=(8, 2))
            a = rng.normal(size=(8, 2))
            z = rng.normal(size=(8, 2))
            _, grads = dsm_loss_reparam_given_noise(net, s, a, 0.4, z, kind,
                                                    TrainBuffers(8, net))
            if kind is ScoreKind.ACTION:
                pert = a + 0.4 * z
                x, target = np.hstack([s, pert]), -(pert - a) / 0.4**2
            else:
                pert = s + 0.4 * z
                x, target = np.hstack([pert, a]), -(pert - s) / 0.4**2
            fd = fd_grads(net, x, squared_error(target, 0.5), h=1e-6)
            worst = max(worst, _max_rel_err(grads, fd))
    for _ in range(4):
        net = mlp_init(model_dims(2, 2), 0.2, rng)
        s = rng.normal(size=(8, 2))
        s2 = rng.normal(size=(8, 2))
        a = rng.normal(size=(8, 2))
        _, grads = invdyn_loss(net, s, s2, a, TrainBuffers(8, net))
        fd = fd_grads(net, np.hstack([s, s2]), squared_error(a, 1.0), h=1e-6)
        worst = max(worst, _max_rel_err(grads, fd))
    elapsed = time.perf_counter() - t0
    _verdict(2, "gradient exactness", worst <= 1e-5,
             f"max relative error {worst:.2e} (tol 1e-5) over 20 networks",
             elapsed, 30.0)


MIX_MU = np.array([[-0.6, -0.3], [0.5, 0.4]])
MIX_TAU = np.array([[0.25, 0.15], [0.2, 0.3]])
MIX_W = np.array([0.5, 0.5])


def _score_recovery(kind: ScoreKind, sigma: float, n: int):
    """Train one field on mixture draws and compare with the convolved-score
    oracle on held-out perturbed points; returns (rmse/rms, seconds)."""
    t0 = time.perf_counter()
    rng = Rng(123 if kind is ScoreKind.ACTION else 321)
    other = np.asarray(rng.uniform(-1, 1, size=(n, 2)))
    comps = (np.asarray(rng.uniform(0, 1, size=n)) > MIX_W[0]).astype(int)
    mix = MIX_MU[comps] + MIX_TAU[comps] * np.asarray(rng.normal(size=(n, 2)))
    states, actions = (other, mix) if kind is ScoreKind.ACTION else (mix, other)
    data = Dataset(states, actions, np.zeros(n), states, np.zeros(n, dtype=bool))
    field, _ = train_score_field(data, kind,
                                 ScoreTrainConfig(sigma=sigma, seed=5))

    ev = Rng(999)
    m = 3000
    mean, std = ((field.norm.action_mean, field.norm.action_std)
                 if kind is ScoreKind.ACTION
                 else (field.norm.state_mean, field.norm.state_std))
    comps = (np.asarray(ev.uniform(0, 1, size=m)) > MIX_W[0]).astype(int)
    clean_n = ((MIX_MU[comps] - mean)
               + MIX_TAU[comps] * np.asarray(ev.normal(size=(m, 2)))) / std
    pert_n = clean_n + sigma * np.asarray(ev.normal(size=(m, 2)))
    # the perturbed mixture has per-component variance tau_n^2 + sigma^2 in
    # normalized coords; its score is the responsibility-weighted pull to
    # each component mean
    mu_n = (MIX_MU - mean) / std
    tau_n = MIX_TAU / std
    var = tau_n ** 2 + sigma ** 2
    diffs = pert_n[:, None, :] - mu_n[None, :, :]
    logw = (np.log(MIX_W)[None, :] - 0.5 * np.sum(diffs ** 2 / var[None], axis=2)
            - 0.5 * np.sum(np.log(2 * np.pi * var), axis=1)[None, :])
    logw -= logw.max(axis=1, keepdims=True)
    g = np.exp(logw)
    g /= g.sum(axis=1, keepdims=True)
    oracle = np.sum(g[:, :, None] * (-diffs / var[None]), axis=1)

    pert_env = pert_n * std + mean
    other_ev = np.asarray(ev.uniform(-1, 1, size=(m, 2)))
    if kind is ScoreKind.ACTION:
        pred = np.vstack([eval_score(field, other_ev[i], pert_env[i]) for i in range(m)])
    else:
        pred = np.vstack([eval_score(field, pert_env[i], other_ev[i]) for i in range(m)])
    rmse = float(np.sqrt(np.mean((pred - oracle) ** 2)))
    rms = float(np.sqrt(np.mean(oracle ** 2)))
    return rmse / rms, time.perf_counter() - t0


def test_03_analytic_score_recovery():
    ratio_a, sec_a = _score_recovery(ScoreKind.ACTION, sigma=0.3, n=20000)
    ratio_s, sec_s = _score_recovery(ScoreKind.STATE, sigma=0.3, n=20000)
    ok = ratio_a <= 0.15 and ratio_s <= 0.15 and sec_a <= 120 and sec_s <= 120
    _verdict(3, "analytic score recovery", ok,
             f"held-out RMSE/RMS: action {ratio_a:.3f} ({sec_a:.0f}s), "
             f"state {ratio_s:.3f} ({sec_s:.0f}s); tol 0.15, 120s each")


def test_04_inverse_dynamics_heldout_accuracy():
    t0 = time.perf_counter()
    spec = load_env_spec(builtin_spec_path("linear"))
    data = generate_dataset(spec, RandomPolicy(spec), 400, spec.max_steps, Rng(7))
    model, _ = train_invdyn(data, InvDynTrainConfig(seed=0))
    held = generate_dataset(spec, RandomPolicy(spec), 50, spec.max_steps, Rng(4242))
    pred = np.vstack([infer_action(model, s, s2)
                      for s, s2 in zip(held.states, held.next_states)])
    err = float(np.mean(np.abs(pred - held.actions)))
    elapsed = time.perf_counter() - t0
    _verdict(4, "inverse-dynamics held-out accuracy", err <= 0.02,
             f"mean per-coordinate action error {err:.5f} (tol 0.02) "
             f"on {len(held)} held-out transitions", elapsed, 60.0)


def test_05_identity_and_ablation_algebra():
    t0 = time.perf_counter()
    spec = load_env_spec(builtin_spec_path("linear"))
    data = generate_dataset(spec, RandomPolicy(spec), 10, spec.max_steps, Rng(42))
    models = train_cdsa(data,
                        ScoreTrainConfig(sigma=0.2, iterations=50, batch_size=64, seed=1),
                        InvDynTrainConfig(iterations=50, batch_size=64, seed=2))
    pol = ScriptedDirect(spec)
    lo, hi = spec.action_low, spec.action_high

    def run(cfg, seed):
        return control_episode(spec, pol, models if cfg else None, cfg, Rng(seed))

    def same(t1, t2):
        return (np.array_equal(t1.states, t2.states)
                and np.array_equal(t1.actions, t2.actions)
                and np.array_equal(t1.rewards, t2.rewards))

    ok = True
    for seed in range(5):
        bare = run(None, seed)
        zero_gain = run(ControlConfig(0.0, 0.0, lo, hi, n_refine=2), seed)
        baseline_ab = run(ControlConfig(0.4, 0.7, lo, hi, ablation="baseline"), seed)
        ok = ok and same(bare, zero_gain) and same(bare, baseline_ab)
        full_a1 = run(ControlConfig(0.3, 0.0, lo, hi), seed)
        no_a2 = run(ControlConfig(0.3, 0.9, lo, hi, ablation="no_a2"), seed)
        full_a2 = run(ControlConfig(0.0, 0.3, lo, hi), seed)
        no_a1 = run(ControlConfig(0.9, 0.3, lo, hi, ablation="no_a1"), seed)
        ok = ok and same(full_a1, no_a2) and same(full_a2, no_a1)
    elapsed = time.perf_counter() - t0
    _verdict(5, "identity/ablation algebra", ok,
             "zero-gain and baseline-ablation trajectories bitwise equal the "
             "uncorrected ones; no_a1/no_a2 bitwise equal full with the other "
             "gain zeroed, over 5 paired seeds", elapsed, 10.0)


def test_06_pointmass_paired_risk_reduction():
    t0 = time.perf_counter()
    spec = load_env_spec(builtin_spec_path("pointmass"))
    data = generate_dataset(spec, ScriptedRiskAvoiding(spec, exec_noise=0.2),
                            200, spec.max_steps, Rng(100))
    models = train_cdsa(data, ScoreTrainConfig(sigma=0.2, seed=21),
                        InvDynTrainConfig(seed=31))
    # an intentionally under-converged imitation policy: a fully converged
    # clone of the planner is already risk-free on this arena, leaving
    # nothing to correct
    bc, _ = train_bc_policy(data, BcTrainConfig(iterations=700, seed=11),
                            spec.action_low, spec.action_high)

    stats_b = rollout_batch(spec, bc, None, None, episodes=200, base_seed=7000)
    ret_b = [s.undiscounted_return for s in stats_b]
    occ_b = risk_entry_rate(stats_b)
    mean_b, var10_b = float(np.mean(ret_b)), var_at(ret_b, 10)

    best = None
    for k1 in (0.1, 0.3):
        for k2 in (0.0, 0.02, 0.05):
            cfg = ControlConfig(k1, k2, spec.action_low, spec.action_high)
            stats_c = rollout_batch(spec, bc, models, cfg, episodes=200,
                                    base_seed=7000)
            ret_c = [s.undiscounted_return for s in stats_c]
            occ_c = risk_entry_rate(stats_c)
            mean_c, var10_c = float(np.mean(ret_c)), var_at(ret_c, 10)
            hit = (occ_c <= 0.5 * occ_b and mean_c > mean_b and var10_c > var10_b)
            if hit and (best is None or mean_c > best[3]):
                best = (k1, k2, occ_c, mean_c, var10_c)
    elapsed = time.perf_counter() - t0
    ok = occ_b > 0 and best is not None
    found = (f"best k1={best[0]:g} k2={best[1]:g}: occupancy {occ_b:.4f}->"
             f"{best[2]:.4f}, mean {mean_b:.2f}->{best[3]:.2f}, "
             f"VaR@10 {var10_b:.2f}->{best[4]:.2f}" if best else
             f"no grid point met all three marks (baseline occupancy {occ_b:.4f})")
    _verdict(6, "pointmass paired risk reduction", ok, found, elapsed, 300.0)


def test_07_transfer_to_goods_and_airport_variants():
    t0 = time.perf_counter()
    spec = load_env_spec(builtin_spec_path("transport"))
    data = generate_dataset(spec, ScriptedRiskAvoiding(spec, exec_noise=0.2),
                            200, spec.max_steps, Rng(500))
    models = train_cdsa(data, ScoreTrainConfig(sigma=0.2, seed=61),
                        InvDynTrainConfig(seed=71))
    parts, ok = [], True
    for variant in ("goods", "airport"):
        vspec = spec.with_variant(variant)
        base = ScriptedDirect(vspec)
        cfg = ControlConfig(0.3, 0.02, vspec.action_low, vspec.action_high)
        stats_b = rollout_batch(vspec, base, None, None, episodes=200, base_seed=4000)
        stats_c = rollout_batch(vspec, base, models, cfg, episodes=200, base_seed=4000)
        occ_b, occ_c = risk_entry_rate(stats_b), risk_entry_rate(stats_c)
        goal_c = float(np.mean([s.reached_goal for s in stats_c]))
        ok = ok and occ_b > 0 and occ_c <= 0.7 * occ_b
        parts.append(f"{variant} occupancy {occ_b:.4f}->{occ_c:.4f} "
                     f"(goal rate {goal_c:.2f})")
    elapsed = time.perf_counter() - t0
    _verdict(7, "route-model transfer without retraining", ok,
             "same models, new objectives: " + "; ".join(parts), elapsed, 300.0)


def test_08_langevin_stationarity():
    t0 = time.perf_counter()
    # score of N(0, I) is -x; 500 steps at alpha=0.01 mix 1e4 chains from the
    # origin (stationary variance 1/(1 - alpha/2) = 1.005)
    out = langevin_sample(lambda x: -x, np.zeros((10_000, 2)),
                          LangevinConfig(alpha=0.01, steps=500), Rng(77))
    mean = out.mean(axis=0)
    var = out.var(axis=0)
    ok = float(np.max(np.abs(mean))) <= 0.05 and float(np.max(np.abs(var - 1))) <= 0.1
    elapsed = time.perf_counter() - t0
    _verdict(8, "langevin stationarity", ok,
             f"mean ({mean[0]:+.3f}, {mean[1]:+.3f}) tol 0.05; "
             f"variance ({var[0]:.3f}, {var[1]:.3f}) tol 1±0.1", elapsed, 60.0)


def test_09_var_interpolation_and_monotonicity():
    exact = var_at(list(range(1, 11)), 10)
    mono = True
    for seed in (0, 1, 2):
        vals = Rng(seed).normal(size=101)
        curve = [var_at(vals, p) for p in np.linspace(0, 100, 41)]
        mono = mono and all(b >= a for a, b in zip(curve, curve[1:]))
    _verdict(9, "VaR interpolation and monotonicity", exact == 1.9 and mono,
             f"var_at([1..10], 10) = {exact} (want exactly 1.9); percentile "
             "curves nondecreasing on 3 seeded samples")
