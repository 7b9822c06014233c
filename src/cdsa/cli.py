"""Command-line entrypoint: gen-data, train, eval, plot, and verify.

Every subcommand validates its inputs fully before writing anything, refuses
to overwrite existing outputs without --force, and writes the fully-resolved
effective config beside its outputs. Options may come from a JSON config file
(--config); explicit flags win. The CDSA_SEED environment variable supplies
the seed when neither a flag nor a config file does.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import checkpoint
from .controller import (
    ABLATIONS,
    ControlConfig,
    LangevinConfig,
    langevin_sample,
    load_trajectory_csv,
    train_cdsa,
)
from .dataset import generate_dataset, load_dataset, save_dataset
from .envs import (
    BcTrainConfig,
    EnvSpec,
    RandomPolicy,
    ScriptedDirect,
    ScriptedRiskAvoiding,
    builtin_spec_path,
    load_env_spec,
    risk_occupancy,
    train_bc_policy,
)
from .evaluation import emit_report, rollout_batch, summarize, var_at
from .invdyn import InvDynTrainConfig, invdyn_loss, model_dims
from .neuralcore import (
    AdamState,
    Rng,
    TrainBuffers,
    adam_step,
    fd_grads,
    forward_batch,
    mlp_init,
    zero_like_params,
)
from .readers import Fields, parse_field, read_json
from .scorefield import (
    ScoreKind,
    ScoreTrainConfig,
    dsm_loss_reference,
    dsm_loss_reparam_given_noise,
)
from .svgplot import render_scene, write_svg

GEN_POLICIES = ("risk-avoiding", "direct", "random")
EVAL_POLICIES = ("bc", "direct", "risk-avoiding", "random")

DEFAULTS = {
    "gen-data": {
        "policy": "risk-avoiding", "episodes": 50, "seed": None, "variant": None,
        "exec_noise": 0.2, "grid_n": 40, "inflation": 0.08, "max_steps": None,
    },
    "train": {
        "sigma": 0.1, "iters": 10000, "score_iters": None, "invdyn_iters": None,
        "score_lr": 3e-4, "invdyn_lr": 1e-3, "batch": 256, "seed": None,
        "bc": False, "bc_iters": None, "bc_lr": 1e-3, "env": None, "variant": None,
    },
    "eval": {
        "policy": "bc", "episodes": 200, "seed": None, "variant": None,
        "k1": "0.3", "k2": "1.0", "ablation": "full", "n_refine": 1,
        "percentiles": "5,10,25,50,75,100", "gamma": 1.0, "traj": 10,
        "exec_noise": 0.0, "grid_n": 40, "inflation": 0.08,
    },
    "plot": {
        "grid_n": 20, "variant": None,
    },
    "verify": {"seed": None},
}


def _seed_fallback() -> int:
    raw = os.environ.get("CDSA_SEED", "0")
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"CDSA_SEED must be an integer, got {raw!r}") from exc


def _number(text: str) -> float:
    """argparse type of every float flag: a finite number."""
    return parse_field(text, float, argparse.ArgumentTypeError, "the value")


def _config_value(doc: Fields, key: str, action: argparse.Action, default):
    """The config file's value of key, typed as the key's flag types it; null
    stands for the default only where that is None."""
    kw = {"default": None} if default is None else {}
    if action.nargs == 0:  # store_const, whose default is never None
        return bool(doc.array(key, (), bool))
    if action.choices:
        return doc.string(key, action.choices, **kw)
    if action.type is int:
        return doc.integer(key, **kw)
    if action.type is _number:
        return doc.number(key, **kw)
    try:
        return doc.string(key, **kw)
    except ValueError:  # a number stands for its text, as one entry of a comma list
        return str(doc.number(key, **kw))


def _merge_config(args: argparse.Namespace, command: str) -> dict:
    cfg = dict(DEFAULTS[command])
    path = getattr(args, "config", None)
    if path:
        file_cfg = read_json(path, ValueError, "config file")
        unknown = sorted(set(file_cfg) - set(cfg))
        if unknown:
            raise ValueError(f"config file {path} has unknown keys: {', '.join(unknown)}")
        actions = {action.dest: action for action in args.parser._actions}
        doc = Fields(file_cfg, ValueError)
        try:
            cfg.update({key: _config_value(doc, key, actions[key], cfg[key])
                        for key in file_cfg})
        except ValueError as exc:
            raise ValueError(f"config file {path}: {exc}") from None
    for key in cfg:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    if cfg.get("seed") is None:
        cfg["seed"] = _seed_fallback()
    return cfg


def _resolve_spec(value: str, variant: str | None) -> EnvSpec:
    path = value if os.path.exists(value) else builtin_spec_path(value)
    spec = load_env_spec(path)
    if variant:
        spec = spec.with_variant(variant)
    return spec


def _guard_overwrite(path: str, force: bool) -> None:
    if os.path.exists(path) and not force:
        raise ValueError(f"output {path} exists; pass --force to overwrite")


def _write_echo(cfg: dict, extra: dict, path: str) -> None:
    echo = {k: v for k, v in cfg.items()}
    echo.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(echo, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"effective config: {json.dumps(echo, sort_keys=True)}")


def _make_policy(spec: EnvSpec, name: str, cfg: dict, bundle: str | None = None):
    if name == "direct":
        return ScriptedDirect(spec)
    if name == "risk-avoiding":
        return ScriptedRiskAvoiding(spec, grid_n=cfg["grid_n"], inflation=cfg["inflation"],
                                    exec_noise=cfg["exec_noise"])
    if name == "random":
        return RandomPolicy(spec)
    if name == "bc":
        if bundle is None:
            raise ValueError("bc policy needs a bundle directory")
        return checkpoint.load_bundle_bc(bundle)
    raise ValueError(f"unknown policy {name!r}")


def _float_list(raw: str, flag: str) -> list:
    """The finite numbers of a comma-separated flag value."""
    return [parse_field(v.strip(), float, ValueError, f"each {flag} entry")
            for v in raw.split(",") if v.strip()]


def _save_loss_csv(history, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,loss\n")
        for step, loss in history:
            fh.write(f"{step},{loss:.17g}\n")


def cmd_gen_data(args: argparse.Namespace) -> int:
    cfg = _merge_config(args, "gen-data")
    if cfg["policy"] not in GEN_POLICIES:
        raise ValueError(f"--policy must be one of {GEN_POLICIES}")
    spec = _resolve_spec(args.env, cfg["variant"])
    if cfg["max_steps"] is not None:
        spec = replace(spec, max_steps=cfg["max_steps"])
        spec.validate()
    policy = _make_policy(spec, cfg["policy"], cfg)
    _guard_overwrite(args.out, args.force)
    rng = Rng(cfg["seed"])
    dataset = generate_dataset(spec, policy, cfg["episodes"], spec.max_steps, rng)
    save_dataset(dataset, args.out)
    occ = float(np.mean(risk_occupancy(spec, dataset.next_states)))
    print(f"wrote {len(dataset)} transitions to {args.out}")
    print(f"risk occupancy of visited states: {occ:.4f}")
    _write_echo(cfg, {"command": "gen-data", "env": args.env, "out": args.out},
                args.out + ".config.json")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _merge_config(args, "train")
    dataset = load_dataset(args.data)
    score_iters = cfg["iters"] if cfg["score_iters"] is None else cfg["score_iters"]
    invdyn_iters = cfg["iters"] if cfg["invdyn_iters"] is None else cfg["invdyn_iters"]
    score_cfg = ScoreTrainConfig(sigma=cfg["sigma"], iterations=score_iters,
                                 batch_size=cfg["batch"], lr=cfg["score_lr"], seed=cfg["seed"])
    invdyn_cfg = InvDynTrainConfig(iterations=invdyn_iters, batch_size=cfg["batch"],
                                   lr=cfg["invdyn_lr"], seed=cfg["seed"])
    score_cfg.validate()
    invdyn_cfg.validate()
    bc_spec = None
    if cfg["bc"]:
        if not cfg["env"]:
            raise ValueError("--env is required with --bc (action bounds come from the env spec)")
        bc_spec = _resolve_spec(cfg["env"], cfg["variant"])
        bc_iters = cfg["iters"] if cfg["bc_iters"] is None else cfg["bc_iters"]
        bc_cfg = BcTrainConfig(iterations=bc_iters, batch_size=cfg["batch"],
                               lr=cfg["bc_lr"], seed=cfg["seed"])
        bc_cfg.validate()
    _guard_overwrite(os.path.join(args.out, checkpoint.MANIFEST_FILE), args.force)
    if score_iters == 0 or invdyn_iters == 0:
        print("warning: 0 training iterations; bundle holds initialized, untrained models")
    histories: dict = {}
    models = train_cdsa(dataset, score_cfg, invdyn_cfg, histories)
    bc_policy = None
    if cfg["bc"]:
        bc_policy, bc_hist = train_bc_policy(dataset, bc_cfg,
                                             bc_spec.action_low, bc_spec.action_high)
        histories["bc"] = bc_hist
    checkpoint.save_bundle(models, args.out, bc_policy)
    for name, rows in histories.items():
        _save_loss_csv(rows, os.path.join(args.out, f"loss_{name}.csv"))
    print(f"wrote model bundle to {args.out}")
    _write_echo(cfg, {"command": "train", "data": args.data, "out": args.out,
                      "score_iters": score_iters, "invdyn_iters": invdyn_iters},
                os.path.join(args.out, "config.json"))
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = _merge_config(args, "eval")
    if cfg["policy"] not in EVAL_POLICIES:
        raise ValueError(f"--policy must be one of {EVAL_POLICIES}")
    spec = _resolve_spec(args.env, cfg["variant"])
    models = checkpoint.load_bundle(args.bundle)
    policy = _make_policy(spec, cfg["policy"], cfg, args.bundle)
    k1s = _float_list(cfg["k1"], "--k1")
    k2s = _float_list(cfg["k2"], "--k2")
    grid = _float_list(cfg["percentiles"], "--percentiles")
    ablations = [a.strip() for a in cfg["ablation"].split(",") if a.strip()]
    for ab in ablations:
        if ab not in ABLATIONS:
            raise ValueError(f"ablation must be one of {ABLATIONS}, got {ab!r}")
    episodes = cfg["episodes"]
    base_seed = cfg["seed"]
    gamma = cfg["gamma"]
    n_traj = cfg["traj"]
    combos = [(ab, k1, k2) for ab in ablations for k1 in k1s for k2 in k2s]
    outdir = args.outdir
    os.makedirs(outdir, exist_ok=True)
    outputs = {}
    for ab, k1, k2 in combos:
        tag = f"{ab}_k1_{k1:g}_k2_{k2:g}"
        outputs[(ab, k1, k2)] = (os.path.join(outdir, f"report_{tag}.csv"),
                                 os.path.join(outdir, f"report_{tag}.svg"))
        for path in outputs[(ab, k1, k2)]:
            _guard_overwrite(path, args.force)

    base_cfg = ControlConfig(k1=0.0, k2=0.0, action_low=spec.action_low,
                             action_high=spec.action_high, ablation="baseline")
    traj_b: list = []
    stats_b = rollout_batch(spec, policy, None, base_cfg, episodes, base_seed,
                            gamma, traj_b, n_traj)
    for ab, k1, k2 in combos:
        ctl = ControlConfig(k1=k1, k2=k2, action_low=spec.action_low,
                            action_high=spec.action_high,
                            n_refine=cfg["n_refine"], ablation=ab)
        traj_c: list = []
        stats_c = rollout_batch(spec, policy, models, ctl, episodes, base_seed,
                                gamma, traj_c, n_traj)
        echo = {"ablation": ab, "k1": k1, "k2": k2, "n_refine": cfg["n_refine"],
                "episodes": episodes, "base_seed": base_seed, "gamma": gamma,
                "env": spec.name, "variant": spec.variant, "policy": cfg["policy"]}
        report = summarize(stats_b, stats_c, grid, echo, spec,
                           {"baseline": traj_b, "corrected": traj_c})
        csv_path, svg_path = outputs[(ab, k1, k2)]
        emit_report(report, csv_path, svg_path)
        print(f"{ab} k1={k1:g} k2={k2:g}: mean return "
              f"{report.mean_return['baseline']:.3f} -> {report.mean_return['corrected']:.3f}, "
              f"risk rate {report.risk_rate['baseline']:.4f} -> "
              f"{report.risk_rate['corrected']:.4f}")
    _write_echo(cfg, {"command": "eval", "env": args.env, "bundle": args.bundle,
                      "outdir": outdir}, os.path.join(outdir, "config.json"))
    return 0


def cmd_plot(args: argparse.Namespace) -> int:
    cfg = _merge_config(args, "plot")
    spec = _resolve_spec(args.env, cfg["variant"])
    quiver_fn = None
    if args.bundle:
        models = checkpoint.load_bundle(args.bundle)
        norm = models.norm

        def quiver_fn(pts):
            s_n = norm.normalize_state(np.asarray(pts, dtype=np.float64))
            a_n = np.zeros((len(s_n), models.action_dim))
            out, _ = forward_batch(models.state_score.params, np.hstack([s_n, a_n]))
            return norm.state_std * out

    trajectories = {}
    for arm, paths in (("baseline", args.traj_baseline or []),
                       ("corrected", args.traj_corrected or [])):
        loaded = [load_trajectory_csv(p) for p in paths]
        if loaded:
            trajectories[arm] = loaded
    _guard_overwrite(args.out, args.force)
    svg = render_scene(spec, trajectories, quiver_fn, cfg["grid_n"])
    write_svg(svg, args.out)
    print(f"wrote {args.out}")
    _write_echo(cfg, {"command": "plot", "env": args.env, "out": args.out,
                      "bundle": args.bundle}, args.out + ".config.json")
    return 0


def _check_loss_identity(seed: int) -> None:
    rng = Rng(seed)
    sigma = 0.3
    for trial in range(20):
        net = mlp_init([4, 16, 12, 2], 0.1, rng)
        states = rng.normal(size=(64, 2))
        actions = rng.normal(size=(64, 2))
        z = rng.normal(size=(64, 2))
        loss_a, _ = dsm_loss_reparam_given_noise(net, states, actions, sigma, z,
                                                 ScoreKind.ACTION, TrainBuffers(64, net))
        ref = dsm_loss_reference(net, (states, actions, actions + sigma * z),
                                 sigma, ScoreKind.ACTION)
        bound = 1e-10 * (1.0 + abs(loss_a))
        assert abs(loss_a - ref) <= bound, (
            f"trial {trial}: |{loss_a} - {ref}| > {bound}")


def _max_rel_err(analytic, fd) -> float:
    worst = 0.0
    scale = 0.0
    for arrays in ("weights", "biases"):
        for arr in getattr(fd, arrays):
            if arr.size:
                scale = max(scale, float(np.max(np.abs(arr))))
    floor = max(1e-3 * scale, 1e-12)
    for arrays in ("weights", "biases"):
        for a_arr, f_arr in zip(getattr(analytic, arrays), getattr(fd, arrays)):
            denom = np.maximum(np.maximum(np.abs(a_arr), np.abs(f_arr)), floor)
            worst = max(worst, float(np.max(np.abs(a_arr - f_arr) / denom)))
    return worst


def _check_gradients(seed: int) -> None:
    rng = Rng(seed)
    sigma = 0.4
    states = rng.normal(size=(8, 2))
    actions = rng.normal(size=(8, 2))
    nxt = rng.normal(size=(8, 2))
    z = rng.normal(size=(8, 2))

    net = mlp_init([4, 16, 12, 2], 0.1, rng)
    _, grads = dsm_loss_reparam_given_noise(net, states, actions, sigma, z,
                                            ScoreKind.ACTION, TrainBuffers(8, net))
    # fd targets: the same losses of the net's output, the denoising one in analytic form
    pert = actions + sigma * z
    target = -(pert - actions) / sigma**2
    fd = fd_grads(net, np.hstack([states, pert]),
                  lambda out: 0.5 * np.sum((out - target) ** 2, axis=(1, 2)) / len(target))
    err = _max_rel_err(grads, fd)
    assert err <= 1e-5, f"action-score gradient error {err}"

    net = mlp_init([4, 16, 12, 2], 0.2, rng)
    _, grads = invdyn_loss(net, states, nxt, actions, TrainBuffers(8, net))
    fd = fd_grads(net, np.hstack([states, nxt]),
                  lambda out: np.sum((out - actions) ** 2, axis=(1, 2)) / len(actions))
    err = _max_rel_err(grads, fd)
    assert err <= 1e-5, f"inverse-dynamics gradient error {err}"


def _check_invdyn_example(seed: int) -> None:
    rng = Rng(seed)
    net = zero_like_params(mlp_init(model_dims(2, 2), 0.2, rng))
    loss, _ = invdyn_loss(net, np.zeros((1, 2)), np.zeros((1, 2)),
                          np.array([[0.3, -0.4]]), TrainBuffers(1, net))
    assert abs(loss - 0.25) < 1e-12, f"zero-net loss {loss} != 0.25"


def _check_adam_example(seed: int) -> None:
    rng = Rng(seed)
    net = mlp_init([1, 1], 0.1, rng)
    net.weights[0][:] = 0.0
    grads = zero_like_params(net)
    grads.weights[0][:] = 0.5
    opt = AdamState.for_params(net)
    adam_step(opt, net, grads, 0.1, TrainBuffers(1, net))
    expected = -0.1 * 0.5 / (0.5 + 1e-8)
    got = float(net.weights[0][0, 0])
    assert abs(got - expected) < 1e-12, f"first Adam step {got} != {expected}"


def _check_var_example(seed: int) -> None:
    got = var_at(list(range(1, 11)), 10)
    assert got == 1.9, f"var_at([1..10], 10) = {got}, want 1.9"
    rng = Rng(seed)
    vals = rng.normal(size=50)
    curve = [var_at(vals, p) for p in range(0, 101, 5)]
    assert all(a <= b for a, b in zip(curve, curve[1:])), "VaR curve not monotone"


def _check_langevin_noop(seed: int) -> None:
    rng = Rng(seed)
    x0 = rng.normal(size=(5, 2))
    out = langevin_sample(lambda x: -x, x0, LangevinConfig(alpha=0.01, steps=0), rng)
    assert np.array_equal(out, x0), "0-step sampler must return x0 unchanged"


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _merge_config(args, "verify")
    seed = cfg["seed"]
    checks = [
        ("loss-form identity", _check_loss_identity),
        ("gradient exactness vs finite differences", _check_gradients),
        ("inverse-dynamics zero-net example", _check_invdyn_example),
        ("adam first-step example", _check_adam_example),
        ("value-at-risk interpolation and monotonicity", _check_var_example),
        ("langevin zero-step identity", _check_langevin_noop),
    ]
    failures = 0
    for name, fn in checks:
        try:
            fn(seed)
            print(f"ok {name}")
        except AssertionError as exc:
            print(f"FAIL {name}: {exc}")
            failures += 1
    if failures:
        print(f"{failures} of {len(checks)} checks failed")
        return 1
    print(f"all {len(checks)} checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdsa",
        description="Conservative action correction for offline control.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="roll a scripted policy and save transitions")
    p.add_argument("--env", required=True, help="env spec path or builtin name")
    p.add_argument("--out", required=True, help="output dataset path (.jsonl)")
    p.add_argument("--policy", choices=GEN_POLICIES, help="data-collection policy "
                   "(default risk-avoiding)")
    p.add_argument("--episodes", type=int, help="episodes to roll (default 50)")
    p.add_argument("--seed", type=int, help="seed (default CDSA_SEED or 0)")
    p.add_argument("--variant", choices=("pathfinding", "goods", "airport"),
                   help="task variant override")
    p.add_argument("--exec-noise", dest="exec_noise", type=_number,
                   help="gaussian action noise for risk-avoiding (default 0.2)")
    p.add_argument("--grid-n", dest="grid_n", type=int, help="planner grid size (default 40)")
    p.add_argument("--inflation", type=_number, help="planner obstacle margin (default 0.08)")
    p.add_argument("--max-steps", dest="max_steps", type=int, help="episode step override")
    p.add_argument("--config", help="JSON config file; flags win")
    p.add_argument("--force", action="store_true", help="overwrite existing outputs")
    p.set_defaults(fn=cmd_gen_data, parser=p)

    p = sub.add_parser("train", help="train score fields and inverse dynamics")
    p.add_argument("--data", required=True, help="dataset path")
    p.add_argument("--out", required=True, help="bundle directory to create")
    p.add_argument("--sigma", type=_number, help="perturbation scale (default 0.1)")
    p.add_argument("--iters", type=int, help="iterations for every model (default 10000)")
    p.add_argument("--score-iters", dest="score_iters", type=int,
                   help="score-field iteration override")
    p.add_argument("--invdyn-iters", dest="invdyn_iters", type=int,
                   help="inverse-dynamics iteration override")
    p.add_argument("--score-lr", dest="score_lr", type=_number,
                   help="score-field learning rate (default 3e-4)")
    p.add_argument("--invdyn-lr", dest="invdyn_lr", type=_number,
                   help="inverse-dynamics learning rate (default 1e-3)")
    p.add_argument("--batch", type=int, help="batch size (default 256)")
    p.add_argument("--seed", type=int, help="seed (default CDSA_SEED or 0)")
    p.add_argument("--bc", action="store_const", const=True,
                   help="also behavior-clone the dataset policy")
    p.add_argument("--bc-iters", dest="bc_iters", type=int, help="bc iteration override")
    p.add_argument("--bc-lr", dest="bc_lr", type=_number, help="bc learning rate (default 1e-3)")
    p.add_argument("--env", help="env spec (required with --bc, for action bounds)")
    p.add_argument("--variant", choices=("pathfinding", "goods", "airport"),
                   help="task variant override")
    p.add_argument("--config", help="JSON config file; flags win")
    p.add_argument("--force", action="store_true", help="overwrite existing outputs")
    p.set_defaults(fn=cmd_train, parser=p)

    p = sub.add_parser("eval", help="paired baseline/corrected rollouts and reports")
    p.add_argument("--env", required=True, help="env spec path or builtin name")
    p.add_argument("--bundle", required=True, help="model bundle directory")
    p.add_argument("--outdir", required=True, help="directory for report files")
    p.add_argument("--policy", choices=EVAL_POLICIES, help="base policy (default bc)")
    p.add_argument("--episodes", type=int, help="episodes per arm (default 200)")
    p.add_argument("--seed", type=int, help="base seed (default CDSA_SEED or 0)")
    p.add_argument("--k1", help="action-score gains, comma list (default 0.3)")
    p.add_argument("--k2", help="state-score gains, comma list (default 1.0)")
    p.add_argument("--ablation", help=f"comma list from {ABLATIONS} (default full)")
    p.add_argument("--n-refine", dest="n_refine", type=int,
                   help="extra correction passes (default 1)")
    p.add_argument("--percentiles", help="VaR grid (default 5,10,25,50,75,100)")
    p.add_argument("--gamma", type=_number, help="discount for reported returns (default 1)")
    p.add_argument("--traj", type=int, help="trajectories per arm kept for the SVG (default 10)")
    p.add_argument("--variant", choices=("pathfinding", "goods", "airport"),
                   help="task variant override")
    p.add_argument("--exec-noise", dest="exec_noise", type=_number,
                   help="scripted-policy action noise (default 0)")
    p.add_argument("--grid-n", dest="grid_n", type=int, help="planner grid size (default 40)")
    p.add_argument("--inflation", type=_number, help="planner obstacle margin (default 0.08)")
    p.add_argument("--config", help="JSON config file; flags win")
    p.add_argument("--force", action="store_true", help="overwrite existing outputs")
    p.set_defaults(fn=cmd_eval, parser=p)

    p = sub.add_parser("plot", help="render arena, trajectories, and a score quiver")
    p.add_argument("--env", required=True, help="env spec path or builtin name")
    p.add_argument("--out", required=True, help="output SVG path")
    p.add_argument("--bundle", help="bundle directory; adds a state-score quiver")
    p.add_argument("--traj-baseline", dest="traj_baseline", nargs="*",
                   help="baseline trajectory CSVs")
    p.add_argument("--traj-corrected", dest="traj_corrected", nargs="*",
                   help="corrected trajectory CSVs")
    p.add_argument("--grid-n", dest="grid_n", type=int, help="quiver grid size (default 20)")
    p.add_argument("--variant", choices=("pathfinding", "goods", "airport"),
                   help="task variant override")
    p.add_argument("--config", help="JSON config file; flags win")
    p.add_argument("--force", action="store_true", help="overwrite existing outputs")
    p.set_defaults(fn=cmd_plot, parser=p)

    p = sub.add_parser("verify", help="run the built-in oracle suite")
    p.add_argument("--seed", type=int, help="seed (default CDSA_SEED or 0)")
    p.add_argument("--config", help="JSON config file; flags win")
    p.set_defaults(fn=cmd_verify, parser=p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
