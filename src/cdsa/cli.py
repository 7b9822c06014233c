"""Command-line entrypoint: gen-data, train, eval and plot.

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
from .controller import ABLATIONS, ControlConfig, train_cdsa
from .dataset import generate_dataset, load_dataset, save_dataset
from .envs import (
    BcTrainConfig,
    EnvSpec,
    RandomPolicy,
    ScriptedDirect,
    ScriptedRiskAvoiding,
    VARIANTS,
    builtin_spec_path,
    check_planner_flags,
    load_env_spec,
    risk_occupancy,
    train_bc_policy,
)
from .evaluation import emit_report, rollout_batch, summarize
from .invdyn import InvDynTrainConfig
from .neuralcore import Rng, TrainConfig
from .readers import Fields, parse_field, read_json, write_text
from .scorefield import ScoreTrainConfig, eval_score
from .svgplot import render_scene

GEN_POLICIES = ("risk-avoiding", "direct", "random")
EVAL_POLICIES = ("bc", "direct", "risk-avoiding", "random")

_PLANNER = {"grid_n": 40, "inflation": 0.08}  # gen-data's and eval's planner flags

# each subcommand's option values when neither a flag nor a config file sets
# them; build_parser adds every one that is not None to its flag's help
DEFAULTS = {
    "gen-data": {
        "policy": "risk-avoiding", "episodes": 50, "seed": None, "variant": None,
        "exec_noise": 0.2, **_PLANNER, "max_steps": None,
    },
    "train": {
        "sigma": ScoreTrainConfig.sigma, "iters": TrainConfig.iterations,
        "score_iters": None, "invdyn_iters": None, "score_lr": ScoreTrainConfig.lr,
        "invdyn_lr": InvDynTrainConfig.lr, "batch": TrainConfig.batch_size, "seed": None,
        "bc": False, "bc_iters": None, "bc_lr": BcTrainConfig.lr, "env": None, "variant": None,
    },
    "eval": {
        "policy": "bc", "episodes": 200, "seed": None, "variant": None,
        "k1": "0.3", "k2": "1.0", "ablation": "full", "n_refine": 1,
        "percentiles": "5,10,25,50,75,100", "traj": 10, "exec_noise": 0.0, **_PLANNER,
    },
    "plot": {
        "grid_n": 20, "variant": None,
    },
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
    if "seed" not in cfg:  # a subcommand that draws nothing at random
        return cfg
    source = "--seed" if getattr(args, "seed", None) is not None else f"config file {path}: seed"
    if cfg["seed"] is None:
        source, cfg["seed"] = "CDSA_SEED", _seed_fallback()
    if cfg["seed"] < 0:
        raise ValueError(f"{source} must be >= 0, got {cfg['seed']}")
    return cfg


def _resolve_spec(value: str, variant: str | None) -> EnvSpec:
    path = value if os.path.exists(value) else builtin_spec_path(value)
    spec = load_env_spec(path)
    if variant:
        spec = spec.with_variant(variant)
    return spec


def _guard_overwrite(paths: list, force: bool) -> None:
    """Refuse, unless force, when any of the paths a subcommand writes exists."""
    for path in paths:
        if os.path.exists(path) and not force:
            raise ValueError(f"output {path} exists; pass --force to overwrite")


def _make_parent(path: str) -> None:
    """Create the directory that the output path is written into, if it is missing."""
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    except OSError as exc:
        raise ValueError(f"output {path}: cannot make its directory: {exc}") from exc


def _write_echo(cfg: dict, extra: dict, path: str) -> None:
    echo = {**cfg, **extra}
    write_text(path, [json.dumps(echo, indent=2, sort_keys=True), "\n"], ValueError,
               f"config echo {path}")
    print(f"effective config: {json.dumps(echo, sort_keys=True)}")


def _make_policy(spec: EnvSpec, name: str, cfg: dict, bundle: str | None = None):
    # the planner flags are echoed whatever the policy, so they are checked for every one
    check_planner_flags(cfg["grid_n"], cfg["inflation"], cfg["exec_noise"])
    if name == "direct":
        return ScriptedDirect(spec)
    if name == "risk-avoiding":
        return ScriptedRiskAvoiding(spec, grid_n=cfg["grid_n"], inflation=cfg["inflation"],
                                    exec_noise=cfg["exec_noise"])
    if name == "random":
        return RandomPolicy(spec)
    return checkpoint.load_bundle_bc(bundle)  # "bc", which only eval offers


def _check_fits_spec(what: str, held, spec: EnvSpec) -> None:
    """Refuse held, a bundle's models (so also its policy) or a dataset, unless it fits spec."""
    if (held.state_dim, held.action_dim) != (spec.state_dim, spec.action_dim):
        raise ValueError(f"{what} of state dim {held.state_dim} and action "
                         f"dim {held.action_dim} do not fit env {spec.name}, of state dim "
                         f"{spec.state_dim} and action dim {spec.action_dim}")


def _entries(raw: str, flag: str) -> list:
    """The non-blank entries of a comma-separated flag value; at least one."""
    entries = [v.strip() for v in raw.split(",") if v.strip()]
    if not entries:
        raise ValueError(f"{flag} needs at least one entry, got {raw!r}")
    return entries


def _float_list(raw: str, flag: str) -> list:
    """The finite numbers of a comma-separated flag value; at least one."""
    return [parse_field(v, float, ValueError, f"each {flag} entry") for v in _entries(raw, flag)]


def cmd_gen_data(args: argparse.Namespace) -> int:
    cfg = _merge_config(args, "gen-data")
    spec = _resolve_spec(args.env, cfg["variant"])
    if cfg["max_steps"] is not None:
        spec = replace(spec, max_steps=cfg["max_steps"])
        spec.validate()
    policy = _make_policy(spec, cfg["policy"], cfg)
    echo_path = args.out + ".config.json"
    _guard_overwrite([args.out, echo_path], args.force)
    _make_parent(args.out)
    rng = Rng(cfg["seed"])
    dataset = generate_dataset(spec, policy, cfg["episodes"], spec.max_steps, rng)
    save_dataset(dataset, args.out)
    occ = float(np.mean(risk_occupancy(spec, dataset.next_states)))
    print(f"wrote {len(dataset)} transitions to {args.out}")
    print(f"risk occupancy of visited states: {occ:.4f}")
    _write_echo(cfg, {"command": "gen-data", "env": args.env, "out": args.out}, echo_path)
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _merge_config(args, "train")
    dataset = load_dataset(args.data)
    # each model's iteration count: its override, else --iters; bc's only with --bc
    iters = {f"{m}_iters": cfg["iters"] if cfg[f"{m}_iters"] is None else cfg[f"{m}_iters"]
             for m in ("score", "invdyn", "bc") if m != "bc" or cfg["bc"]}
    score_cfg = ScoreTrainConfig(sigma=cfg["sigma"], iterations=iters["score_iters"],
                                 batch_size=cfg["batch"], lr=cfg["score_lr"], seed=cfg["seed"])
    invdyn_cfg = InvDynTrainConfig(iterations=iters["invdyn_iters"], batch_size=cfg["batch"],
                                   lr=cfg["invdyn_lr"], seed=cfg["seed"])
    score_cfg.validate()
    invdyn_cfg.validate()
    bc_spec = None
    if cfg["bc"]:
        if not cfg["env"]:
            raise ValueError("--env is required with --bc (action bounds come from the env spec)")
        bc_spec = _resolve_spec(cfg["env"], cfg["variant"])
        _check_fits_spec(f"dataset {args.data}: transitions", dataset, bc_spec)
        bc_cfg = BcTrainConfig(iterations=iters["bc_iters"], batch_size=cfg["batch"],
                               lr=cfg["bc_lr"], seed=cfg["seed"])
        bc_cfg.validate()
    # every model file and its loss CSV, bc's too without --bc, the manifest and the echo
    files = [*map(checkpoint.model_file, checkpoint.KINDS),
             *(f"loss_{k}.csv" for k in checkpoint.KINDS), checkpoint.MANIFEST_FILE,
             "config.json"]
    _guard_overwrite([os.path.join(args.out, f) for f in files], args.force)
    if iters["score_iters"] == 0 or iters["invdyn_iters"] == 0:
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
        path = os.path.join(args.out, f"loss_{name}.csv")
        write_text(path, ["step,loss\n"] + [f"{step},{loss:.17g}\n" for step, loss in rows],
                   ValueError, f"loss CSV {path}")
    for kind in set(checkpoint.KINDS) - set(histories):  # an earlier --bc run's, under --force
        for path in (os.path.join(args.out, checkpoint.model_file(kind)),
                     os.path.join(args.out, f"loss_{kind}.csv")):
            if os.path.exists(path):
                os.remove(path)
    print(f"wrote model bundle to {args.out}")
    _write_echo(cfg, {"command": "train", "data": args.data, "out": args.out, **iters},
                os.path.join(args.out, "config.json"))
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = _merge_config(args, "eval")
    spec = _resolve_spec(args.env, cfg["variant"])
    models = checkpoint.load_bundle(args.bundle)
    policy = _make_policy(spec, cfg["policy"], cfg, args.bundle)
    _check_fits_spec(f"bundle {args.bundle}: models", models, spec)
    k1s = _float_list(cfg["k1"], "--k1")
    k2s = _float_list(cfg["k2"], "--k2")
    grid = _float_list(cfg["percentiles"], "--percentiles")
    for p in grid:
        if not 0 <= p <= 100:
            raise ValueError(f"each --percentiles entry must be in [0, 100], got {p:g}")
    ablations = _entries(cfg["ablation"], "--ablation")
    episodes = cfg["episodes"]
    if episodes < 1:
        raise ValueError(f"--episodes must be >= 1, got {episodes}")
    base_seed = cfg["seed"]
    n_traj = cfg["traj"]
    if n_traj < 0:
        raise ValueError(f"--traj must be >= 0, got {n_traj}")
    base_cfg = ControlConfig(k1=0.0, k2=0.0, action_low=spec.action_low,
                             action_high=spec.action_high, ablation="baseline")
    # every arm is checked before anything is written or rolled out
    arms = {(ab, k1, k2): ControlConfig(k1=k1, k2=k2, action_low=spec.action_low,
                                        action_high=spec.action_high,
                                        n_refine=cfg["n_refine"], ablation=ab)
            for ab in ablations for k1 in k1s for k2 in k2s}
    outdir = args.outdir
    outputs, owners = {}, {}
    for (ab, k1, k2), ctl in arms.items():
        ctl.validate()
        tag, arm = f"{ab}_k1_{k1:g}_k2_{k2:g}", f"{ab} k1={k1!r} k2={k2!r}"
        if tag in owners:  # :g keeps 6 significant digits, so gains can share a tag
            raise ValueError(f"arms {owners[tag]} and {arm} would write the same reports "
                             f"report_{tag}.csv and .svg")
        owners[tag] = arm
        outputs[(ab, k1, k2)] = (os.path.join(outdir, f"report_{tag}.csv"),
                                 os.path.join(outdir, f"report_{tag}.svg"))
    echo_path = os.path.join(outdir, "config.json")
    _guard_overwrite([echo_path, *(p for pair in outputs.values() for p in pair)], args.force)
    _make_parent(echo_path)

    traj_b: list = []
    stats_b = rollout_batch(spec, policy, None, base_cfg, episodes, base_seed,
                            trajectories_out=traj_b, max_trajectories=n_traj)
    for (ab, k1, k2), ctl in arms.items():
        traj_c: list = []
        stats_c = rollout_batch(spec, policy, models, ctl, episodes, base_seed,
                                trajectories_out=traj_c, max_trajectories=n_traj)
        echo = {"ablation": ab, "k1": k1, "k2": k2, "n_refine": cfg["n_refine"],
                "episodes": episodes, "base_seed": base_seed,
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
                      "outdir": outdir}, echo_path)
    return 0


def cmd_plot(args: argparse.Namespace) -> int:
    cfg = _merge_config(args, "plot")
    if cfg["grid_n"] < 1:
        raise ValueError(f"--grid-n must be >= 1, got {cfg['grid_n']}")
    spec = _resolve_spec(args.env, cfg["variant"])
    quiver_fn = None
    if args.bundle:
        models = checkpoint.load_bundle(args.bundle)
        _check_fits_spec(f"bundle {args.bundle}: models", models, spec)
        norm = models.norm

        def quiver_fn(pts):
            # the state score at the mean action, in env units
            actions = np.broadcast_to(norm.action_mean, (len(pts), models.action_dim))
            return norm.state_std * eval_score(models.state_score, pts, actions)

    echo_path = args.out + ".config.json"
    _guard_overwrite([args.out, echo_path], args.force)
    _make_parent(args.out)
    scene = render_scene(spec, quiver_fn=quiver_fn, quiver_grid=cfg["grid_n"])
    write_text(args.out, [scene, "\n"], ValueError, f"scene SVG {args.out}")
    print(f"wrote {args.out}")
    _write_echo(cfg, {"command": "plot", "env": args.env, "out": args.out,
                      "bundle": args.bundle}, echo_path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdsa",
        description="Conservative action correction for offline control.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="roll a scripted policy and save transitions")
    p.add_argument("--env", required=True, help="env spec path or builtin name")
    p.add_argument("--out", required=True, help="output dataset path (.jsonl)")
    p.add_argument("--policy", choices=GEN_POLICIES, help="data-collection policy")
    p.add_argument("--episodes", type=int, help="episodes to roll")
    p.add_argument("--seed", type=int, help="seed (default CDSA_SEED or 0)")
    p.add_argument("--variant", choices=VARIANTS, help="task variant override")
    p.add_argument("--exec-noise", dest="exec_noise", type=_number,
                   help="gaussian action noise for risk-avoiding")
    p.add_argument("--grid-n", dest="grid_n", type=int, help="planner grid size")
    p.add_argument("--inflation", type=_number, help="planner obstacle margin")
    p.add_argument("--max-steps", dest="max_steps", type=int, help="episode step override")
    p.add_argument("--config", help="JSON config file; flags win")
    p.add_argument("--force", action="store_true", help="overwrite existing outputs")
    p.set_defaults(fn=cmd_gen_data, parser=p)

    p = sub.add_parser("train", help="train score fields and inverse dynamics")
    p.add_argument("--data", required=True, help="dataset path")
    p.add_argument("--out", required=True, help="bundle directory to create")
    p.add_argument("--sigma", type=_number, help="perturbation scale")
    p.add_argument("--iters", type=int, help="iterations for every model")
    p.add_argument("--score-iters", dest="score_iters", type=int,
                   help="score-field iteration override")
    p.add_argument("--invdyn-iters", dest="invdyn_iters", type=int,
                   help="inverse-dynamics iteration override")
    p.add_argument("--score-lr", dest="score_lr", type=_number, help="score-field learning rate")
    p.add_argument("--invdyn-lr", dest="invdyn_lr", type=_number,
                   help="inverse-dynamics learning rate")
    p.add_argument("--batch", type=int, help="batch size")
    p.add_argument("--seed", type=int, help="seed (default CDSA_SEED or 0)")
    p.add_argument("--bc", action="store_const", const=True,
                   help="also behavior-clone the dataset policy")
    p.add_argument("--bc-iters", dest="bc_iters", type=int, help="bc iteration override")
    p.add_argument("--bc-lr", dest="bc_lr", type=_number, help="bc learning rate")
    p.add_argument("--env", help="env spec (required with --bc, for action bounds)")
    p.add_argument("--variant", choices=VARIANTS, help="task variant override")
    p.add_argument("--config", help="JSON config file; flags win")
    p.add_argument("--force", action="store_true", help="overwrite existing outputs")
    p.set_defaults(fn=cmd_train, parser=p)

    p = sub.add_parser("eval", help="paired baseline/corrected rollouts and reports")
    p.add_argument("--env", required=True, help="env spec path or builtin name")
    p.add_argument("--bundle", required=True, help="model bundle directory")
    p.add_argument("--outdir", required=True, help="directory for report files")
    p.add_argument("--policy", choices=EVAL_POLICIES, help="base policy")
    p.add_argument("--episodes", type=int, help="episodes per arm")
    p.add_argument("--seed", type=int, help="base seed (default CDSA_SEED or 0)")
    p.add_argument("--k1", help="action-score gains, comma list")
    p.add_argument("--k2", help="state-score gains, comma list")
    p.add_argument("--ablation", help=f"comma list from {ABLATIONS}")
    p.add_argument("--n-refine", dest="n_refine", type=int, help="extra correction passes")
    p.add_argument("--percentiles", help="VaR grid")
    p.add_argument("--traj", type=int, help="trajectories per arm kept for the SVG")
    p.add_argument("--variant", choices=VARIANTS, help="task variant override")
    p.add_argument("--exec-noise", dest="exec_noise", type=_number,
                   help="scripted-policy action noise")
    p.add_argument("--grid-n", dest="grid_n", type=int, help="planner grid size")
    p.add_argument("--inflation", type=_number, help="planner obstacle margin")
    p.add_argument("--config", help="JSON config file; flags win")
    p.add_argument("--force", action="store_true", help="overwrite existing outputs")
    p.set_defaults(fn=cmd_eval, parser=p)

    p = sub.add_parser("plot", help="render the arena and a score quiver")
    p.add_argument("--env", required=True, help="env spec path or builtin name")
    p.add_argument("--out", required=True, help="output SVG path")
    p.add_argument("--bundle", help="bundle directory; adds a state-score quiver")
    p.add_argument("--grid-n", dest="grid_n", type=int, help="quiver grid size")
    p.add_argument("--variant", choices=VARIANTS, help="task variant override")
    p.add_argument("--config", help="JSON config file; flags win")
    p.add_argument("--force", action="store_true", help="overwrite existing outputs")
    p.set_defaults(fn=cmd_plot, parser=p)

    for command, p in sub.choices.items():
        for action in p._actions:
            value = DEFAULTS[command].get(action.dest)
            if value is not None and action.nargs != 0:  # --bc's False is no flag value
                action.help += f" (default {value})"
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
