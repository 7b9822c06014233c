"""End-to-end tests for the command-line entrypoint (in-process main)."""

import argparse
import json
import os
import re
import shutil
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

import pytest

from cdsa import checkpoint
from cdsa.cli import DEFAULTS, _merge_config, build_parser, main
from cdsa.controller import CdsaModels
from cdsa.dataset import load_dataset
from cdsa.envs import BehaviorCloned
from cdsa.evaluation import load_report_csv
from cdsa.invdyn import InvDynModel
from cdsa.neuralcore import Rng, mlp_init
from cdsa.scorefield import ScoreField, ScoreKind
from cdsa.svgplot import ARM_STYLE
from helpers import identity_norm, missed, mutations

ROOT = Path(__file__).resolve().parent.parent


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _gen(tmp_path, name="data.jsonl", extra=()):
    out = str(tmp_path / name)
    rc = main(["gen-data", "--env", "linear", "--out", out, "--policy", "direct",
               "--episodes", "2", "--seed", "3", *extra])
    return rc, out


def _train(tmp_path, data, name="bundle", extra=()):
    out = str(tmp_path / name)
    rc = main(["train", "--data", data, "--out", out, "--iters", "5",
               "--batch", "16", "--sigma", "0.2", "--seed", "2", *extra])
    return rc, out


def test_missing_subcommand_is_usage_error():
    for argv in ([], ["verify"]):  # verify: a retired subcommand is an unknown one
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


def test_missing_required_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--env", "linear"])  # no --out
    assert exc.value.code == 2


def test_unknown_env_exits_1(tmp_path, capsys):
    rc = main(["gen-data", "--env", "nonsense", "--out", str(tmp_path / "d.jsonl")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_gen_data_writes_dataset_and_config_echo(tmp_path):
    rc, out = _gen(tmp_path)
    assert rc == 0
    assert len(load_dataset(out)) > 0
    echo = _read_json(out + ".config.json")
    assert echo["command"] == "gen-data"
    assert echo["seed"] == 3 and echo["episodes"] == 2
    assert echo["policy"] == "direct"


def test_gen_data_overwrite_guard(tmp_path, capsys):
    rc, out = _gen(tmp_path)
    assert rc == 0
    rc, _ = _gen(tmp_path)
    assert rc == 1
    assert "--force" in capsys.readouterr().err
    rc, _ = _gen(tmp_path, extra=("--force",))
    assert rc == 0


def test_seed_falls_back_to_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("CDSA_SEED", "7")
    out = str(tmp_path / "d.jsonl")
    rc = main(["gen-data", "--env", "linear", "--out", out, "--policy", "direct",
               "--episodes", "1"])
    assert rc == 0
    assert _read_json(out + ".config.json")["seed"] == 7


def test_bad_seed_env_var_exits_1(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CDSA_SEED", "not-a-number")
    rc = main(["gen-data", "--env", "linear", "--out", str(tmp_path / "d.jsonl"),
               "--policy", "direct", "--episodes", "1"])
    assert rc == 1
    assert "CDSA_SEED" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["CDSA_SEED", "config file"])
def test_negative_seed_exits_1_naming_its_source(tmp_path, monkeypatch, capsys, source):
    out = tmp_path / "d.jsonl"
    argv = ["gen-data", "--env", "linear", "--out", str(out), "--policy", "direct",
            "--episodes", "1"]
    if source == "CDSA_SEED":
        monkeypatch.setenv("CDSA_SEED", "-1")
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -1}))
        argv += ["--config", str(cfg)]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {source}") and "got -1" in err[0], err
    assert not out.exists()


def test_config_file_merges_and_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"episodes": 3, "policy": "direct"}))
    out = str(tmp_path / "d.jsonl")
    rc = main(["gen-data", "--env", "linear", "--out", out, "--seed", "1",
               "--config", str(cfg)])
    assert rc == 0
    assert _read_json(out + ".config.json")["episodes"] == 3

    out2 = str(tmp_path / "d2.jsonl")
    rc = main(["gen-data", "--env", "linear", "--out", out2, "--seed", "1",
               "--config", str(cfg), "--episodes", "4"])
    assert rc == 0
    assert _read_json(out2 + ".config.json")["episodes"] == 4


def test_config_file_unknown_key_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"episodez": 3}))
    rc = main(["gen-data", "--env", "linear", "--out", str(tmp_path / "d.jsonl"),
               "--config", str(cfg)])
    assert rc == 1
    assert "unknown keys" in capsys.readouterr().err


@pytest.mark.parametrize("document", ["5", "[1, 2]"])
def test_config_file_not_an_object_exits_1(tmp_path, capsys, document):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(document)
    rc = main(["gen-data", "--env", "linear", "--out", str(tmp_path / "d.jsonl"),
               "--config", str(cfg)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(cfg) in err and "JSON object" in err


# the flags each subcommand requires; the config is read before any of them is used
REQUIRED = {"gen-data": ["--env", "linear", "--out", "d.jsonl"],
            "train": ["--data", "d.jsonl", "--out", "b"],
            "eval": ["--env", "linear", "--bundle", "b", "--outdir", "r"],
            "plot": ["--env", "linear", "--out", "s.svg"]}


def _config(command, path):
    args = build_parser().parse_args([command, *REQUIRED[command], "--config", str(path)])
    return _merge_config(args, command)


@pytest.mark.parametrize("command", sorted(DEFAULTS))
def test_config_file_rejects_every_mutated_value(tmp_path, command):
    doc = {key: value for key, value in DEFAULTS[command].items() if value is not None}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    cfg = _config(command, path)
    assert {key: cfg[key] for key in doc} == doc
    cases = list(mutations(doc, optional=set(doc)))  # a config may leave out any key
    misses = missed(cases, path, lambda: _config(command, path), ValueError)
    assert not misses, "\n".join(misses)


def test_config_file_values_are_typed_as_their_flags(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"k1": 0.5, "k2": "0,1", "seed": None, "variant": None,
                                "episodes": 3, "inflation": 1, "policy": "direct"}))
    cfg = _config("eval", path)
    assert cfg["k1"] == "0.5" and cfg["k2"] == "0,1" and cfg["variant"] is None
    assert cfg["episodes"] == 3 and cfg["inflation"] == 1.0
    assert isinstance(cfg["inflation"], float)
    path.write_text(json.dumps({"bc": True, "env": "linear", "iters": 4}))
    assert _config("train", path)["bc"] is True


def _subcommands():
    return next(action for action in build_parser()._actions
                if isinstance(action, argparse._SubParsersAction)).choices


def test_readme_names_exactly_the_parser_subcommands():
    # the quickstart's `cdsa <subcommand>` lines and the `cdsa.cli` row of the
    # module table, so a subcommand added or removed without a doc change fails
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    usage = readme.split("## Quickstart (CLI)", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    row = next(line for line in readme.splitlines() if line.startswith("| `cdsa.cli`"))
    want = sorted(_subcommands())
    assert sorted({line.split()[1] for line in usage.splitlines()
                   if line.startswith("cdsa ")}) == want
    assert sorted(re.findall(r"`([a-z-]+)`", row.split("|")[2])) == want


def test_config_keys_are_the_flags_of_their_subcommand():
    # a config key without a flag ends in a KeyError when a config file sets it;
    # plot's --bundle, like its trajectory lists, is an input file named on the
    # command line only
    subcommands = _subcommands()
    assert set(subcommands) == set(DEFAULTS)
    for command, parser in subcommands.items():
        skip = {"config", "force"} | ({"bundle"} if command == "plot" else set())
        dests = {action.dest for action in parser._actions
                 if not (action.required or action.nargs == "*" or action.dest in skip
                         or isinstance(action, argparse._HelpAction))}
        assert set(DEFAULTS[command]) == dests, command


@pytest.mark.parametrize("doc", [
    {"episodes": [3]}, {"episodes": None}, {"episodes": "abc"}, {"episodes": 2.5},
    {"episodes": True}, {"episodes": 1e999}, {"exec_noise": "nan"}, {"policy": "bc"},
], ids=lambda d: json.dumps(d))
def test_bad_config_value_exits_1_with_one_line(tmp_path, capsys, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = str(tmp_path / "d.jsonl")
    rc = main(["gen-data", "--env", "linear", "--out", out, "--config", str(path)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: config file {path}: ")
    assert not os.path.exists(out)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "x"])
def test_float_flags_reject_non_finite_values(value):
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--env", "linear", "--out", "d.jsonl", "--exec-noise", value])
    assert exc.value.code == 2


@pytest.mark.parametrize("line, mutate", [
    (1, lambda rec: [rec]),
    (2, lambda rec: {k: v for k, v in rec.items() if k != "s"}),
    (2, lambda rec: {**rec, "r": "x"}),
    (3, lambda rec: {**rec, "a": [float("nan")] * len(rec["a"])}),
], ids=["metadata-list", "record-without-s", "string-reward", "nan-action"])
def test_train_on_malformed_dataset_exits_1_with_one_line(tmp_path, capsys, line, mutate):
    rc, data = _gen(tmp_path)
    assert rc == 0
    with open(data) as fh:
        lines = fh.read().splitlines()
    lines[line - 1] = json.dumps(mutate(json.loads(lines[line - 1])))
    with open(data, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    capsys.readouterr()
    rc, bundle = _train(tmp_path, data)
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {data}:{line}: ")
    assert not os.path.exists(bundle)


def test_train_eval_plot_pipeline(tmp_path):
    rc, data = _gen(tmp_path)
    assert rc == 0
    rc, bundle = _train(tmp_path, data,
                        extra=("--bc", "--env", "linear", "--bc-iters", "5"))
    assert rc == 0
    names = set(os.listdir(bundle))
    assert {"manifest.json", "action_score.json", "state_score.json",
            "invdyn.json", "bc.json", "config.json"} <= names
    assert {"loss_action_score.csv", "loss_state_score.csv",
            "loss_invdyn.csv", "loss_bc.csv"} <= names
    checkpoint.load_bundle(bundle)
    checkpoint.load_bundle_bc(bundle)

    outdir = str(tmp_path / "rep")
    rc = main(["eval", "--env", "linear", "--bundle", bundle, "--outdir", outdir,
               "--policy", "direct", "--episodes", "2", "--seed", "4",
               "--k1", "0.1", "--k2", "0", "--n-refine", "0", "--traj", "1",
               "--percentiles", "10,50"])
    assert rc == 0
    report = load_report_csv(os.path.join(outdir, "report_full_k1_0.1_k2_0.csv"))
    assert report[("episodes", "baseline", "")] == 2
    assert ("var", "corrected", "10") in report
    ET.parse(os.path.join(outdir, "report_full_k1_0.1_k2_0.svg"))

    scene = str(tmp_path / "scene.svg")
    rc = main(["plot", "--env", "linear", "--out", scene, "--bundle", bundle,
               "--grid-n", "4"])
    assert rc == 0
    root = ET.parse(scene).getroot()
    qv = [el for el in root.iter() if el.get("class") == "qv"]
    assert len(qv) == 16


def test_plot_takes_no_seed(tmp_path, monkeypatch):
    # plot draws nothing at random, so a bad CDSA_SEED is not its concern
    monkeypatch.setenv("CDSA_SEED", "abc")
    scene = str(tmp_path / "scene.svg")
    assert main(["plot", "--env", "linear", "--out", scene]) == 0
    assert "seed" not in _read_json(scene + ".config.json")


@pytest.mark.parametrize("flag", ["--traj-baseline", "--traj-corrected"])
def test_plot_reads_no_trajectory_files(tmp_path, flag):
    # no command writes trajectory files; eval's report SVG draws its rollouts
    scene = tmp_path / "scene.svg"
    with pytest.raises(SystemExit) as exc:
        main(["plot", "--env", "linear", "--out", str(scene), flag, "traj.csv"])
    assert exc.value.code == 2
    assert not scene.exists()


def test_train_rerun_is_byte_identical(tmp_path):
    rc, data = _gen(tmp_path)
    assert rc == 0
    rc, b1 = _train(tmp_path, data, name="b1")
    assert rc == 0
    rc, b2 = _train(tmp_path, data, name="b2")
    assert rc == 0
    for name in ("action_score.json", "state_score.json", "invdyn.json",
                 "manifest.json"):
        with open(os.path.join(b1, name), "rb") as f1, \
             open(os.path.join(b2, name), "rb") as f2:
            assert f1.read() == f2.read(), name


def test_train_zero_iters_warns(tmp_path, capsys):
    rc, data = _gen(tmp_path)
    assert rc == 0
    rc, _ = _train(tmp_path, data, extra=("--iters", "0"))
    assert rc == 0
    assert "0 training iterations" in capsys.readouterr().out


def test_train_bc_requires_env(tmp_path, capsys):
    rc, data = _gen(tmp_path)
    assert rc == 0
    rc, _ = _train(tmp_path, data, extra=("--bc",))
    assert rc == 1
    assert "--env" in capsys.readouterr().err


def test_train_rejects_bad_bc_config_before_training(tmp_path, capsys, monkeypatch):
    rc, data = _gen(tmp_path)
    assert rc == 0

    def no_training(*args, **kwargs):
        raise AssertionError("train_cdsa ran before the bc config was checked")

    monkeypatch.setattr("cdsa.cli.train_cdsa", no_training)
    rc, out = _train(tmp_path, data, extra=("--bc", "--env", "linear", "--bc-lr", "-1"))
    assert rc == 1
    assert "lr must be positive" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_eval_rejects_bad_ablation_and_gains(tmp_path, capsys):
    rc, data = _gen(tmp_path)
    rc, bundle = _train(tmp_path, data)
    outdir = str(tmp_path / "rep")
    rc = main(["eval", "--env", "linear", "--bundle", bundle, "--outdir", outdir,
               "--policy", "direct", "--episodes", "1", "--ablation", "nonsense"])
    assert rc == 1
    assert "ablation" in capsys.readouterr().err
    rc = main(["eval", "--env", "linear", "--bundle", bundle, "--outdir", outdir,
               "--policy", "direct", "--episodes", "1", "--k1", "a,b"])
    assert rc == 1
    assert "--k1" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, config", [
    ("--k1", "inf", False), ("--k2", "nan", False), ("--k1", "0.3,-inf", False),
    ("--percentiles", "10,nan", False), ("--k2", "nan", True), ("--k1", "1,x", True),
])
def test_eval_rejects_non_finite_list_entries_with_one_line(tmp_path, capsys, flag, value,
                                                            config):
    rc, data = _gen(tmp_path)
    rc, bundle = _train(tmp_path, data)
    outdir = tmp_path / "rep"
    if config:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({flag[2:]: value}))
        extra = ["--config", str(path)]
    else:
        extra = [flag, value]
    capsys.readouterr()
    rc = main(["eval", "--env", "linear", "--bundle", bundle, "--outdir", str(outdir),
               "--policy", "direct", "--episodes", "1", *extra])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and flag in err[0] and "finite number" in err[0]
    assert not outdir.exists()


@pytest.mark.parametrize("flag, value", [
    ("--k1", ","), ("--k2", ","), ("--ablation", ","), ("--percentiles", ","),
    ("--k1", " , "), ("--ablation", ""),
])
def test_eval_rejects_empty_comma_lists_with_one_line(tmp_path, capsys, flag, value):
    rc, data = _gen(tmp_path)
    rc, bundle = _train(tmp_path, data)
    outdir = tmp_path / "rep"
    capsys.readouterr()
    rc = main(["eval", "--env", "linear", "--bundle", bundle, "--outdir", str(outdir),
               "--policy", "direct", "--episodes", "1", flag, value])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and flag in err[0]
    assert not outdir.exists()


@pytest.fixture(scope="module")
def linear_bundle(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("linear")
    _, data = _gen(tmp)
    _, bundle = _train(tmp, data)
    return bundle


def test_eval_draws_every_recorded_trajectory(tmp_path, linear_bundle):
    # more trajectories per arm than the scene once drew
    outdir = tmp_path / "rep"
    assert main(["eval", "--env", "linear", "--bundle", linear_bundle, "--outdir",
                 str(outdir), "--policy", "direct", "--episodes", "25", "--traj", "25",
                 "--k1", "0.1", "--k2", "0", "--n-refine", "0"]) == 0
    root = ET.parse(outdir / "report_full_k1_0.1_k2_0.svg").getroot()
    strokes = [el.get("stroke") for el in root.iter("{http://www.w3.org/2000/svg}polyline")]
    assert [strokes.count(ARM_STYLE[arm][0]) for arm in ("baseline", "corrected")] == [25, 25]


# (command, the one output an earlier run left): each run without --force must
# exit 1 with one error line naming it, before it writes anything
TAKEN_OUTPUTS = [
    ("gen-data", "out.config.json"),
    ("plot", "out.config.json"),
    ("eval", "out/config.json"),
    ("train", "out/config.json"),
    ("train", "out/loss_invdyn.csv"),
    ("train", "out/loss_bc.csv"),
    ("train", "out/state_score.json"),
    ("train", "out/bc.json"),
    ("train without --bc", "out/bc.json"),
    ("train without --bc", "out/loss_bc.csv"),
]


@pytest.mark.parametrize("command, taken", TAKEN_OUTPUTS,
                         ids=[" ".join(c) for c in TAKEN_OUTPUTS])
def test_every_output_is_kept_without_force(tmp_path, capsys, linear_bundle, command, taken):
    out = str(tmp_path / "out")
    data = os.path.join(os.path.dirname(linear_bundle), "data.jsonl")
    argv = {
        "gen-data": ["gen-data", "--env", "linear", "--out", out, "--policy", "direct",
                     "--episodes", "2"],
        "plot": ["plot", "--env", "linear", "--out", out],
        "eval": ["eval", "--env", "linear", "--bundle", linear_bundle, "--outdir", out,
                 "--policy", "direct", "--episodes", "2"],
        "train": ["train", "--data", data, "--out", out, "--iters", "5", "--batch", "16",
                  "--bc", "--env", "linear"],
        "train without --bc": ["train", "--data", data, "--out", out, "--iters", "5",
                               "--batch", "16"],
    }[command]
    path = tmp_path / taken
    path.parent.mkdir(exist_ok=True)
    path.write_text("an earlier run's output\n", encoding="utf-8")
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: output {path} exists; pass --force to overwrite"], err
    assert path.read_text(encoding="utf-8") == "an earlier run's output\n"
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == [path]


def test_train_force_without_bc_removes_an_earlier_runs_bc_files(tmp_path, linear_bundle):
    data = os.path.join(os.path.dirname(linear_bundle), "data.jsonl")
    rc, bundle = _train(tmp_path, data, extra=("--bc", "--env", "linear"))
    assert rc == 0 and {"bc.json", "loss_bc.csv"} <= set(os.listdir(bundle))
    rc, _ = _train(tmp_path, data, extra=("--force",))
    assert rc == 0
    rc, fresh = _train(tmp_path, data, name="fresh")
    assert rc == 0
    assert sorted(os.listdir(bundle)) == sorted(os.listdir(fresh))
    for name in os.listdir(fresh):
        if name != "config.json":  # which echoes its own --out and --force
            with open(os.path.join(bundle, name), "rb") as f1, \
                 open(os.path.join(fresh, name), "rb") as f2:
                assert f1.read() == f2.read(), name
    with pytest.raises(checkpoint.CheckpointError, match="holds no behavior-cloned policy"):
        checkpoint.load_bundle_bc(bundle)


@pytest.fixture(scope="module")
def linear_bc_bundle(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("linear_bc")
    _, data = _gen(tmp)
    _, bundle = _train(tmp, data, extra=("--bc", "--env", "linear"))
    return bundle


# (a slot of the bundle, what it holds instead): a model file of another kind,
# or a manifest entry for a file outside the bundle; each must fail naming the
# model file or the manifest before eval writes anything
FOREIGN_SLOTS = [
    ("invdyn.json", "state_score.json"),
    ("action_score.json", "invdyn.json"),
    ("invdyn.json", "bc.json"),
    ("manifest.json", "an absolute path"),
    ("manifest.json", "../other/invdyn.json"),
]


@pytest.mark.parametrize("slot, holds", FOREIGN_SLOTS, ids=[" ".join(c) for c in FOREIGN_SLOTS])
def test_eval_on_a_model_outside_its_slot_exits_1_writing_nothing(tmp_path, capsys,
                                                                   linear_bc_bundle, slot,
                                                                   holds):
    bundle = tmp_path / "bundle"
    shutil.copytree(linear_bc_bundle, bundle)
    shutil.copytree(linear_bc_bundle, tmp_path / "other")
    if slot == "manifest.json":
        doc = _read_json(bundle / slot)
        entry = str(tmp_path / "other" / "invdyn.json") if holds.startswith("an ") else holds
        doc["files"]["invdyn"] = entry
        (bundle / slot).write_text(json.dumps(doc))
        want = f"error: {bundle / slot}: files must be "
    else:
        shutil.copyfile(bundle / holds, bundle / slot)
        want = f"error: checkpoint {bundle / slot}: 'kind' must be one of "
    outdir = tmp_path / "rep"
    capsys.readouterr()
    assert main(["eval", "--env", "linear", "--bundle", str(bundle), "--outdir", str(outdir),
                 "--episodes", "2", "--k2", "0.05"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(want), err
    assert not outdir.exists()


def _save_bundle_of_dims(path, ds, bc_ds):
    """A bundle of models for state dim ds and a BC policy for state dim bc_ds,
    both of action dim 2. save_bundle refuses a policy of other dims than the
    models', so that one is written over the bundle's own."""
    norm = identity_norm(ds, 2)
    fields = [ScoreField(mlp_init(kind.arch.dims(ds, 2), 0.2, Rng(1)), kind, 0.2, norm)
              for kind in (ScoreKind.ACTION, ScoreKind.STATE)]
    invdyn = InvDynModel(mlp_init(InvDynModel.arch.dims(ds, 2), 0.2, Rng(2)), norm)

    def bc(d):
        return BehaviorCloned(mlp_init([d, 8, 2], 0.2, Rng(3)), identity_norm(d, 2),
                              -np.ones(2), np.ones(2))

    checkpoint.save_bundle(CdsaModels(*fields, invdyn, norm), str(path), bc(ds))
    if bc_ds != ds:
        checkpoint.save_model(bc(bc_ds), str(path / "bc.json"))


# the bc case fails in load_bundle_bc, which names the policy's file
@pytest.mark.parametrize("ds, bc_ds, policy, what", [
    (3, 3, "direct", "models of state dim 3"),
    (2, 3, "bc", "behavior-cloned policy"),
])
def test_eval_checks_the_bundle_against_the_spec_before_writing(tmp_path, capsys, ds, bc_ds,
                                                                policy, what):
    bundle = tmp_path / "bundle"
    _save_bundle_of_dims(bundle, ds, bc_ds)
    outdir = tmp_path / "rep"
    capsys.readouterr()
    assert main(["eval", "--env", "pointmass", "--bundle", str(bundle), "--outdir",
                 str(outdir), "--policy", policy, "--episodes", "2"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: bundle {bundle}: {what} "), err
    if policy == "bc":
        assert f"{bundle / 'bc.json'}: dims [3, 8, 2] do not fit kind bc at state dim 2 and " \
               f"action dim 2" in err[0], err
    assert not outdir.exists()


def test_plot_checks_the_bundle_against_the_spec_before_writing(tmp_path, capsys):
    bundle = tmp_path / "bundle"
    _save_bundle_of_dims(bundle, 3, 3)
    out = tmp_path / "scene.svg"
    capsys.readouterr()
    assert main(["plot", "--env", "pointmass", "--out", str(out), "--bundle", str(bundle)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(
        f"error: bundle {bundle}: models of state dim 3 "), err
    assert not out.exists() and not os.path.exists(f"{out}.config.json")


# (command, flags, value): each run must exit 1 with one error line naming the
# value before it writes anything; the planner flags are checked whatever the
# policy, and every corrected arm's settings before the baseline rolls out
BAD_FLAG_VALUES = [
    ("gen-data", ["--grid-n", "0"], "0"),
    ("gen-data", ["--grid-n", "-3"], "-3"),
    ("gen-data", ["--inflation", "-5"], "-5"),
    ("gen-data", ["--exec-noise", "-1"], "-1"),
    ("gen-data", ["--policy", "direct", "--grid-n", "0"], "0"),
    ("gen-data", ["--policy", "direct", "--inflation", "-5"], "-5"),
    ("gen-data", ["--policy", "direct", "--exec-noise", "-1"], "-1"),
    ("eval", ["--policy", "risk-avoiding", "--grid-n", "0"], "0"),
    ("eval", ["--policy", "risk-avoiding", "--exec-noise", "-1"], "-1"),
    ("eval", ["--policy", "direct", "--grid-n", "0"], "0"),
    ("eval", ["--policy", "direct", "--inflation", "-5"], "-5"),
    ("eval", ["--traj", "-3"], "-3"),
    ("eval", ["--percentiles", "150"], "150"),
    ("eval", ["--percentiles", "5,-1"], "-1"),
    ("eval", ["--n-refine", "-1"], "-1"),
    ("eval", ["--k1", "-0.5"], "-0.5"),
    ("eval", ["--episodes", "0"], "0"),
    ("gen-data", ["--seed", "-1"], "-1"),
    ("eval", ["--seed", "-1"], "-1"),
    ("plot", ["--grid-n", "0"], "0"),
    ("plot", ["--grid-n", "-3"], "-3"),
]


@pytest.mark.parametrize("command, flags, value", BAD_FLAG_VALUES,
                         ids=[" ".join([c[0], *c[1]]) for c in BAD_FLAG_VALUES])
def test_bad_planner_and_eval_flags_exit_1_naming_the_value(tmp_path, capsys, linear_bundle,
                                                             command, flags, value):
    out = tmp_path / "out"
    if command == "gen-data":
        argv = ["gen-data", "--env", "linear", "--out", str(out), "--policy", "risk-avoiding",
                "--episodes", "2"]
    elif command == "eval":
        argv = ["eval", "--env", "linear", "--bundle", linear_bundle, "--outdir", str(out),
                "--policy", "direct", "--episodes", "2"]
    else:
        argv = ["plot", "--env", "linear", "--bundle", linear_bundle, "--out", str(out)]
    capsys.readouterr()
    assert main(argv + flags) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and f"got {value}" in err[0], err
    assert not out.exists() and not os.path.exists(str(out) + ".config.json")


def test_eval_bc_policy_needs_bundle_bc(tmp_path, capsys):
    rc, data = _gen(tmp_path)
    rc, bundle = _train(tmp_path, data)  # no --bc
    rc = main(["eval", "--env", "linear", "--bundle", bundle,
               "--outdir", str(tmp_path / "rep"), "--episodes", "1"])
    assert rc == 1
    assert "behavior-cloned" in capsys.readouterr().err


@pytest.mark.parametrize("mutate", [
    lambda d: d["arch"]["layers"][0]["w"][0].__setitem__(0, float("nan")),
    lambda d: d["arch"].__setitem__("layers", {}),
    lambda d: d["norm"].__setitem__("state_std", "wide"),
], ids=["nan-weight", "layers-object", "string-std"])
def test_eval_on_malformed_checkpoint_exits_1_with_one_line(tmp_path, capsys, mutate):
    rc, data = _gen(tmp_path)
    rc, bundle = _train(tmp_path, data)
    path = os.path.join(bundle, "invdyn.json")
    doc = _read_json(path)
    mutate(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    rc = main(["eval", "--env", "linear", "--bundle", bundle, "--outdir", str(tmp_path / "rep"),
               "--policy", "direct", "--episodes", "1"])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: checkpoint {path}: ")
