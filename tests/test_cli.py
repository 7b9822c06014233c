"""End-to-end tests for the command-line entrypoint (in-process main)."""

import json
import os
import xml.etree.ElementTree as ET

import pytest

from cdsa import checkpoint
from cdsa.cli import DEFAULTS, _merge_config, build_parser, main
from cdsa.dataset import load_dataset
from cdsa.evaluation import load_report_csv
from helpers import missed, mutations


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
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


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
    rc = main(["verify", "--config", str(cfg)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(cfg) in err and "JSON object" in err


# the flags each subcommand requires; the config is read before any of them is used
REQUIRED = {"gen-data": ["--env", "linear", "--out", "d.jsonl"],
            "train": ["--data", "d.jsonl", "--out", "b"],
            "eval": ["--env", "linear", "--bundle", "b", "--outdir", "r"],
            "plot": ["--env", "linear", "--out", "s.svg"],
            "verify": []}


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
                                "episodes": 3, "gamma": 1, "policy": "direct"}))
    cfg = _config("eval", path)
    assert cfg["k1"] == "0.5" and cfg["k2"] == "0,1" and cfg["variant"] is None
    assert cfg["episodes"] == 3 and cfg["gamma"] == 1.0 and isinstance(cfg["gamma"], float)
    path.write_text(json.dumps({"bc": True, "env": "linear", "iters": 4}))
    assert _config("train", path)["bc"] is True


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


def test_verify_all_checks_pass(capsys):
    rc = main(["verify", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "all 6 checks passed" in out
    assert out.count("ok ") == 6
