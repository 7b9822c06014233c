"""Tests for model checkpoints and the three-model bundle directory."""

import io
import json
import os
import re
import shutil
from dataclasses import replace

import numpy as np
import pytest

from cdsa.checkpoint import (BUNDLE_FORMAT, KINDS, MANIFEST_FILE, VERSION, CheckpointError,
                             load_bundle, load_bundle_bc, load_model, model_from_dict,
                             model_to_dict, norm_digest, save_bundle, save_model)
from cdsa.controller import CdsaModels, ControlError
from cdsa.dataset import NormStats
from cdsa.envs import BehaviorCloned
from cdsa.invdyn import InvDynModel
from cdsa.neuralcore import Rng, mlp_init
from cdsa.scorefield import ScoreField, ScoreKind
from helpers import identity_norm, missed, mutated, mutations

DS, DA = 2, 2
# the files a bundle stores its models in, each named after the model's kind
MODEL_FILES = {"action_score": "action_score.json", "state_score": "state_score.json",
               "invdyn": "invdyn.json"}


def _norm(seed=0):
    rng = Rng(seed)
    return NormStats(rng.normal(size=DS), np.abs(rng.normal(size=DS)) + 0.5,
                     rng.normal(size=DA), np.abs(rng.normal(size=DA)) + 0.5)


def _score(kind, seed=1, sigma=0.2):
    params = mlp_init(kind.arch.dims(DS, DA), 0.2, Rng(seed))
    return ScoreField(params, kind, sigma, _norm())


def _invdyn(seed=2):
    return InvDynModel(mlp_init(InvDynModel.arch.dims(DS, DA), 0.2, Rng(seed)), _norm())


def _bc(seed=3):
    params = mlp_init([DS, 16, DA], 0.2, Rng(seed))
    return BehaviorCloned(params, _norm(), -np.ones(DA), np.ones(DA))


def _bc_of_state_dim(ds):
    return BehaviorCloned(mlp_init([ds, 16, DA], 0.2, Rng(3)), identity_norm(ds, DA),
                          -np.ones(DA), np.ones(DA))


def _models():
    return CdsaModels(action_score=_score(ScoreKind.ACTION, 1),
                      state_score=_score(ScoreKind.STATE, 2),
                      invdyn=_invdyn(3), norm=_norm())


def _params_equal(a, b):
    return (a.layer_dims == b.layer_dims
            and a.leaky_slope == b.leaky_slope
            and all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
            and all(np.array_equal(x, y) for x, y in zip(a.biases, b.biases)))


def test_score_field_roundtrip_bitwise(tmp_path):
    for kind in (ScoreKind.ACTION, ScoreKind.STATE):
        model = _score(kind, seed=kind is ScoreKind.STATE)
        path = tmp_path / f"{kind.value}.json"
        save_model(model, str(path))
        back = load_model(str(path), kind.value)
        assert isinstance(back, ScoreField)
        assert back.kind == kind
        assert back.sigma == model.sigma
        assert _params_equal(back.params, model.params)
        assert back.norm.equals(model.norm)


def test_invdyn_roundtrip_bitwise(tmp_path):
    model = _invdyn()
    path = tmp_path / "invdyn.json"
    save_model(model, str(path))
    back = load_model(str(path), "invdyn")
    assert isinstance(back, InvDynModel)
    assert _params_equal(back.params, model.params)
    assert back.norm.equals(model.norm)


def test_bc_roundtrip_bitwise(tmp_path):
    model = _bc()
    path = tmp_path / "bc.json"
    save_model(model, str(path))
    back = load_model(str(path), "bc")
    assert isinstance(back, BehaviorCloned)
    assert _params_equal(back.params, model.params)
    assert back.norm.equals(model.norm)
    assert np.array_equal(back.action_low, model.action_low)
    assert np.array_equal(back.action_high, model.action_high)


def test_save_model_writes_the_streaming_encoders_bytes(tmp_path):
    # save_model encodes with json.dumps; the file must hold exactly what
    # streaming through json.dump wrote, for every model type
    bc_size = BehaviorCloned(mlp_init([DS, 128, 128, 128, DA], 0.2, Rng(4)), _norm(),
                             -np.ones(DA), np.ones(DA))
    for i, model in enumerate([_score(ScoreKind.ACTION), _score(ScoreKind.STATE), _invdyn(),
                               _bc(), bc_size]):
        path = tmp_path / f"m{i}.json"
        save_model(model, str(path))
        want = io.StringIO()
        json.dump(model_to_dict(model), want)
        want.write("\n")
        assert path.read_bytes() == want.getvalue().encode("utf-8")


def test_model_to_dict_rejects_unknown_type():
    with pytest.raises(CheckpointError, match="cannot checkpoint"):
        model_to_dict(object())


def test_model_from_dict_validation():
    good = model_to_dict(_invdyn())
    with pytest.raises(CheckpointError, match="format"):
        model_from_dict({**good, "format": "something-else"}, "invdyn")
    with pytest.raises(CheckpointError, match="version"):
        model_from_dict({**good, "version": 99}, "invdyn")
    with pytest.raises(CheckpointError, match="kind"):
        model_from_dict({**good, "kind": "mystery"}, "invdyn")
    missing = dict(good)
    del missing["norm"]
    with pytest.raises(CheckpointError, match="missing field"):
        model_from_dict(missing, "invdyn")


def test_model_from_dict_rejects_shape_mismatch():
    d = model_to_dict(_invdyn())
    d["arch"]["layers"][0]["w"] = [[0.0, 0.0]]  # wrong fan-out for dims
    with pytest.raises(CheckpointError, match=re.escape(
            "'arch.layers[0].w' must be an array of shape (128, 4)")):
        model_from_dict(d, "invdyn")


def test_load_model_rejects_dims_larger_than_its_layers(tmp_path):
    # a buffer for these dims would take terabytes; the small layers must be
    # rejected before any is allocated
    d = model_to_dict(InvDynModel(mlp_init([2 * DS, 3, 3, DA], 0.2, Rng(4)), _norm()))
    d["arch"]["dims"] = [2 * DS, 10**6, 10**6, DA]
    path = tmp_path / "invdyn.json"
    path.write_text(json.dumps(d), encoding="utf-8")
    with pytest.raises(CheckpointError, match=f"checkpoint {re.escape(str(path))}: "):
        load_model(str(path), "invdyn")


def test_model_from_dict_rejects_layer_count_mismatch():
    d = model_to_dict(_invdyn())
    del d["arch"]["layers"][-1]
    with pytest.raises(CheckpointError, match="layers"):
        model_from_dict(d, "invdyn")


def test_loaded_params_live_in_one_flat_buffer():
    params = model_from_dict(model_to_dict(_invdyn()), "invdyn").params
    params.flat[:] = 2.5
    assert all(np.all(a == 2.5) for a in params.weights + params.biases)


def test_load_model_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(CheckpointError, match="JSON"):
        load_model(str(path), "invdyn")


@pytest.mark.parametrize("text", ["[]", "3", '"model"', "null"])
def test_load_model_rejects_json_that_is_not_an_object(tmp_path, text):
    path = tmp_path / "model.json"
    path.write_text(text)
    with pytest.raises(CheckpointError, match=re.escape(f"{path} does not hold a JSON object")):
        load_model(str(path), "invdyn")


def test_load_model_missing_file(tmp_path):
    with pytest.raises(CheckpointError, match="cannot read"):
        load_model(str(tmp_path / "absent.json"), "invdyn")


def test_bundle_roundtrip_bitwise(tmp_path):
    models = _models()
    d = str(tmp_path / "bundle")
    save_bundle(models, d)
    assert set(os.listdir(d)) == set(MODEL_FILES.values()) | {"manifest.json"}
    back = load_bundle(d)
    assert _params_equal(back.action_score.params, models.action_score.params)
    assert _params_equal(back.state_score.params, models.state_score.params)
    assert _params_equal(back.invdyn.params, models.invdyn.params)
    assert back.norm.equals(models.norm)
    assert back.action_score.sigma == models.action_score.sigma


def test_bundle_bc_optional(tmp_path):
    bare = str(tmp_path / "bare")
    save_bundle(_models(), bare)
    assert "bc.json" not in os.listdir(bare)
    with pytest.raises(CheckpointError, match="behavior-cloned"):
        load_bundle_bc(bare)

    with_bc = str(tmp_path / "with_bc")
    bc = _bc()
    save_bundle(_models(), with_bc, bc=bc)
    assert set(os.listdir(with_bc)) == set(os.listdir(bare)) | {"bc.json"}
    back = load_bundle_bc(with_bc)
    assert _params_equal(back.params, bc.params)
    load_bundle(with_bc)  # bc file never blocks the model load


# (models, bc) with one model its slot's loader rejects: h as I, g as the BC
# policy, and an action field whose output does not fit the action dim
WRONG_SLOT = {
    "state-score-as-invdyn": ("invdyn", lambda: (CdsaModels(
        _score(ScoreKind.ACTION), _score(ScoreKind.STATE), _score(ScoreKind.STATE), _norm()),
        None)),
    "action-score-as-bc": ("bc", lambda: (_models(), _score(ScoreKind.ACTION))),
    "action-score-of-wrong-dims": ("action_score", lambda: (CdsaModels(
        ScoreField(mlp_init(ScoreKind.ACTION.arch.dims(DS, DA)[:-1] + [DA + 1], 0.2,
                            Rng(1)), ScoreKind.ACTION, 0.2, _norm()),
        _score(ScoreKind.STATE), _invdyn(), _norm()), None)),
}


@pytest.mark.parametrize("case", sorted(WRONG_SLOT))
def test_save_bundle_refuses_a_model_its_slot_would_not_load(tmp_path, case):
    slot, make = WRONG_SLOT[case]
    models, bc = make()
    d = tmp_path / "bundle"
    with pytest.raises(CheckpointError, match=re.escape(f"bundle {d}: slot {slot}: ")):
        save_bundle(models, str(d), bc)
    assert not d.exists()


def test_a_bundles_bc_policy_must_have_its_models_dims(tmp_path):
    d = tmp_path / "bundle"
    other = _bc_of_state_dim(DS + 1)
    with pytest.raises(CheckpointError, match=re.escape(
            f"bundle {d}: slot bc: dims [{DS + 1}, 16, {DA}] do not fit kind bc at state dim "
            f"{DS} and action dim {DA}")):
        save_bundle(_models(), str(d), bc=other)
    assert not d.exists()
    save_bundle(_models(), str(d), bc=_bc())
    path = d / "bc.json"
    save_model(other, str(path))
    with pytest.raises(CheckpointError, match=re.escape(
            f"bundle {d}: behavior-cloned policy {path}: dims [{DS + 1}, 16, {DA}] do not fit "
            f"kind bc at state dim {DS} and action dim {DA}")):
        load_bundle_bc(str(d))
    load_bundle(str(d))  # the models still load


# a model of every kind at the bundle's dims, and a BC policy of another state dim
SLOT_MODELS = {
    "action_score": lambda: _score(ScoreKind.ACTION, 1),
    "state_score": lambda: _score(ScoreKind.STATE, 2),
    "invdyn": _invdyn,
    "bc": _bc,
    "bc of state dim 3": lambda: _bc_of_state_dim(DS + 1),
}


def _loads(d) -> bool:
    try:
        load_bundle(str(d))
        load_bundle_bc(str(d))
    except (CheckpointError, ControlError):
        return False
    return True


@pytest.mark.parametrize("holds", sorted(SLOT_MODELS))
@pytest.mark.parametrize("slot", KINDS)
def test_save_bundle_writes_exactly_what_the_loaders_load(tmp_path, slot, holds):
    # only a model of the slot's own kind, at the models' dims, may be saved and loaded
    fits = holds == slot
    models, bc = _models(), _bc()
    if slot == "bc":
        bc = SLOT_MODELS[holds]()
    else:
        models = replace(models, **{slot: SLOT_MODELS[holds]()})
    # the readers' verdict, on the files save_bundle writes but left unchecked
    raw = tmp_path / "raw"
    raw.mkdir()
    for kind in KINDS:
        save_model(bc if kind == "bc" else getattr(models, kind), str(raw / f"{kind}.json"))
    (raw / MANIFEST_FILE).write_text(json.dumps({
        "format": BUNDLE_FORMAT, "version": VERSION, "state_dim": DS, "action_dim": DA,
        "sigma": 0.2, "norm_sha256": norm_digest(_norm()),
        "files": {kind: f"{kind}.json" for kind in KINDS}}))
    assert _loads(raw) is fits
    # the writer's verdict
    d = tmp_path / "bundle"
    try:
        save_bundle(models, str(d), bc)
    except CheckpointError as exc:
        assert not fits and not d.exists(), exc
    else:
        assert fits and _loads(d)


def test_bundle_manifest_digest_cross_check(tmp_path):
    d = str(tmp_path / "bundle")
    save_bundle(_models(), d)
    mpath = os.path.join(d, MANIFEST_FILE)
    with open(mpath) as fh:
        manifest = json.load(fh)
    manifest["norm_sha256"] = "0" * 64
    with open(mpath, "w") as fh:
        json.dump(manifest, fh)
    with pytest.raises(CheckpointError, match="digest"):
        load_bundle(d)


def test_bundle_manifest_validation(tmp_path):
    d = str(tmp_path / "bundle")
    save_bundle(_models(), d)
    mpath = os.path.join(d, MANIFEST_FILE)
    with open(mpath) as fh:
        manifest = json.load(fh)

    for patch, msg in (({"format": "zip"}, "format"),
                       ({"version": 7}, "version"),
                       ({"version": True}, "version"),
                       ({"files": {}}, "files must be"),
                       ({"state_dim": 3}, "state dim"),
                       ({"action_dim": "two"}, "action_dim"),
                       ({"sigma": "x"}, "sigma"),
                       ({"sigma": manifest["sigma"] * 2}, "sigma")):
        bad = {**manifest, **patch}
        with open(mpath, "w") as fh:
            json.dump(bad, fh)
        with pytest.raises(CheckpointError, match=msg):
            load_bundle(d)


# each is rejected: not a map, a map missing a model or naming another file for
# it, or a map with an unknown entry
@pytest.mark.parametrize("files", [
    ["action_score.json"], "action_score.json", {**MODEL_FILES, "invdyn": 3},
    {**MODEL_FILES, "invdyn": "./invdyn.json"}, {**MODEL_FILES, "invdyn": "state_score.json"},
    {**MODEL_FILES, "bc": "invdyn.json"}, {**MODEL_FILES, "notes": "notes.json"},
    {"action_score": "action_score.json", "state_score": "state_score.json"},
])
def test_bundle_manifest_files_must_name_files(tmp_path, files):
    d = str(tmp_path / "bundle")
    save_bundle(_models(), d)
    mpath = os.path.join(d, MANIFEST_FILE)
    with open(mpath) as fh:
        manifest = json.load(fh)
    with open(mpath, "w") as fh:
        json.dump({**manifest, "files": files}, fh)
    with pytest.raises(CheckpointError, match=re.escape(f"{mpath}: files must be")):
        load_bundle(d)


@pytest.mark.parametrize("load, optional", [
    (load_bundle, {"files.bc"}),
    (load_bundle_bc, set()),
])
def test_bundle_manifest_rejects_every_mutated_field(tmp_path, load, optional):
    d = tmp_path / "bundle"
    save_bundle(_models(), str(d), bc=_bc())
    mpath = d / MANIFEST_FILE
    doc = json.loads(mpath.read_text())
    cases = list(mutations(doc, optional))
    if load is load_bundle:  # the three models' dims and sigma are checked against it
        cases += [("state_dim 3", mutated(doc, ("state_dim",), 3)),
                  ("action_dim 1", mutated(doc, ("action_dim",), 1)),
                  ("sigma doubled", mutated(doc, ("sigma",), 2 * doc["sigma"]))]
    misses = missed(cases, mpath, lambda: load(str(d)), CheckpointError, expect=str(d))
    assert not misses, "\n".join(misses)


@pytest.mark.parametrize("load, slot, source", [
    (load_bundle, "invdyn", "state_score"),  # both 4 -> 2 nets
    (load_bundle, "action_score", "invdyn"),
    (load_bundle, "invdyn", "bc"),
    (load_bundle_bc, "bc", "action_score"),
])
def test_bundle_slot_loads_only_its_kind_naming_the_file(tmp_path, load, slot, source):
    d = tmp_path / "bundle"
    save_bundle(_models(), str(d), bc=_bc())
    path = d / f"{slot}.json"
    shutil.copyfile(d / f"{source}.json", path)
    with pytest.raises(CheckpointError, match=re.escape(
            f"checkpoint {path}: 'kind' must be one of '{slot}', got '{source}'")):
        load(str(d))


@pytest.mark.parametrize("entry", ["absolute", "../other/invdyn.json"])
def test_bundle_manifest_names_no_file_outside_the_bundle(tmp_path, entry):
    other, d = tmp_path / "other", tmp_path / "bundle"
    save_bundle(_models(), str(other))
    save_bundle(_models(), str(d))
    mpath = d / MANIFEST_FILE
    doc = json.loads(mpath.read_text())
    doc["files"]["invdyn"] = str(other / "invdyn.json") if entry == "absolute" else entry
    mpath.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match=re.escape(f"{mpath}: files must be")):
        load_bundle(str(d))


def test_load_model_takes_only_the_kind_asked_for(tmp_path):
    for kind, make in MODEL_KINDS.items():
        path = tmp_path / f"{kind}.json"
        save_model(make(), str(path))
        for other in set(MODEL_KINDS) - {kind}:
            with pytest.raises(CheckpointError, match=re.escape(
                    f"checkpoint {path}: 'kind' must be one of '{other}', got '{kind}'")):
                load_model(str(path), other)


def test_bundle_missing_manifest(tmp_path):
    with pytest.raises(CheckpointError, match="manifest"):
        load_bundle(str(tmp_path / "empty"))


def test_bundle_bc_checks_manifest_format_and_version(tmp_path):
    # the bc loader reads the manifest through the same checks as load_bundle
    d = str(tmp_path / "bundle")
    save_bundle(_models(), d, bc=_bc())
    mpath = os.path.join(d, MANIFEST_FILE)
    with open(mpath) as fh:
        manifest = json.load(fh)
    for patch, msg in (({"format": "not-a-bundle"}, "format"), ({"version": 99}, "version")):
        with open(mpath, "w") as fh:
            json.dump({**manifest, **patch}, fh)
        with pytest.raises(CheckpointError, match=msg):
            load_bundle_bc(d)


def test_bundle_bc_missing_directory(tmp_path):
    with pytest.raises(CheckpointError, match="manifest"):
        load_bundle_bc(str(tmp_path / "empty"))


@pytest.mark.parametrize("load", [load_bundle, load_bundle_bc])
@pytest.mark.parametrize("text", ["[]", "1.5", "null"])
def test_bundle_manifest_that_is_not_an_object(tmp_path, load, text):
    d = str(tmp_path / "bundle")
    save_bundle(_models(), d, bc=_bc())
    mpath = os.path.join(d, MANIFEST_FILE)
    with open(mpath, "w") as fh:
        fh.write(text)
    with pytest.raises(CheckpointError, match=re.escape(f"{mpath} does not hold a JSON object")):
        load(d)


def test_norm_digest_tracks_content():
    n1, n2 = _norm(0), _norm(9)
    assert norm_digest(n1) == norm_digest(_norm(0))
    assert norm_digest(n1) != norm_digest(n2)


# ---------------------------------------------------------------------------
# Every field of every model kind, mutated: each must fail naming the file
# ---------------------------------------------------------------------------


def _small(dims):
    return mlp_init(dims, 0.2, Rng(4))


# every kind with a net of one small hidden layer: a checkpoint may hold any hidden dims
MODEL_KINDS = {
    "action_score": lambda: ScoreField(_small([DS + DA, 3, DA]), ScoreKind.ACTION, 0.2, _norm()),
    "state_score": lambda: ScoreField(_small([DS + DA, 3, DS]), ScoreKind.STATE, 0.2, _norm()),
    "invdyn": lambda: InvDynModel(_small([2 * DS, 3, DA]), _norm()),
    "bc": lambda: BehaviorCloned(_small([DS, 3, DA]), _norm(), -np.ones(DA), np.ones(DA)),
}


def _mutations(doc):
    """The shared field mutations plus wrongly typed dims and bad bounds."""
    yield from mutations(doc)
    dims = doc["arch"]["dims"]
    yield "dims int", mutated(doc, ("arch", "dims"), dims[0])
    yield "dims strings", mutated(doc, ("arch", "dims"), [str(v) for v in dims])
    yield "layers object", mutated(doc, ("arch", "layers"), doc["arch"]["layers"][0])
    yield "slope 0", mutated(doc, ("arch", "slope"), 0.0)
    yield "slope 1.5", mutated(doc, ("arch", "slope"), 1.5)
    yield "norm std 0", mutated(doc, ("norm", "state_std", 0), 0.0)
    yield "norm dims off", mutated(doc, ("norm", "state_mean"), [0.0] * (DS + 1))
    if "sigma" in doc:
        yield "sigma 0", mutated(doc, ("sigma",), 0.0)
    if "bounds" in doc:
        low, high = doc["bounds"]["low"], doc["bounds"]["high"]
        yield "bounds low > high", mutated(doc, ("bounds",), {"low": high, "high": low})
        yield "bounds low == high", mutated(doc, ("bounds",), {"low": low, "high": low})


@pytest.mark.parametrize("kind", sorted(MODEL_KINDS))
def test_load_model_rejects_every_mutated_field_naming_the_file(tmp_path, kind):
    doc = model_to_dict(MODEL_KINDS[kind]())
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    assert _params_equal(load_model(str(path), kind).params, MODEL_KINDS[kind]().params)
    cases = list(_mutations(doc))
    assert len(cases) > 60
    misses = missed(cases, path, lambda: load_model(str(path), kind), CheckpointError)
    assert not misses, "\n".join(misses)
