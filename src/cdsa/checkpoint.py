"""Versioned JSON checkpoints for models and the three-model bundle directory.

Single models (either score field, the inverse dynamics model, or a behavior
cloned policy) serialize to one JSON file carrying the architecture, layer
weights, and normalization stats; floats go through json's repr-based writer,
which round-trips float64 exactly. A bundle is a directory of three model
files plus a manifest recording dims, sigma, and a digest of the shared norm
stats. Each model is stored in `<kind>.json` and held in the CdsaModels field
of the same name, and loads only as that kind. The digest checks that the
models' norm stats are the ones the bundle was saved with; it cannot tell two
runs on one dataset apart.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from .controller import MODELS, CdsaModels, ControlError, check_slot
from .dataset import DatasetSchemaError, NormStats, read_norm
from .envs import BehaviorCloned
from .invdyn import InvDynModel
from .neuralcore import Arch, MlpParams
from .readers import Fields, read_json, write_text
from .scorefield import ScoreField, ScoreKind

MODEL_FORMAT = "cdsa-model"
BUNDLE_FORMAT = "cdsa-bundle"
VERSION = 1

# each kind's arch, from its class; a bundle holds MODELS and may hold a "bc" policy
_ARCHS = {arch.kind: arch for arch in (*(kind.arch for kind in ScoreKind), InvDynModel.arch,
                                       BehaviorCloned.arch)}
KINDS = tuple(_ARCHS)
MANIFEST_FILE = "manifest.json"


class CheckpointError(ValueError):
    """Unreadable, malformed, or inconsistent checkpoint."""


def _params_to_dict(params: MlpParams) -> dict:
    return {
        "dims": list(params.layer_dims),
        "slope": params.leaky_slope,
        "layers": [{"w": w.tolist(), "b": b.tolist()}
                   for w, b in zip(params.weights, params.biases)],
    }


def _params_from_fields(arch: Fields) -> MlpParams:
    dims = arch.array("dims", (None,), int).tolist()
    if len(dims) < 2 or min(dims) < 1:
        raise CheckpointError(f"arch.dims must be two or more integers >= 1, got {dims}")
    slope = arch.number("slope")
    if not 0.0 < slope < 1.0:
        raise CheckpointError(f"arch.slope must be in (0, 1), got {slope}")
    layers = arch.objects("layers")
    if len(layers) != len(dims) - 1:
        raise CheckpointError(f"arch.layers must be a list of one layer per pair of "
                              f"dims {dims}")
    # every layer is read at its exact shape before the buffer exists, so dims
    # too large for the layers the file holds fail here, not in an allocation
    arrays = [a for layer, fan_in, fan_out in zip(layers, dims[:-1], dims[1:])
              for a in (layer.array("w", (fan_out, fan_in)), layer.array("b", (fan_out,)))]
    return MlpParams(dims, slope, np.concatenate([a.ravel() for a in arrays]))


def norm_digest(norm: NormStats) -> str:
    blob = json.dumps(norm.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def model_file(kind: str) -> str:
    """The name of the file a bundle stores its kind model in."""
    return f"{kind}.json"


def model_to_dict(model) -> dict:
    arch = getattr(model, "arch", None)
    if not isinstance(arch, Arch):
        raise CheckpointError(f"cannot checkpoint object of type {type(model).__name__}")
    d = {"format": MODEL_FORMAT, "version": VERSION, "kind": arch.kind,
         "arch": _params_to_dict(model.params)}
    if isinstance(model, ScoreField):
        d["sigma"] = model.sigma
    d["norm"] = model.norm.to_dict()
    if isinstance(model, BehaviorCloned):
        d["bounds"] = {"low": model.action_low.tolist(), "high": model.action_high.tolist()}
    return d


def model_from_dict(d: dict, kind: str):
    """The kind model a checkpoint dict describes, after checking every field of it."""
    f = Fields(d, CheckpointError)
    f.header(MODEL_FORMAT, VERSION)
    f.string("kind", (kind,))
    params = _params_from_fields(f.object("arch"))
    try:
        norm = read_norm(f.object("norm"))
    except DatasetSchemaError as exc:
        raise CheckpointError(str(exc)) from None
    arch = _ARCHS[kind]
    arch.check(params, len(norm.state_mean), len(norm.action_mean), CheckpointError, "arch")
    if arch is InvDynModel.arch:
        return InvDynModel(params, norm)
    if arch is BehaviorCloned.arch:
        bounds = f.object("bounds")
        low, high = (bounds.array(k, norm.action_mean.shape) for k in ("low", "high"))
        if not np.all(low < high):
            raise CheckpointError("bounds.low must be < bounds.high elementwise")
        return BehaviorCloned(params, norm, low, high)
    sigma = f.number("sigma")
    if sigma <= 0.0:
        raise CheckpointError(f"sigma must be > 0, got {sigma}")
    return ScoreField(params, ScoreKind(kind), sigma, norm)


def save_model(model, path: str) -> None:
    # json.dumps runs the C encoder; json.dump would stream through the Python one
    write_text(path, [json.dumps(model_to_dict(model)), "\n"], CheckpointError,
               f"checkpoint {path}")


def load_model(path: str, kind: str):
    """The kind model stored in the file at path."""
    d = read_json(path, CheckpointError, "checkpoint")
    try:
        return model_from_dict(d, kind)
    except CheckpointError as exc:
        raise CheckpointError(f"checkpoint {path}: {exc}") from None


def save_bundle(models: CdsaModels, dirpath: str, bc: BehaviorCloned | None = None) -> None:
    """Write the three model files (plus optional bc policy) and the manifest,
    once each slot holds a model of its kind whose net fits the bundle's dims."""
    try:
        models.validate()
        if bc is not None:
            check_slot(bc, "bc", models.state_dim, models.action_dim)
    except ControlError as exc:
        raise CheckpointError(f"bundle {dirpath}: {exc}") from None
    saved = {kind: getattr(models, kind) for kind in MODELS}
    if bc is not None:
        saved["bc"] = bc
    try:
        os.makedirs(dirpath, exist_ok=True)
    except OSError as exc:
        raise CheckpointError(f"bundle directory {dirpath}: cannot make: {exc}") from exc
    for kind, model in saved.items():
        save_model(model, os.path.join(dirpath, model_file(kind)))
    manifest = {
        "format": BUNDLE_FORMAT,
        "version": VERSION,
        "state_dim": models.state_dim,
        "action_dim": models.action_dim,
        "sigma": models.action_score.sigma,
        "norm_sha256": norm_digest(models.norm),
        "files": {kind: model_file(kind) for kind in saved},
    }
    mpath = os.path.join(dirpath, MANIFEST_FILE)
    write_text(mpath, [json.dumps(manifest, indent=2), "\n"], CheckpointError,
               f"bundle manifest {mpath}")


def _read_manifest(dirpath: str) -> dict:
    """The bundle manifest's fields, each checked on its own."""
    mpath = os.path.join(dirpath, MANIFEST_FILE)
    doc = read_json(mpath, CheckpointError, "bundle manifest")
    try:
        f = Fields(doc, CheckpointError)
        f.header(BUNDLE_FORMAT, VERSION)
        files = doc.get("files")
        want = {kind: model_file(kind) for kind in KINDS}
        if files not in (want, {kind: want[kind] for kind in MODELS}):
            raise CheckpointError(f"files must be {json.dumps(want)}, with or without "
                                  f"its \"bc\" entry")
        return {"state_dim": f.integer("state_dim"), "action_dim": f.integer("action_dim"),
                "sigma": f.number("sigma"), "norm_sha256": f.string("norm_sha256"),
                "files": files}
    except CheckpointError as exc:
        raise CheckpointError(f"{mpath}: {exc}") from None


def load_bundle(dirpath: str) -> CdsaModels:
    """Load and cross-check a bundle directory; returns validated CdsaModels."""
    manifest = _read_manifest(dirpath)
    loaded = {kind: load_model(os.path.join(dirpath, model_file(kind)), kind)
              for kind in MODELS}
    models = CdsaModels(**loaded, norm=loaded["action_score"].norm)
    models.validate()
    if (manifest["state_dim"], manifest["action_dim"]) != (models.state_dim, models.action_dim):
        raise CheckpointError(f"bundle {dirpath}: models of state dim {models.state_dim} and "
                              f"action dim {models.action_dim}, but the manifest says "
                              f"{manifest['state_dim']} and {manifest['action_dim']}")
    if models.action_score.sigma != manifest["sigma"]:
        raise CheckpointError(f"bundle {dirpath}: the action field's sigma "
                              f"{models.action_score.sigma} is not the manifest's "
                              f"{manifest['sigma']}")
    if norm_digest(models.norm) != manifest["norm_sha256"]:
        raise CheckpointError(f"bundle {dirpath}: norm stats do not match the manifest digest")
    return models


def load_bundle_bc(dirpath: str) -> BehaviorCloned:
    """The bundle's optional behavior-cloned policy, once its net fits the manifest's dims."""
    manifest = _read_manifest(dirpath)
    if "bc" not in manifest["files"]:
        raise CheckpointError(f"bundle {dirpath} holds no behavior-cloned policy")
    path = os.path.join(dirpath, model_file("bc"))
    bc = load_model(path, "bc")
    bc.arch.check(bc.params, manifest["state_dim"], manifest["action_dim"], CheckpointError,
                  f"bundle {dirpath}: behavior-cloned policy {path}")
    return bc
