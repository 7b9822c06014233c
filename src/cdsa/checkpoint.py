"""Versioned JSON checkpoints for models and the three-model bundle directory.

Single models (either score field, the inverse dynamics model, or a behavior
cloned policy) serialize to one JSON file carrying the architecture, layer
weights, and normalization stats; floats go through json's repr-based writer,
which round-trips float64 exactly. A bundle is a directory of three model
files plus a manifest recording dims, sigma, and a digest of the shared norm
stats so mixed-provenance bundles are rejected at load time.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from .controller import CdsaModels
from .dataset import NormStats
from .envs import BehaviorCloned
from .invdyn import InvDynModel
from .neuralcore import MlpParams
from .scorefield import ScoreField, ScoreKind

MODEL_FORMAT = "cdsa-model"
BUNDLE_FORMAT = "cdsa-bundle"
VERSION = 1

BUNDLE_FILES = {"action_score": "action_score.json",
                "state_score": "state_score.json",
                "invdyn": "invdyn.json"}
BC_FILE = "bc.json"
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


def _params_from_dict(d: dict) -> MlpParams:
    dims = [int(v) for v in d["dims"]]
    weights = [np.asarray(layer["w"], dtype=np.float64) for layer in d["layers"]]
    biases = [np.asarray(layer["b"], dtype=np.float64) for layer in d["layers"]]
    if len(weights) != len(dims) - 1:
        raise CheckpointError(f"{len(weights)} layers do not match dims {dims}")
    for i, (w, b) in enumerate(zip(weights, biases)):
        if w.shape != (dims[i + 1], dims[i]) or b.shape != (dims[i + 1],):
            raise CheckpointError(f"layer {i} shapes do not match dims {dims}")
    # the constructor packs the layers into the params' one flat buffer
    return MlpParams(layer_dims=dims, weights=weights, biases=biases,
                     leaky_slope=float(d["slope"]))


def norm_digest(norm: NormStats) -> str:
    blob = json.dumps(norm.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def model_to_dict(model) -> dict:
    d: dict = {"format": MODEL_FORMAT, "version": VERSION}
    if isinstance(model, ScoreField):
        d["kind"] = model.kind.value
        d["arch"] = _params_to_dict(model.params)
        d["sigma"] = model.sigma
        d["norm"] = model.norm.to_dict()
    elif isinstance(model, InvDynModel):
        d["kind"] = "invdyn"
        d["arch"] = _params_to_dict(model.params)
        d["norm"] = model.norm.to_dict()
    elif isinstance(model, BehaviorCloned):
        d["kind"] = "bc"
        d["arch"] = _params_to_dict(model.params)
        d["norm"] = model.norm.to_dict()
        d["bounds"] = {"low": model.action_low.tolist(),
                       "high": model.action_high.tolist()}
    else:
        raise CheckpointError(f"cannot checkpoint object of type {type(model).__name__}")
    return d


def model_from_dict(d: dict):
    if d.get("format") != MODEL_FORMAT:
        raise CheckpointError(f"not a model checkpoint (format {d.get('format')!r})")
    if d.get("version") != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {d.get('version')!r}")
    kind = d.get("kind")
    try:
        params = _params_from_dict(d["arch"])
        norm = NormStats.from_dict(d["norm"])
        if kind in (ScoreKind.ACTION.value, ScoreKind.STATE.value):
            skind = ScoreKind.ACTION if kind == ScoreKind.ACTION.value else ScoreKind.STATE
            return ScoreField(params, skind, float(d["sigma"]), norm)
        if kind == "invdyn":
            return InvDynModel(params, norm)
        if kind == "bc":
            return BehaviorCloned(params, norm,
                                  np.asarray(d["bounds"]["low"], dtype=np.float64),
                                  np.asarray(d["bounds"]["high"], dtype=np.float64))
    except KeyError as exc:
        raise CheckpointError(f"model checkpoint missing field {exc}") from exc
    raise CheckpointError(f"unknown model kind {kind!r}")


def save_model(model, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            # json.dumps runs the C encoder; json.dump would stream through the Python one
            fh.write(json.dumps(model_to_dict(model)) + "\n")
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc


def load_model(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            d = json.load(fh)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    if not isinstance(d, dict):
        raise CheckpointError(f"checkpoint {path} does not hold a JSON object")
    return model_from_dict(d)


def save_bundle(models: CdsaModels, dirpath: str, bc: BehaviorCloned | None = None) -> None:
    """Write the three model files (plus optional bc policy) and the manifest."""
    models.validate()
    os.makedirs(dirpath, exist_ok=True)
    save_model(models.action_score, os.path.join(dirpath, BUNDLE_FILES["action_score"]))
    save_model(models.state_score, os.path.join(dirpath, BUNDLE_FILES["state_score"]))
    save_model(models.invdyn, os.path.join(dirpath, BUNDLE_FILES["invdyn"]))
    files = dict(BUNDLE_FILES)
    if bc is not None:
        save_model(bc, os.path.join(dirpath, BC_FILE))
        files["bc"] = BC_FILE
    manifest = {
        "format": BUNDLE_FORMAT,
        "version": VERSION,
        "state_dim": models.state_dim,
        "action_dim": models.action_dim,
        "sigma": models.action_score.sigma,
        "norm_sha256": norm_digest(models.norm),
        "files": files,
    }
    with open(os.path.join(dirpath, MANIFEST_FILE), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def _read_manifest(dirpath: str) -> dict:
    """The bundle's manifest, after checking its format and version."""
    mpath = os.path.join(dirpath, MANIFEST_FILE)
    try:
        with open(mpath, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise CheckpointError(f"cannot read bundle manifest {mpath}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"bundle manifest {mpath} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise CheckpointError(f"bundle manifest {mpath} does not hold a JSON object")
    if manifest.get("format") != BUNDLE_FORMAT:
        raise CheckpointError(f"not a bundle manifest (format {manifest.get('format')!r})")
    if manifest.get("version") != VERSION:
        raise CheckpointError(f"unsupported bundle version {manifest.get('version')!r}")
    return manifest


def load_bundle(dirpath: str) -> CdsaModels:
    """Load and cross-check a bundle directory; returns validated CdsaModels."""
    manifest = _read_manifest(dirpath)
    files = manifest.get("files", {})
    loaded = {}
    for key in BUNDLE_FILES:
        if key not in files:
            raise CheckpointError(f"bundle manifest lists no {key} file")
        loaded[key] = load_model(os.path.join(dirpath, files[key]))
    models = CdsaModels(action_score=loaded["action_score"],
                        state_score=loaded["state_score"],
                        invdyn=loaded["invdyn"],
                        norm=loaded["action_score"].norm)
    models.validate()
    if norm_digest(models.norm) != manifest.get("norm_sha256"):
        raise CheckpointError("bundle norm stats do not match the manifest digest")
    return models


def load_bundle_bc(dirpath: str) -> BehaviorCloned:
    """Load the optional behavior-cloned policy stored in a bundle."""
    fname = _read_manifest(dirpath).get("files", {}).get("bc")
    if fname is None:
        raise CheckpointError(f"bundle {dirpath} holds no behavior-cloned policy")
    policy = load_model(os.path.join(dirpath, fname))
    if not isinstance(policy, BehaviorCloned):
        raise CheckpointError(f"bundle file {fname} is not a behavior-cloned policy")
    return policy
