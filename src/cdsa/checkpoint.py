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
import math
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


def _field(obj, key: str, where: str = ""):
    """obj[key]; where names obj (empty: the document) when obj is no object or lacks key."""
    if not isinstance(obj, dict):
        raise CheckpointError(f"{where} is not a JSON object")
    if key not in obj:
        raise CheckpointError(f"model checkpoint missing field {key!r}"
                              + (f" in {where}" if where else ""))
    return obj[key]


def _number(v, where: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise CheckpointError(f"{where} must be a finite number, got {v!r}")
    return float(v)


def _array(v, shape: tuple, where: str) -> np.ndarray:
    """v as a float64 array of finite numbers, of this shape (None: any length)."""
    try:
        arr = np.array(v)
    except ValueError:  # ragged nesting
        arr = None
    if (arr is None or arr.dtype.kind not in "if" or arr.ndim != len(shape)
            or any(n is not None and n != m for n, m in zip(shape, arr.shape))):
        raise CheckpointError(f"{where} must be an array of shape {shape} of numbers")
    arr = arr.astype(np.float64, copy=False)
    if not np.isfinite(arr).all():
        raise CheckpointError(f"{where} holds a non-finite number")
    return arr


def _params_from_dict(d) -> MlpParams:
    dims = _field(d, "dims", "arch")
    if (not isinstance(dims, list) or len(dims) < 2
            or any(isinstance(v, bool) or not isinstance(v, int) or v < 1 for v in dims)):
        raise CheckpointError(f"arch.dims must be a list of two or more integers >= 1, "
                              f"got {dims!r}")
    slope = _number(_field(d, "slope", "arch"), "arch.slope")
    if not 0.0 < slope < 1.0:
        raise CheckpointError(f"arch.slope must be in (0, 1), got {slope}")
    layers = _field(d, "layers", "arch")
    if not isinstance(layers, list) or len(layers) != len(dims) - 1:
        raise CheckpointError(f"arch.layers must be a list of one layer per pair of "
                              f"dims {dims}")
    weights, biases = [], []
    for i, layer in enumerate(layers):
        where = f"arch.layers[{i}]"
        w = _array(_field(layer, "w", where), (None, None), f"{where}.w")
        b = _array(_field(layer, "b", where), (None,), f"{where}.b")
        if w.shape != (dims[i + 1], dims[i]) or b.shape != (dims[i + 1],):
            raise CheckpointError(f"layer {i} shapes do not match dims {dims}")
        weights.append(w)
        biases.append(b)
    # the constructor packs the layers into the params' one flat buffer
    return MlpParams(layer_dims=dims, weights=weights, biases=biases, leaky_slope=slope)


def _norm_from_dict(d) -> NormStats:
    norm = NormStats(*(_array(_field(d, key, "norm"), (None,), f"norm.{key}")
                       for key in ("state_mean", "state_std", "action_mean", "action_std")))
    try:
        norm.validate(len(norm.state_mean), len(norm.action_mean))
    except ValueError as exc:
        raise CheckpointError(str(exc)) from None
    return norm


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


# (input dim, output dim) of each model kind's net, given (state dim, action dim)
_KIND_DIMS = {
    ScoreKind.ACTION.value: lambda ds, da: (ds + da, da),
    ScoreKind.STATE.value: lambda ds, da: (ds + da, ds),
    "invdyn": lambda ds, da: (2 * ds, da),
    "bc": lambda ds, da: (ds, da),
}


def model_from_dict(d: dict):
    """The model a checkpoint dict describes, after checking every field of it."""
    if d.get("format") != MODEL_FORMAT:
        raise CheckpointError(f"not a model checkpoint (format {d.get('format')!r})")
    version = d.get("version")
    if isinstance(version, bool) or version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version!r}")
    kind = d.get("kind")
    if not isinstance(kind, str) or kind not in _KIND_DIMS:
        raise CheckpointError(f"unknown model kind {kind!r}")
    params = _params_from_dict(_field(d, "arch"))
    norm = _norm_from_dict(_field(d, "norm"))
    ds, da = len(norm.state_mean), len(norm.action_mean)
    if (params.in_dim, params.out_dim) != _KIND_DIMS[kind](ds, da):
        raise CheckpointError(f"arch.dims {params.layer_dims} do not fit a {kind} model of "
                              f"state dim {ds} and action dim {da}")
    if kind == "invdyn":
        return InvDynModel(params, norm)
    if kind == "bc":
        bounds = _field(d, "bounds")
        low = _array(_field(bounds, "low", "bounds"), (da,), "bounds.low")
        high = _array(_field(bounds, "high", "bounds"), (da,), "bounds.high")
        if not np.all(low < high):
            raise CheckpointError("bounds.low must be < bounds.high elementwise")
        return BehaviorCloned(params, norm, low, high)
    sigma = _number(_field(d, "sigma"), "sigma")
    if sigma <= 0.0:
        raise CheckpointError(f"sigma must be > 0, got {sigma}")
    skind = ScoreKind.ACTION if kind == ScoreKind.ACTION.value else ScoreKind.STATE
    return ScoreField(params, skind, sigma, norm)


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
    try:
        return model_from_dict(d)
    except CheckpointError as exc:
        raise CheckpointError(f"checkpoint {path}: {exc}") from None


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
        raise CheckpointError(f"{mpath}: not a bundle manifest "
                              f"(format {manifest.get('format')!r})")
    if manifest.get("version") != VERSION:
        raise CheckpointError(f"{mpath}: unsupported bundle version {manifest.get('version')!r}")
    files = manifest.get("files", {})
    if not isinstance(files, dict) or not all(isinstance(v, str) for v in files.values()):
        raise CheckpointError(f"{mpath}: files must be an object of file names")
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
