"""Offline dataset: five row-aligned arrays, normalization stats, file I/O.

The dataset is the empirical stand-in for the data distribution the score
fields are trained on. Row i of its states, actions, rewards, next_states
and dones arrays is transition i, in generation order. On-disk format:
JSON-lines, one metadata record first, then one record per transition (see
docs/FORMATS.md); the loader rejects any malformed line with a
`path:lineno:` prefix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import isfinite

import numpy as np

from .neuralcore import Rng

STD_FLOOR = 1e-6


class DatasetError(ValueError):
    pass


class DatasetSchemaError(DatasetError):
    pass


@dataclass
class NormStats:
    """Per-feature mean/std for states and actions; std floored away from 0."""

    state_mean: np.ndarray
    state_std: np.ndarray
    action_mean: np.ndarray
    action_std: np.ndarray

    def normalize_state(self, s: np.ndarray) -> np.ndarray:
        return (np.asarray(s, dtype=np.float64) - self.state_mean) / self.state_std

    def denormalize_state(self, s: np.ndarray) -> np.ndarray:
        return np.asarray(s, dtype=np.float64) * self.state_std + self.state_mean

    def normalize_action(self, a: np.ndarray) -> np.ndarray:
        return (np.asarray(a, dtype=np.float64) - self.action_mean) / self.action_std

    def denormalize_action(self, a: np.ndarray) -> np.ndarray:
        return np.asarray(a, dtype=np.float64) * self.action_std + self.action_mean

    def equals(self, other: "NormStats") -> bool:
        return (
            np.array_equal(self.state_mean, other.state_mean)
            and np.array_equal(self.state_std, other.state_std)
            and np.array_equal(self.action_mean, other.action_mean)
            and np.array_equal(self.action_std, other.action_std)
        )

    def to_dict(self) -> dict:
        return {
            "state_mean": self.state_mean.tolist(),
            "state_std": self.state_std.tolist(),
            "action_mean": self.action_mean.tolist(),
            "action_std": self.action_std.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NormStats":
        return cls(
            np.asarray(d["state_mean"], dtype=np.float64),
            np.asarray(d["state_std"], dtype=np.float64),
            np.asarray(d["action_mean"], dtype=np.float64),
            np.asarray(d["action_std"], dtype=np.float64),
        )

    @classmethod
    def identity(cls, state_dim: int, action_dim: int) -> "NormStats":
        return cls(
            np.zeros(state_dim), np.ones(state_dim), np.zeros(action_dim), np.ones(action_dim)
        )

    def validate(self, state_dim: int, action_dim: int) -> None:
        """Each vector has its dim and is finite, and every std is > 0."""
        for name, dim in (("state_mean", state_dim), ("state_std", state_dim),
                          ("action_mean", action_dim), ("action_std", action_dim)):
            v = getattr(self, name)
            if np.shape(v) != (dim,) or not np.all(np.isfinite(v)):
                raise DatasetSchemaError(f"norm {name} must be {dim} finite numbers")
            if name.endswith("std") and not np.all(v > 0):
                raise DatasetSchemaError(f"norm {name} must be > 0")


class Dataset:
    """Transitions as five row-aligned arrays plus normalization stats.

    states and next_states are (n, state_dim), actions (n, action_dim) and
    rewards (n,), all finite float64; dones is (n,) bool. The constructor
    checks them once and keeps them as given, without copying. norm defaults
    to the arrays' own stats.
    """

    def __init__(self, states: np.ndarray, actions: np.ndarray, rewards: np.ndarray,
                 next_states: np.ndarray, dones: np.ndarray, norm: NormStats | None = None):
        arrays = {"states": states, "actions": actions, "rewards": rewards,
                  "next_states": next_states, "dones": dones}
        for name, arr in arrays.items():
            dtype = np.dtype(bool if name == "dones" else np.float64)
            if not isinstance(arr, np.ndarray) or arr.dtype != dtype:
                raise DatasetSchemaError(f"{name} must be a {dtype} array")
        if states.ndim != 2 or actions.ndim != 2 or min(states.shape[1:] + actions.shape[1:]) < 1:
            raise DatasetSchemaError("states and actions must be (n, dim) arrays with dim >= 1")
        n = len(states)
        shapes = {"actions": (n, actions.shape[1]), "rewards": (n,),
                  "next_states": states.shape, "dones": (n,)}
        for name, shape in shapes.items():
            if arrays[name].shape != shape:
                raise DatasetSchemaError(f"{name} has shape {arrays[name].shape}, expected {shape}")
        for name in ("states", "actions", "rewards", "next_states"):
            if not np.all(np.isfinite(arrays[name])):
                raise DatasetSchemaError(f"{name} holds a non-finite value")
        self.states = states
        self.actions = actions
        self.rewards = rewards
        self.next_states = next_states
        self.dones = dones
        self.norm = norm if norm is not None else compute_norm_stats(states, actions)
        self.norm.validate(self.state_dim, self.action_dim)

    @property
    def state_dim(self) -> int:
        return self.states.shape[1]

    @property
    def action_dim(self) -> int:
        return self.actions.shape[1]

    def __len__(self) -> int:
        return len(self.rewards)


def compute_norm_stats(states: np.ndarray, actions: np.ndarray) -> NormStats:
    """Per-feature mean and population std of states and actions, std floored."""
    if len(states) == 0:
        raise DatasetError("cannot compute normalization stats of an empty dataset")
    return NormStats(
        states.mean(axis=0),
        np.maximum(states.std(axis=0), STD_FLOOR),
        actions.mean(axis=0),
        np.maximum(actions.std(axis=0), STD_FLOOR),
    )


def generate_dataset(env_spec, policy, episodes: int, max_steps: int, rng: Rng,
                     norm: NormStats | None = None) -> Dataset:
    """Roll out full episodes of `policy` in the environment, recording every
    transition. Deterministic given the rng seed; episode i uses substream i.

    The episodes run in lockstep (controller.run_episodes). Each stored
    action is the one executed: the policy's action clipped to the spec's
    action bounds.
    """
    from .controller import run_episodes  # local import, controller depends on dataset types

    if episodes < 1:
        raise DatasetError(f"episodes must be >= 1, got {episodes}")
    if max_steps < 1:
        raise DatasetError(f"max_steps must be >= 1, got {max_steps}")
    _, trajs = run_episodes(env_spec, policy, None, None,
                            [rng.substream(ep) for ep in range(episodes)], max_steps,
                            record=episodes)
    next_states = [np.concatenate([t.states[1:], t.final_state[None, :]]) for t in trajs]
    return Dataset(np.concatenate([t.states for t in trajs]),
                   np.concatenate([t.actions for t in trajs]),
                   np.concatenate([t.rewards for t in trajs]),
                   np.concatenate(next_states),
                   np.concatenate([t.dones for t in trajs]), norm=norm)


# ---------------------------------------------------------------------------
# File I/O (JSON lines; schema in docs/FORMATS.md)
# ---------------------------------------------------------------------------

_FORMAT = "cdsa-dataset"
_VERSION = 1


def save_dataset(dataset: Dataset, path) -> None:
    meta = {
        "format": _FORMAT,
        "version": _VERSION,
        "state_dim": dataset.state_dim,
        "action_dim": dataset.action_dim,
        "norm": dataset.norm.to_dict(),
    }
    rows = zip(dataset.states.tolist(), dataset.actions.tolist(), dataset.rewards.tolist(),
               dataset.next_states.tolist(), dataset.dones.tolist())
    with open(path, "w") as f:
        f.write(json.dumps(meta) + "\n")
        f.writelines(json.dumps({"s": s, "a": a, "r": r, "s2": s2, "done": done}) + "\n"
                     for s, a, r, s2, done in rows)


# every JSON number is read as a float, so one type check covers ints too
_DECODER = json.JSONDecoder(parse_int=float)


def _parse(line: str, where: str, what: str) -> dict:
    try:
        obj = _DECODER.decode(line)
    except (json.JSONDecodeError, RecursionError) as e:
        raise DatasetError(f"{where}: malformed {what}: {e}") from e
    if type(obj) is not dict:
        raise DatasetSchemaError(f"{where}: {what} must be a JSON object")
    return obj


def _is_vector(value, dim: int) -> bool:
    """value is a list of dim finite numbers."""
    return (type(value) is list and len(value) == dim
            and all(type(x) is float and isfinite(x) for x in value))


def _whole(value) -> bool:
    return type(value) is float and value.is_integer()


def _read_metadata(line: str, where: str) -> tuple[int, int, NormStats]:
    meta = _parse(line, where, "metadata record")
    if meta.get("format") != _FORMAT:
        raise DatasetSchemaError(f"{where}: not a {_FORMAT} file")
    if not (_whole(meta.get("version")) and meta["version"] == _VERSION):
        raise DatasetSchemaError(f"{where}: version must be {_VERSION}")
    dims = [meta.get("state_dim"), meta.get("action_dim")]
    if not all(_whole(d) and d >= 1 for d in dims):
        raise DatasetSchemaError(f"{where}: state_dim and action_dim must be integers >= 1")
    state_dim, action_dim = map(int, dims)
    norm = meta.get("norm")
    norm_dims = {"state_mean": state_dim, "state_std": state_dim,
                 "action_mean": action_dim, "action_std": action_dim}
    if type(norm) is not dict or not all(_is_vector(norm.get(k), d) for k, d in norm_dims.items()):
        raise DatasetSchemaError(f"{where}: norm must hold {', '.join(norm_dims)} as lists of "
                                 f"finite numbers of the declared dims")
    if min(norm["state_std"] + norm["action_std"]) <= 0:
        raise DatasetSchemaError(f"{where}: every std in norm must be > 0")
    return state_dim, action_dim, NormStats.from_dict(norm)


def _record_problem(rec: dict, state_dim: int, action_dim: int) -> str | None:
    """What is wrong with one transition record, or None."""
    for key, dim in (("s", state_dim), ("a", action_dim), ("s2", state_dim)):
        if not _is_vector(rec.get(key), dim):
            return f"{key!r} must be a list of {dim} finite numbers"
    r = rec.get("r")
    if type(r) is not float or not isfinite(r):
        return "'r' must be a finite number"
    if type(rec.get("done")) is not bool:
        return "'done' must be true or false"
    return None


def load_dataset(path) -> Dataset:
    with open(path, encoding="utf-8") as f:
        try:
            lines = f.read().splitlines()
        except UnicodeDecodeError as e:
            raise DatasetError(f"{path}: not UTF-8 text: {e}") from e
    if not any(line.strip() for line in lines):
        raise DatasetError(f"{path}: no records")
    state_dim, action_dim, norm = _read_metadata(lines[0], f"{path}:1")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        rec = _parse(line, f"{path}:{lineno}", "record")
        problem = _record_problem(rec, state_dim, action_dim)
        if problem:
            raise DatasetSchemaError(f"{path}:{lineno}: {problem}")
        records.append(rec)
    if not records:
        raise DatasetError(f"{path}: no records")

    def column(key: str, dtype=np.float64) -> np.ndarray:
        return np.array([rec[key] for rec in records], dtype=dtype)

    return Dataset(column("s"), column("a"), column("r"), column("s2"), column("done", bool),
                   norm=norm)
