"""Offline dataset: five row-aligned arrays, normalization stats, file I/O.

The dataset is the empirical stand-in for the data distribution the score
fields are trained on. Row i of its states, actions, rewards, next_states
and dones arrays is transition i, in generation order. On-disk format:
JSON-lines, one metadata record first, then one record per transition (see
docs/FORMATS.md); the loader rejects any malformed line with a
`path:lineno:` prefix.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .neuralcore import Rng
from .readers import Fields, decode, read_text, write_text

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

    def normalize_action(self, a: np.ndarray) -> np.ndarray:
        return (np.asarray(a, dtype=np.float64) - self.action_mean) / self.action_std

    def denormalize_action(self, a: np.ndarray) -> np.ndarray:
        return np.asarray(a, dtype=np.float64) * self.action_std + self.action_mean

    def state_normalizer(self) -> tuple[np.ndarray, np.ndarray]:
        """(scale, shift): s * scale + shift is normalize_state(s) to float tolerance."""
        return 1.0 / self.state_std, -self.state_mean / self.state_std

    def action_normalizer(self) -> tuple[np.ndarray, np.ndarray]:
        """(scale, shift): a * scale + shift is normalize_action(a) to float tolerance."""
        return 1.0 / self.action_std, -self.action_mean / self.action_std

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


def generate_dataset(env_spec, policy, episodes: int, max_steps: int, rng: Rng) -> Dataset:
    """Roll out full episodes of `policy` in the environment, recording every
    transition. Deterministic given rng, never advanced; episode i uses rng.substream(i).

    The episodes run in lockstep (controller.run_episodes). Each stored
    action is the one executed: the policy's action clipped to the spec's
    action bounds.
    """
    from .controller import run_episodes  # local import, controller depends on dataset types

    if episodes < 1:
        raise DatasetError(f"episodes must be >= 1, got {episodes}")
    if max_steps < 1:
        raise DatasetError(f"max_steps must be >= 1, got {max_steps}")
    _, trajs = run_episodes(env_spec, policy, None, None, rng, episodes, max_steps,
                            record=episodes)
    next_states = [np.concatenate([t.states[1:], t.final_state[None, :]]) for t in trajs]
    return Dataset(np.concatenate([t.states for t in trajs]),
                   np.concatenate([t.actions for t in trajs]),
                   np.concatenate([t.rewards for t in trajs]),
                   np.concatenate(next_states),
                   np.concatenate([t.dones for t in trajs]))


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
    lines = (json.dumps({"s": s, "a": a, "r": r, "s2": s2, "done": done}) + "\n"
             for s, a, r, s2, done in rows)
    write_text(path, itertools.chain([json.dumps(meta), "\n"], lines), DatasetError,
               f"dataset {path}")


def read_norm(f: Fields, state_dim: int | None = None,
              action_dim: int | None = None) -> NormStats:
    """The norm stats object f holds: four vectors of finite numbers of the
    given dims (None: any, state and action vectors alike), every std > 0."""
    norm = NormStats(*(f.array(key, (dim,)) for key, dim in (
        ("state_mean", state_dim), ("state_std", state_dim),
        ("action_mean", action_dim), ("action_std", action_dim))))
    norm.validate(len(norm.state_mean), len(norm.action_mean))
    return norm


def _read_metadata(line: str) -> tuple[int, int, NormStats]:
    f = Fields(decode(line, DatasetSchemaError, "metadata record"), DatasetSchemaError)
    f.header(_FORMAT, _VERSION)
    state_dim, action_dim = f.integer("state_dim"), f.integer("action_dim")
    if min(state_dim, action_dim) < 1:
        raise DatasetSchemaError("state_dim and action_dim must be integers >= 1")
    return state_dim, action_dim, read_norm(f.object("norm"), state_dim, action_dim)


def load_dataset(path) -> Dataset:
    lines = read_text(path, DatasetError, str(path)).splitlines()
    if not any(line.strip() for line in lines):
        raise DatasetError(f"{path}: no records")
    try:
        state_dim, action_dim, norm = _read_metadata(lines[0])
    except DatasetError as exc:
        raise type(exc)(f"{path}:1: {exc}") from None
    records = [decode(line, DatasetSchemaError, f"{path}:{n}: record")
               for n, line in enumerate(lines[1:], start=2) if line.strip()]
    if not records:
        raise DatasetError(f"{path}: no records")
    shapes = {"s": (state_dim,), "a": (action_dim,), "r": (), "s2": (state_dim,), "done": ()}

    def read(obj: dict, key: str, rows: tuple = ()) -> np.ndarray:
        return Fields(obj, DatasetSchemaError).array(key, rows + shapes[key],
                                                     bool if key == "done" else float)

    # each field of all records as one array; only when that fails are the
    # records read one by one, to name the first bad line
    try:
        arrays = [read({key: [rec.get(key) for rec in records]}, key, (len(records),))
                  for key in shapes]
    except DatasetSchemaError:
        linenos = (n for n, line in enumerate(lines[1:], start=2) if line.strip())
        for lineno, rec in zip(linenos, records):
            try:
                for key in shapes:
                    read(rec, key)
            except DatasetSchemaError as exc:
                raise DatasetSchemaError(f"{path}:{lineno}: {exc}") from None
        raise
    return Dataset(*arrays, norm=norm)
