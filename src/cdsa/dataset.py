"""Offline transition storage, normalization stats, sampling, and file I/O.

The dataset is the empirical stand-in for the data distribution the score
fields are trained on. On-disk format: JSON-lines, one metadata record first,
then one record per transition (see docs/FORMATS.md).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .neuralcore import Rng

STD_FLOOR = 1e-6


class DatasetError(ValueError):
    pass


class DatasetSchemaError(DatasetError):
    pass


@dataclass
class Transition:
    s: np.ndarray
    a: np.ndarray
    r: float
    s_next: np.ndarray
    done: bool


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


class Dataset:
    """Ordered transitions plus dims and normalization stats.

    Immutable after construction; also keeps stacked arrays so training loops
    can index without rebuilding per step.
    """

    def __init__(self, transitions: list[Transition], state_dim: int, action_dim: int,
                 norm: NormStats | None = None):
        if state_dim < 1 or action_dim < 1:
            raise DatasetError("state_dim and action_dim must be positive")
        for i, t in enumerate(transitions):
            if t.s.shape != (state_dim,) or t.s_next.shape != (state_dim,):
                raise DatasetSchemaError(f"record {i}: state dim != {state_dim}")
            if t.a.shape != (action_dim,):
                raise DatasetSchemaError(f"record {i}: action dim != {action_dim}")
        self.transitions = transitions
        self.state_dim = state_dim
        self.action_dim = action_dim
        if transitions:
            self.states = np.stack([t.s for t in transitions])
            self.actions = np.stack([t.a for t in transitions])
            self.rewards = np.array([t.r for t in transitions])
            self.next_states = np.stack([t.s_next for t in transitions])
            self.dones = np.array([t.done for t in transitions])
        else:
            self.states = np.zeros((0, state_dim))
            self.actions = np.zeros((0, action_dim))
            self.rewards = np.zeros(0)
            self.next_states = np.zeros((0, state_dim))
            self.dones = np.zeros(0, dtype=bool)
        self.norm = norm if norm is not None else compute_norm_stats_arrays(
            self.states, self.actions)

    def __len__(self) -> int:
        return len(self.transitions)


def compute_norm_stats_arrays(states: np.ndarray, actions: np.ndarray) -> NormStats:
    if len(states) == 0:
        raise DatasetError("cannot compute normalization stats of an empty dataset")
    return NormStats(
        states.mean(axis=0),
        np.maximum(states.std(axis=0), STD_FLOOR),  # population std, floored
        actions.mean(axis=0),
        np.maximum(actions.std(axis=0), STD_FLOOR),
    )


def compute_norm_stats(dataset: Dataset) -> NormStats:
    """Per-feature mean and population std of states and actions."""
    return compute_norm_stats_arrays(dataset.states, dataset.actions)


def sample_batch(dataset: Dataset, batch_size: int, rng: Rng) -> list[Transition]:
    """Uniform sampling with replacement; deterministic given rng state."""
    if len(dataset) == 0:
        raise DatasetError("cannot sample from an empty dataset")
    if batch_size < 1:
        raise DatasetError(f"batch_size must be >= 1, got {batch_size}")
    idx = rng.integers(len(dataset), size=batch_size)
    return [dataset.transitions[i] for i in idx]


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
    _, trajectories = run_episodes(env_spec, policy, None, None,
                                   [rng.substream(ep) for ep in range(episodes)], max_steps,
                                   record=episodes)
    transitions: list[Transition] = []
    for traj in trajectories:
        next_states = np.concatenate([traj.states[1:], traj.final_state[None, :]])
        transitions.extend(
            Transition(s, a, float(r), s2, bool(done))
            for s, a, r, s2, done in zip(traj.states, traj.actions, traj.rewards,
                                         next_states, traj.dones))
    return Dataset(transitions, env_spec.state_dim, env_spec.action_dim, norm=norm)


# ---------------------------------------------------------------------------
# File I/O (JSON lines; schema in docs/FORMATS.md)
# ---------------------------------------------------------------------------

_FORMAT = "cdsa-dataset"
_VERSION = 1


def save_dataset(dataset: Dataset, path) -> None:
    with open(path, "w") as f:
        meta = {
            "format": _FORMAT,
            "version": _VERSION,
            "state_dim": dataset.state_dim,
            "action_dim": dataset.action_dim,
            "norm": dataset.norm.to_dict(),
        }
        f.write(json.dumps(meta) + "\n")
        for t in dataset.transitions:
            rec = {
                "s": t.s.tolist(),
                "a": t.a.tolist(),
                "r": t.r,
                "s2": t.s_next.tolist(),
                "done": t.done,
            }
            f.write(json.dumps(rec) + "\n")


def load_dataset(path) -> Dataset:
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines or not any(line.strip() for line in lines):
        raise DatasetError(f"{path}: no records")
    try:
        meta = json.loads(lines[0])
    except json.JSONDecodeError as e:
        raise DatasetError(f"{path}:1: malformed metadata record: {e}") from e
    if meta.get("format") != _FORMAT:
        raise DatasetSchemaError(f"{path}:1: not a {_FORMAT} file")
    state_dim = int(meta["state_dim"])
    action_dim = int(meta["action_dim"])
    norm = NormStats.from_dict(meta["norm"])
    transitions = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise DatasetError(f"{path}:{lineno}: malformed record: {e}") from e
        s = np.asarray(rec["s"], dtype=np.float64)
        a = np.asarray(rec["a"], dtype=np.float64)
        s2 = np.asarray(rec["s2"], dtype=np.float64)
        if s.shape != (state_dim,) or s2.shape != (state_dim,):
            raise DatasetSchemaError(f"{path}:{lineno}: state length != {state_dim}")
        if a.shape != (action_dim,):
            raise DatasetSchemaError(f"{path}:{lineno}: action length != {action_dim}")
        transitions.append(Transition(s, a, float(rec["r"]), s2, bool(rec["done"])))
    if not transitions:
        raise DatasetError(f"{path}: no records")
    return Dataset(transitions, state_dim, action_dim, norm=norm)
