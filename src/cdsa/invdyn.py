"""Inverse dynamics: recover the action that moves one state to another.

The model maps a concatenated (state, successor state) pair to the action the
behavior policy took between them, trained by plain squared-error regression
on dataset transitions. The controller queries it with imagined successors to
turn a desired state displacement into an executable action.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, NormStats
from .neuralcore import (
    Arch,
    MlpParams,
    TrainBuffers,
    TrainConfig,
    forward_batch,
    mse_loss,
    train_mlp,
)


@dataclass
class InvDynModel:
    params: MlpParams
    norm: NormStats

    arch = Arch("invdyn", (128, 128, 128), 0.2, lambda ds, da: (2 * ds, da))


InvDynTrainConfig = TrainConfig


def invdyn_loss(net: MlpParams, states: np.ndarray, next_states: np.ndarray,
                actions: np.ndarray, bufs: TrainBuffers):
    """Mean squared action-recovery error with exact gradients.

    loss = mean over the batch of ||net(s, s_next) - a||^2, summed over
    action coordinates. Zero net and a single action (0.3, -0.4) give 0.25.
    The step runs in the training buffer set.
    """
    states = np.asarray(states, dtype=np.float64)
    next_states = np.asarray(next_states, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.float64)
    x = np.concatenate([states, next_states], axis=1, out=bufs.fit(net, len(states)).x)
    return mse_loss(net, x, actions, bufs)


def train_invdyn(dataset: Dataset, config: TrainConfig):
    """Adam regression of normalized actions from normalized state pairs.

    Returns (model, loss_history). Deterministic given config.seed.
    """
    norm = dataset.norm
    states_n = norm.normalize_state(dataset.states)
    next_n = norm.normalize_state(dataset.next_states)
    actions_n = norm.normalize_action(dataset.actions)

    def batch_loss(net, idx, rng, bufs):
        return invdyn_loss(net, states_n[idx], next_n[idx], actions_n[idx], bufs)

    net, history = train_mlp(InvDynModel.arch, dataset, config, batch_loss)
    return InvDynModel(net, norm), history


def infer_action(model: InvDynModel, s: np.ndarray, s_tilde: np.ndarray) -> np.ndarray:
    """Action predicted to carry s to s_tilde, in env units both ways.

    s and s_tilde are single states, or (n, state_dim) arrays handled row by
    row in one network pass; the result has the matching shape.
    """
    x = np.concatenate([model.norm.normalize_state(s), model.norm.normalize_state(s_tilde)],
                       axis=-1)
    out, _ = forward_batch(model.params, np.atleast_2d(x))
    return model.norm.denormalize_action(out if x.ndim == 2 else out[0])
