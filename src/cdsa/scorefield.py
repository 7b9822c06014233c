"""Gradient fields of the dataset density, trained by denoising score matching.

Two fields share one architecture family: an action field approximating the
gradient of log density with respect to the action, and a state field
approximating the gradient with respect to the state. Training perturbs only
the scored coordinates with Gaussian noise (scale sigma, normalized units) and
regresses the network output at the perturbed point onto -z/sigma, the
analytic score of the perturbation kernel. The expected-square objective of
that regression is identical to regressing onto -(perturbed - clean)/sigma^2;
both forms are implemented, the reparameterized one for training and the
analytic-target one as an independent oracle, and they must agree to float
association order on identical draws.

Everything here operates in normalized coordinates; each trained field embeds
the normalization stats of its training dataset so it is self-describing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, NormStats
from .neuralcore import (
    MlpParams,
    TrainBuffers,
    TrainConfig,
    backward_batch,
    forward_batch,
    train_mlp,
)

HIDDEN_DIMS = [32, 128, 32]
LEAKY_SLOPE = 0.1
DEFAULT_SIGMA = 0.1
DEFAULT_LR = 3e-4


class ScoreKind(enum.Enum):
    ACTION = "action_score"
    STATE = "state_score"


@dataclass
class ScoreField:
    params: MlpParams
    kind: ScoreKind
    sigma: float
    norm: NormStats

    @property
    def state_dim(self) -> int:
        return len(self.norm.state_mean)

    @property
    def action_dim(self) -> int:
        return len(self.norm.action_mean)


@dataclass
class ScoreTrainConfig(TrainConfig):
    lr: float = DEFAULT_LR
    sigma: float = DEFAULT_SIGMA

    def validate(self) -> None:
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        super().validate()


def field_dims(kind: ScoreKind, state_dim: int, action_dim: int) -> list[int]:
    out = action_dim if kind is ScoreKind.ACTION else state_dim
    return [state_dim + action_dim] + HIDDEN_DIMS + [out]


def dsm_loss_reparam_given_noise(net: MlpParams, states: np.ndarray, actions: np.ndarray,
                                 sigma: float, z: np.ndarray, kind: ScoreKind,
                                 bufs: TrainBuffers):
    """Reparameterized denoising loss for an explicit noise draw.

    loss = mean over the batch of 0.5 * ||net(x + sigma*zbar) + z/sigma||^2,
    where zbar places z on the scored coordinates. Returns (loss, grads) with
    exact reverse-mode gradients; the step runs in the training buffer set
    and grads stay valid until its next step.
    """
    states = np.asarray(states, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if kind is ScoreKind.ACTION:
        parts = [states, actions + sigma * z]
    else:
        parts = [states + sigma * z, actions]
    n = len(z)
    v = bufs.fit(net, n)
    x_tilde = np.concatenate(parts, axis=1, out=v.x)
    out, cache = forward_batch(net, x_tilde, v)
    resid = np.divide(z, sigma, out=v.head)
    resid = np.add(out, resid, out=resid)
    loss = 0.5 * float(np.sum(np.multiply(resid, resid, out=out))) / n
    resid /= n
    return loss, backward_batch(net, cache, resid, v)


def dsm_loss_reference(net: MlpParams, batch_with_noise, sigma: float,
                       kind: ScoreKind) -> float:
    """Oracle form of the denoising loss, from clean and perturbed samples.

    Regresses net(x_tilde) onto the analytic Gaussian-kernel score
    -(perturbed - clean)/sigma^2 of the scored coordinates. Never used in
    training; exists to pin the training loss down exactly.
    """
    states, actions, pert = (np.asarray(v, dtype=np.float64) for v in batch_with_noise)
    if kind is ScoreKind.ACTION:
        x_tilde = np.concatenate([states, pert], axis=1)
        target = -(pert - actions) / sigma**2
    else:
        x_tilde = np.concatenate([pert, actions], axis=1)
        target = -(pert - states) / sigma**2
    out, _ = forward_batch(net, x_tilde)
    resid = out - target
    return 0.5 * float(np.sum(resid * resid)) / len(resid)


def train_score_field(dataset: Dataset, kind: ScoreKind, config: ScoreTrainConfig):
    """Adam on the reparameterized denoising loss over normalized data.

    Returns (field, loss_history); loss_history is one (step, loss) row per
    iteration. Deterministic given config.seed: each step draws its rows,
    then its noise, from that one stream.
    """
    norm = dataset.norm
    states_n = norm.normalize_state(dataset.states)
    actions_n = norm.normalize_action(dataset.actions)
    noise_dim = dataset.action_dim if kind is ScoreKind.ACTION else dataset.state_dim

    def batch_loss(net, idx, rng, bufs):
        z = rng.normal(size=(len(idx), noise_dim))
        return dsm_loss_reparam_given_noise(
            net, states_n[idx], actions_n[idx], config.sigma, z, kind, bufs)

    net, history = train_mlp(field_dims(kind, dataset.state_dim, dataset.action_dim),
                             LEAKY_SLOPE, config, len(dataset), batch_loss)
    return ScoreField(net, kind, config.sigma, norm), history


def eval_score(field: ScoreField, s: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Score at an env-unit (s, a) pair, returned in normalized coordinates.

    s and a are single vectors, or (n, d) arrays scored row by row in one
    network pass; the result has the matching shape. Consumers that need env
    units rescale by the embedded stats themselves; the controller owns that
    mapping.
    """
    x = np.concatenate([field.norm.normalize_state(s), field.norm.normalize_action(a)],
                       axis=-1)
    out, _ = forward_batch(field.params, np.atleast_2d(x))
    return out if x.ndim == 2 else out[0]
