"""Gradient fields of the dataset density, trained by denoising score matching.

Two fields share one architecture family: an action field approximating the
gradient of log density with respect to the action, and a state field
approximating the gradient with respect to the state. Training perturbs only
the scored coordinates with Gaussian noise (scale sigma, normalized units) and
regresses the network output at the perturbed point onto -z/sigma, the
analytic score of the perturbation kernel. The expected-square objective of
that regression is identical to regressing onto -(perturbed - clean)/sigma^2;
training uses the first form, and the tests check it against the second, an
independent oracle, on identical draws to float association order.

Everything here operates in normalized coordinates; each trained field embeds
the normalization stats of its training dataset so it is self-describing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, NormStats
from .neuralcore import (
    Arch,
    MlpParams,
    TrainBuffers,
    TrainConfig,
    backward_batch,
    forward_batch,
    train_mlp,
)

DEFAULT_SIGMA = 0.1
DEFAULT_LR = 3e-4


class ScoreKind(str, enum.Enum):
    """The coordinates a field scores; a member is its checkpoint kind's name."""

    ACTION = "action_score", lambda ds, da: (ds + da, da)
    STATE = "state_score", lambda ds, da: (ds + da, ds)

    def __new__(cls, kind: str, io):
        member = str.__new__(cls, kind)
        member._value_ = kind
        member.arch = Arch(kind, (32, 128, 32), 0.1, io)
        return member


@dataclass
class ScoreField:
    params: MlpParams
    kind: ScoreKind
    sigma: float
    norm: NormStats

    @property
    def arch(self) -> Arch:
        return self.kind.arch


@dataclass
class ScoreTrainConfig(TrainConfig):
    lr: float = DEFAULT_LR
    sigma: float = DEFAULT_SIGMA

    def validate(self) -> None:
        if not 0 < self.sigma < np.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        super().validate()


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

    net, history = train_mlp(kind.arch, dataset, config, batch_loss)
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
