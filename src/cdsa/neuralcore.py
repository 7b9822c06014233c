"""Minimal feed-forward network substrate.

Everything downstream (score fields, inverse dynamics, behavior cloning) is a
small fixed-depth MLP, so instead of a general autodiff graph this module
hand-derives the reverse-mode gradients for one architecture family:

    input -> [Linear -> LeakyReLU]* -> Linear

All math is float64. Hidden activations are LeakyReLU with a configurable
negative-side slope; the output layer is linear so outputs span all reals.
The LeakyReLU derivative at exactly 0 is defined as 1 (positive-side
convention) for reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class NeuralCoreError(ValueError):
    """Shape mismatch, non-finite input, or invalid configuration."""


# ---------------------------------------------------------------------------
# Seeded randomness
# ---------------------------------------------------------------------------


class Rng:
    """Deterministic random stream, splittable into indexed substreams.

    Two Rng objects built from the same (seed, key) produce identical
    streams. ``substream(i, j, ...)`` derives an independent child stream;
    parallel consumers (e.g. paired rollout episodes) each get their own.
    """

    def __init__(self, seed: int, key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.key = tuple(int(k) for k in key)
        self._gen = np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=self.key)
        )

    def substream(self, *key: int) -> "Rng":
        return Rng(self.seed, self.key + tuple(key))

    def normal(self, size=None) -> np.ndarray:
        return self._gen.standard_normal(size=size)

    def uniform(self, low: float, high: float, size=None) -> np.ndarray:
        return self._gen.uniform(low, high, size=size)

    def integers(self, n: int, size=None) -> np.ndarray:
        return self._gen.integers(0, n, size=size)

    def random(self) -> float:
        return float(self._gen.random())

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed}, key={self.key})"


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of an (n, d) array.

    Each row's result is bitwise equal to np.linalg.norm of that row alone,
    whatever n is, so one-row and batched callers agree exactly.
    """
    x = np.asarray(x, dtype=np.float64)
    return np.sqrt(np.matmul(x[:, None, :], x[:, :, None]).reshape(len(x)))


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


@dataclass
class MlpParams:
    """Weights/biases of one feed-forward network.

    weights[i] has shape (layer_dims[i+1], layer_dims[i]); biases[i] has
    length layer_dims[i+1]. The last layer is linear, all earlier layers
    apply LeakyReLU(leaky_slope).
    """

    layer_dims: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    leaky_slope: float

    @property
    def in_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def out_dim(self) -> int:
        return self.layer_dims[-1]

    def copy(self) -> "MlpParams":
        return MlpParams(
            list(self.layer_dims),
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            self.leaky_slope,
        )

    def allclose(self, other: "MlpParams", rtol=0.0, atol=0.0) -> bool:
        return (
            self.layer_dims == other.layer_dims
            and all(
                np.allclose(a, b, rtol=rtol, atol=atol)
                for a, b in zip(self.weights, other.weights)
            )
            and all(
                np.allclose(a, b, rtol=rtol, atol=atol)
                for a, b in zip(self.biases, other.biases)
            )
        )


def mlp_init(layer_dims: list[int], leaky_slope: float, rng: Rng) -> MlpParams:
    """Kaiming-style uniform init adapted for LeakyReLU fan-in; zero biases.

    Weights are uniform in +-sqrt(6 / ((1 + slope^2) * fan_in)). Deterministic
    given the rng.
    """
    if len(layer_dims) < 2 or any(d < 1 for d in layer_dims):
        raise NeuralCoreError(f"layer_dims must have >= 2 positive entries, got {layer_dims}")
    if not 0.0 < leaky_slope < 1.0:
        raise NeuralCoreError(f"leaky_slope must be in (0, 1), got {leaky_slope}")
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        bound = np.sqrt(6.0 / ((1.0 + leaky_slope**2) * fan_in))
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpParams(list(layer_dims), weights, biases, leaky_slope)


def zero_like_params(params: MlpParams) -> MlpParams:
    return MlpParams(
        list(params.layer_dims),
        [np.zeros_like(w) for w in params.weights],
        [np.zeros_like(b) for b in params.biases],
        params.leaky_slope,
    )


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------


def _leaky(z: np.ndarray, slope: float) -> np.ndarray:
    # for slope in (0, 1) this is bitwise equal to np.where(z >= 0, z, slope * z),
    # signed zeros, infinities, NaN and subnormals included, and cheaper
    out = slope * z
    return np.maximum(z, out, out=out)


def _leaky_deriv(z: np.ndarray, slope: float) -> np.ndarray:
    # derivative at exactly 0 is 1 by convention
    return np.where(z >= 0.0, 1.0, slope)


def forward_batch(params: MlpParams, x: np.ndarray):
    """Forward pass on a (batch, in_dim) matrix.

    Returns (output, cache); cache holds layer inputs and hidden
    pre-activations for backward_batch.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.in_dim:
        raise NeuralCoreError(f"expected input shape (batch, {params.in_dim}), got {x.shape}")
    inputs = [x]
    preacts = []
    h = x
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        # np.dot reaches the same BLAS gemm as `@` (bitwise equal) with less
        # per-call overhead, which dominates at the small batches inference
        # and finite differences use
        z = np.dot(h, w.T)
        z += b
        if i < last:
            preacts.append(z)
            h = _leaky(z, params.leaky_slope)
            inputs.append(h)
        else:
            h = z
    return h, (inputs, preacts)


def backward_batch(params: MlpParams, cache, out_grad: np.ndarray):
    """Reverse-mode gradients given d(loss)/d(output) rows.

    Returns (param_grads, input_grad); param grads are summed over the batch
    (callers fold any 1/B into out_grad).
    """
    inputs, preacts = cache
    g = np.asarray(out_grad, dtype=np.float64)
    if g.shape != (inputs[0].shape[0], params.out_dim):
        raise NeuralCoreError(
            f"expected out_grad shape {(inputs[0].shape[0], params.out_dim)}, got {g.shape}"
        )
    grads = zero_like_params(params)
    for i in range(len(params.weights) - 1, -1, -1):
        grads.weights[i] = g.T @ inputs[i]
        grads.biases[i] = g.sum(axis=0)
        g = g @ params.weights[i]
        if i > 0:
            g = g * _leaky_deriv(preacts[i - 1], params.leaky_slope)
    return grads, g


def mlp_forward(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Evaluate the network on one input vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (params.in_dim,):
        raise NeuralCoreError(f"expected input of length {params.in_dim}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise NeuralCoreError("non-finite input")
    out, _ = forward_batch(params, x[None, :])
    return out[0]


def mlp_backward(params: MlpParams, x: np.ndarray, out_grad: np.ndarray):
    """Gradients of out_grad . output w.r.t. every parameter and the input."""
    x = np.asarray(x, dtype=np.float64)
    out_grad = np.asarray(out_grad, dtype=np.float64)
    if out_grad.shape != (params.out_dim,):
        raise NeuralCoreError(f"expected out_grad of length {params.out_dim}, got {out_grad.shape}")
    _, cache = forward_batch(params, x[None, :])
    grads, gin = backward_batch(params, cache, out_grad[None, :])
    return grads, gin[0]


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    """Bias-corrected Adam moments, shaped like the owning MlpParams."""

    first_moment: MlpParams
    second_moment: MlpParams
    step_count: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    @classmethod
    def for_params(cls, params: MlpParams, **kw) -> "AdamState":
        return cls(zero_like_params(params), zero_like_params(params), **kw)


def adam_step(state: AdamState, params: MlpParams, grads: MlpParams, lr: float) -> None:
    """One in-place bias-corrected Adam update (epsilon added after the sqrt)."""
    if lr <= 0.0:
        raise NeuralCoreError(f"lr must be positive, got {lr}")
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    for arrays in ("weights", "biases"):
        ps = getattr(params, arrays)
        gs = getattr(grads, arrays)
        ms = getattr(state.first_moment, arrays)
        vs = getattr(state.second_moment, arrays)
        for p, g, m, v in zip(ps, gs, ms, vs):
            if p.shape != g.shape:
                raise NeuralCoreError(f"gradient shape {g.shape} != param shape {p.shape}")
            if not np.all(np.isfinite(g)):
                raise NeuralCoreError("non-finite gradient entries")
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p -= lr * (m / c1) / (np.sqrt(v / c2) + state.epsilon)


def fd_grads(loss_fn, params: MlpParams, h: float = 1e-6) -> MlpParams:
    """Central finite-difference gradients of a scalar loss over every parameter.

    loss_fn takes an MlpParams and returns a float; only forward evaluations
    are used, so this is an oracle independent of backward_batch.
    """
    grads = zero_like_params(params)
    work = params.copy()
    for arrays in ("weights", "biases"):
        for arr, garr in zip(getattr(work, arrays), getattr(grads, arrays)):
            flat = arr.reshape(-1)
            gflat = garr.reshape(-1)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + h
                up = loss_fn(work)
                flat[k] = orig - h
                down = loss_fn(work)
                flat[k] = orig
                gflat[k] = (up - down) / (2.0 * h)
    return grads
