"""Minimal feed-forward network substrate.

Everything downstream (score fields, inverse dynamics, behavior cloning) is a
small fixed-depth MLP, so instead of a general autodiff graph this module
hand-derives the reverse-mode gradients for one architecture family:

    input -> [Linear -> LeakyReLU]* -> Linear

All math is float64. Hidden activations are LeakyReLU with a configurable
negative-side slope; the output layer is linear so outputs span all reals.
The LeakyReLU derivative at exactly 0 is defined as 1 (positive-side
convention) for reproducibility.

Each network's parameters live in one flat buffer, and Adam updates it with
a fixed handful of whole-buffer operations. Every net trains through one
loop, train_mlp, which passes a TrainBuffers set through the forward pass,
backward pass and Adam step, so a step at a fixed batch size writes into
arrays it already owns instead of allocating batch-sized temporaries. The
losses, backward_batch and adam_step run only in such a set: there is one
training-step path. single_blas_thread pins the loaded OpenBLAS to one
thread while nets train in parallel processes.

Rollouts run on InferenceNet snapshots instead: weights transposed once into
contiguous (fan_in, fan_out) arrays, and nets that read the same input
stacked into one pass, so the 1-100 row products of a lockstep step cost
less. forward_batch runs both, and plain inference on live params, so one
entry point serves (and traces) every network call; snapshot values match
the training layout to float tolerance. fd_grads, the finite-difference
oracle of the tests, uses forward arithmetic alone.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
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
    ``gen`` is the numpy Generator behind the stream; batched code that draws
    one value from each of many streams calls it directly.
    """

    def __init__(self, seed: int, key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.key = tuple(int(k) for k in key)
        self.gen = np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=self.key)
        )

    def substream(self, *key: int) -> "Rng":
        return Rng(self.seed, self.key + tuple(key))

    def normal(self, size=None) -> np.ndarray:
        return self.gen.standard_normal(size=size)

    def uniform(self, low: float, high: float, size=None) -> np.ndarray:
        return self.gen.uniform(low, high, size=size)

    def integers(self, n: int, size=None) -> np.ndarray:
        return self.gen.integers(0, n, size=size)

    def random(self) -> float:
        return float(self.gen.random())

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


def param_count(layer_dims) -> int:
    """Number of weights plus biases of a network with these layer dims."""
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]))


def _layer_views(flat: np.ndarray, layer_dims):
    """(weights, biases) as views into flat, laid out w0, b0, w1, b1, ..."""
    weights, biases = [], []
    off = 0
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        weights.append(flat[off:off + fan_out * fan_in].reshape(fan_out, fan_in))
        off += fan_out * fan_in
        biases.append(flat[off:off + fan_out])
        off += fan_out
    return weights, biases


@dataclass
class MlpParams:
    """Weights/biases of one feed-forward network.

    weights[i] has shape (layer_dims[i+1], layer_dims[i]); biases[i] has
    length layer_dims[i+1]. The last layer is linear, all earlier layers
    apply LeakyReLU(leaky_slope).

    Every weight and bias is a view into one contiguous float64 buffer,
    `flat`, laid out w0, b0, w1, b1, ...; the constructor copies the given
    arrays into it. Gradients and Adam moments share the layout, so an Adam
    step is a few whole-buffer operations. Change parameters by writing into
    the arrays (`p.weights[0][:] = ...`): an array put in a list slot instead
    is not part of `flat`.
    """

    layer_dims: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    leaky_slope: float
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dims = list(self.layer_dims)
        if not len(self.weights) == len(self.biases) == len(dims) - 1:
            raise NeuralCoreError(
                f"{len(self.weights)} weights and {len(self.biases)} biases for dims {dims}")
        flat = np.empty(param_count(dims))
        weights, biases = _layer_views(flat, dims)
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if np.shape(w) != weights[i].shape or np.shape(b) != biases[i].shape:
                raise NeuralCoreError(f"layer {i} shapes do not match dims {dims}")
            weights[i][...] = w
            biases[i][...] = b
        self.layer_dims, self.weights, self.biases, self.flat = dims, weights, biases, flat

    @classmethod
    def on_buffer(cls, layer_dims, leaky_slope: float, flat: np.ndarray) -> "MlpParams":
        """Params whose arrays are views into flat itself, which is not copied."""
        params = cls.__new__(cls)
        params.layer_dims = list(layer_dims)
        params.leaky_slope = leaky_slope
        params.flat = flat
        params.weights, params.biases = _layer_views(flat, params.layer_dims)
        return params

    @property
    def in_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def out_dim(self) -> int:
        return self.layer_dims[-1]

    def copy(self) -> "MlpParams":
        return MlpParams.on_buffer(self.layer_dims, self.leaky_slope, self.flat.copy())

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
    params = MlpParams.on_buffer(layer_dims, leaky_slope, np.zeros(param_count(layer_dims)))
    for w, fan_in in zip(params.weights, layer_dims[:-1]):
        bound = np.sqrt(6.0 / ((1.0 + leaky_slope**2) * fan_in))
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return params


def zero_like_params(params: MlpParams) -> MlpParams:
    return MlpParams.on_buffer(params.layer_dims, params.leaky_slope,
                               np.zeros_like(params.flat))


# ---------------------------------------------------------------------------
# Training buffers
# ---------------------------------------------------------------------------


def _window(buf: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """C-contiguous (rows, cols) view onto the start of a 1-D buffer."""
    return buf[:rows * cols].reshape(rows, cols)


class TrainBuffers:
    """Reusable arrays for the training steps of one net at one batch size.

    Holds, for batches of exactly `rows` rows of the net it was built for:
    an input matrix, the hidden activations and their sign indices, a flat
    gradient buffer, and three 1-D scratch arrays (pre-activations, backward
    ping-pong, derivative lookup, Adam temporaries) seen through C-contiguous
    (rows, width) prefix views, so every view takes `out=`. What
    forward_batch, backward_batch and the losses return from a set is valid
    until that set's next step.

    A training loop builds its set and drops it on return. Nothing caches it
    on the net, so trained parameters carry no training memory.
    """

    def __init__(self, rows: int, net: MlpParams):
        if rows < 1:
            raise NeuralCoreError(f"TrainBuffers needs rows >= 1, got {rows}")
        dims = list(net.layer_dims)
        hidden = len(dims) - 2
        self.rows, self.dims, self.slope = rows, dims, net.leaky_slope
        s0, s1, s2 = (np.empty(max(rows * max(dims[1:]), net.flat.size)) for _ in range(3))
        self.x = np.empty((rows, dims[0]))
        # hidden pre-activations are dead once their activation is written,
        # so every layer's output lands in scratch 0; the loss head (residual,
        # then output gradient) uses scratch 1
        self.pre = [_window(s0, rows, d) for d in dims[1:]]
        self.acts = [np.empty((rows, d)) for d in dims[1:-1]]
        self.signs = [np.empty((rows, d), dtype=np.intp) for d in dims[1:-1]]
        self.head = _window(s1, rows, dims[-1])
        # backward: the gradient flowing into layer i-1 alternates between
        # scratch 0 and 1 (never the array it is computed from), and the
        # derivative lookup goes to scratch 2
        self.back = {i: _window((s0, s1)[(hidden - i) % 2], rows, dims[i])
                     for i in range(1, hidden + 1)}
        self.deriv = {i: _window(s2, rows, dims[i]) for i in range(1, hidden + 1)}
        self.grads = MlpParams.on_buffer(dims, net.leaky_slope, np.empty(net.flat.size))
        self.lut = np.array([net.leaky_slope, 1.0])
        self.adam = (s0[:net.flat.size], s1[:net.flat.size])

    def fit(self, params: MlpParams, rows: int) -> "TrainBuffers":
        """This set, after checking it was built for params' net and rows rows."""
        if params.layer_dims != self.dims or params.leaky_slope != self.slope:
            raise NeuralCoreError(
                f"buffers are for dims {self.dims} and slope {self.slope}, net has "
                f"{params.layer_dims} and {params.leaky_slope}")
        if rows != self.rows:
            raise NeuralCoreError(f"buffers hold batches of {self.rows} rows, got {rows}")
        return self


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------


def _leaky(z: np.ndarray, slope: float) -> np.ndarray:
    # for slope in (0, 1) this is bitwise equal to np.where(z >= 0, z, slope * z),
    # signed zeros, infinities, NaN and subnormals included, and cheaper
    out = slope * z
    return np.maximum(z, out, out=out)


def _sign_index(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """1 where z >= 0 (signed zeros included), else 0 (NaN included), into intp out."""
    return np.greater_equal(z, 0.0, out=out)


def _leaky_deriv(signs: np.ndarray, lut: np.ndarray, out: np.ndarray) -> np.ndarray:
    # derivative at exactly 0 is 1 by convention. Looking up lut = [slope, 1]
    # at the sign index equals np.where(z >= 0.0, 1.0, slope) bitwise at a
    # fraction of its cost; the index must already be intp (take converts
    # any other type into a fresh array) and mode="clip" lets take write into
    # out directly (mode="raise" buffers it)
    return np.take(lut, signs, out=out, mode="clip")


class InferenceNet:
    """Inference snapshot of one net, or of several nets that read the same input.

    Built from MlpParams that agree in every layer dim but the output and in
    slope. Each layer's weights are transposed once into a contiguous
    (k, fan_in, fan_out) stack, (fan_in, fan_out) for a single net, so every
    product runs on operands already in the layout BLAS reads best, and k nets
    cost one product per layer. A narrower output layer is padded with zero
    columns. forward_batch on it gives (n, out_dim) rows for one net and a
    (k, n, widest out_dim) stack for several; net j's output is
    out[j, :, :out_dims[j]].

    A snapshot: writes into the params after it is built are not seen.
    Values match forward_batch on the params to float tolerance, not
    bitwise, since BLAS rounds the two layouts differently.
    """

    def __init__(self, *params: MlpParams):
        if not params:
            raise NeuralCoreError("InferenceNet needs at least one net")
        first = params[0]
        for p in params[1:]:
            if p.layer_dims[:-1] != first.layer_dims[:-1] or p.leaky_slope != first.leaky_slope:
                raise NeuralCoreError(
                    f"nets of dims {first.layer_dims} and {p.layer_dims}, slopes "
                    f"{first.leaky_slope} and {p.leaky_slope} cannot share one stack")
        self.in_dim = first.in_dim
        self.out_dims = [p.out_dim for p in params]
        self.leaky_slope = first.leaky_slope
        dims = first.layer_dims[:-1] + [max(self.out_dims)]
        self.weights, self.biases = [], []
        for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
            w = np.zeros((len(params), fan_in, fan_out))
            b = np.zeros((len(params), 1, fan_out))
            for j, p in enumerate(params):
                w[j, :, :p.layer_dims[i + 1]] = p.weights[i].T
                b[j, 0, :p.layer_dims[i + 1]] = p.biases[i]
            if len(params) == 1:
                w, b = w[0], b[0, 0]
            self.weights.append(w)
            self.biases.append(b)

    def _forward(self, x: np.ndarray) -> np.ndarray:
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = np.matmul(h, w)
            h += b
            if i < last:
                h = _leaky(h, self.leaky_slope)
        return h


def forward_batch(params: MlpParams | InferenceNet, x: np.ndarray,
                  bufs: TrainBuffers | None = None):
    """Forward pass on a (batch, in_dim) matrix; returns (output, cache).

    With a TrainBuffers set (training) the output, activations and the sign
    index of every pre-activation are written into the set, and the cache,
    the layer inputs, is what backward_batch reads in that set. Without one
    (inference on live params or on an InferenceNet snapshot) the arrays are
    fresh and the cache is None: nothing is kept for a backward pass.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.in_dim:
        raise NeuralCoreError(f"expected input shape (batch, {params.in_dim}), got {x.shape}")
    if isinstance(params, InferenceNet):
        return params._forward(x), None
    if bufs is not None:
        return _forward_into(params, x, bufs.fit(params, len(x)))
    h = x
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        # np.dot reaches the same BLAS gemm as `@` (bitwise equal) with less
        # per-call overhead, which dominates at the small batches inference uses
        h = np.dot(h, w.T)
        h += b
        if i < last:
            h = _leaky(h, params.leaky_slope)
    return h, None


def _forward_into(params: MlpParams, x: np.ndarray, v: TrainBuffers):
    inputs = [x]
    last = len(params.weights) - 1
    h = x
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = np.dot(h, w.T, out=v.pre[i])
        z += b
        if i < last:
            _sign_index(z, out=v.signs[i])
            # _leaky, written into the activation buffer
            h = np.multiply(z, params.leaky_slope, out=v.acts[i])
            np.maximum(z, h, out=h)
            inputs.append(h)
    return z, inputs


def backward_batch(params: MlpParams, inputs, out_grad: np.ndarray, bufs: TrainBuffers):
    """Reverse-mode gradients given d(loss)/d(output) rows.

    inputs (the cache) and bufs are those of the forward pass that ran in the
    set. Returns the set's grads: summed over the batch (callers fold any
    1/B into out_grad), in the params' flat layout.
    """
    g = np.asarray(out_grad, dtype=np.float64)
    if g.shape != (inputs[0].shape[0], params.out_dim):
        raise NeuralCoreError(
            f"expected out_grad shape {(inputs[0].shape[0], params.out_dim)}, got {g.shape}"
        )
    v = bufs.fit(params, len(g))
    for i in range(len(params.weights) - 1, -1, -1):
        np.dot(g.T, inputs[i], out=v.grads.weights[i])
        np.sum(g, axis=0, out=v.grads.biases[i])
        if i > 0:
            g = np.dot(g, params.weights[i], out=v.back[i])
            g *= _leaky_deriv(v.signs[i - 1], v.lut, out=v.deriv[i])
    return v.grads


def mse_loss(net: MlpParams, x: np.ndarray, target: np.ndarray, bufs: TrainBuffers):
    """Mean squared regression error of net(x) against target rows, with gradients.

    loss = mean over the batch of ||net(x) - target||^2, summed over output
    coordinates. Returns (loss, grads); the step runs in the set.
    """
    out, cache = forward_batch(net, x, bufs)
    n = len(out)
    resid = np.subtract(out, target, out=bufs.head)
    loss = float(np.sum(np.multiply(resid, resid, out=out))) / n
    resid *= 2.0
    resid /= n
    return loss, backward_batch(net, cache, resid, bufs)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class AdamState:
    """Bias-corrected Adam moments, shaped like the owning MlpParams."""

    first_moment: MlpParams
    second_moment: MlpParams
    step_count: int = 0

    @classmethod
    def for_params(cls, params: MlpParams) -> "AdamState":
        return cls(zero_like_params(params), zero_like_params(params))


def adam_step(state: AdamState, params: MlpParams, grads: MlpParams, lr: float,
              bufs: TrainBuffers) -> None:
    """One in-place bias-corrected Adam update (epsilon added after the sqrt).

    Every input is checked before anything changes, so a rejected step
    leaves params, moments and step_count as they were. The update runs on
    the flat buffers, in the per-array form's operation order, so results
    are bitwise equal to it; its temporaries are scratch of the set.
    """
    if lr <= 0.0:
        raise NeuralCoreError(f"lr must be positive, got {lr}")
    for other, what in ((grads, "gradient"), (state.first_moment, "first moment"),
                        (state.second_moment, "second moment")):
        if other.layer_dims != params.layer_dims:
            raise NeuralCoreError(
                f"{what} dims {other.layer_dims} != param dims {params.layer_dims}")
    g = grads.flat
    if not np.isfinite(g).all():
        raise NeuralCoreError("non-finite gradient entries")
    # an Adam step has no rows; check only that the set is this net's
    s1, s2 = bufs.fit(params, bufs.rows).adam
    state.step_count += 1
    t = state.step_count
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    m, v, p = state.first_moment.flat, state.second_moment.flat, params.flat
    # m = b1*m + (1-b1)*g
    m *= b1
    m += np.multiply(g, 1.0 - b1, out=s1)
    # v = b2*v + ((1-b2)*g)*g
    v *= b2
    np.multiply(g, 1.0 - b2, out=s1)
    s1 *= g
    v += s1
    # p -= lr*(m/c1) / (sqrt(v/c2) + eps)
    np.divide(v, c2, out=s1)
    np.sqrt(s1, out=s1)
    s1 += ADAM_EPSILON
    np.divide(m, c1, out=s2)
    s2 *= lr
    s2 /= s1
    p -= s2


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


@dataclass
class TrainConfig:
    iterations: int = 10000
    batch_size: int = 256
    lr: float = 1e-3
    seed: int = 0

    def validate(self) -> None:
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")


def train_mlp(layer_dims: list[int], leaky_slope: float, config: TrainConfig, n_rows: int,
              batch_loss):
    """Adam on one net over config.iterations minibatch steps; the one training loop.

    The net is initialized from Rng(config.seed). Each step draws
    config.batch_size row indices in [0, n_rows), with replacement, from that
    same stream and calls batch_loss(net, idx, rng, bufs), which returns
    (loss, grads) for those rows and may draw more from rng; an Adam step
    with config.lr follows. Returns (net, history), one (step, loss) row per
    step. Deterministic given config.seed and the data.
    """
    config.validate()
    if n_rows == 0:
        raise ValueError("cannot train on an empty dataset")
    rng = Rng(config.seed)
    net = mlp_init(layer_dims, leaky_slope, rng)
    opt = AdamState.for_params(net)
    bufs = TrainBuffers(config.batch_size, net)
    history = []
    for step in range(config.iterations):
        idx = rng.integers(n_rows, size=config.batch_size)
        loss, grads = batch_loss(net, idx, rng, bufs)
        adam_step(opt, net, grads, config.lr, bufs)
        history.append((step, loss))
    return net, history


# ---------------------------------------------------------------------------
# BLAS threads
# ---------------------------------------------------------------------------


@functools.cache
def _openblas_threads():
    """(get, set) thread-count functions of the loaded OpenBLAS, or None.

    Looked up once per process (about 0.5 ms); numpy, imported above, has
    loaded its BLAS by the time this first runs.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        # system OpenBLAS, and the 64-bit-index build numpy wheels bundle
        for prefix, suffix in (("openblas", ""), ("scipy_openblas", "64_")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                return get, put
    return None


@contextlib.contextmanager
def single_blas_thread():
    """Run the body with the loaded OpenBLAS on one thread; restore its count on exit.

    At this package's sizes a second BLAS thread gains almost nothing, and
    processes training side by side would fight over the cores with it.
    Without a loaded OpenBLAS (another BLAS, or no /proc) this does nothing.
    """
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, put = threads
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def fd_grads(net: MlpParams, x: np.ndarray, loss_of_output, h: float = 1e-6) -> MlpParams:
    """Central finite-difference gradients of a loss of net's output on input x.

    loss_of_output maps a (P, rows, out_dim) stack of outputs to their P
    losses. Moving a parameter of layer l by +-h moves one column c of that
    layer's pre-activation alone, so every layer's values are computed once,
    and chunks of moves, stacked as (P, rows, width), enter the next layer as
    column c's change times column c of its weights and run through the rest.
    Forward arithmetic alone: an oracle independent of backward_batch.
    """
    x = np.asarray(x, dtype=np.float64)
    last = len(net.weights) - 1
    inputs, preacts = [x], []
    for w, b in zip(net.weights, net.biases):
        preacts.append(np.dot(inputs[-1], w.T) + b)
        inputs.append(_leaky(preacts[-1], net.leaky_slope))
    chunk = max(1, (1 << 16) // (len(x) * max(net.layer_dims)))  # 2**16 floats per stack
    grads = zero_like_params(net)
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        theta = np.concatenate([w.ravel(), b])
        steps = np.concatenate([(theta + h) - theta, (theta - h) - theta])
        # weight (i, j) moves column i by its step times input column j; bias i by its step
        col = np.tile(np.concatenate([np.repeat(np.arange(len(b)), w.shape[1]),
                                      np.arange(len(b))]), 2)
        unit = np.tile(np.concatenate([np.tile(inputs[l].T, (len(b), 1)),
                                       np.ones((len(b), len(x)))]), (2, 1))
        # moved column c adds its change (after the activation) times row c of rows_of
        if l < last:
            base, rows_of, unmoved = preacts[l + 1], net.weights[l + 1].T, inputs[l + 1].T
        else:
            base, rows_of, unmoved = preacts[l], np.eye(len(b)), preacts[l].T
        losses = np.empty(len(steps))
        for k in range(0, len(steps), chunk):
            c = col[k:k + chunk]
            moved = preacts[l].T[c] + steps[k:k + chunk, None] * unit[k:k + chunk]
            if l < last:
                moved = _leaky(moved, net.leaky_slope)
            moved -= unmoved[c]
            z = base + moved[:, :, None] * rows_of[c][:, None, :]
            for m in range(l + 2, last + 1):
                a = _leaky(z, net.leaky_slope)
                z = np.dot(a.reshape(-1, a.shape[-1]), net.weights[m].T).reshape(len(c), len(x), -1)
                z += net.biases[m]
            losses[k:k + len(c)] = loss_of_output(z)
        g = (losses[:len(theta)] - losses[len(theta):]) / (2.0 * h)
        grads.weights[l][...] = g[:w.size].reshape(w.shape)
        grads.biases[l][...] = g[w.size:]
    return grads
