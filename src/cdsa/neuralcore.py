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
training-step path. Importing this module sets the loaded OpenBLAS to one
thread for the whole process (and the children it forks), and ends its
parked worker threads.

Rollouts run on InferenceNet snapshots instead: weights transposed once into
contiguous (fan_in, fan_out) arrays, nets that read the same input stacked
into one pass, the affines around the nets (input normalization, output
scaling and shift) folded into the first and last layers, and every bias
after the first layer folded into its product as one more weight row. That
row reads a constant column, exactly 1.0, which layer 0 adds to its output
and each hidden layer carries forward; so a hidden layer of 128 units runs at
width 129, which also avoids the slower power-of-two leading dimension, and
the 1-100 row products of a lockstep step are all that runs besides one bias
add and the LeakyReLUs. forward_batch runs both, and plain inference on live
params, so one entry point serves (and traces) every network call; snapshot
values match the training layout, affines applied outside, to float
tolerance (1e-12 on unit-scale bundle-shaped nets, not bitwise).
"""

from __future__ import annotations

import ctypes
import functools
from collections.abc import Callable
from dataclasses import dataclass

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


class MlpParams:
    """Weights/biases of one feed-forward network, as views into one flat buffer.

    MlpParams(layer_dims, leaky_slope, flat) is the one constructor: flat
    must be a float64 vector of param_count(layer_dims) entries, laid out
    w0, b0, w1, b1, ..., and is kept as it is, not copied. weights[i] is a
    (layer_dims[i+1], layer_dims[i]) view into it and biases[i] a view of
    length layer_dims[i+1]. The last layer is linear, all earlier layers
    apply LeakyReLU(leaky_slope).

    Gradients and Adam moments share the layout, so an Adam step is a few
    whole-buffer operations. Change parameters by writing into the arrays
    (`p.weights[0][:] = ...`): an array put in a list slot instead is not
    part of `flat`.
    """

    def __init__(self, layer_dims, leaky_slope: float, flat: np.ndarray):
        dims = list(layer_dims)
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise NeuralCoreError(f"layer_dims must have >= 2 positive entries, got {dims}")
        if not 0.0 < leaky_slope < 1.0:
            raise NeuralCoreError(f"leaky_slope must be in (0, 1), got {leaky_slope}")
        size = param_count(dims)
        if not (isinstance(flat, np.ndarray) and flat.dtype == np.float64
                and flat.shape == (size,)):
            raise NeuralCoreError(f"dims {dims} need a float64 vector of {size} entries")
        self.layer_dims, self.leaky_slope, self.flat = dims, leaky_slope, flat
        self.weights, self.biases = _layer_views(flat, dims)

    def __reduce__(self):
        # pickled as dims, slope and the flat buffer, so a copy's arrays are
        # views into its own buffer again
        return MlpParams, (self.layer_dims, self.leaky_slope, self.flat)

    @property
    def in_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def out_dim(self) -> int:
        return self.layer_dims[-1]


def mlp_init(layer_dims: list[int], leaky_slope: float, rng: Rng) -> MlpParams:
    """Kaiming-style uniform init adapted for LeakyReLU fan-in; zero biases.

    Weights are uniform in +-sqrt(6 / ((1 + slope^2) * fan_in)). Deterministic
    given the rng.
    """
    params = MlpParams(layer_dims, leaky_slope, np.zeros(param_count(layer_dims)))
    for w, fan_in in zip(params.weights, layer_dims[:-1]):
        bound = np.sqrt(6.0 / ((1.0 + leaky_slope**2) * fan_in))
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return params


def zero_like_params(params: MlpParams) -> MlpParams:
    return MlpParams(params.layer_dims, params.leaky_slope, np.zeros_like(params.flat))


@dataclass(frozen=True)
class Arch:
    """A model kind's net: hidden dims, LeakyReLU slope, io(ds, da) -> (in, out) dims."""

    kind: str
    hidden: tuple[int, ...]
    slope: float
    io: Callable[[int, int], tuple[int, int]]

    def dims(self, state_dim: int, action_dim: int) -> list[int]:
        n_in, n_out = self.io(state_dim, action_dim)
        return [n_in, *self.hidden, n_out]

    def check(self, params: MlpParams, state_dim: int, action_dim: int, error, where: str):
        """error(where: ...) unless params' (input, output) dims are this kind's."""
        if (params.in_dim, params.out_dim) != self.io(state_dim, action_dim):
            raise error(f"{where}: dims {params.layer_dims} do not fit kind {self.kind} at "
                        f"state dim {state_dim} and action dim {action_dim}")


# ---------------------------------------------------------------------------
# Training buffers
# ---------------------------------------------------------------------------


def _window(buf: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """C-contiguous (rows, cols) view onto the start of a 1-D buffer."""
    return buf[:rows * cols].reshape(rows, cols)


class TrainBuffers:
    """Reusable arrays for the training steps of one net at one batch size.

    Holds, for batches of exactly `rows` rows of the net it was built for:
    an input matrix, the hidden activations and their LeakyReLU factors, a
    flat gradient buffer, and two 1-D scratch arrays (pre-activations,
    backward ping-pong, Adam temporaries) seen through C-contiguous
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
        s0, s1 = (np.empty(max(rows * max(dims[1:]), net.flat.size)) for _ in range(2))
        self.x = np.empty((rows, dims[0]))
        # hidden pre-activations are dead once their activation is written,
        # so every layer's output lands in scratch 0; the loss head (residual,
        # then output gradient) uses scratch 1
        self.pre = [_window(s0, rows, d) for d in dims[1:]]
        self.acts = [np.empty((rows, d)) for d in dims[1:-1]]
        self.factors = [np.empty((rows, d)) for d in dims[1:-1]]
        self.head = _window(s1, rows, dims[-1])
        # backward: the gradient flowing into layer i-1 alternates between
        # scratch 0 and 1 (never the array it is computed from)
        self.back = {i: _window((s0, s1)[(hidden - i) % 2], rows, dims[i])
                     for i in range(1, hidden + 1)}
        self.grads = MlpParams(dims, net.leaky_slope, np.empty(net.flat.size))
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


def _leaky_factor(z: np.ndarray, slope: float, out: np.ndarray) -> np.ndarray:
    """LeakyReLU's factor, also its derivative, into float out: 1.0 where z >= 0 (signed
    zeros included), else slope (NaN included); z * factor is bitwise _leaky(z, slope)."""
    np.greater_equal(z, 0.0, out=out)
    return np.maximum(out, slope, out=out)


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

    Every bias but the first layer's is folded into a product. Layer 0 keeps
    its bias add and gains one more output column, with zero weights and bias
    1.0, so that column is exactly 1.0 for every finite input (each product
    with a zero weight is an exact 0, and LeakyReLU keeps 1.0). Each later
    layer reads its bias as one extra weight row against that column; hidden
    layers carry the column forward (a 1.0 weight from it) and the last layer
    drops it. So a net of L layers costs L products, one bias add and L - 1
    LeakyReLUs, and a 128-wide hidden layer runs at width 129, which also
    misses the power-of-two leading dimension some BLAS products are slower at.

    The affines that wrap the nets are folded into their weights, so they
    cost no operation of their own: in_affine = (scale, shift) makes every net
    read x * scale + shift in place of x (folded into the first layer), and
    out_affines[j] = (scale, shift) makes net j return out * scale + shift
    (folded into its last layer). Both are required; (1.0, 0.0) is the
    identity, and folding it is exact. Each scale and shift is a vector of the
    input's or that net's output width, or a number.

    A snapshot: writes into the params after it is built are not seen.
    Values match forward_batch on the params, with the affines applied
    outside, to float tolerance (within 1e-12 on bundle-shaped nets), not
    bitwise, since BLAS rounds the two layouts, and the folded products and
    biases, differently.
    """

    def __init__(self, *params: MlpParams, in_affine, out_affines):
        if not params:
            raise NeuralCoreError("InferenceNet needs at least one net")
        first = params[0]
        for p in params[1:]:
            if p.layer_dims[:-1] != first.layer_dims[:-1] or p.leaky_slope != first.leaky_slope:
                raise NeuralCoreError(
                    f"nets of dims {first.layer_dims} and {p.layer_dims}, slopes "
                    f"{first.leaky_slope} and {p.leaky_slope} cannot share one stack")
        if len(out_affines) != len(params):
            raise NeuralCoreError(f"{len(out_affines)} output affines for {len(params)} nets")
        self.in_dim = first.in_dim
        self.out_dims = [p.out_dim for p in params]
        self.leaky_slope = first.leaky_slope
        dims = first.layer_dims[:-1] + [max(self.out_dims)]
        last = len(dims) - 2
        self.weights = []
        for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
            # row fan_in holds the bias; every layer but the last has one more
            # column, whose only nonzero weight is 1.0 from the constant column
            # (the bias row), so it is the constant column of the next layer
            w = np.zeros((len(params), fan_in + 1, fan_out + (i < last)))
            if i < last:
                w[:, fan_in, fan_out] = 1.0
            for j, p in enumerate(params):
                wt, bj = p.weights[i].T, p.biases[i]
                if i == 0:
                    scale, shift = _affine(in_affine, fan_in, "input")
                    wt, bj = scale[:, None] * wt, bj + np.dot(shift, wt)
                if i == last:
                    scale, shift = _affine(out_affines[j], p.out_dim, f"net {j} output")
                    wt, bj = wt * scale, bj * scale + shift
                w[j, :fan_in, :p.layer_dims[i + 1]] = wt
                w[j, fan_in, :p.layer_dims[i + 1]] = bj
            self.weights.append(w[0] if len(params) == 1 else w)
        # the input has no constant column, so layer 0 adds its bias row
        first_layer = self.weights[0]
        self.weights[0] = np.ascontiguousarray(first_layer[..., :-1, :])
        self.bias = first_layer[..., -1:, :].copy()

    def _forward(self, x: np.ndarray) -> np.ndarray:
        h = np.matmul(x, self.weights[0])
        h += self.bias
        for w in self.weights[1:]:
            h = np.matmul(_leaky(h, self.leaky_slope), w)
        return h


def _affine(pair, width: int, what: str):
    """(scale, shift) as float vectors of the given width."""
    try:
        return tuple(np.broadcast_to(np.asarray(v, dtype=np.float64), (width,)) for v in pair)
    except ValueError:
        raise NeuralCoreError(f"the {what} affine does not fit width {width}") from None


def forward_batch(params: MlpParams | InferenceNet, x: np.ndarray,
                  bufs: TrainBuffers | None = None):
    """Forward pass on a (batch, in_dim) matrix; returns (output, cache).

    With a TrainBuffers set (training) the output, activations and the
    LeakyReLU factor of every pre-activation are written into the set, and
    the cache, the layer inputs, is what backward_batch reads with them. Without one
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
            # _leaky, written into the activation buffer; backward reuses the factor
            d = _leaky_factor(z, params.leaky_slope, out=v.factors[i])
            h = np.multiply(z, d, out=v.acts[i])
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
            g *= v.factors[i - 1]
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
        if not 0 < self.lr < np.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")


def train_mlp(arch: Arch, dataset, config: TrainConfig, batch_loss):
    """Adam on one net over config.iterations minibatch steps; the one training loop.

    The net is arch's at the dataset's dims, initialized from Rng(config.seed).
    Each step draws config.batch_size row indices in [0, len(dataset)), with
    replacement, from that same stream and calls batch_loss(net, idx, rng,
    bufs), which returns (loss, grads) for those rows and may draw more from
    rng; an Adam step with config.lr follows. Returns (net, history), one
    (step, loss) row per step. Deterministic given config.seed and the data.
    """
    config.validate()
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    rng = Rng(config.seed)
    net = mlp_init(arch.dims(dataset.state_dim, dataset.action_dim), arch.slope, rng)
    opt = AdamState.for_params(net)
    bufs = TrainBuffers(config.batch_size, net)
    history = []
    for step in range(config.iterations):
        idx = rng.integers(len(dataset), size=config.batch_size)
        loss, grads = batch_loss(net, idx, rng, bufs)
        adam_step(opt, net, grads, config.lr, bufs)
        history.append((step, loss))
    return net, history


# ---------------------------------------------------------------------------
# BLAS threads
# ---------------------------------------------------------------------------


@functools.cache
def _openblas_threads():
    """(get, set) thread-count functions and the pool shutdown of the loaded OpenBLAS, or None.

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
            shutdown = getattr(lib, "blas_thread_shutdown_", None)
            if get is not None and put is not None and shutdown is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                shutdown.restype, shutdown.argtypes = ctypes.c_int, []
                return get, put, shutdown
    return None


# This package's products are small enough that a second BLAS thread gains
# almost nothing; processes working side by side (train_cdsa, split rollout
# batches) would fight over the cores with it; and on two threads OpenBLAS
# has been seen to run a whole process's (256, 128) x (128, 128) products
# 40-70x slower (8 ms instead of 0.1 ms). So the count is set once, here, and
# forked children inherit it. Nothing else sets it: a set in a process forked
# since OpenBLAS last ran restarts its thread pool, whose new workers spin for
# a while and take a core from the work. A lowered count leaves a parked
# worker alive, so the pool is shut down too (one BLAS thread never restarts
# it). Another BLAS, or no /proc, is left as it is.
_threads = _openblas_threads()
if _threads is not None:
    if _threads[0]() != 1:
        _threads[1](1)
    _threads[2]()

