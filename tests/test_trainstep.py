"""Training steps against the per-array reference they replaced.

Training runs on flat parameter buffers and one fused Adam update, and every
loss, backward pass and Adam step runs in a reusable TrainBuffers set. The
reference below is the per-array form it replaced: every weight and bias its
own array, fresh arrays at every step, `@`, the np.where forms of LeakyReLU
and its derivative, and Adam one array at a time. Parameters, Adam moments
and loss histories must agree bitwise for every training loss, whether one
set serves every step or each step gets a fresh one, and for the training
loops.
"""

import os
import time
import tracemalloc

import numpy as np
import pytest

from cdsa.controller import train_cdsa
from cdsa.dataset import Dataset, NormStats, generate_dataset
from cdsa.envs import (
    BC_HIDDEN_DIMS,
    BC_LEAKY_SLOPE,
    BcTrainConfig,
    ScriptedDirect,
    bc_loss,
    builtin_spec_path,
    load_env_spec,
    train_bc_policy,
)
from cdsa.invdyn import LEAKY_SLOPE as INVDYN_SLOPE
from cdsa.invdyn import InvDynTrainConfig, invdyn_loss, model_dims, train_invdyn
from cdsa.neuralcore import (
    AdamState,
    NeuralCoreError,
    Rng,
    TrainBuffers,
    _leaky_deriv,
    _openblas_threads,
    _sign_index,
    adam_step,
    mlp_init,
    zero_like_params,
)
from cdsa.scorefield import LEAKY_SLOPE as SCORE_SLOPE
from cdsa.scorefield import (
    ScoreKind,
    ScoreTrainConfig,
    dsm_loss_reparam_given_noise,
    field_dims,
    train_score_field,
)

# ---------------------------------------------------------------------------
# Reference: per-array parameters, fresh arrays, np.where derivative
# ---------------------------------------------------------------------------


class RefNet:
    def __init__(self, dims, slope, rng):
        self.slope = slope
        self.weights, self.biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            bound = np.sqrt(6.0 / ((1.0 + slope**2) * fan_in))
            self.weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
            self.biases.append(np.zeros(fan_out))
        self.m = [np.zeros_like(a) for a in self.weights + self.biases]
        self.v = [np.zeros_like(a) for a in self.weights + self.biases]
        self.t = 0

    def forward(self, x):
        inputs, preacts, h = [x], [], x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w.T + b
            if i < last:
                preacts.append(z)
                h = np.where(z >= 0.0, z, self.slope * z)
                inputs.append(h)
            else:
                h = z
        return h, (inputs, preacts)

    def backward(self, cache, g):
        inputs, preacts = cache
        gw, gb = [None] * len(self.weights), [None] * len(self.biases)
        for i in range(len(self.weights) - 1, -1, -1):
            gw[i] = g.T @ inputs[i]
            gb[i] = g.sum(axis=0)
            g = g @ self.weights[i]
            if i > 0:
                g = g * np.where(preacts[i - 1] >= 0.0, 1.0, self.slope)
        return gw + gb

    def adam(self, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
        self.t += 1
        c1 = 1.0 - b1**self.t
        c2 = 1.0 - b2**self.t
        for p, g, m, v in zip(self.weights + self.biases, grads, self.m, self.v):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


def ref_dsm(net, states, actions, sigma, z, kind):
    if kind is ScoreKind.ACTION:
        x = np.hstack([states, actions + sigma * z])
    else:
        x = np.hstack([states + sigma * z, actions])
    out, cache = net.forward(x)
    resid = out + z / sigma
    n = len(resid)
    return 0.5 * float(np.sum(resid * resid)) / n, net.backward(cache, resid / n)


def ref_mse(net, x, target):
    out, cache = net.forward(x)
    resid = out - target
    n = len(resid)
    return float(np.sum(resid * resid)) / n, net.backward(cache, 2.0 * resid / n)


def ref_invdyn(net, states, next_states, actions):
    return ref_mse(net, np.hstack([states, next_states]), actions)


def ref_step(net, loss_fn, args, lr):
    loss, grads = loss_fn(net, *args)
    net.adam(grads, lr)
    return loss


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_state(ref: RefNet, params, opt: AdamState):
    arrays = params.weights + params.biases
    m = opt.first_moment.weights + opt.first_moment.biases
    v = opt.second_moment.weights + opt.second_moment.biases
    assert all(same_bits(a, b) for a, b in zip(ref.weights + ref.biases, arrays))
    assert all(same_bits(a, b) for a, b in zip(ref.m, m))
    assert all(same_bits(a, b) for a, b in zip(ref.v, v))
    assert opt.step_count == ref.t


# ---------------------------------------------------------------------------
# One loss at a time
# ---------------------------------------------------------------------------

STEPS = 50
BATCH = 128


def _loss_cases():
    ds, da = 2, 2
    return {
        "dsm_action": (field_dims(ScoreKind.ACTION, ds, da), SCORE_SLOPE, 3e-4,
                       lambda net, s, a, s2, z, bufs: dsm_loss_reparam_given_noise(
                           net, s, a, 0.2, z, ScoreKind.ACTION, bufs),
                       lambda net, s, a, s2, z: ref_dsm(net, s, a, 0.2, z, ScoreKind.ACTION)),
        "dsm_state": (field_dims(ScoreKind.STATE, ds, da), SCORE_SLOPE, 3e-4,
                      lambda net, s, a, s2, z, bufs: dsm_loss_reparam_given_noise(
                          net, s, a, 0.2, z, ScoreKind.STATE, bufs),
                      lambda net, s, a, s2, z: ref_dsm(net, s, a, 0.2, z, ScoreKind.STATE)),
        "invdyn": (model_dims(ds, da), INVDYN_SLOPE, 1e-3,
                   lambda net, s, a, s2, z, bufs: invdyn_loss(net, s, s2, a, bufs),
                   lambda net, s, a, s2, z: ref_invdyn(net, s, s2, a)),
        "bc": ([ds] + BC_HIDDEN_DIMS + [da], BC_LEAKY_SLOPE, 1e-3,
               lambda net, s, a, s2, z, bufs: bc_loss(net, s, a, bufs),
               lambda net, s, a, s2, z: ref_mse(net, s, a)),
    }


@pytest.mark.parametrize("case", ["dsm_action", "dsm_state", "invdyn", "bc"])
@pytest.mark.parametrize("reuse_set", [True, False])
def test_loss_and_adam_steps_bitwise_equal_reference(case, reuse_set):
    # one set for every step, as train_mlp runs, or a fresh one per step:
    # nothing a set held before may reach a result
    dims, slope, lr, loss_fn, ref_fn = _loss_cases()[case]
    net = mlp_init(dims, slope, Rng(5))
    ref = RefNet(dims, slope, Rng(5))
    opt = AdamState.for_params(net)
    bufs = TrainBuffers(BATCH, net)
    data = Rng(6)
    losses, ref_losses = [], []
    for _ in range(STEPS):
        s, a, s2, z = (data.normal(size=(BATCH, 2)) for _ in range(4))
        if not reuse_set:
            bufs = TrainBuffers(BATCH, net)
        loss, grads = loss_fn(net, s, a, s2, z, bufs)
        adam_step(opt, net, grads, lr, bufs)
        losses.append(loss)
        ref_losses.append(ref_step(ref, ref_fn, (s, a, s2, z), lr))
    assert losses == ref_losses
    assert_same_state(ref, net, opt)


# ---------------------------------------------------------------------------
# The training loops
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def transport_data():
    spec = load_env_spec(builtin_spec_path("transport"))
    return spec, generate_dataset(spec, ScriptedDirect(spec), 3, spec.max_steps, Rng(12))


def test_train_cdsa_and_bc_bitwise_equal_reference(transport_data):
    spec, data = transport_data
    ds, da = data.state_dim, data.action_dim
    norm = data.norm
    s_n = norm.normalize_state(data.states)
    s2_n = norm.normalize_state(data.next_states)
    a_n = norm.normalize_action(data.actions)
    n = len(data)
    score_cfg = ScoreTrainConfig(sigma=0.2, iterations=STEPS, batch_size=64, seed=31)
    inv_cfg = InvDynTrainConfig(iterations=STEPS + 5, batch_size=48, seed=37)

    hist: dict = {}
    models = train_cdsa(data, score_cfg, inv_cfg, hist)

    rng_g, rng_h, rng_i = Rng(31), Rng(32), Rng(37)
    ref_g = RefNet(field_dims(ScoreKind.ACTION, ds, da), SCORE_SLOPE, rng_g)
    ref_h = RefNet(field_dims(ScoreKind.STATE, ds, da), SCORE_SLOPE, rng_h)
    ref_i = RefNet(model_dims(ds, da), INVDYN_SLOPE, rng_i)
    want: dict = {"action_score": [], "state_score": [], "invdyn": []}
    for step in range(inv_cfg.iterations):
        if step < score_cfg.iterations:
            for key, ref, rng, kind, dim in (("action_score", ref_g, rng_g, ScoreKind.ACTION, da),
                                             ("state_score", ref_h, rng_h, ScoreKind.STATE, ds)):
                idx = rng.integers(n, size=64)
                z = rng.normal(size=(64, dim))
                loss, grads = ref_dsm(ref, s_n[idx], a_n[idx], 0.2, z, kind)
                ref.adam(grads, score_cfg.lr)
                want[key].append((step, loss))
        idx = rng_i.integers(n, size=48)
        want["invdyn"].append((step, ref_step(ref_i, ref_invdyn,
                                              (s_n[idx], s2_n[idx], a_n[idx]), inv_cfg.lr)))
    assert hist == want
    for ref, params in ((ref_g, models.action_score.params), (ref_h, models.state_score.params),
                        (ref_i, models.invdyn.params)):
        assert all(same_bits(a, b) for a, b in zip(ref.weights + ref.biases,
                                                   params.weights + params.biases))

    bc_cfg = BcTrainConfig(iterations=STEPS, batch_size=64, seed=41)
    policy, bc_hist = train_bc_policy(data, bc_cfg, spec.action_low, spec.action_high)
    rng = Rng(41)
    ref = RefNet([ds] + BC_HIDDEN_DIMS + [da], BC_LEAKY_SLOPE, rng)
    want_bc = []
    for step in range(bc_cfg.iterations):
        idx = rng.integers(n, size=64)
        want_bc.append((step, ref_step(ref, ref_mse, (s_n[idx], a_n[idx]), bc_cfg.lr)))
    assert bc_hist == want_bc
    assert all(same_bits(a, b) for a, b in zip(ref.weights + ref.biases,
                                               policy.params.weights + policy.params.biases))


@pytest.mark.parametrize("train", [
    lambda d: train_score_field(d, ScoreKind.ACTION, ScoreTrainConfig()),
    lambda d: train_score_field(d, ScoreKind.STATE, ScoreTrainConfig()),
    lambda d: train_invdyn(d, InvDynTrainConfig()),
    lambda d: train_bc_policy(d, BcTrainConfig(), -np.ones(2), np.ones(2)),
    lambda d: train_cdsa(d, ScoreTrainConfig(), InvDynTrainConfig()),
], ids=["action_score", "state_score", "invdyn", "bc", "cdsa"])
def test_trainers_reject_empty_dataset(train):
    empty = Dataset(np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0), np.zeros((0, 2)),
                    np.zeros(0, dtype=bool), norm=NormStats.identity(2, 2))
    with pytest.raises(ValueError, match="empty dataset"):
        train(empty)


def test_train_cdsa_checks_both_configs_before_training(transport_data, monkeypatch):
    _, data = transport_data

    def no_training(*args, **kwargs):
        raise AssertionError("a model was trained before both configs were checked")

    monkeypatch.setattr("cdsa.controller.train_score_field", no_training)
    monkeypatch.setattr("cdsa.controller.train_invdyn", no_training)
    with pytest.raises(ValueError, match="lr must be positive"):
        train_cdsa(data, ScoreTrainConfig(iterations=1), InvDynTrainConfig(lr=-1.0))


# ---------------------------------------------------------------------------
# The forked inverse-dynamics trainer
# ---------------------------------------------------------------------------


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def small_cdsa(data, hist=None):
    return train_cdsa(data, ScoreTrainConfig(sigma=0.2, iterations=4, batch_size=16, seed=3),
                      InvDynTrainConfig(iterations=4, batch_size=16, seed=5), hist)


def test_train_cdsa_trains_invdyn_in_a_child_process(transport_data, monkeypatch):
    _, data = transport_data

    def tagged(dataset, config):
        model, _ = train_invdyn(dataset, config)
        return model, [(0, float(os.getpid()))]

    monkeypatch.setattr("cdsa.controller.train_invdyn", tagged)
    hist: dict = {}
    small_cdsa(data, hist)
    assert hist["invdyn"][0][1] != os.getpid()
    assert len(hist["action_score"]) == len(hist["state_score"]) == 4
    assert_no_child_left()


def test_train_cdsa_invdyn_params_are_views_of_flat(transport_data):
    _, data = transport_data
    params = small_cdsa(data).invdyn.params
    assert params.flat.flags.writeable and params.flat.flags.c_contiguous
    assert all(np.shares_memory(a, params.flat) for a in params.weights + params.biases)
    assert_no_child_left()


class ChildFailure(Exception):
    pass


@pytest.mark.parametrize("exc", [ValueError("inverse model diverged"),
                                 ChildFailure("no data for the inverse model"),
                                 KeyboardInterrupt("stopped")],
                         ids=["ValueError", "custom", "KeyboardInterrupt"])
def test_train_cdsa_raises_child_failure_in_parent(transport_data, monkeypatch, exc):
    _, data = transport_data

    def failing(dataset, config):
        raise exc

    monkeypatch.setattr("cdsa.controller.train_invdyn", failing)
    with pytest.raises(type(exc)) as info:
        small_cdsa(data)
    assert type(info.value) is type(exc) and str(info.value) == str(exc)
    assert_no_child_left()


def test_train_cdsa_reports_a_child_exception_that_does_not_pickle(transport_data, monkeypatch):
    _, data = transport_data

    class Local(Exception):  # a local class pickles by name, which fails
        pass

    class TwoArgs(Exception):  # pickles, but cannot be rebuilt from its message
        def __init__(self, what, why):
            super().__init__(f"{what}: {why}")

    def failing(dataset, config):
        if config.seed == 5:
            raise Local("unpicklable")
        raise TwoArgs("inverse model", "unpicklable")

    monkeypatch.setattr("cdsa.controller.train_invdyn", failing)
    with pytest.raises(RuntimeError, match="Local.*unpicklable"):
        small_cdsa(data)
    with pytest.raises(RuntimeError, match="TwoArgs.*inverse model: unpicklable"):
        train_cdsa(data, ScoreTrainConfig(iterations=1, batch_size=4),
                   InvDynTrainConfig(iterations=1, batch_size=4, seed=6))
    assert_no_child_left()


def test_train_cdsa_kills_the_child_when_the_parent_fails(transport_data, monkeypatch):
    _, data = transport_data

    def slow(dataset, config):
        time.sleep(60)

    def failing(*args, **kwargs):
        raise ValueError("action field failed")

    monkeypatch.setattr("cdsa.controller.train_invdyn", slow)
    monkeypatch.setattr("cdsa.controller.train_score_field", failing)
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="action field failed"):
        small_cdsa(data)
    assert time.perf_counter() - t0 < 30.0
    assert_no_child_left()


@pytest.mark.skipif(_openblas_threads() is None, reason="no OpenBLAS loaded")
@pytest.mark.parametrize("fail", [False, True], ids=["success", "failure"])
def test_train_cdsa_restores_blas_threads(transport_data, monkeypatch, fail):
    _, data = transport_data
    get, put = _openblas_threads()
    original = get()
    seen = []
    real = train_score_field

    def recording(*args, **kwargs):
        seen.append(get())
        if fail:
            raise ValueError("score field failed")
        return real(*args, **kwargs)

    monkeypatch.setattr("cdsa.controller.train_score_field", recording)
    put(2)
    try:
        if fail:
            with pytest.raises(ValueError, match="score field failed"):
                small_cdsa(data)
        else:
            small_cdsa(data)
        assert get() == 2
    finally:
        put(original)
    assert seen == ([1] if fail else [1, 1])
    assert_no_child_left()


# ---------------------------------------------------------------------------
# Derivative lookup, allocation, buffer bounds
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("slope", [0.1, 0.2])
def test_leaky_derivative_lookup_bitwise_equals_where_form(slope):
    tiny = np.finfo(np.float64).tiny
    z = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                  tiny, -tiny, tiny / 3, -tiny / 3, 1.5, -1.5, 1e308, -1e308])
    want = np.where(z >= 0.0, 1.0, slope)
    lut = np.array([slope, 1.0])
    signs = np.empty(z.shape, dtype=np.intp)
    out = np.empty_like(z)
    got = _leaky_deriv(_sign_index(z, out=signs), lut, out=out)
    assert got is out and out.tobytes() == want.tobytes()


def test_training_step_allocates_no_batch_sized_temporaries():
    # one (256, 128) float64 activation is 256 KiB; the per-array form
    # peaked near 2.3 MiB of traced allocation over these steps
    net = mlp_init(model_dims(2, 2), INVDYN_SLOPE, Rng(0))
    opt = AdamState.for_params(net)
    bufs = TrainBuffers(256, net)
    data = Rng(1)
    s, s2, a = (data.normal(size=(256, 2)) for _ in range(3))

    def step():
        _, grads = invdyn_loss(net, s, s2, a, bufs)
        adam_step(opt, net, grads, 1e-3, bufs)

    for _ in range(3):
        step()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        for _ in range(20):
            step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base < 256 * 1024


def test_buffer_set_rejects_batches_it_cannot_hold():
    net = mlp_init([3, 8, 2], 0.1, Rng(0))
    bufs = TrainBuffers(16, net)
    for rows in (17, 8):  # a set holds batches of exactly its rows
        with pytest.raises(NeuralCoreError):
            bc_loss(net, np.zeros((rows, 3)), np.zeros((rows, 2)), bufs)
    wide = mlp_init([3, 64, 2], 0.1, Rng(1))
    with pytest.raises(NeuralCoreError):
        bc_loss(wide, np.zeros((16, 3)), np.zeros((16, 2)), bufs)
    # nor an Adam step of another net; the step changes nothing
    opt = AdamState.for_params(wide)
    before = wide.flat.copy()
    with pytest.raises(NeuralCoreError):
        adam_step(opt, wide, zero_like_params(wide), 1e-3, bufs)
    assert opt.step_count == 0 and np.array_equal(wide.flat, before)
