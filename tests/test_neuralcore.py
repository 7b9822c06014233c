import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

import cdsa

from cdsa.envs import BehaviorCloned
from cdsa.invdyn import InvDynModel
from cdsa.neuralcore import (
    AdamState,
    InferenceNet,
    MlpParams,
    NeuralCoreError,
    Rng,
    TrainBuffers,
    _leaky,
    adam_step,
    backward_batch,
    forward_batch,
    mlp_init,
    param_count,
    row_norms,
    zero_like_params,
)
from cdsa.scorefield import ScoreKind
from helpers import fd_grads, needs_openblas, same_params, squared_error


def test_kind_dims_table():
    # layer dims at (state dim, action dim), then each kind's slope
    # (the score and invdyn dims are checked in their own modules' tests)
    assert BehaviorCloned.arch.dims(3, 1) == [3, 128, 128, 128, 1]
    archs = (ScoreKind.ACTION.arch, ScoreKind.STATE.arch, InvDynModel.arch, BehaviorCloned.arch)
    assert [a.kind for a in archs] == ["action_score", "state_score", "invdyn", "bc"]
    assert [a.slope for a in archs] == [0.1, 0.1, 0.2, 0.2]


def test_rng_is_deterministic():
    a = Rng(42).normal(size=5)
    b = Rng(42).normal(size=5)
    assert np.array_equal(a, b)


def test_rng_substreams_differ_and_are_stable():
    base = Rng(7)
    s1 = base.substream(1).normal(size=4)
    s2 = base.substream(2).normal(size=4)
    assert not np.array_equal(s1, s2)
    # substreams are addressed, not consumed: re-derivation gives same stream
    again = Rng(7).substream(1).normal(size=4)
    assert np.array_equal(s1, again)


def test_rng_uniform_bounds():
    r = Rng(3)
    u = r.uniform(-2.0, 5.0, size=1000)
    assert np.all(u >= -2.0) and np.all(u < 5.0)


def test_init_deterministic():
    a = mlp_init([4, 16, 2], 0.1, Rng(0))
    b = mlp_init([4, 16, 2], 0.1, Rng(0))
    assert same_params(a, b)


def test_init_bounds_and_zero_biases():
    # Kaiming-uniform for LeakyReLU: |w| <= sqrt(6 / ((1 + slope^2) * fan_in))
    slope = 0.2
    p = mlp_init([10, 32, 5], slope, Rng(1))
    for w, fan_in in zip(p.weights, [10, 32]):
        bound = np.sqrt(6.0 / ((1.0 + slope**2) * fan_in))
        assert np.all(np.abs(w) <= bound)
    for b in p.biases:
        assert np.all(b == 0.0)


def test_forward_shape_validation():
    p = mlp_init([3, 4, 2], 0.1, Rng(2))
    with pytest.raises(NeuralCoreError):
        forward_batch(p, np.zeros((5, 7)))
    with pytest.raises(NeuralCoreError):
        forward_batch(p, np.zeros((1, 7)))
    with pytest.raises(NeuralCoreError):
        forward_batch(p, np.zeros(3))  # one row must still be a (1, in_dim) matrix


def test_leaky_relu_slope_applied():
    # one hidden unit wired as identity: f(x) = leaky(x) for the hidden layer
    slope = 0.25
    p = MlpParams([1, 1, 1], slope, np.array([1.0, 0.0, 1.0, 0.0]))  # w0, b0, w1, b1
    out, _ = forward_batch(p, np.array([[2.0], [-2.0]]))
    assert out[0, 0] == 2.0
    assert out[1, 0] == -2.0 * slope


@pytest.mark.parametrize("slope", [0.1, 0.2])
def test_leaky_bitwise_equals_where_form(slope):
    tiny = np.finfo(np.float64).tiny
    z = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                  tiny, -tiny, tiny / 3, -tiny / 3, 1.5, -1.5, 1e308, -1e308])
    want = np.where(z >= 0.0, z, slope * z)
    assert _leaky(z, slope).tobytes() == want.tobytes()


def test_row_norms_match_linalg_norm_per_row():
    x = Rng(4).normal(size=(257, 2)) * np.geomspace(1e-3, 1e3, 257)[:, None]
    want = np.array([np.linalg.norm(row) for row in x])
    assert np.array_equal(row_norms(x), want)
    assert np.array_equal(row_norms(x[:1]), want[:1])
    assert row_norms(np.zeros((0, 2))).shape == (0,)


def _quadratic_loss(p: MlpParams, x: np.ndarray, y: np.ndarray, bufs: TrainBuffers):
    out, cache = forward_batch(p, x, bufs)
    resid = out - y
    loss = 0.5 * float(np.sum(resid**2)) / len(x)
    return loss, backward_batch(p, cache, resid / len(x), bufs)


def test_backward_matches_finite_differences():
    rng = Rng(11)
    for slope in (0.1, 0.2):
        p = mlp_init([3, 8, 6, 2], slope, rng)
        x = np.asarray(rng.normal(size=(16, 3)))
        y = np.asarray(rng.normal(size=(16, 2)))
        _, grads = _quadratic_loss(p, x, y, TrainBuffers(16, p))
        # _quadratic_loss's value from the net's output alone: the fd target
        fd = fd_grads(p, x, squared_error(y, 0.5))
        for g, f in zip(grads.weights + grads.biases, fd.weights + fd.biases):
            denom = np.maximum(np.maximum(np.abs(g), np.abs(f)), 1e-4)
            assert np.max(np.abs(g - f) / denom) < 1e-6


def test_forward_without_a_set_keeps_no_cache():
    # inference on live params: the output alone, equal to the training path's
    p = mlp_init([3, 8, 6, 2], 0.2, Rng(12))
    x = np.asarray(Rng(13).normal(size=(5, 3)))
    out, cache = forward_batch(p, x)
    assert cache is None
    assert out.tobytes() == forward_batch(p, x, TrainBuffers(5, p))[0].tobytes()


def test_adam_first_step_exact():
    # single weight, grad g: bias-corrected step is -lr * g / (|g| + eps)
    p = MlpParams([1, 1], 0.1, np.array([1.0, 0.0]))
    g = MlpParams([1, 1], 0.1, np.array([0.5, 0.0]))
    st = AdamState(zero_like_params(p), zero_like_params(p))
    adam_step(st, p, g, 0.1, TrainBuffers(1, p))
    expected = 1.0 - 0.1 * 0.5 / (0.5 + 1e-8)
    assert p.weights[0][0, 0] == expected
    assert st.step_count == 1


def test_adam_deterministic_sequence():
    def run():
        p = mlp_init([2, 4, 1], 0.1, Rng(21))
        st = AdamState(zero_like_params(p), zero_like_params(p))
        bufs = TrainBuffers(8, p)
        x = np.asarray(Rng(22).normal(size=(8, 2)))
        y = np.asarray(Rng(23).normal(size=(8, 1)))
        for _ in range(25):
            _, grads = _quadratic_loss(p, x, y, bufs)
            adam_step(st, p, grads, 1e-2, bufs)
        return p

    assert same_params(run(), run())


def test_adam_descends_on_learnable_target():
    rng = Rng(31)
    p = mlp_init([2, 8, 1], 0.1, rng)
    x = np.asarray(rng.normal(size=(64, 2)))
    y = (x[:, :1] - 2.0 * x[:, 1:])  # deterministic target, fully learnable
    st = AdamState(zero_like_params(p), zero_like_params(p))
    bufs = TrainBuffers(64, p)
    first, _ = _quadratic_loss(p, x, y, bufs)
    for _ in range(800):
        _, grads = _quadratic_loss(p, x, y, bufs)
        adam_step(st, p, grads, 1e-2, bufs)
    last, _ = _quadratic_loss(p, x, y, bufs)
    assert last < 0.05 * first


def test_zero_like_params_shapes():
    p = mlp_init([3, 7, 2], 0.1, Rng(41))
    z = zero_like_params(p)
    assert z.layer_dims == p.layer_dims
    assert all(np.all(w == 0) and w.shape == pw.shape
               for w, pw in zip(z.weights, p.weights))


@pytest.mark.parametrize("bad", ["nan_last_bias", "inf_first_weight", "dims"])
def test_rejected_adam_step_changes_nothing(bad):
    p = mlp_init([3, 6, 2], 0.1, Rng(51))
    st = AdamState.for_params(p)
    bufs = TrainBuffers(8, p)
    x = np.asarray(Rng(52).normal(size=(8, 3)))
    y = np.asarray(Rng(53).normal(size=(8, 2)))
    for _ in range(3):
        _, grads = _quadratic_loss(p, x, y, bufs)
        adam_step(st, p, grads, 1e-2, bufs)
    _, grads = _quadratic_loss(p, x, y, bufs)
    if bad == "nan_last_bias":
        grads.biases[-1][-1] = np.nan
    elif bad == "inf_first_weight":
        grads.weights[0][0, 0] = np.inf
    else:
        grads = zero_like_params(mlp_init([3, 5, 2], 0.1, Rng(54)))
    before = [a.copy() for a in (p.flat, st.first_moment.flat, st.second_moment.flat)]
    with pytest.raises(NeuralCoreError):
        adam_step(st, p, grads, 1e-2, bufs)
    after = (p.flat, st.first_moment.flat, st.second_moment.flat)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(before, after))
    assert st.step_count == 3


def test_params_are_views_into_one_flat_buffer():
    dims = [3, 7, 5, 2]
    built = mlp_init(dims, 0.1, Rng(61))
    buf = np.zeros(param_count(dims))
    given = MlpParams(dims, 0.1, buf)
    assert given.flat is buf  # kept, not copied
    for p in (built, zero_like_params(built), given):
        assert p.flat.shape == (param_count(dims),)
        assert p.flat.flags.c_contiguous
        p.flat[:] = np.arange(p.flat.size)
        # laid out w0, b0, w1, b1, ...: together the arrays tile flat in order
        tiled = np.concatenate([a.ravel() for wb in zip(p.weights, p.biases) for a in wb])
        assert np.array_equal(tiled, p.flat)
    assert not np.shares_memory(zero_like_params(built).flat, built.flat)


def _fresh_python(code: str) -> list[str]:
    """The words that code prints, run by a fresh interpreter whose OpenBLAS
    starts on two threads, with this tree's cdsa importable."""
    src = os.path.dirname(os.path.dirname(cdsa.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout.split()


OS_THREADS = ("int([l for l in open('/proc/self/status') "
              "if l.startswith('Threads:')][0].split()[1])")


@needs_openblas
def test_importing_cdsa_sets_openblas_to_one_thread():
    # one BLAS thread, and one OS thread: the pool's parked worker is gone,
    # and a product large enough to split on two threads does not restart it
    code = ("import numpy as np, cdsa, cdsa.neuralcore as nc\n"
            f"print(nc._openblas_threads()[0](), {OS_THREADS})\n"
            "a = np.ones((300, 300)); a @ a\n"
            f"print({OS_THREADS})")
    assert _fresh_python(code) == ["1", "1", "1"]


@needs_openblas
def test_forking_after_importing_cdsa_warns_nothing():
    # Python 3.12+ warns at a fork of a process with more than one thread
    code = ("import warnings, cdsa.controller as c\n"
            "with warnings.catch_warnings(record=True) as caught:\n"
            "    warnings.simplefilter('always')\n"
            "    print(*c._on_two_cores(lambda: 1, lambda: 2), len(caught))")
    assert _fresh_python(code) == ["1", "2", "0"]


def test_params_pickle_as_views_into_their_own_buffer():
    net = mlp_init([3, 7, 2], 0.1, Rng(62))
    back = pickle.loads(pickle.dumps(net))
    assert back.layer_dims == net.layer_dims and back.leaky_slope == net.leaky_slope
    assert back.flat.tobytes() == net.flat.tobytes()
    assert back.flat.flags.writeable and back.flat.flags.c_contiguous
    assert all(np.shares_memory(a, back.flat) for a in back.weights + back.biases)
    assert not np.shares_memory(back.flat, net.flat)


def test_params_constructor_checks_shapes_against_dims():
    # dims [2, 3] hold 2 * 3 weights and 3 biases: a float64 vector of 9
    for flat in (np.zeros(8), np.zeros(10), np.zeros((1, 9)), np.zeros(9, dtype=np.float32),
                 np.zeros(9, dtype=int), [0.0] * 9):
        with pytest.raises(NeuralCoreError, match=r"dims \[2, 3\] need a float64 vector of 9"):
            MlpParams([2, 3], 0.1, flat)
    assert MlpParams([2, 3], 0.1, np.zeros(9)).weights[0].shape == (3, 2)
    # a net has two or more layer dims, each >= 1, and a LeakyReLU slope in (0, 1)
    for dims, slope, size, match in (([3], 0.1, 0, "layer_dims"),
                                     ([2, 0, 2], 0.1, 2, "layer_dims"),
                                     ([2, 2], 5.0, 6, "leaky_slope")):
        with pytest.raises(NeuralCoreError, match=match):
            MlpParams(dims, slope, np.zeros(size))


# the four nets of a pointmass bundle: action field, state field, inverse model, BC
BUNDLE_SHAPES = {"action_score": ([4, 32, 128, 32, 2], 0.1),
                 "state_score": ([4, 32, 128, 32, 2], 0.1),
                 "invdyn": ([4, 128, 128, 128, 2], 0.2),
                 "bc": ([2, 128, 128, 128, 2], 0.2)}


def _random_net(dims, slope, seed):
    """A net with initialized weights and nonzero biases."""
    rng = Rng(seed)
    p = mlp_init(dims, slope, rng)
    for b in p.biases:
        b[:] = rng.normal(size=b.shape)
    return p


@pytest.mark.parametrize("name", sorted(BUNDLE_SHAPES))
def test_inference_net_matches_forward_batch(name):
    dims, slope = BUNDLE_SHAPES[name]
    p = _random_net(dims, slope, 71)
    snap = InferenceNet(p)
    xs = Rng(72).normal(size=(128, dims[0])) * 2.0
    for n in range(1, 129):
        got, cache = forward_batch(snap, xs[:n])
        want, _ = forward_batch(p, xs[:n])
        assert cache is None and got.shape == want.shape == (n, dims[-1])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("ds,da", [(2, 2), (3, 2), (2, 5)])
def test_stacked_nets_equal_each_net_run_alone(ds, da):
    # g and h read the same [s, a] input; the narrower output layer is zero-padded
    g = _random_net([ds + da, 32, 128, 32, da], 0.1, 73)
    h = _random_net([ds + da, 32, 128, 32, ds], 0.1, 74)
    stack = InferenceNet(g, h)
    assert stack.out_dims == [da, ds]
    for n in (1, 2, 7, 26, 64, 128):
        x = Rng(75 + n).normal(size=(n, ds + da))
        out, _ = forward_batch(stack, x)
        assert out.shape == (2, n, max(ds, da))
        for j, (net, width) in enumerate(((g, da), (h, ds))):
            alone, _ = forward_batch(InferenceNet(net), x)
            want, _ = forward_batch(net, x)
            np.testing.assert_allclose(out[j, :, :width], alone, rtol=0, atol=1e-12)
            np.testing.assert_allclose(out[j, :, :width], want, rtol=0, atol=1e-12)
            assert np.all(out[j, :, width:] == 0.0)


@pytest.mark.parametrize("dims", [[4, 32, 128, 32], [4]])
@pytest.mark.parametrize("stacked", [False, True])
def test_folded_affines_match_the_affines_applied_outside(dims, stacked):
    # the input affine folds into the first layer, each output affine into the
    # last; a one-layer net folds both into the same layer
    nets = [_random_net(dims + [2], 0.1, 78), _random_net(dims + [3], 0.1, 79)][:1 + stacked]
    rng = Rng(80)
    in_scale, in_shift = rng.uniform(0.5, 2.0, size=4), rng.normal(size=4)
    outs = [(rng.uniform(0.5, 2.0, size=p.out_dim), rng.normal(size=p.out_dim)) for p in nets]
    outs[-1] = (outs[-1][0], 0.0)  # a number broadcasts over the width
    snap = InferenceNet(*nets, in_affine=(in_scale, in_shift), out_affines=outs)
    x = rng.normal(size=(9, 4))
    out, _ = forward_batch(snap, x)
    for j, (p, (scale, shift)) in enumerate(zip(nets, outs)):
        want = forward_batch(p, x * in_scale + in_shift)[0] * scale + shift
        got = out[j, :, :p.out_dim] if stacked else out
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_inference_net_is_a_snapshot_in_a_contiguous_layout():
    # layer 0 gains the constant column, the next layers read their bias
    # from it as an extra row, and the last layer drops it
    p = _random_net([3, 5, 6, 4], 0.1, 76)
    snap = InferenceNet(p)
    x = Rng(77).normal(size=(6, 3))
    before, _ = forward_batch(snap, x)
    assert all(w.flags.c_contiguous and w.shape == shape
               for w, shape in zip(snap.weights, [(3, 6), (6, 7), (7, 4)]))
    assert snap.bias.shape == (1, 6) and snap.bias[0, 5] == 1.0
    assert not any(np.shares_memory(w, p.flat) for w in snap.weights + [snap.bias])
    p.flat[:] = 0.0
    assert np.array_equal(forward_batch(snap, x)[0], before)
    assert np.array_equal(forward_batch(InferenceNet(p), x)[0], np.zeros((6, 4)))


@pytest.mark.parametrize("stacked", [False, True])
def test_constant_column_stays_exactly_one_for_large_inputs(stacked):
    # every product with the column's zero weights is an exact 0 for finite
    # inputs, so the column the folded biases read is 1.0 at every hidden layer
    nets = [_random_net([4, 32, 128, 32, 2], 0.1, 81),
            _random_net([4, 32, 128, 32, 3], 0.1, 82)][:1 + stacked]
    in_scale = Rng(83).uniform(0.5, 2.0, size=4)
    snap = InferenceNet(*nets, in_affine=(in_scale, 1.0))
    x = 1e6 * Rng(84).normal(size=(17, 4))
    h = np.matmul(x, snap.weights[0]) + snap.bias
    for w in snap.weights[1:]:
        h = _leaky(h, snap.leaky_slope)
        assert np.all(h[..., -1] == 1.0)
        h = np.matmul(h, w)
    out, _ = forward_batch(snap, x)
    assert np.array_equal(out, h)
    out = out.reshape(len(nets), len(x), -1)
    for j, p in enumerate(nets):
        want, _ = forward_batch(p, x * in_scale + 1.0)
        np.testing.assert_allclose(out[j, :, :p.out_dim], want, rtol=1e-12, atol=1e-6)


def test_inference_net_checks_input_shape_and_stack_dims():
    snap = InferenceNet(mlp_init([3, 4, 2], 0.1, Rng(2)))
    for bad in (np.zeros((5, 7)), np.zeros((1, 2)), np.zeros(3)):
        with pytest.raises(NeuralCoreError):
            forward_batch(snap, bad)
    with pytest.raises(NeuralCoreError):
        InferenceNet()
    with pytest.raises(NeuralCoreError, match="one stack"):
        InferenceNet(mlp_init([3, 4, 2], 0.1, Rng(2)), mlp_init([3, 5, 2], 0.1, Rng(3)))
    with pytest.raises(NeuralCoreError, match="one stack"):
        InferenceNet(mlp_init([3, 4, 2], 0.1, Rng(2)), mlp_init([3, 4, 2], 0.2, Rng(3)))
    net = mlp_init([3, 4, 2], 0.1, Rng(2))
    with pytest.raises(NeuralCoreError, match="input affine"):
        InferenceNet(net, in_affine=(np.ones(2), 0.0))
    with pytest.raises(NeuralCoreError, match="net 0 output affine"):
        InferenceNet(net, out_affines=[(np.ones(3), 0.0)])
    with pytest.raises(NeuralCoreError, match="output affines"):
        InferenceNet(net, out_affines=[None, None])
