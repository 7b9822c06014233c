import numpy as np
import pytest

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
    fd_grads,
    forward_batch,
    mlp_init,
    param_count,
    row_norms,
    zero_like_params,
)
from helpers import squared_error


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
    assert a.allclose(b)


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
    p = MlpParams([1, 1, 1], [np.array([[1.0]]), np.array([[1.0]])],
                  [np.zeros(1), np.zeros(1)], slope)
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
    p = MlpParams([1, 1], [np.array([[1.0]])], [np.zeros(1)], 0.1)
    g = MlpParams([1, 1], [np.array([[0.5]])], [np.zeros(1)], 0.1)
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

    assert run().allclose(run())


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
    given = MlpParams(dims, [w.copy() for w in built.weights],
                      [b.copy() for b in built.biases], 0.1)
    for p in (built, built.copy(), zero_like_params(built), given):
        assert p.flat.shape == (param_count(dims),)
        assert p.flat.flags.c_contiguous
        p.flat[:] = np.arange(p.flat.size)
        # laid out w0, b0, w1, b1, ...: together the arrays tile flat in order
        tiled = np.concatenate([a.ravel() for wb in zip(p.weights, p.biases) for a in wb])
        assert np.array_equal(tiled, p.flat)
    assert given.allclose(built) and not np.shares_memory(given.flat, built.flat)
    assert not np.shares_memory(built.copy().flat, built.flat)


def test_params_constructor_checks_shapes_against_dims():
    with pytest.raises(NeuralCoreError, match="shapes"):
        MlpParams([2, 3], [np.zeros((2, 3))], [np.zeros(3)], 0.1)
    with pytest.raises(NeuralCoreError):
        MlpParams([2, 3, 1], [np.zeros((3, 2))], [np.zeros(3)], 0.1)


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


def test_inference_net_is_a_snapshot_in_a_contiguous_layout():
    p = _random_net([3, 5, 4], 0.1, 76)
    snap = InferenceNet(p)
    x = Rng(77).normal(size=(6, 3))
    before, _ = forward_batch(snap, x)
    assert all(w.flags.c_contiguous and w.shape == (fi, fo)
               for w, fi, fo in zip(snap.weights, [3, 5], [5, 4]))
    assert not any(np.shares_memory(w, p.flat) for w in snap.weights + snap.biases)
    p.flat[:] = 0.0
    assert np.array_equal(forward_batch(snap, x)[0], before)
    assert np.array_equal(forward_batch(InferenceNet(p), x)[0], np.zeros((6, 4)))


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
