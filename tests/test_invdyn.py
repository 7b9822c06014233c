import numpy as np
import pytest

from cdsa.dataset import Dataset, generate_dataset
from cdsa.envs import RandomPolicy, builtin_spec_path, load_env_spec
from cdsa.invdyn import (
    InvDynModel,
    InvDynTrainConfig,
    infer_action,
    invdyn_loss,
    train_invdyn,
)
from cdsa.neuralcore import Rng, TrainBuffers, mlp_init
from helpers import fd_grads, same_params, squared_error


def _zero_net(ds, da):
    p = mlp_init(InvDynModel.arch.dims(ds, da), 0.2, Rng(0))
    for w in p.weights:
        w[:] = 0.0
    return p


def test_model_dims_table():
    assert InvDynModel.arch.dims(2, 2) == [4, 128, 128, 128, 2]
    assert InvDynModel.arch.dims(3, 1) == [6, 128, 128, 128, 1]


def test_zero_net_loss_value():
    # net = 0, one sample with a = (0.3, -0.4): loss = 0.09 + 0.16 = 0.25
    # (mean squared error over the batch, no 1/2 factor)
    net = _zero_net(2, 2)
    s = np.zeros((1, 2))
    s2 = np.zeros((1, 2))
    a = np.array([[0.3, -0.4]])
    loss, _ = invdyn_loss(net, s, s2, a, TrainBuffers(1, net))
    assert loss == pytest.approx(0.25, abs=1e-15)


def test_loss_gradient_matches_fd():
    rng = Rng(3)
    net = mlp_init([4, 8, 6, 2], 0.2, rng)
    s = np.asarray(rng.normal(size=(12, 2)))
    s2 = np.asarray(rng.normal(size=(12, 2)))
    a = np.asarray(rng.normal(size=(12, 2)))
    _, grads = invdyn_loss(net, s, s2, a, TrainBuffers(12, net))
    # the loss from the net's output alone: the fd target
    fd = fd_grads(net, np.hstack([s, s2]), squared_error(a, 1.0))
    for g, f in zip(grads.weights + grads.biases, fd.weights + fd.biases):
        denom = np.maximum(np.maximum(np.abs(g), np.abs(f)), 1e-4)
        assert np.max(np.abs(g - f) / denom) < 1e-6


def test_train_recovers_linear_dynamics():
    # LinearPoint: s' = s + a, so the action is exactly the displacement
    spec = load_env_spec(builtin_spec_path("linear"))
    data = generate_dataset(spec, RandomPolicy(spec), 100, spec.max_steps, Rng(7))
    cfg = InvDynTrainConfig(iterations=1500, batch_size=128, seed=1)
    model, hist = train_invdyn(data, cfg)
    assert len(hist) == 1500
    hold = generate_dataset(spec, RandomPolicy(spec), 10, spec.max_steps, Rng(8))
    pred = np.vstack([infer_action(model, hold.states[i], hold.next_states[i])
                      for i in range(len(hold.states))])
    err = float(np.mean(np.abs(pred - hold.actions)))
    assert err < 0.05


def test_train_deterministic():
    spec = load_env_spec(builtin_spec_path("linear"))
    data = generate_dataset(spec, RandomPolicy(spec), 10, spec.max_steps, Rng(9))
    cfg = InvDynTrainConfig(iterations=40, batch_size=32, seed=2)
    m1, h1 = train_invdyn(data, cfg)
    m2, h2 = train_invdyn(data, cfg)
    assert same_params(m1.params, m2.params)
    assert h1 == h2


def test_infer_action_normalization_mapping():
    # zero net always predicts the normalized-action origin, which maps back
    # to the dataset action mean
    rng = np.random.default_rng(11)
    rows = [(rng.normal(size=2), rng.normal(size=2) + 3.0, rng.normal(size=2))
            for _ in range(40)]
    s, a, s2 = (np.array(col) for col in zip(*rows))
    data = Dataset(s, a, np.zeros(40), s2, np.zeros(40, dtype=bool))
    model, _ = train_invdyn(data, InvDynTrainConfig(iterations=0, seed=0))
    for w in model.params.weights:
        w[:] = 0.0
    out = infer_action(model, np.zeros(2), np.ones(2))
    assert np.allclose(out, data.norm.action_mean)


def test_infer_action_accepts_row_batches():
    rng = np.random.default_rng(12)
    rows = [(rng.normal(size=2), rng.normal(size=2), rng.normal(size=2)) for _ in range(40)]
    s, a, s2 = (np.array(col) for col in zip(*rows))
    model, _ = train_invdyn(Dataset(s, a, np.zeros(40), s2, np.zeros(40, dtype=bool)),
                            InvDynTrainConfig(iterations=5, batch_size=8, seed=1))
    s, s2 = rng.normal(size=(7, 2)), rng.normal(size=(7, 2))
    out = infer_action(model, s, s2)
    assert out.shape == (7, 2)
    rows = np.vstack([infer_action(model, s[i], s2[i]) for i in range(7)])
    np.testing.assert_allclose(out, rows, rtol=0.0, atol=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        InvDynTrainConfig(iterations=-2).validate()
    with pytest.raises(ValueError):
        InvDynTrainConfig(batch_size=0).validate()
    with pytest.raises(ValueError):
        InvDynTrainConfig(lr=-1.0).validate()
