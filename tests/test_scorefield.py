import numpy as np
import pytest

from cdsa.dataset import Dataset, NormStats
from cdsa.neuralcore import MlpParams, Rng, TrainBuffers, mlp_init
from cdsa.scorefield import (
    ScoreField,
    ScoreKind,
    ScoreTrainConfig,
    dsm_loss_reference,
    dsm_loss_reparam_given_noise,
    eval_score,
    field_dims,
    train_score_field,
)


def _zero_net(in_dim, out_dim, slope=0.1):
    dims = [in_dim, 4, out_dim]
    p = mlp_init(dims, slope, Rng(0))
    for w in p.weights:
        w[:] = 0.0
    return p


def test_field_dims_table():
    assert field_dims(ScoreKind.ACTION, 2, 2) == [4, 32, 128, 32, 2]
    assert field_dims(ScoreKind.STATE, 3, 2) == [5, 32, 128, 32, 3]


def _selector_net(in_dim, cols):
    """One linear layer whose output j is input coordinate cols[j]."""
    w = np.zeros((len(cols), in_dim))
    w[np.arange(len(cols)), cols] = 1.0
    return MlpParams([in_dim, len(cols)], [w], [np.zeros(len(cols))], 0.1)


def _loss_seen_through(cols, s, a, sigma, z, kind):
    """The denoising loss of a net that reads back input columns `cols`."""
    net = _selector_net(s.shape[1] + a.shape[1], cols)
    loss, _ = dsm_loss_reparam_given_noise(net, s, a, sigma, z, kind, TrainBuffers(len(z), net))
    return loss


def _expected_loss(seen, sigma, z):
    return 0.5 * float(np.sum((seen + z / sigma) ** 2)) / len(z)


def test_perturb_action_touches_only_actions():
    # the action-field loss feeds the net (s, a + sigma*z): read back, the
    # state columns are clean and the action columns are moved by sigma*z
    rng = Rng(5)
    s = np.asarray(rng.normal(size=(10, 2)))
    a = np.asarray(rng.normal(size=(10, 2)))
    z = np.asarray(Rng(6).normal(size=(10, 2)))
    kind = ScoreKind.ACTION
    assert _loss_seen_through([0, 1], s, a, 0.1, z, kind) == pytest.approx(
        _expected_loss(s, 0.1, z), rel=1e-12)
    assert _loss_seen_through([2, 3], s, a, 0.1, z, kind) == pytest.approx(
        _expected_loss(a + 0.1 * z, 0.1, z), rel=1e-12)
    assert _expected_loss(a + 0.1 * z, 0.1, z) != pytest.approx(_expected_loss(a, 0.1, z))


def test_perturb_state_touches_only_states():
    rng = Rng(7)
    s = np.asarray(rng.normal(size=(10, 3)))
    a = np.asarray(rng.normal(size=(10, 2)))
    z = np.asarray(Rng(8).normal(size=(10, 3)))
    kind = ScoreKind.STATE
    assert _loss_seen_through([0, 1, 2], s, a, 0.2, z, kind) == pytest.approx(
        _expected_loss(s + 0.2 * z, 0.2, z), rel=1e-12)
    assert _loss_seen_through([3, 4, 3], s, a, 0.2, z, kind) == pytest.approx(
        _expected_loss(a[:, [0, 1, 0]], 0.2, z), rel=1e-12)


def test_zero_net_forced_noise_loss_value():
    # net = 0, single sample, z = (0.5, -0.5), sigma = 0.1:
    # residual = z/sigma = (5, -5); loss = 0.5 * (25 + 25) = 25
    net = _zero_net(4, 2)
    s = np.zeros((1, 2))
    a = np.zeros((1, 2))
    z = np.array([[0.5, -0.5]])
    loss, grads = dsm_loss_reparam_given_noise(net, s, a, 0.1, z, ScoreKind.ACTION,
                                               TrainBuffers(1, net))
    assert loss == pytest.approx(25.0, abs=1e-12)
    # zero weights block any weight gradient upstream of the last layer
    assert np.any(grads.biases[-1] != 0.0)


def test_zero_net_reference_loss_value():
    # net = 0, clean a = 0, perturbed a~ = 0.2 in one coordinate, sigma = 0.1:
    # target = -(0.2)/0.01 = -20; loss = 0.5 * 400 = 200
    net = _zero_net(4, 2)
    s = np.zeros((1, 2))
    a = np.zeros((1, 2))
    pert = np.array([[0.2, 0.0]])
    loss = dsm_loss_reference(net, (s, a, pert), 0.1, ScoreKind.ACTION)
    assert loss == pytest.approx(200.0, abs=1e-9)


def test_loss_forms_agree_on_random_nets():
    # reparameterized loss on (x, z) equals the reference loss on
    # (x, x + sigma z) up to float round-off
    rng = Rng(12)
    for kind in (ScoreKind.ACTION, ScoreKind.STATE):
        for trial in range(20):
            sigma = float(rng.uniform(0.05, 0.5))
            net = mlp_init(field_dims(kind, 2, 2), 0.1, rng)
            s = np.asarray(rng.normal(size=(32, 2)))
            a = np.asarray(rng.normal(size=(32, 2)))
            z = np.asarray(rng.normal(size=(32, 2)))
            loss, _ = dsm_loss_reparam_given_noise(net, s, a, sigma, z, kind,
                                                   TrainBuffers(32, net))
            if kind is ScoreKind.ACTION:
                ref = dsm_loss_reference(net, (s, a, a + sigma * z), sigma, kind)
            else:
                ref = dsm_loss_reference(net, (s, a, s + sigma * z), sigma, kind)
            assert abs(loss - ref) <= 1e-10 * (1.0 + abs(loss))


def _line_dataset(n=2000, seed=0):
    # actions concentrated on a 1-D Gaussian ridge; states uniform
    rng = Rng(seed)
    s = np.asarray(rng.uniform(-1, 1, size=(n, 2)))
    a = np.column_stack([np.asarray(rng.normal(size=n)) * 0.3,
                         np.asarray(rng.normal(size=n)) * 0.3])
    return Dataset(s, a, np.zeros(n), s, np.zeros(n, dtype=bool))


def test_train_score_field_smoke():
    ds = _line_dataset()
    cfg = ScoreTrainConfig(sigma=0.3, iterations=300, batch_size=64, lr=3e-4, seed=4)
    field, hist = train_score_field(ds, ScoreKind.ACTION, cfg)
    assert field.kind is ScoreKind.ACTION
    assert field.sigma == 0.3
    assert len(hist) == 300
    early = np.mean([h[1] for h in hist[:20]])
    late = np.mean([h[1] for h in hist[-20:]])
    assert late < early


def test_train_deterministic_given_seed():
    ds = _line_dataset(500, seed=2)
    cfg = ScoreTrainConfig(sigma=0.2, iterations=50, batch_size=32, seed=9)
    f1, h1 = train_score_field(ds, ScoreKind.STATE, cfg)
    f2, h2 = train_score_field(ds, ScoreKind.STATE, cfg)
    assert f1.params.allclose(f2.params)
    assert h1 == h2


def test_trained_score_points_toward_ridge():
    # for a centered Gaussian ridge the perturbed score is -x/(tau^2+sigma^2)
    # in normalized units; check the sign at a point displaced off the ridge
    ds = _line_dataset(4000, seed=5)
    cfg = ScoreTrainConfig(sigma=0.3, iterations=2000, batch_size=128, seed=6)
    field, _ = train_score_field(ds, ScoreKind.ACTION, cfg)
    s = np.zeros(2)
    a_hi = field.norm.denormalize_action(np.array([1.5, 0.0]))
    g = eval_score(field, s, a_hi)
    assert g[0] < 0.0
    a_lo = field.norm.denormalize_action(np.array([-1.5, 0.0]))
    assert eval_score(field, s, a_lo)[0] > 0.0


def test_eval_score_uses_normalized_coordinates():
    # hand-built field: net returns first input coordinate; with a known norm
    # the wrapper must feed normalized states
    dims = [4, 2]
    w = np.zeros((2, 4))
    w[0, 0] = 1.0
    params = MlpParams(dims, [w], [np.zeros(2)], 0.1)
    norm = NormStats(np.array([1.0, 0.0]), np.array([2.0, 1.0]),
                     np.zeros(2), np.ones(2))
    field = ScoreField(params=params, kind=ScoreKind.ACTION, sigma=0.1, norm=norm)
    out = eval_score(field, np.array([5.0, 0.0]), np.zeros(2))
    assert out[0] == pytest.approx((5.0 - 1.0) / 2.0)


def test_eval_score_accepts_row_batches():
    params = mlp_init(field_dims(ScoreKind.STATE, 2, 2), 0.1, Rng(2))
    norm = NormStats(np.array([0.5, -1.0]), np.array([2.0, 0.5]),
                     np.array([0.1, 0.0]), np.array([0.3, 1.5]))
    field = ScoreField(params=params, kind=ScoreKind.STATE, sigma=0.1, norm=norm)
    s = Rng(3).normal(size=(9, 2))
    a = Rng(4).normal(size=(9, 2))
    out = eval_score(field, s, a)
    assert out.shape == (9, 2)
    rows = np.vstack([eval_score(field, s[i], a[i]) for i in range(9)])
    np.testing.assert_allclose(out, rows, rtol=0.0, atol=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        ScoreTrainConfig(sigma=0.0).validate()
    with pytest.raises(ValueError):
        ScoreTrainConfig(iterations=-1).validate()
    with pytest.raises(ValueError):
        ScoreTrainConfig(batch_size=0).validate()
    with pytest.raises(ValueError):
        ScoreTrainConfig(lr=0.0).validate()
