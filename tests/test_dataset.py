import json

import numpy as np
import pytest

from cdsa.dataset import (
    Dataset,
    DatasetError,
    DatasetSchemaError,
    NormStats,
    STD_FLOOR,
    Transition,
    compute_norm_stats,
    generate_dataset,
    load_dataset,
    sample_batch,
    save_dataset,
)
from cdsa.envs import RandomPolicy, builtin_spec_path, load_env_spec
from cdsa.neuralcore import Rng


def _toy_dataset(n=50, seed=0):
    rng = np.random.default_rng(seed)
    trans = [
        Transition(rng.normal(size=2), rng.normal(size=2), float(rng.normal()),
                   rng.normal(size=2), bool(rng.random() < 0.1))
        for _ in range(n)
    ]
    return Dataset(trans, 2, 2)


def test_norm_stats_match_numpy_oracle():
    ds = _toy_dataset(200, seed=1)
    norm = compute_norm_stats(ds)
    assert np.allclose(norm.state_mean, ds.states.mean(axis=0))
    assert np.allclose(norm.state_std, ds.states.std(axis=0))
    assert np.allclose(norm.action_mean, ds.actions.mean(axis=0))
    assert np.allclose(norm.action_std, ds.actions.std(axis=0))


def test_norm_stats_constant_column_floored():
    trans = [Transition(np.array([1.0, v]), np.array([3.0, 3.0]), 0.0,
                        np.array([1.0, v]), False) for v in (0.0, 1.0, 2.0)]
    norm = compute_norm_stats(Dataset(trans, 2, 2))
    assert norm.state_std[0] == STD_FLOOR
    assert norm.action_std[1] == STD_FLOOR
    # floored std still round-trips
    a = np.array([3.0, 3.0])
    assert np.allclose(norm.denormalize_action(norm.normalize_action(a)), a)


def test_normalize_denormalize_roundtrip():
    ds = _toy_dataset(100, seed=2)
    norm = ds.norm
    s = np.array([0.3, -1.2])
    a = np.array([4.0, 0.01])
    assert np.allclose(norm.denormalize_state(norm.normalize_state(s)), s)
    assert np.allclose(norm.denormalize_action(norm.normalize_action(a)), a)


def test_identity_norm_is_noop():
    norm = NormStats.identity(2, 2)
    s = np.array([0.5, -0.5])
    assert np.array_equal(norm.normalize_state(s), s)
    assert np.array_equal(norm.denormalize_action(s), s)


def test_norm_stats_dict_roundtrip():
    norm = compute_norm_stats(_toy_dataset(60, seed=3))
    again = NormStats.from_dict(norm.to_dict())
    assert norm.equals(again)


def test_dataset_stacked_arrays():
    ds = _toy_dataset(10, seed=4)
    assert ds.states.shape == (10, 2)
    assert ds.actions.shape == (10, 2)
    assert ds.rewards.shape == (10,)
    assert ds.next_states.shape == (10, 2)
    assert ds.dones.dtype == bool
    assert np.array_equal(ds.states[3], ds.transitions[3].s)


def test_dataset_dim_validation():
    bad = [Transition(np.zeros(3), np.zeros(2), 0.0, np.zeros(3), False)]
    with pytest.raises(DatasetSchemaError):
        Dataset(bad, 2, 2)


def test_sample_batch_deterministic_and_in_range():
    ds = _toy_dataset(30, seed=5)
    b1 = sample_batch(ds, 16, Rng(9))
    b2 = sample_batch(ds, 16, Rng(9))
    assert len(b1) == 16
    for t1, t2 in zip(b1, b2):
        assert t1 is t2  # same underlying transitions drawn
    with pytest.raises(DatasetError):
        sample_batch(ds, 0, Rng(9))


def test_generate_dataset_deterministic():
    spec = load_env_spec(builtin_spec_path("linear"))
    pol = RandomPolicy(spec)
    d1 = generate_dataset(spec, pol, 5, spec.max_steps, Rng(77))
    d2 = generate_dataset(spec, pol, 5, spec.max_steps, Rng(77))
    assert np.array_equal(d1.states, d2.states)
    assert np.array_equal(d1.actions, d2.actions)
    assert np.array_equal(d1.rewards, d2.rewards)


def test_generate_dataset_episode_boundaries():
    spec = load_env_spec(builtin_spec_path("linear"))
    pol = RandomPolicy(spec)
    ds = generate_dataset(spec, pol, 3, spec.max_steps, Rng(78))
    # every episode ends with done=True (goal or budget), and dones are sparse
    assert ds.dones[-1]
    assert int(ds.dones.sum()) == 3


def test_generate_dataset_stores_executed_clipped_actions():
    spec = load_env_spec(builtin_spec_path("linear"))

    class Overshoot(RandomPolicy):
        def act_batch(self, states, ctx, rngs):
            return 5.0 * super().act_batch(states, ctx, rngs)

    ds = generate_dataset(spec, Overshoot(spec), 2, spec.max_steps, Rng(79))
    assert np.all(ds.actions >= spec.action_low) and np.all(ds.actions <= spec.action_high)
    assert np.any(ds.actions == spec.action_high) or np.any(ds.actions == spec.action_low)


def test_jsonl_roundtrip_bitwise(tmp_path):
    ds = _toy_dataset(40, seed=6)
    path = tmp_path / "data.jsonl"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert np.array_equal(back.states, ds.states)
    assert np.array_equal(back.actions, ds.actions)
    assert np.array_equal(back.rewards, ds.rewards)
    assert np.array_equal(back.next_states, ds.next_states)
    assert np.array_equal(back.dones, ds.dones)
    assert back.norm.equals(ds.norm)


def test_jsonl_metadata_first_line(tmp_path):
    ds = _toy_dataset(5, seed=7)
    path = tmp_path / "data.jsonl"
    save_dataset(ds, path)
    first = json.loads(path.read_text().splitlines()[0])
    assert first["format"] == "cdsa-dataset"
    assert first["state_dim"] == 2 and first["action_dim"] == 2
    assert "norm" in first


def test_load_reports_bad_line_number(tmp_path):
    ds = _toy_dataset(5, seed=8)
    path = tmp_path / "data.jsonl"
    save_dataset(ds, path)
    lines = path.read_text().splitlines()
    lines[3] = "{not json"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetError, match=":4:"):
        load_dataset(path)


def test_load_rejects_wrong_format(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps({"format": "something-else"}) + "\n")
    with pytest.raises(DatasetSchemaError):
        load_dataset(path)


def test_load_rejects_dim_mismatch(tmp_path):
    ds = _toy_dataset(3, seed=9)
    path = tmp_path / "data.jsonl"
    save_dataset(ds, path)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[2])
    rec["a"] = [1.0, 2.0, 3.0]
    lines[2] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetSchemaError, match=":3:"):
        load_dataset(path)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text("")
    with pytest.raises(DatasetError):
        load_dataset(path)
