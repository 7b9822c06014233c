import json
import re
from functools import partial

import numpy as np
import pytest

from cdsa.dataset import (
    Dataset,
    DatasetError,
    DatasetSchemaError,
    STD_FLOOR,
    compute_norm_stats,
    generate_dataset,
    load_dataset,
    read_norm,
    save_dataset,
)
from cdsa.envs import RandomPolicy, ScriptedRiskAvoiding, builtin_spec_path, load_env_spec
from cdsa.neuralcore import Rng
from cdsa.readers import Fields
from helpers import identity_norm, missed, mutations


def _toy_dataset(n=50, seed=0):
    rng = np.random.default_rng(seed)
    rows = [(rng.normal(size=2), rng.normal(size=2), float(rng.normal()),
             rng.normal(size=2), bool(rng.random() < 0.1)) for _ in range(n)]
    return Dataset(*(np.array(col) for col in zip(*rows)))


def _arrays(n=4, state_dim=2, action_dim=2):
    """Valid constructor arguments: (states, actions, rewards, next_states, dones)."""
    rng = np.random.default_rng(0)
    return [rng.normal(size=(n, state_dim)), rng.normal(size=(n, action_dim)),
            rng.normal(size=n), rng.normal(size=(n, state_dim)), np.arange(n) == n - 1]


class Overshoot(RandomPolicy):
    """Random actions scaled past the bounds, so the stored actions are clipped."""

    def act_batch(self, states, ctx, rngs):
        return 5.0 * super().act_batch(states, ctx, rngs)


def test_norm_stats_match_numpy_oracle():
    ds = _toy_dataset(200, seed=1)
    norm = compute_norm_stats(ds.states, ds.actions)
    assert np.allclose(norm.state_mean, ds.states.mean(axis=0))
    assert np.allclose(norm.state_std, ds.states.std(axis=0))
    assert np.allclose(norm.action_mean, ds.actions.mean(axis=0))
    assert np.allclose(norm.action_std, ds.actions.std(axis=0))
    assert ds.norm.equals(norm)


def test_norm_stats_constant_column_floored():
    states = np.array([[1.0, v] for v in (0.0, 1.0, 2.0)])
    norm = compute_norm_stats(states, np.full((3, 2), 3.0))
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
    assert np.allclose(norm.normalize_state(s) * norm.state_std + norm.state_mean, s)
    assert np.allclose(norm.denormalize_action(norm.normalize_action(a)), a)


def test_identity_norm_is_noop():
    norm = identity_norm(2, 2)
    s = np.array([0.5, -0.5])
    assert np.array_equal(norm.normalize_state(s), s)
    assert np.array_equal(norm.denormalize_action(s), s)


def test_norm_stats_dict_roundtrip():
    ds = _toy_dataset(60, seed=3)
    norm = compute_norm_stats(ds.states, ds.actions)
    again = read_norm(Fields(norm.to_dict(), DatasetSchemaError))
    assert norm.equals(again)


def test_dataset_stacked_arrays():
    args = _arrays(10, state_dim=3, action_dim=2)
    ds = Dataset(*args)
    assert len(ds) == 10
    assert ds.state_dim == 3 and ds.action_dim == 2
    assert ds.states.shape == (10, 3)
    assert ds.actions.shape == (10, 2)
    assert ds.rewards.shape == (10,)
    assert ds.next_states.shape == (10, 3)
    assert ds.dones.dtype == bool
    # the dataset holds the arrays it was given
    for name, arr in zip(("states", "actions", "rewards", "next_states", "dones"), args):
        assert getattr(ds, name) is arr


def test_empty_dataset_needs_given_norm():
    empty = Dataset(np.zeros((0, 2)), np.zeros((0, 3)), np.zeros(0), np.zeros((0, 2)),
                    np.zeros(0, dtype=bool), norm=identity_norm(2, 3))
    assert len(empty) == 0 and empty.state_dim == 2 and empty.action_dim == 3
    with pytest.raises(DatasetError, match="empty dataset"):
        Dataset(*(a[:0] for a in _arrays()))


def _with(i, value):
    args = _arrays()
    args[i] = value
    return args


def test_dataset_dim_validation():
    cases = {
        "states-dim": _with(0, np.zeros((4, 3))),        # next_states disagree with states
        "next-states-dim": _with(3, np.zeros((4, 3))),
        "actions-rows": _with(1, np.zeros((5, 2))),      # row counts disagree
        "rewards-rows": _with(2, np.zeros(3)),
        "dones-rows": _with(4, np.zeros(5, dtype=bool)),
        "rewards-rank": _with(2, np.zeros((4, 1))),
        "states-rank": _with(0, np.zeros(4)),
        "zero-action-dim": _with(1, np.zeros((4, 0))),
    }
    for name, args in cases.items():
        with pytest.raises(DatasetSchemaError):
            Dataset(*args)
            pytest.fail(name)  # reached only when the case was accepted


@pytest.mark.parametrize("i, value", [
    (0, np.zeros((4, 2), dtype=np.float32)),
    (1, np.zeros((4, 2), dtype=np.int64)),
    (2, [0.0, 0.0, 0.0, 0.0]),
    (4, np.zeros(4)),
    (4, np.zeros(4, dtype=np.int64)),
], ids=["float32-states", "int-actions", "list-rewards", "float-dones", "int-dones"])
def test_dataset_rejects_wrong_dtype(i, value):
    with pytest.raises(DatasetSchemaError, match="must be a"):
        Dataset(*_with(i, value))


@pytest.mark.parametrize("i", [0, 1, 2, 3])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite(i, bad):
    args = _arrays()
    args[i] = args[i].copy()
    args[i].flat[1] = bad
    with pytest.raises(DatasetSchemaError, match="non-finite"):
        Dataset(*args)


@pytest.mark.parametrize("field, value", [
    ("state_mean", np.zeros(3)),
    ("action_std", np.ones(1)),
    ("state_std", np.array([1.0, 0.0])),
    ("action_std", np.array([-1.0, 1.0])),
    ("state_std", np.array([np.nan, 1.0])),
    ("action_mean", np.array([np.inf, 0.0])),
], ids=["state-mean-dim", "action-std-dim", "zero-std", "negative-std", "nan-std", "inf-mean"])
def test_dataset_rejects_bad_norm(field, value):
    norm = identity_norm(2, 2)
    setattr(norm, field, value)
    with pytest.raises(DatasetSchemaError, match=f"norm {field}"):
        Dataset(*_arrays(), norm=norm)


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
    # within an episode each next state is the following row's state
    inner = ~ds.dones[:-1]
    assert np.array_equal(ds.next_states[:-1][inner], ds.states[1:][inner])


def test_generate_dataset_rejects_empty_budgets():
    spec = load_env_spec(builtin_spec_path("linear"))
    with pytest.raises(DatasetError, match="episodes"):
        generate_dataset(spec, RandomPolicy(spec), 0, spec.max_steps, Rng(1))
    with pytest.raises(DatasetError, match="max_steps"):
        generate_dataset(spec, RandomPolicy(spec), 2, 0, Rng(1))


def test_generate_dataset_stores_executed_clipped_actions():
    spec = load_env_spec(builtin_spec_path("linear"))
    ds = generate_dataset(spec, Overshoot(spec), 2, spec.max_steps, Rng(79))
    assert np.all(ds.actions >= spec.action_low) and np.all(ds.actions <= spec.action_high)
    assert np.any(ds.actions == spec.action_high) or np.any(ds.actions == spec.action_low)


def test_jsonl_roundtrip_bitwise(tmp_path):
    ds = _toy_dataset(40, seed=6)
    path = tmp_path / "data.jsonl"
    save_dataset(ds, path)
    back = load_dataset(path)
    for name in ("states", "actions", "rewards", "next_states", "dones"):
        a, b = getattr(back, name), getattr(ds, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert back.norm.equals(ds.norm)


def _per_record_writer(ds, path):
    """JSONL v1 as it was written one transition object at a time; the byte reference."""
    with open(path, "w") as f:
        meta = {
            "format": "cdsa-dataset",
            "version": 1,
            "state_dim": ds.state_dim,
            "action_dim": ds.action_dim,
            "norm": ds.norm.to_dict(),
        }
        f.write(json.dumps(meta) + "\n")
        for i in range(len(ds)):
            rec = {
                "s": ds.states[i].tolist(),
                "a": ds.actions[i].tolist(),
                "r": float(ds.rewards[i]),
                "s2": ds.next_states[i].tolist(),
                "done": bool(ds.dones[i]),
            }
            f.write(json.dumps(rec) + "\n")


@pytest.mark.parametrize("env, make_policy", [
    ("transport", lambda spec: ScriptedRiskAvoiding(spec, exec_noise=0.2)),
    ("linear", Overshoot),
])
def test_save_dataset_bytes_match_per_record_writer(tmp_path, env, make_policy):
    spec = load_env_spec(builtin_spec_path(env))
    ds = generate_dataset(spec, make_policy(spec), 4, spec.max_steps, Rng(80))
    assert int(ds.dones.sum()) == 4
    if env == "linear":
        assert np.any((ds.actions == spec.action_low) | (ds.actions == spec.action_high))
    save_dataset(ds, tmp_path / "new.jsonl")
    _per_record_writer(ds, tmp_path / "ref.jsonl")
    assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "ref.jsonl").read_bytes()


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


@pytest.mark.parametrize("content", [b"\xff\xfe{}\n", b"[" * 100_000 + b"\n"],
                         ids=["not-utf8", "nested-too-deep"])
def test_load_rejects_unreadable_text_naming_the_file(tmp_path, content):
    path = tmp_path / "data.jsonl"
    path.write_bytes(content)
    with pytest.raises(DatasetError, match=f"^{re.escape(str(path))}"):
        load_dataset(path)


def test_load_accepts_json_integers_and_blank_lines(tmp_path):
    path = tmp_path / "data.jsonl"
    norm = {"state_mean": [0, 0], "state_std": [1, 2], "action_mean": [0], "action_std": [1]}
    meta = {"format": "cdsa-dataset", "version": 1, "state_dim": 2, "action_dim": 1,
            "norm": norm}
    rec = {"s": [1, 2], "a": [3], "r": -1, "s2": [4, 5], "done": True}
    path.write_text(json.dumps(meta) + "\n\n" + json.dumps(rec) + "\n\n")
    ds = load_dataset(path)
    assert len(ds) == 1 and ds.states.dtype == np.float64 and ds.dones.dtype == bool
    assert ds.states.tolist() == [[1.0, 2.0]] and ds.rewards.tolist() == [-1.0]
    assert ds.norm.state_std.tolist() == [1.0, 2.0]


@pytest.mark.parametrize("number", ["1e999", "-1e999", "1" + "0" * 400])
def test_load_rejects_numbers_that_overflow(tmp_path, number):
    path = tmp_path / "data.jsonl"
    save_dataset(_toy_dataset(3, seed=11), path)
    lines = path.read_text().splitlines()
    lines[2] = lines[2].replace('"r": ', f'"r": {number}, "unused": ', 1)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetSchemaError, match=":3: 'r' must be a finite number"):
        load_dataset(path)


# ---------------------------------------------------------------------------
# Mutation table: every damaged field of a valid file fails with path:lineno:
# ---------------------------------------------------------------------------

META_FIELDS = [("format",), ("version",), ("state_dim",), ("action_dim",), ("norm",),
               ("norm", "state_mean"), ("norm", "state_std"),
               ("norm", "action_mean"), ("norm", "action_std")]
RECORD_FIELDS = [("s",), ("a",), ("r",), ("s2",), ("done",)]
BAD_VALUES = {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"), "string": "x"}
RECORD_LINE = 3


def _delete(keys, rec):
    parent = rec
    for k in keys[:-1]:
        parent = parent[k]
    del parent[keys[-1]]
    return rec


def _replace(keys, bad, rec):
    """Set the field to bad; for a list field, set its first element."""
    parent = rec
    for k in keys[:-1]:
        parent = parent[k]
    if isinstance(parent[keys[-1]], list):
        parent[keys[-1]][0] = bad
    else:
        parent[keys[-1]] = bad
    return rec


def _set(keys, value, rec):
    parent = rec
    for k in keys[:-1]:
        parent = parent[k]
    parent[keys[-1]] = value
    return rec


def _mutations():
    for line, fields in ((1, META_FIELDS), (RECORD_LINE, RECORD_FIELDS)):
        yield f"{line}-wrapped-in-list", line, lambda rec: [rec]
        for keys in fields:
            name = ".".join(keys)
            yield f"{line}-{name}-deleted", line, partial(_delete, keys)
            for bad_name, bad in BAD_VALUES.items():
                yield f"{line}-{name}-{bad_name}", line, partial(_replace, keys, bad)
    extra = [
        (1, ("version",), 99), (1, ("version",), True), (1, ("state_dim",), 0),
        (1, ("action_dim",), 1.5), (1, ("norm", "state_mean"), [0.0]),
        (1, ("norm", "state_std"), [0.0, 0.0]), (1, ("norm", "action_std"), [1.0, -1.0]),
        (1, ("norm", "state_mean"), [0.0, [1.0]]),
        (RECORD_LINE, ("s",), [1.0, 2.0, 3.0]), (RECORD_LINE, ("a",), [True, 0.5]),
        (RECORD_LINE, ("r",), None),
        (RECORD_LINE, ("done",), 1), (RECORD_LINE, ("s",), {"x": 1.0}),
    ]
    for line, keys, value in extra:
        yield f"{line}-{'.'.join(keys)}={value!r}", line, partial(_set, keys, value)


MUTATIONS = list(_mutations())


@pytest.fixture(scope="module")
def valid_lines(tmp_path_factory):
    path = tmp_path_factory.mktemp("valid") / "data.jsonl"
    save_dataset(_toy_dataset(6, seed=10), path)
    load_dataset(path)
    return path.read_text().splitlines()


@pytest.mark.parametrize("line, mutate", [m[1:] for m in MUTATIONS],
                         ids=[m[0] for m in MUTATIONS])
def test_load_rejects_mutated_field(tmp_path, valid_lines, line, mutate):
    lines = list(valid_lines)
    lines[line - 1] = json.dumps(mutate(json.loads(lines[line - 1])))
    path = tmp_path / "data.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetError, match=f"^{re.escape(str(path))}:{line}: "):
        load_dataset(path)


@pytest.mark.parametrize("line", [1, RECORD_LINE])
def test_load_rejects_every_generated_mutation(tmp_path, valid_lines, line):
    path = tmp_path / "data.jsonl"

    def write(doc):
        lines = list(valid_lines)
        lines[line - 1] = json.dumps(doc)
        return "\n".join(lines) + "\n"

    cases = list(mutations(json.loads(valid_lines[line - 1])))
    misses = missed(cases, path, lambda: load_dataset(path), DatasetError,
                    expect=f"{path}:{line}: ", write=write)
    assert not misses, "\n".join(misses)
