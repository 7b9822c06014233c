"""Tests for paired-seed rollouts, VaR statistics, and report emission."""

import re

import numpy as np
import pytest

from cdsa.controller import ControlError, train_cdsa
from cdsa.dataset import generate_dataset
from cdsa.envs import RandomPolicy, ScriptedDirect, builtin_spec_path, load_env_spec
from cdsa.evaluation import (EpisodeStats, EvalError, emit_report,
                             load_report_csv, risk_entry_rate, rollout_batch,
                             summarize, var_at)
from cdsa.invdyn import InvDynTrainConfig
from cdsa.neuralcore import Rng
from cdsa.scorefield import ScoreTrainConfig


def _stats(ret, risk=0, steps=10, goal=False):
    return EpisodeStats(undiscounted_return=float(ret), steps=steps, risk_entries=risk,
                        reached_goal=goal)


def test_var_exact_interpolated_value():
    # index (n-1)*p/100 = 0.9 lands between sorted ranks 1 and 2
    assert var_at([10, 9, 8, 7, 6, 5, 4, 3, 2, 1], 10.0) == 1.9


def test_var_endpoints_are_min_and_max():
    rng = Rng(7)
    xs = rng.normal(size=37)
    assert var_at(xs, 0.0) == xs.min()
    assert var_at(xs, 100.0) == xs.max()


def test_var_monotone_in_percentile():
    for seed in range(5):
        xs = Rng(seed).normal(size=61)
        curve = [var_at(xs, p) for p in np.linspace(0, 100, 21)]
        assert all(b >= a for a, b in zip(curve, curve[1:]))


def test_var_single_element():
    for p in (0.0, 13.0, 50.0, 100.0):
        assert var_at([4.25], p) == 4.25


def test_var_validation():
    with pytest.raises(EvalError, match="nonempty"):
        var_at([], 10.0)
    with pytest.raises(EvalError, match="percentile"):
        var_at([1.0], -0.1)
    with pytest.raises(EvalError, match="percentile"):
        var_at([1.0], 100.5)


def test_rollout_batch_refuses_a_discount():
    # returns are undiscounted; gamma stays only for callers that pass it by position
    spec = load_env_spec(builtin_spec_path("linear"))
    with pytest.raises(EvalError, match="gamma"):
        rollout_batch(spec, RandomPolicy(spec), None, None, 2, 5, gamma=0.99)
    assert len(rollout_batch(spec, RandomPolicy(spec), None, None, 2, 5, 1.0)) == 2


def test_rollout_batch_paired_seeds_reproducible():
    spec = load_env_spec(builtin_spec_path("linear"))
    a = rollout_batch(spec, RandomPolicy(spec), None, None, episodes=6, base_seed=42)
    b = rollout_batch(spec, RandomPolicy(spec), None, None, episodes=6, base_seed=42)
    assert a == b
    # each episode draws from substream (base_seed, i), so a shorter batch
    # is a prefix of a longer one
    c = rollout_batch(spec, RandomPolicy(spec), None, None, episodes=3, base_seed=42)
    assert a[:3] == c


def test_rollout_batch_collects_leading_trajectories():
    spec = load_env_spec(builtin_spec_path("linear"))
    trajs = []
    stats = rollout_batch(spec, ScriptedDirect(spec), None, None, episodes=4,
                          base_seed=9, trajectories_out=trajs, max_trajectories=2)
    assert len(stats) == 4 and len(trajs) == 2
    assert len(trajs[0]) == stats[0].steps


def test_rollout_batch_validation():
    spec = load_env_spec(builtin_spec_path("linear"))
    with pytest.raises(EvalError, match="episodes"):
        rollout_batch(spec, RandomPolicy(spec), None, None, episodes=0, base_seed=1)


def test_rollout_batch_with_models_needs_config():
    spec = load_env_spec(builtin_spec_path("linear"))
    data = generate_dataset(spec, RandomPolicy(spec), 3, spec.max_steps, Rng(3))
    models = train_cdsa(data, ScoreTrainConfig(iterations=0), InvDynTrainConfig(iterations=0))
    with pytest.raises(ControlError, match="ControlConfig"):
        rollout_batch(spec, RandomPolicy(spec), models, None, episodes=2, base_seed=1)


def test_risk_entry_rate_oracle():
    stats = [_stats(0, risk=2, steps=10), _stats(0, risk=5, steps=20),
             _stats(0, risk=0, steps=0)]
    assert risk_entry_rate(stats) == pytest.approx((0.2 + 0.25 + 0.0) / 3, abs=1e-15)
    assert risk_entry_rate([]) == 0.0


def test_summarize_identical_arms_zero_deltas():
    arm = [_stats(r, risk=i % 3, goal=(i % 2 == 0))
           for i, r in enumerate([-5.0, -2.0, -8.0, -1.0])]
    rep = summarize(arm, list(arm), [0, 10, 50, 100])
    assert rep.deltas["mean_return"] == 0.0
    assert rep.deltas["risk_rate"] == 0.0
    assert all(rep.deltas[f"var@{p:g}"] == 0.0 for p in rep.percentile_grid)
    assert rep.var_curve["baseline"] == rep.var_curve["corrected"]


def test_summarize_deltas_oracle():
    base = [_stats(-10.0), _stats(-20.0)]
    corr = [_stats(-4.0), _stats(-6.0)]
    rep = summarize(base, corr, [50])
    assert rep.mean_return == {"baseline": -15.0, "corrected": -5.0}
    assert rep.deltas["mean_return"] == 10.0
    assert rep.deltas["var@50"] == -5.0 - (-15.0)


def test_summarize_rejects_unpaired_arms():
    # a paired-seed delta needs episode i of each arm
    with pytest.raises(EvalError, match="baseline 3 and corrected 2"):
        summarize([_stats(1.0)] * 3, [_stats(1.0)] * 2, [50])


def test_summarize_rejects_empty_arm():
    with pytest.raises(EvalError, match="nonempty"):
        summarize([], [_stats(1.0)], [50])
    with pytest.raises(EvalError, match="nonempty"):
        summarize([_stats(1.0)], [], [50])


def test_report_csv_roundtrip(tmp_path):
    rng = Rng(11)
    base = [_stats(v, risk=i % 4, steps=17, goal=i % 2 == 0)
            for i, v in enumerate(rng.normal(size=25) * 10)]
    corr = [_stats(v, risk=i % 2, steps=17, goal=True)
            for i, v in enumerate(rng.normal(size=25) * 10 + 3)]
    rep = summarize(base, corr, [0, 10, 50, 100],
                    config_echo={"k1": "0.3", "episodes": "25"})
    path = tmp_path / "report.csv"
    emit_report(rep, str(path))
    back = load_report_csv(str(path))
    # 17 significant digits round-trip float64 exactly
    for arm in ("baseline", "corrected"):
        assert back[("episodes", arm, "")] == 25
        assert back[("mean_return", arm, "")] == rep.mean_return[arm]
        assert back[("std_return", arm, "")] == rep.std_return[arm]
        assert back[("risk_rate", arm, "")] == rep.risk_rate[arm]
        assert back[("goal_rate", arm, "")] == rep.goal_rate[arm]
        for p, v in zip(rep.percentile_grid, rep.var_curve[arm]):
            assert back[("var", arm, f"{p:g}")] == v
    assert back[("mean_return", "delta", "")] == rep.deltas["mean_return"]
    assert back[("var", "delta", "10")] == rep.deltas["var@10"]
    assert back[("config", "k1", "")] == "0.3"
    assert isinstance(back[("episodes", "baseline", "")], int)
    assert isinstance(back[("mean_return", "baseline", "")], float)


def test_emit_report_svg_requires_spec(tmp_path):
    rep = summarize([_stats(1.0)], [_stats(1.0)], [50])
    with pytest.raises(EvalError, match="spec"):
        emit_report(rep, str(tmp_path / "r.csv"), str(tmp_path / "r.svg"))


def test_emit_report_writes_svg_with_spec(tmp_path):
    spec = load_env_spec(builtin_spec_path("pointmass"))
    trajs = []
    stats = rollout_batch(spec, ScriptedDirect(spec), None, None, episodes=2,
                          base_seed=3, trajectories_out=trajs, max_trajectories=2)
    rep = summarize(stats, stats, [50], spec=spec,
                    trajectories={"baseline": trajs, "corrected": trajs})
    svg = tmp_path / "scene.svg"
    emit_report(rep, str(tmp_path / "r.csv"), str(svg))
    text = svg.read_text()
    assert text.lstrip().startswith("<svg")


def test_load_report_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("metric,arm,value\n")
    with pytest.raises(EvalError, match="header"):
        load_report_csv(str(path))


# (name, line, text): line replaced in a report CSV whose line 2 is a config row
# and line 3 the baseline episodes row
REPORT_CSV_MUTATIONS = [
    ("float nan", 4, "mean_return,baseline,,nan"), ("float string", 4, "mean_return,baseline,,x"),
    ("float inf", 5, "std_return,baseline,,inf"), ("episodes 2.5", 3, "episodes,baseline,,2.5"),
    ("episodes empty", 3, "episodes,baseline,,"), ("short row", 4, "mean_return,baseline,1.0"),
    ("one field", 4, "mean_return"), ("header", 1, "metric,arm,value"),
]


@pytest.mark.parametrize("line, text", [m[1:] for m in REPORT_CSV_MUTATIONS],
                         ids=[m[0] for m in REPORT_CSV_MUTATIONS])
def test_report_csv_rejects_damaged_lines_naming_the_line(tmp_path, line, text):
    path = tmp_path / "report.csv"
    emit_report(summarize([_stats(1.0)] * 2, [_stats(2.0)] * 2, [50], {"k1": "0.3"}), str(path))
    lines = path.read_text().splitlines()
    assert lines[1].startswith("config,") and lines[2].startswith("episodes,baseline,")
    lines[line - 1] = text
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(EvalError, match=f"^{re.escape(str(path))}:{line}: "):
        load_report_csv(str(path))
