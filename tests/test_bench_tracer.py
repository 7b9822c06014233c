"""The benchmark tracer's name contract with the library.

`cdsabench/tracer.py` wraps library functions and methods by name. This test
loads it as it is, without writing bytecode next to it, installs it on a
fresh Tracer and checks that every layer it reports on was found and wrapped,
then uninstalls it and checks that every original object is back. A rename
or deletion that would break `cdsabench/run.py --trace 1` fails here first.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from cdsa import (
    checkpoint,
    controller,
    dataset,
    envs,
    evaluation,
    invdyn,
    neuralcore,
    scorefield,
    svgplot,
)

TRACER_PATH = Path(__file__).resolve().parent.parent / "cdsabench" / "tracer.py"
# install looks each traced function up in its module, so all must be loaded
TRACED_MODULES = (checkpoint, dataset, envs, evaluation, invdyn, neuralcore, scorefield,
                  svgplot)
POLICY_CLASSES = (envs.BehaviorCloned, envs.ScriptedRiskAvoiding, envs.ScriptedDirect,
                  envs.RandomPolicy)


def _load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("cdsabench_tracer_under_test", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot() -> dict:
    """Every attribute of every cdsa module and every policy class's own dict."""
    owners = {m for name, m in sys.modules.items()
              if m is not None and (name == "cdsa" or name.startswith("cdsa."))}
    assert owners >= set(TRACED_MODULES)
    snap = {(owner, key): val for owner in owners for key, val in vars(owner).items()}
    snap.update(((cls, key), val) for cls in POLICY_CLASSES for key, val in vars(cls).items())
    return snap


def test_tracer_install_resolves_every_name_and_uninstall_restores(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    before = _snapshot()
    tr = tracer.Tracer()
    tracer.install(tr)
    try:
        # every per-layer metric reads spans of a layer that install wrapped
        layers = {"envs.planner_build" if metric == "envs.planner_build_s"
                  else metric.rsplit(".", 1)[0] for metric, _, _ in tracer.LAYER_METRICS}
        assert layers <= set(tr.names), sorted(layers - set(tr.names))
        # each wrapper stands where the original was and wraps exactly that object
        patches = list(tr._patches)
        assert patches
        for owner, key, original in patches:
            wrapper = vars(owner)[key]
            assert wrapper is not original and wrapper.__wrapped__ is original, (owner, key)
        for cls in POLICY_CLASSES:
            assert any(owner is cls and key == "act" for owner, key, _ in patches), cls
        assert any(owner is envs.ScriptedRiskAvoiding and key == "__init__"
                   for owner, key, _ in patches)
        assert any(owner is dataset and key == "generate_dataset" for owner, key, _ in patches)
    finally:
        tr.uninstall()
    assert not tr._patches
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items()), [
        k[1] for k, v in before.items() if after[k] is not v]


def test_traced_dataset_length_is_the_row_count():
    # the tracer counts dataset.generate_dataset.transitions and
    # dataset.load_dataset.records as len() of the returned dataset
    spec = envs.load_env_spec(envs.builtin_spec_path("linear"))
    data = dataset.generate_dataset(spec, envs.RandomPolicy(spec), 2, spec.max_steps,
                                    neuralcore.Rng(3))
    assert "__len__" in dataset.Dataset.__dict__
    assert len(data) == len(data.states) > 2


def test_tracer_counts_the_rollout_network_calls(monkeypatch):
    # rollouts evaluate inference snapshots, still through neuralcore.forward_batch:
    # per lockstep step one BC call, then per pass one g|h call and one I call,
    # or one call of g alone when the k2 term is off
    spec = envs.load_env_spec(envs.builtin_spec_path("linear"))
    data = dataset.generate_dataset(spec, envs.RandomPolicy(spec), 8, spec.max_steps,
                                    neuralcore.Rng(3))
    models = controller.train_cdsa(
        data, scorefield.ScoreTrainConfig(sigma=0.2, iterations=20, batch_size=16, seed=5),
        invdyn.InvDynTrainConfig(iterations=20, batch_size=16, seed=7))
    bc, _ = envs.train_bc_policy(data, envs.BcTrainConfig(iterations=20, batch_size=16, seed=9),
                                 spec.action_low, spec.action_high)
    episodes = controller.SPLIT_MIN_EPISODES // 4  # one process: the tracer sees every call
    tracer = _load_tracer(monkeypatch)
    for k2, calls_per_pass in ((0.1, 2), (0.0, 1)):
        cfg = controller.ControlConfig(0.2, k2, spec.action_low, spec.action_high, n_refine=1)
        tr = tracer.Tracer()
        tracer.install(tr)
        try:
            stats = evaluation.rollout_batch(spec, bc, models, cfg, episodes, 11)
        finally:
            tr.uninstall()
        per_step = 1 + calls_per_pass * (1 + cfg.n_refine)
        steps = [s.steps for s in stats]
        calls = tr.span_stats()["neuralcore.forward_batch"]["all_calls"]
        assert calls == per_step * max(steps) > 0
        rows = tr.all_counts[("neuralcore.forward_batch", "rows_per_call")]
        assert rows == per_step * sum(steps)
