"""The two workloads: a paired-seed evaluation sweep and the offline build.

Every workload is a closed loop with one client: the next request is sent
only when the previous one has returned. A workload object is built fresh for
each set-up repetition; `setup` is what `setup_s` times, `make_inputs` is the
benchmark's own untimed input generation, and `window` runs requests until the
time is up and checks each one after its timing ends.

The library is always reached through module attributes (`controller.
correct_action`, not a local alias) so a tracer installed by the runner sees
every call.
"""

from __future__ import annotations

import os
import shutil
import time
from array import array

import numpy as np

from cdsa import checkpoint, controller, dataset, envs, evaluation
from cdsa.invdyn import InvDynTrainConfig
from cdsa.neuralcore import Rng
from cdsa.scorefield import ScoreTrainConfig

clock = time.perf_counter


class Result:
    """Requests timed in the window plus the outcome of every check."""

    def __init__(self):
        self.latencies = array("d")
        self.work_units = 0.0  # what work_per_s counts
        self.work_s = 0.0      # time the work units took
        self.attempted = 0
        self.failed = 0
        self.notes: dict = {}

    def tally(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1


class Workload:
    """Shared parts of the two workloads; ctx gives the bundle and scratch directories."""

    def __init__(self, ctx):
        self.ctx = ctx

    @staticmethod
    def repeat(seconds: float, tracer, one) -> int:
        """Call one(k) for k = 0, 1, ... until the time is up, at least once."""
        deadline = clock() + seconds
        k = 0
        while True:
            if tracer is not None:
                tracer.request_id = k
            one(k)
            k += 1
            if clock() >= deadline:
                return k


def _baseline_cfg(spec):
    return controller.ControlConfig(0.0, 0.0, spec.action_low, spec.action_high,
                                    ablation="baseline")


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# eval-pointmass
# ---------------------------------------------------------------------------


class Eval(Workload):
    """Paired-seed sweep like `cdsa eval`: a baseline arm and six corrected arms."""

    K1 = (0.1, 0.3)
    K2 = (0.0, 0.02, 0.05)
    EPISODES = 100
    PERCENTILES = (5, 10, 25, 50, 75, 100)
    TRAJECTORIES = 10

    def setup(self):
        self.spec = envs.load_env_spec(envs.builtin_spec_path("pointmass"))
        self.models = checkpoint.load_bundle(self.ctx.bundle)
        self.bc = checkpoint.load_bundle_bc(self.ctx.bundle)
        spec = self.spec
        cfg = controller.ControlConfig(self.K1[0], self.K2[-1], spec.action_low,
                                       spec.action_high)
        evaluation.rollout_batch(spec, self.bc, None, _baseline_cfg(spec), 2, 0)
        evaluation.rollout_batch(spec, self.bc, self.models, cfg, 2, 0)

    def make_inputs(self, seed: int):
        # sweep k uses paired-seed base seed seed*1000 + k
        self.seed = seed
        self.outdir = self.ctx.scratch("eval")

    def _sweep(self, base_seed: int, res: Result) -> bool:
        """One timed sweep; the reports it wrote are checked after the clock stops."""
        spec, bc, models = self.spec, self.bc, self.models
        t_start = clock()
        traj_b: list = []
        stats_b = evaluation.rollout_batch(spec, bc, None, _baseline_cfg(spec), self.EPISODES,
                                           base_seed, 1.0, traj_b, self.TRAJECTORIES)
        arms = []
        for k1 in self.K1:
            for k2 in self.K2:
                cfg = controller.ControlConfig(k1, k2, spec.action_low, spec.action_high)
                traj_c: list = []
                t0 = clock()
                stats_c = evaluation.rollout_batch(spec, bc, models, cfg, self.EPISODES,
                                                   base_seed, 1.0, traj_c, self.TRAJECTORIES)
                res.work_s += clock() - t0
                res.work_units += sum(s.steps for s in stats_c)
                echo = {"k1": k1, "k2": k2, "episodes": self.EPISODES, "base_seed": base_seed}
                report = evaluation.summarize(stats_b, stats_c, self.PERCENTILES, echo, spec,
                                              {"baseline": traj_b, "corrected": traj_c})
                tag = f"k1_{k1:g}_k2_{k2:g}"
                csv_path = os.path.join(self.outdir, f"report_{tag}.csv")
                svg_path = os.path.join(self.outdir, f"report_{tag}.svg")
                evaluation.emit_report(report, csv_path, svg_path)
                arms.append((stats_c, report, csv_path, svg_path))
        res.latencies.append(clock() - t_start)

        ret_b = [s.undiscounted_return for s in stats_b]
        occ_b = evaluation.risk_entry_rate(stats_b)
        mean_b, var10_b = float(np.mean(ret_b)), evaluation.var_at(ret_b, 10)
        reports_ok, hit = True, False
        for stats_c, report, csv_path, svg_path in arms:
            parsed = evaluation.load_report_csv(csv_path)
            reports_ok = reports_ok and (
                parsed[("mean_return", "corrected", "")] == report.mean_return["corrected"]
                and parsed[("risk_rate", "baseline", "")] == report.risk_rate["baseline"]
                and os.path.getsize(svg_path) > 0)
            ret_c = [s.undiscounted_return for s in stats_c]
            hit = hit or (evaluation.risk_entry_rate(stats_c) <= 0.5 * occ_b
                          and float(np.mean(ret_c)) > mean_b
                          and evaluation.var_at(ret_c, 10) > var10_b)
        return reports_ok and occ_b > 0 and hit

    def window(self, seconds: float, tracer=None) -> Result:
        """Sweeps until the time is up; each must meet the acceptance-6 bar."""
        res = Result()
        res.notes["sweeps"] = self.repeat(
            seconds, tracer, lambda k: res.tally(self._sweep(self.seed * 1000 + k, res)))
        return res


# ---------------------------------------------------------------------------
# pipeline-transport
# ---------------------------------------------------------------------------


class Pipeline(Workload):
    """Replay buffer to a reloaded, deployable bundle on the transport map."""

    DATA_EPISODES = 40
    TRAIN_ITERS = 300
    BC_ITERS = 300
    LOSS_WINDOW = 50

    def setup(self):
        self.spec = envs.load_env_spec(envs.builtin_spec_path("transport"))
        self.planner = envs.ScriptedRiskAvoiding(self.spec, exec_noise=0.2)
        # warm-up: every network shape through forward, backward and Adam at batch 256
        data = dataset.generate_dataset(self.spec, self.planner, 2, self.spec.max_steps, Rng(0))
        controller.train_cdsa(data, ScoreTrainConfig(sigma=0.2, iterations=3, seed=0),
                              InvDynTrainConfig(iterations=3, seed=0))
        envs.train_bc_policy(data, envs.BcTrainConfig(iterations=3, seed=0),
                             self.spec.action_low, self.spec.action_high)

    def make_inputs(self, seed: int):
        # build k draws its data from seed*1000 + k and trains with seeds derived from it
        self.seed = seed
        self.outdir = self.ctx.scratch("pipeline")

    def _build(self, k: int, res: Result, timings: dict) -> bool:
        spec = self.spec
        base = self.seed * 1000 + k
        data_path = os.path.join(self.outdir, "data.jsonl")
        bundle_dir = os.path.join(self.outdir, "bundle")
        shutil.rmtree(bundle_dir, ignore_errors=True)
        hist: dict = {}
        t0 = clock()
        data = dataset.generate_dataset(spec, self.planner, self.DATA_EPISODES, spec.max_steps,
                                        Rng(base))
        t1 = clock()
        dataset.save_dataset(data, data_path)
        loaded = dataset.load_dataset(data_path)
        t2 = clock()
        models = controller.train_cdsa(
            loaded, ScoreTrainConfig(sigma=0.2, iterations=self.TRAIN_ITERS, seed=base),
            InvDynTrainConfig(iterations=self.TRAIN_ITERS, seed=base + 7), hist)
        t3 = clock()
        bc, bc_hist = envs.train_bc_policy(
            loaded, envs.BcTrainConfig(iterations=self.BC_ITERS, seed=base + 11),
            spec.action_low, spec.action_high)
        checkpoint.save_bundle(models, bundle_dir, bc)
        models2 = checkpoint.load_bundle(bundle_dir)
        bc2 = checkpoint.load_bundle_bc(bundle_dir)
        t4 = clock()
        res.latencies.append(t4 - t0)
        res.work_units += self.TRAIN_ITERS
        res.work_s += t3 - t2
        timings["datagen_s"] += t1 - t0
        timings["transitions"] += len(data)

        data_ok = all(_same_bits(getattr(data, f), getattr(loaded, f))
                      for f in ("states", "actions", "rewards", "next_states", "dones"))
        data_ok = data_ok and data.norm.equals(loaded.norm)
        nets = [(models.action_score.params, models2.action_score.params),
                (models.state_score.params, models2.state_score.params),
                (models.invdyn.params, models2.invdyn.params),
                (bc.params, bc2.params)]
        bundle_ok = models.norm.equals(models2.norm) and all(
            all(_same_bits(x, y) for x, y in zip(p.weights + p.biases, q.weights + q.biases))
            for p, q in nets)
        w = self.LOSS_WINDOW
        losses_ok = True
        for series in list(hist.values()) + [bc_hist]:
            vals = np.array([loss for _, loss in series])
            losses_ok = (losses_ok and len(vals) >= 2 * w and bool(np.all(np.isfinite(vals)))
                         and vals[-w:].mean() < vals[:w].mean())
        return data_ok and bundle_ok and losses_ok

    def window(self, seconds: float, tracer=None) -> Result:
        """Builds until the time is up; round-trips bit-exact, losses finite and falling."""
        res = Result()
        timings = {"datagen_s": 0.0, "transitions": 0}
        res.notes["builds"] = self.repeat(
            seconds, tracer, lambda k: res.tally(self._build(k, res, timings)))
        res.notes["datagen_transitions_per_s"] = timings["transitions"] / timings["datagen_s"]
        return res


WORKLOADS = {
    "eval-pointmass": Eval,
    "pipeline-transport": Pipeline,
}


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), p))
