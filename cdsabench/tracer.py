"""In-memory span tracer that wraps cdsa's public functions from outside.

Each traced function is replaced, in every `cdsa` module that holds a
reference to it, by a wrapper that records one span: name id, start, end,
parent span and the id of the request the span serves. Patching every holder
means a call is traced at the name its caller resolves, for example
`cdsa.controller.eval_score` inside the correction loop and
`cdsa.scorefield.forward_batch` inside the score field. Spans live in flat
arrays until the run ends; `dump` writes them to an `.npz` file.

Per-layer metrics derived from the spans (see `layer_metrics`):

- `<layer>.calls` and `<layer>.self_s`: calls and self seconds (span time
  minus the time of its child spans) per request, over the timed window.
- `<layer>.s`: mean span seconds per call over the whole run, set-up included.
- counters such as rows, bytes, passes: summed per layer and divided by its
  calls, over the timed window unless the layer only runs in set-up.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# request ids of spans outside the timed window: set-up, and the benchmark's
# own input generation and output checks, which no metric counts
SETUP = -1
UNTIMED = -2


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.stack: list[int] = []
        self.request_id = SETUP
        self.requests = 0  # requests completed in the timed window
        self.window_counts: dict = defaultdict(float)
        self.all_counts: dict = defaultdict(float)
        self._patches: list = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, name: str, stat: str, value: float) -> None:
        if self.request_id >= 0:
            self.window_counts[(name, stat)] += value
        if self.request_id != UNTIMED:
            self.all_counts[(name, stat)] += value

    def wrap(self, name: str, fn, counter=None):
        """Return fn wrapped in a span; counter(tracer, args, kwargs, result) adds counts."""
        nid = self.intern(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.request.append(self.request_id)
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self.stack.pop()
            if counter is not None:
                counter(self, args, kwargs, out)
            return out

        return traced

    def patch_function(self, name: str, module: str, attr: str, counter=None,
                       make=None) -> None:
        """Replace module.attr, and every other cdsa module's reference to it.

        The replacement is self.wrap(name, fn, counter), or make(self, fn) when given.
        """
        fn = getattr(sys.modules[module], attr)
        traced = make(self, fn) if make is not None else self.wrap(name, fn, counter)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "cdsa" or mod_name.startswith("cdsa.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is fn:
                    self._patches.append((mod, key, val))
                    setattr(mod, key, traced)

    def patch_method(self, name: str, cls, attr: str) -> None:
        fn = cls.__dict__[attr]
        self._patches.append((cls, attr, fn))
        setattr(cls, attr, self.wrap(name, fn))

    def uninstall(self) -> None:
        for owner, key, val in reversed(self._patches):
            setattr(owner, key, val)
        self._patches.clear()

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "request": np.frombuffer(self.request, dtype=np.int32).copy(),
        }

    def dump(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def span_stats(self) -> dict:
        """{name: {calls, self_s, s}} with calls/self_s per window request."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_t = dur - child
        in_window = a["request"] >= 0
        per_req = max(self.requests, 1)
        out = {}
        for nid, name in enumerate(self.names):
            mine = (a["name_id"] == nid) & (a["request"] != UNTIMED)
            win = mine & in_window
            n_all = int(mine.sum())
            out[name] = {
                "calls": float(win.sum()) / per_req,
                "self_s": float(self_t[win].sum()) / per_req,
                "s": float(dur[mine].sum()) / n_all if n_all else 0.0,
                "window_calls": int(win.sum()),
                "all_calls": n_all,
            }
        return out


# ---------------------------------------------------------------------------
# What the benchmark traces
# ---------------------------------------------------------------------------


def _rows(tr, args, kwargs, out):
    x = args[1] if len(args) > 1 else kwargs["x"]
    tr.count("neuralcore.forward_batch", "rows_per_call", len(x))


def _steps(tr, args, kwargs, out):
    tr.count("controller.control_episode", "steps_per_call", len(out))


def _dataset_bytes(tr, args, kwargs, out):
    tr.count("dataset.save_dataset", "bytes", os.path.getsize(args[1]))


def _report_bytes(tr, args, kwargs, out):
    paths = [p for p in list(args[1:3]) + [kwargs.get("svg_path")] if p]
    tr.count("evaluation.emit_report", "bytes", sum(os.path.getsize(p) for p in paths))


def _scene_bytes(tr, args, kwargs, out):
    tr.count("svgplot.render_scene", "bytes", len(out.encode("utf-8")))


def _len_of(name, stat):
    def counter(tr, args, kwargs, out):
        tr.count(name, stat, len(out))
    return counter


def _bundle_bytes(tr, args, kwargs, out):
    d = args[1]
    tr.count("checkpoint.save_bundle", "bytes",
             sum(os.path.getsize(os.path.join(d, f)) for f in os.listdir(d)))


def _wrap_correct_action(tr, fn):
    """Span for correct_action that also counts passes and idle passes.

    A pass is idle when its entry in the per-pass delta norms is exactly 0:
    the correction was clipped away at a bound, or the fields agreed with the
    action. The wrapper supplies its own delta list when the caller gave none.
    """
    name = "controller.correct_action"
    traced = tr.wrap(name, fn)

    @functools.wraps(fn)
    def correct_action(models, s, a_o, cfg, deltas_out=None):
        own = [] if deltas_out is None else deltas_out
        n0 = len(own)
        out = traced(models, s, a_o, cfg, own)
        new = own[n0:]
        tr.count(name, "passes_per_call", len(new))
        tr.count(name, "idle_pass_share", sum(1 for d in new if d == 0.0))
        return out

    return correct_action


def install(tr: Tracer) -> None:
    """Wrap every layer function the benchmark reports on."""
    from cdsa import envs

    funcs = [
        ("neuralcore.forward_batch", "cdsa.neuralcore", "forward_batch", _rows),
        ("neuralcore.backward_batch", "cdsa.neuralcore", "backward_batch", None),
        ("neuralcore.adam_step", "cdsa.neuralcore", "adam_step", None),
        ("scorefield.dsm_loss", "cdsa.scorefield", "dsm_loss_reparam_given_noise", None),
        ("scorefield.eval_score", "cdsa.scorefield", "eval_score", None),
        ("invdyn.invdyn_loss", "cdsa.invdyn", "invdyn_loss", None),
        ("invdyn.infer_action", "cdsa.invdyn", "infer_action", None),
        ("controller.train_cdsa", "cdsa.controller", "train_cdsa", None),
        ("controller.control_episode", "cdsa.controller", "control_episode", _steps),
        ("envs.env_step", "cdsa.envs", "env_step", None),
        ("envs.train_bc_policy", "cdsa.envs", "train_bc_policy", None),
        ("evaluation.rollout_batch", "cdsa.evaluation", "rollout_batch", None),
        ("evaluation.emit_report", "cdsa.evaluation", "emit_report", _report_bytes),
        ("svgplot.render_scene", "cdsa.svgplot", "render_scene", _scene_bytes),
        ("dataset.generate_dataset", "cdsa.dataset", "generate_dataset",
         _len_of("dataset.generate_dataset", "transitions")),
        ("dataset.save_dataset", "cdsa.dataset", "save_dataset", _dataset_bytes),
        ("dataset.load_dataset", "cdsa.dataset", "load_dataset",
         _len_of("dataset.load_dataset", "records")),
        ("checkpoint.save_bundle", "cdsa.checkpoint", "save_bundle", _bundle_bytes),
        ("checkpoint.load_bundle", "cdsa.checkpoint", "load_bundle", None),
    ]
    for name, module, attr, counter in funcs:
        tr.patch_function(name, module, attr, counter)

    tr.patch_function("controller.correct_action", "cdsa.controller", "correct_action",
                      make=_wrap_correct_action)
    for cls in (envs.BehaviorCloned, envs.ScriptedRiskAvoiding,
                envs.ScriptedDirect, envs.RandomPolicy):
        tr.patch_method("envs.policy_act", cls, "act")
    tr.patch_method("envs.planner_build", envs.ScriptedRiskAvoiding, "__init__")


# (metric name, unit, better) for every per-layer metric, in report order.
LAYER_METRICS = [
    ("neuralcore.forward_batch.calls", "count", "lower"),
    ("neuralcore.forward_batch.rows_per_call", "count", "higher"),
    ("neuralcore.forward_batch.self_s", "s", "lower"),
    ("neuralcore.backward_batch.calls", "count", "lower"),
    ("neuralcore.backward_batch.self_s", "s", "lower"),
    ("neuralcore.adam_step.calls", "count", "lower"),
    ("neuralcore.adam_step.self_s", "s", "lower"),
    ("scorefield.dsm_loss.calls", "count", "lower"),
    ("scorefield.dsm_loss.self_s", "s", "lower"),
    ("invdyn.invdyn_loss.calls", "count", "lower"),
    ("invdyn.invdyn_loss.self_s", "s", "lower"),
    ("controller.train_cdsa.self_s", "s", "lower"),
    ("envs.train_bc_policy.self_s", "s", "lower"),
    ("scorefield.eval_score.calls", "count", "lower"),
    ("scorefield.eval_score.self_s", "s", "lower"),
    ("invdyn.infer_action.calls", "count", "lower"),
    ("invdyn.infer_action.self_s", "s", "lower"),
    ("controller.correct_action.calls", "count", "lower"),
    ("controller.correct_action.self_s", "s", "lower"),
    ("controller.correct_action.passes_per_call", "count", "lower"),
    ("controller.correct_action.idle_pass_share", "ratio", "lower"),
    ("controller.control_episode.calls", "count", "lower"),
    ("controller.control_episode.self_s", "s", "lower"),
    ("controller.control_episode.steps_per_call", "count", "lower"),
    ("envs.env_step.calls", "count", "lower"),
    ("envs.env_step.self_s", "s", "lower"),
    ("envs.policy_act.calls", "count", "lower"),
    ("envs.policy_act.self_s", "s", "lower"),
    ("evaluation.rollout_batch.calls", "count", "lower"),
    ("evaluation.rollout_batch.self_s", "s", "lower"),
    ("evaluation.emit_report.self_s", "s", "lower"),
    ("evaluation.emit_report.bytes", "bytes", "lower"),
    ("svgplot.render_scene.s", "s", "lower"),
    ("svgplot.render_scene.bytes", "bytes", "lower"),
    ("envs.planner_build_s", "s", "lower"),
    ("dataset.generate_dataset.self_s", "s", "lower"),
    ("dataset.generate_dataset.transitions", "count", "higher"),
    ("dataset.save_dataset.s", "s", "lower"),
    ("dataset.save_dataset.bytes", "bytes", "lower"),
    ("dataset.load_dataset.s", "s", "lower"),
    ("dataset.load_dataset.records", "count", "higher"),
    ("checkpoint.save_bundle.s", "s", "lower"),
    ("checkpoint.save_bundle.bytes", "bytes", "lower"),
    ("checkpoint.load_bundle.s", "s", "lower"),
]

def layer_metrics(tr: Tracer) -> dict:
    """Value of every LAYER_METRICS entry; 0 for a layer the workload never calls.

    A counter carries the name of the metric it feeds and is divided by the
    layer's calls, except idle passes, which are divided by all passes.
    """
    spans = tr.span_stats()
    empty = {"calls": 0.0, "self_s": 0.0, "s": 0.0, "window_calls": 0, "all_calls": 0}
    out = {}
    for metric, _unit, _better in LAYER_METRICS:
        if metric == "envs.planner_build_s":
            out[metric] = spans.get("envs.planner_build", empty)["s"]
            continue
        layer, stat = metric.rsplit(".", 1)
        st = spans.get(layer, empty)
        if stat in ("calls", "self_s", "s"):
            out[metric] = st[stat]
            continue
        # over the timed window, or over set-up for a layer that only runs there
        counts, ncalls = ((tr.window_counts, st["window_calls"]) if st["window_calls"]
                          else (tr.all_counts, st["all_calls"]))
        den = (counts.get((layer, "passes_per_call"), 0.0) if stat == "idle_pass_share"
               else ncalls)
        out[metric] = counts.get((layer, stat), 0.0) / den if den else 0.0
    return out
