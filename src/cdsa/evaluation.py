"""Batch rollouts, value-at-risk statistics, and report emission.

Baseline and corrected controllers are compared under paired seeds: episode i
of either arm draws from the rng substream (base_seed, i), so both arms see
identical start states and risk events and every difference is attributable
to the correction. VaR uses the linear-interpolation percentile (index
(n-1)*p/100 into the ascending sort), which is nondecreasing in p by
construction.

An arm's episodes run in lockstep: every time step makes one batched policy
call, one batched correction and one batched env step over the episodes still
running, and a finished episode leaves the batch. The paired-seed randomness
is exactly that of running the episodes one at a time (each episode draws
only from its own substream, in the same order). The values match such a run
to float tolerance, not bitwise: a network evaluates all running episodes in
one matrix product, and BLAS rounds a row's last bits differently at
different batch sizes. Without a network in the loop they match bitwise.
An arm of controller.SPLIT_MIN_EPISODES (64) or more episodes runs as two
halves on two cores, the second in a forked child (controller.run_episodes);
each half is such a lockstep batch, and the stats come back in episode order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .controller import CdsaModels, ControlConfig, run_episodes
from .envs import EnvSpec, Policy
from .neuralcore import Rng
from .readers import parse_field, read_csv, write_text
from . import svgplot


class EvalError(ValueError):
    """Invalid evaluation input."""


@dataclass
class EpisodeStats:
    undiscounted_return: float
    discounted_return: float
    steps: int
    risk_entries: int
    reached_goal: bool
    seed: int

    def validate(self, max_steps: int) -> None:
        if self.steps > max_steps:
            raise EvalError(f"steps {self.steps} exceed budget {max_steps}")
        if self.risk_entries > self.steps:
            raise EvalError("risk_entries cannot exceed steps")


def rollout_batch(env_spec: EnvSpec, base_policy: Policy,
                  models: CdsaModels | None, cfg: ControlConfig | None,
                  episodes: int, base_seed: int, gamma: float = 1.0,
                  trajectories_out: list | None = None,
                  max_trajectories: int = 0) -> list[EpisodeStats]:
    """Run `episodes` paired-seed episodes; episode i uses substream (base_seed, i).

    All episodes step in lockstep (see controller.run_episodes). models =
    None rolls the base policy uncorrected. The first max_trajectories
    trajectories are appended to trajectories_out when given; only those
    episodes keep full step records.
    """
    if episodes < 1:
        raise EvalError(f"episodes must be >= 1, got {episodes}")
    root = Rng(base_seed)
    record = max_trajectories if trajectories_out is not None else 0
    totals, trajectories = run_episodes(
        env_spec, base_policy, models, cfg, [root.substream(i) for i in range(episodes)],
        gamma=gamma, record=record)
    out = []
    for i in range(episodes):
        st = EpisodeStats(
            undiscounted_return=float(totals.returns[i]),
            discounted_return=float(totals.discounted_returns[i]),
            steps=int(totals.steps[i]),
            risk_entries=int(totals.risk_entries[i]),
            reached_goal=bool(totals.reached_goal[i]),
            seed=i,
        )
        st.validate(env_spec.max_steps)
        out.append(st)
    if trajectories_out is not None:
        trajectories_out.extend(trajectories)
    return out


def var_at(returns, percentile: float) -> float:
    """Linear-interpolation percentile of the ascending sort of returns."""
    arr = np.asarray(list(returns), dtype=np.float64)
    if len(arr) == 0:
        raise EvalError("var_at needs a nonempty list of returns")
    if not 0.0 <= percentile <= 100.0:
        raise EvalError(f"percentile must be in [0, 100], got {percentile}")
    return float(np.percentile(arr, percentile, method="linear"))


def risk_entry_rate(stats: list[EpisodeStats]) -> float:
    """Mean over episodes of (risk-occupied steps / total steps)."""
    fracs = [s.risk_entries / s.steps if s.steps > 0 else 0.0 for s in stats]
    return float(np.mean(fracs)) if fracs else 0.0


@dataclass
class Report:
    percentile_grid: list
    episodes: dict
    mean_return: dict
    std_return: dict
    risk_rate: dict
    goal_rate: dict
    var_curve: dict
    deltas: dict
    config_echo: dict
    warnings: list
    spec: EnvSpec | None = None
    trajectories: dict = field(default_factory=dict)


def summarize(stats_baseline: list[EpisodeStats], stats_corrected: list[EpisodeStats],
              percentile_grid, config_echo: dict | None = None,
              spec: EnvSpec | None = None, trajectories: dict | None = None) -> Report:
    """Aggregate the two arms into a Report; deterministic fold."""
    if not stats_baseline or not stats_corrected:
        raise EvalError("summarize needs nonempty stats for both arms")
    grid = [float(p) for p in percentile_grid]
    warnings = []
    if len(stats_baseline) != len(stats_corrected):
        warnings.append(
            f"episode counts differ: baseline {len(stats_baseline)}, "
            f"corrected {len(stats_corrected)}")
    arms = {"baseline": stats_baseline, "corrected": stats_corrected}
    returns = {k: [s.undiscounted_return for s in v] for k, v in arms.items()}
    report = Report(
        percentile_grid=grid,
        episodes={k: len(v) for k, v in arms.items()},
        mean_return={k: float(np.mean(r)) for k, r in returns.items()},
        std_return={k: float(np.std(r)) for k, r in returns.items()},
        risk_rate={k: risk_entry_rate(v) for k, v in arms.items()},
        goal_rate={k: float(np.mean([s.reached_goal for s in v])) for k, v in arms.items()},
        var_curve={k: [var_at(r, p) for p in grid] for k, r in returns.items()},
        deltas={},
        config_echo=dict(config_echo or {}),
        warnings=warnings,
        spec=spec,
        trajectories=dict(trajectories or {}),
    )
    report.deltas["mean_return"] = (report.mean_return["corrected"]
                                    - report.mean_return["baseline"])
    report.deltas["risk_rate"] = (report.risk_rate["corrected"]
                                  - report.risk_rate["baseline"])
    for i, p in enumerate(grid):
        report.deltas[f"var@{p:g}"] = (report.var_curve["corrected"][i]
                                       - report.var_curve["baseline"][i])
    return report


def _csv_rows(report: Report):
    rows = []
    for key, val in sorted(report.config_echo.items()):
        rows.append(("config", str(key), "", str(val)))
    for arm in ("baseline", "corrected"):
        rows.append(("episodes", arm, "", f"{report.episodes[arm]}"))
        rows.append(("mean_return", arm, "", f"{report.mean_return[arm]:.17g}"))
        rows.append(("std_return", arm, "", f"{report.std_return[arm]:.17g}"))
        rows.append(("risk_rate", arm, "", f"{report.risk_rate[arm]:.17g}"))
        rows.append(("goal_rate", arm, "", f"{report.goal_rate[arm]:.17g}"))
        for p, v in zip(report.percentile_grid, report.var_curve[arm]):
            rows.append(("var", arm, f"{p:g}", f"{v:.17g}"))
    for key in ("mean_return", "risk_rate"):
        rows.append((key, "delta", "", f"{report.deltas[key]:.17g}"))
    for p in report.percentile_grid:
        rows.append(("var", "delta", f"{p:g}", f"{report.deltas[f'var@{p:g}']:.17g}"))
    for w in report.warnings:
        rows.append(("warning", "", "", w.replace(",", ";")))
    return rows


def emit_report(report: Report, csv_path: str, svg_path: str | None = None) -> None:
    """Write the report CSV and, when the report carries a spec, the scene SVG."""
    lines = [",".join(row) + "\n" for row in _csv_rows(report)]
    write_text(csv_path, ["metric,arm,percentile,value\n"] + lines, EvalError,
               f"report CSV {csv_path}")
    if svg_path is not None:
        if report.spec is None:
            raise EvalError("report has no env spec; cannot draw the scene SVG")
        write_text(svg_path, [svgplot.render_scene(report.spec, report.trajectories), "\n"],
                   EvalError, f"report SVG {svg_path}")


def load_report_csv(path: str) -> dict:
    """Parse an emitted report CSV into {(metric, arm, percentile): value}.

    Numeric values come back as floats (17 significant digits round-trip
    float64 exactly); config and warning rows stay strings. EvalError
    names path:lineno of a line that is not a report row.
    """
    header, rows = read_csv(path, EvalError)
    if header != ["metric", "arm", "percentile", "value"]:
        raise EvalError(f"{path}:1: unexpected report CSV header: {','.join(header)!r}")
    out = {}
    for where, (metric, arm, pct, value) in rows:
        kind = (str if metric in ("config", "warning")
                else int if metric == "episodes" else float)
        out[(metric, arm, pct)] = parse_field(value, kind, EvalError, f"{where}: value")
    return out
