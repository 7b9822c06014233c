"""Conservative action correction: training its three models, and the corrected controller.

The controller nudges a base policy's action toward regions the offline data
supports, using three learned pieces: an action-score field (direct gradient
step on the action), a state-score field plus an inverse dynamics model (a
desired state displacement realized as an action), and the normalization
stats they share. The correction rule is

    a <- clip(a + k1 * (action_std * g(s, a)) + k2 * I(s, s + state_step), bounds)

applied 1 + n_refine times, re-evaluating both terms at the updated action
each pass. Scores live in normalized coordinates; the k1 term is mapped back
to env units through the action std, and the inverse-dynamics term is already
an env-unit action.

Episodes run in lockstep (run_episodes): every time step corrects the actions
of all running episodes at once, and correct_action / control_episode are the
one-row / one-episode cases. The networks run on InferenceNet snapshots taken
once per batch (before any fork): g and h as one stacked pass, since both
read [s_n, a_n], then I; so a pass makes two network calls, and a write into
the params is seen by the next batch, not by one already running. A batch
of at least SPLIT_MIN_EPISODES runs as two halves on two cores, the second in
a child made by a POSIX fork, as train_cdsa trains the inverse model; below
that a fork costs more than it saves (see the constant). Each half steps its
own copy of the policy and of its episodes' rngs, so a policy must not carry
state from one act_batch call to the next (none does).

A small Langevin sampler over a score function is included as a diagnostic;
the controller itself never samples.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from dataclasses import dataclass, replace

import numpy as np

from .dataset import Dataset, NormStats
from .envs import EnvSpec, EnvStates, Policy, env_reset, env_step_batch
from .invdyn import InvDynModel, InvDynTrainConfig, train_invdyn
from .neuralcore import (
    InferenceNet,
    MlpParams,
    Rng,
    forward_batch,
    row_norms,
    single_blas_thread,
)
from .readers import parse_field, read_csv
from .scorefield import ScoreField, ScoreKind, ScoreTrainConfig, train_score_field

ABLATIONS = ("full", "no_a1", "no_a2", "baseline")

# run_episodes splits a batch of at least this many episodes across two
# processes. Measured on 2 shared vCPUs, split against one-process runs on
# paired seeds: a fork round trip costs about 3 ms, and a lockstep step of
# the eval-pointmass bundle (k1 0.1, k2 0.05) about 0.4 ms plus 15 us per
# live row, of which a split saves only the per-row part. Those corrected
# rollouts broke even at about 48 episodes (split 1.15-1.6x slower at 2
# episodes, a median 1.06x at 32 and 1.10x at 40 over six runs, about 1.2x
# faster at 100), while planner dataset generation, which costs more per row,
# ran 1.1-1.4x faster split at 40 episodes. So the minimum stays at 32: from
# 32 to 48 episodes a corrected rollout runs about 5-10 % slower split, and
# dataset generation gains more.
SPLIT_MIN_EPISODES = 32


class ControlError(ValueError):
    """Dimension mismatch or non-finite value inside the controller."""


@dataclass
class CdsaModels:
    action_score: ScoreField
    state_score: ScoreField
    invdyn: InvDynModel
    norm: NormStats

    def validate(self) -> None:
        if self.action_score.kind is not ScoreKind.ACTION:
            raise ControlError("action_score must be an ACTION field")
        if self.state_score.kind is not ScoreKind.STATE:
            raise ControlError("state_score must be a STATE field")
        for other in (self.state_score.norm, self.invdyn.norm):
            if not self.norm.equals(other):
                raise ControlError("all models must share one set of norm stats")
        if not self.norm.equals(self.action_score.norm):
            raise ControlError("all models must share one set of norm stats")
        g, h = self.action_score.params, self.state_score.params
        if g.layer_dims[:-1] != h.layer_dims[:-1] or g.leaky_slope != h.leaky_slope:
            raise ControlError("the action and state fields must share input dims, hidden "
                               "dims and slope (rollouts evaluate them as one stack)")

    @property
    def state_dim(self) -> int:
        return len(self.norm.state_mean)

    @property
    def action_dim(self) -> int:
        return len(self.norm.action_mean)


@dataclass
class ControlConfig:
    k1: float
    k2: float
    action_low: np.ndarray
    action_high: np.ndarray
    n_refine: int = 1
    ablation: str = "full"

    def validate(self) -> None:
        if not (0 <= self.k1 < math.inf and 0 <= self.k2 < math.inf):
            raise ControlError(f"k1 and k2 must be finite and >= 0, got {self.k1}, {self.k2}")
        if self.n_refine < 0:
            raise ControlError(f"n_refine must be >= 0, got {self.n_refine}")
        if self.ablation not in ABLATIONS:
            raise ControlError(f"ablation must be one of {ABLATIONS}")
        low = np.asarray(self.action_low, dtype=np.float64)
        high = np.asarray(self.action_high, dtype=np.float64)
        if not np.all(low < high):
            raise ControlError("action_low must be < action_high elementwise")


@dataclass
class LangevinConfig:
    alpha: float
    steps: int

    def validate(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ControlError(f"alpha must be finite and positive, got {self.alpha}")
        if self.steps < 0:
            raise ControlError(f"steps must be >= 0, got {self.steps}")


class _Forked:
    """fn() run in a forked child process; its pickled outcome comes back over a pipe.

    The child never returns into the caller's stack: it leaves through
    os._exit whatever happens. Being a fork, it inherits every lock as it
    was, so fork only where no other thread may hold one that fn needs. Use as a context manager: on exit a child
    whose result was not read is killed, and the child is always reaped.
    """

    def __init__(self, fn):
        self._read, write = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(self._read)
            os.close(write)
            raise
        if self.pid == 0:
            code = 1
            try:
                os.close(self._read)
                try:
                    outcome = (True, fn())
                except BaseException as exc:  # sent to the parent, which raises it
                    outcome = (False, exc)
                try:
                    blob = pickle.dumps(outcome)
                    pickle.loads(blob)
                except Exception:  # an exception that does not survive pickling
                    blob = pickle.dumps((False, RuntimeError(repr(outcome[1]))))
                with os.fdopen(write, "wb") as fh:
                    fh.write(blob)
                code = 0
            finally:
                os._exit(code)
        os.close(write)
        self._status = None

    def __enter__(self) -> "_Forked":
        return self

    def result(self):
        """Wait for the child; return fn()'s value or raise the exception it raised."""
        with os.fdopen(self._read, "rb") as fh:
            self._read = None
            blob = fh.read()
        _, self._status = os.waitpid(self.pid, 0)
        if not blob:
            raise RuntimeError(f"child process {self.pid} sent no result "
                               f"(exit code {os.waitstatus_to_exitcode(self._status)})")
        ok, value = pickle.loads(blob)
        if not ok:
            raise value
        return value

    def __exit__(self, *exc_info) -> None:
        if self._read is not None:
            os.close(self._read)
        if self._status is None:
            os.kill(self.pid, signal.SIGKILL)
            _, self._status = os.waitpid(self.pid, 0)


def _train_invdyn_flat(dataset: Dataset, config: InvDynTrainConfig):
    """train_invdyn's net as (layer_dims, slope, flat buffer) plus its history."""
    model, history = train_invdyn(dataset, config)
    net = model.params
    return (net.layer_dims, net.leaky_slope, net.flat), history


def train_cdsa(dataset: Dataset, score_cfg: ScoreTrainConfig,
               invdyn_cfg: InvDynTrainConfig,
               histories_out: dict | None = None) -> CdsaModels:
    """Train both score fields and the inverse dynamics model, on two cores.

    The three models never interact, so each is trained alone by its own
    trainer: the action field with score_cfg.seed, the state field with
    score_cfg.seed + 1, the inverse model with invdyn_cfg.seed. The inverse
    model trains in a forked child process while this process trains the
    action field and then the state field; both run BLAS on one thread
    meanwhile, and the results are bitwise those of training the three one
    after another. An exception in the child is raised here with its type
    and message. Both configs are checked before any training starts. When
    histories_out is given it is filled with per-step (step, loss) lists
    under keys action_score, state_score, invdyn.
    """
    score_cfg.validate()
    invdyn_cfg.validate()
    with single_blas_thread(), _Forked(lambda: _train_invdyn_flat(dataset, invdyn_cfg)) as child:
        action_score, g_hist = train_score_field(dataset, ScoreKind.ACTION, score_cfg)
        state_score, h_hist = train_score_field(dataset, ScoreKind.STATE,
                                                replace(score_cfg, seed=score_cfg.seed + 1))
        (dims, slope, flat), i_hist = child.result()
    invdyn = InvDynModel(MlpParams.on_buffer(dims, slope, flat), dataset.norm)
    if histories_out is not None:
        histories_out.update(action_score=g_hist, state_score=h_hist, invdyn=i_hist)
    models = CdsaModels(action_score=action_score, state_score=state_score, invdyn=invdyn,
                        norm=dataset.norm)
    models.validate()
    return models


def correct_action(models: CdsaModels, s: np.ndarray, a_o: np.ndarray,
                   cfg: ControlConfig, deltas_out: list | None = None) -> np.ndarray:
    """Apply the correction rule to one action. Result is always in bounds.

    With ablation "baseline", or k1 = k2 = 0, the original action is returned
    untouched (bitwise). Disabled terms are skipped entirely, never added as
    zeros, so ablations agree bitwise with the matching k at 0. Per-pass
    action-delta norms are appended to deltas_out as floats when given. This
    is the one-row case of the batched correction rollouts use.
    """
    cfg.validate()
    s = np.asarray(s, dtype=np.float64)
    a_o = np.asarray(a_o, dtype=np.float64)
    if s.shape != (models.state_dim,) or a_o.shape != (models.action_dim,):
        raise ControlError(
            f"expected state dim {models.state_dim} and action dim "
            f"{models.action_dim}, got {s.shape} and {a_o.shape}")
    passes: list | None = None if deltas_out is None else []
    a = _correct_rows(models, _inference_nets(models), s[None, :], a_o[None, :], cfg,
                      passes)[0]
    if deltas_out is not None:
        deltas_out.extend(float(d[0]) for d in passes)
    return a


def _inference_nets(models: CdsaModels) -> tuple[InferenceNet, InferenceNet]:
    """The snapshots rollouts evaluate: g and h stacked, as both read [s_n, a_n], and I."""
    return (InferenceNet(models.action_score.params, models.state_score.params),
            InferenceNet(models.invdyn.params))


def _correct_rows(models: CdsaModels, nets: tuple[InferenceNet, InferenceNet],
                  s: np.ndarray, a_o: np.ndarray, cfg: ControlConfig,
                  deltas_out: list | None) -> np.ndarray:
    """The correction rule on (n, d) rows of states and base actions at once.

    nets are _inference_nets(models). Every pass makes one call of the g|h
    stack over all rows and, when the k2 term is on, one of I; their values
    match eval_score and infer_action on the models' params to float
    tolerance, not bitwise (InferenceNet). Inputs are trusted: callers
    validate models, cfg and dims once per batch. Per pass, an (n,) array of
    per-row action-delta norms is appended to deltas_out when given.
    """
    low = np.asarray(cfg.action_low, dtype=np.float64)
    high = np.asarray(cfg.action_high, dtype=np.float64)
    use_a1 = cfg.ablation in ("full", "no_a2") and cfg.k1 != 0.0
    use_a2 = cfg.ablation in ("full", "no_a1") and cfg.k2 != 0.0
    a_cur = np.clip(a_o, low, high)
    if not (use_a1 or use_a2):
        return a_cur
    gh, inv = nets
    norm = models.norm
    ds, da = s.shape[1], a_cur.shape[1]
    s_n = norm.normalize_state(s)
    for _ in range(1 + cfg.n_refine):
        delta = np.zeros_like(a_cur)
        out, _ = forward_batch(gh, np.concatenate([s_n, norm.normalize_action(a_cur)], axis=1))
        if use_a1:
            delta = delta + cfg.k1 * (norm.action_std * out[0, :, :da])
        if use_a2:
            s_tilde = norm.denormalize_state(s_n + out[1, :, :ds])
            a2, _ = forward_batch(inv,
                                  np.concatenate([s_n, norm.normalize_state(s_tilde)], axis=1))
            delta = delta + cfg.k2 * norm.denormalize_action(a2)
        a_new = np.clip(a_cur + delta, low, high)
        if not np.all(np.isfinite(a_new)):
            raise ControlError("non-finite corrected action (diverged model)")
        if deltas_out is not None:
            deltas_out.append(row_norms(a_new - a_cur))
        a_cur = a_new
    return a_cur


@dataclass
class Trajectory:
    """One episode's step records plus the state the episode ended in."""

    states: np.ndarray
    actions_base: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    risk_flags: np.ndarray
    dones: np.ndarray
    final_state: np.ndarray
    reached_goal: bool
    delta_norms: list

    def __len__(self) -> int:
        return len(self.rewards)

    @property
    def undiscounted_return(self) -> float:
        return float(np.sum(self.rewards))


@dataclass
class EpisodeTotals:
    """Running totals of a batch of episodes; entry i belongs to episode i."""

    returns: np.ndarray
    discounted_returns: np.ndarray
    steps: np.ndarray
    risk_entries: np.ndarray
    reached_goal: np.ndarray


def run_episodes(spec: EnvSpec, base_policy: Policy, models: CdsaModels | None,
                 cfg: ControlConfig | None, rngs: list, max_steps: int | None = None,
                 gamma: float = 1.0, record: int = 0):
    """Roll len(rngs) episodes in lockstep; episode i draws only from rngs[i].

    Each time step makes one batched policy call, one batched correction and
    one batched env step over the episodes still running; an episode leaves
    the live set when it is done. models = None runs the base policy
    untouched. max_steps overrides the spec's budget when given. Returns
    (EpisodeTotals, trajectories): full step records are kept only for the
    first `record` episodes, the rest keep running totals.

    A batch of SPLIT_MIN_EPISODES or more runs as two halves on two cores:
    episodes [0, h) here and [h, n) in a forked child, both with BLAS on one
    thread, joined in episode order. The child advances its own copies of its
    rngs, so rngs[h:] are left as they were; and the policy must not carry
    state from one act_batch call to the next, since each half calls its own
    copy.

    A row's arithmetic does not depend on the other rows, except that a
    network evaluates all live rows in one matrix product, whose last bits
    depend on the row count; results match a one-episode-at-a-time run to
    float tolerance, and equal it exactly where no network runs.
    """
    spec.validate()
    if not rngs:
        raise ControlError("run_episodes needs at least one episode rng")
    if models is not None:
        if cfg is None:
            raise ControlError("models were given without a ControlConfig (cfg is None)")
        models.validate()
        cfg.validate()
        if models.state_dim != spec.state_dim or models.action_dim != spec.action_dim:
            raise ControlError("model dims do not match the env spec")
    budget = spec.max_steps if max_steps is None else max_steps
    # built before the fork, so a child shares them copy-on-write
    nets = None if models is None else _inference_nets(models)

    def episodes(lo: int, hi: int):
        return _lockstep(spec, base_policy, models, nets, cfg, rngs[lo:hi], budget, gamma,
                         max(record - lo, 0))

    n = len(rngs)
    if n < SPLIT_MIN_EPISODES:
        return episodes(0, n)
    h = n // 2
    with single_blas_thread(), _Forked(lambda: episodes(h, n)) as child:
        head, head_trajs = episodes(0, h)
        tail, tail_trajs = child.result()
    totals = EpisodeTotals(**{k: np.concatenate([v, getattr(tail, k)])
                              for k, v in vars(head).items()})
    return totals, head_trajs + tail_trajs


def _lockstep(spec: EnvSpec, base_policy: Policy, models: CdsaModels | None,
              nets: tuple | None, cfg: ControlConfig | None, rngs: list, budget: int,
              gamma: float, record: int):
    """run_episodes in this process, on inputs it has checked; nets are the models' snapshots."""
    n, ds, da = len(rngs), spec.state_dim, spec.action_dim
    st = EnvStates.stack([env_reset(spec, rng) for rng in rngs])
    final = st.take(np.arange(n))  # a copy: rows are stored into it as episodes end
    ids = np.arange(n)
    live_rngs = list(rngs)
    returns = np.zeros(n)
    discounted = np.zeros(n)
    risk_entries = np.zeros(n, dtype=np.int64)
    cols: list = [[] for _ in range(8)]  # episode, s, a_o, a, r, risk, done, deltas
    for t in range(budget):
        if len(ids) == 0:
            break
        a_o = np.asarray(base_policy.act_batch(st.s, st, live_rngs), dtype=np.float64)
        if a_o.shape != (len(ids), da):
            raise ControlError(f"policy returned actions of shape {a_o.shape}, "
                               f"expected {(len(ids), da)}")
        a_o = np.clip(a_o, spec.action_low, spec.action_high)
        k = int(np.searchsorted(ids, record))  # ids ascend: recorded rows lead
        passes: list | None = [] if k else None
        a = a_o if models is None else _correct_rows(models, nets, st.s, a_o, cfg, passes)
        st_next, r, done, risk = env_step_batch(spec, st, a, live_rngs)
        returns[ids] += r
        discounted[ids] += r * gamma ** t
        risk_entries[ids] += risk
        if k:
            deltas = np.array(passes).reshape(len(passes), len(ids))[:, :k].T
            # copies, so the step's full-batch arrays are not kept alive
            for col, v in zip(cols, (ids, st.s, a_o, a, r, risk, done, deltas)):
                col.append(v[:k].copy())
        st = st_next
        if done.any():
            final.put(ids[done], st.take(done))
            keep = ~done
            st, ids = st.take(keep), ids[keep]
            live_rngs = [rng for rng, d in zip(live_rngs, done) if not d]
    final.put(ids, st)

    at_goal = row_norms(final.s - spec.goal) <= spec.capture_radius
    if spec.variant == "goods":
        at_goal &= final.goods_visited
    totals = EpisodeTotals(returns=returns, discounted_returns=discounted,
                           steps=final.steps, risk_entries=risk_entries,
                           reached_goal=at_goal & (final.steps > 0))
    tails = ((), (ds,), (da,), (da,), (), (), (), (0,))
    dtypes = (np.int64, np.float64, np.float64, np.float64, np.float64, bool, bool, np.float64)
    ep, S, AO, A, R, RISK, DONE, D = (
        np.concatenate(col) if col else np.zeros((0,) + tail, dtype=dt)
        for col, tail, dt in zip(cols, tails, dtypes))
    trajectories = []
    for e in range(min(record, n)):
        m = ep == e
        trajectories.append(Trajectory(
            states=S[m], actions_base=AO[m], actions=A[m], rewards=R[m],
            risk_flags=RISK[m], dones=DONE[m], final_state=final.s[e].copy(),
            reached_goal=bool(totals.reached_goal[e]),
            delta_norms=[] if models is None else D[m].tolist(),
        ))
    return totals, trajectories


def control_episode(spec: EnvSpec, base_policy: Policy, models: CdsaModels | None,
                    cfg: ControlConfig, rng: Rng,
                    max_steps: int | None = None) -> Trajectory:
    """Roll one episode, correcting every base action before stepping the env.

    models = None runs the base policy untouched (same as ablation
    "baseline"). max_steps overrides the env spec's budget when given; 0 yields an
    empty trajectory with return 0. This is the one-episode case of
    run_episodes.
    """
    _, trajectories = run_episodes(spec, base_policy, models, cfg, [rng], max_steps,
                                   record=1)
    return trajectories[0]


def _trajectory_header(ds: int, da: int) -> list[str]:
    return (["step"] + [f"s{i}" for i in range(ds)] + [f"a_o{i}" for i in range(da)]
            + [f"a{i}" for i in range(da)] + ["r", "risk_flag", "done"])


def save_trajectory_csv(traj: Trajectory, path: str) -> None:
    """Write step, s..., a_o..., a..., r, risk_flag, done rows."""
    ds = traj.states.shape[1] if len(traj) else len(traj.final_state)
    da = traj.actions.shape[1] if len(traj) else 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(_trajectory_header(ds, da)) + "\n")
        for t in range(len(traj)):
            row = ([str(t)]
                   + [f"{v:.17g}" for v in traj.states[t]]
                   + [f"{v:.17g}" for v in traj.actions_base[t]]
                   + [f"{v:.17g}" for v in traj.actions[t]]
                   + [f"{traj.rewards[t]:.17g}",
                      str(int(traj.risk_flags[t])),
                      str(int(traj.dones[t]))])
            fh.write(",".join(row) + "\n")


def load_trajectory_csv(path: str) -> Trajectory:
    """The step rows save_trajectory_csv wrote; ControlError names path:lineno otherwise."""
    header, rows = read_csv(path, ControlError)
    ds = sum(1 for c in header if c.startswith("s") and c != "step")
    da = sum(1 for c in header if c.startswith("a_o"))
    if header != _trajectory_header(ds, da):
        raise ControlError(f"{path}:1: not a trajectory CSV header: {','.join(header)!r}")
    kinds = [int] + [float] * (ds + 2 * da + 1) + [bool, bool]
    vals = np.array([[parse_field(text, kind, ControlError, f"{where}: {col}")
                      for text, kind, col in zip(fields, kinds, header)]
                     for where, fields in rows], dtype=np.float64).reshape(-1, len(header))
    states = vals[:, 1:1 + ds]
    a_o = vals[:, 1 + ds:1 + ds + da]
    a = vals[:, 1 + ds + da:1 + ds + 2 * da]
    r = vals[:, 1 + ds + 2 * da]
    risk = vals[:, 2 + ds + 2 * da].astype(bool)
    done = vals[:, 3 + ds + 2 * da].astype(bool)
    final = states[-1] if len(states) else np.zeros(ds)
    return Trajectory(states, a_o, a, r, risk, done, final,
                      reached_goal=False, delta_norms=[])


def langevin_sample(score_fn, x0: np.ndarray, cfg: LangevinConfig, rng: Rng) -> np.ndarray:
    """Run x <- x + alpha * score(x) + sqrt(2 alpha) * z for cfg.steps steps.

    score_fn maps an (..., d) array to same-shape score values; x0 may be a
    single point or a batch of chains. Diagnostic only.
    """
    cfg.validate()
    x = np.array(x0, dtype=np.float64)
    root = math.sqrt(2.0 * cfg.alpha)
    for t in range(cfg.steps):
        g = np.asarray(score_fn(x), dtype=np.float64)
        if g.shape != x.shape:
            raise ControlError(f"score shape {g.shape} does not match x {x.shape}")
        x = x + cfg.alpha * g + root * rng.normal(size=x.shape)
        if not np.all(np.isfinite(x)):
            raise ControlError(f"langevin iterate diverged at step {t}")
    return x


def conditional_score_fn(field: ScoreField, fixed: np.ndarray):
    """Adapt a score field to a Langevin score over its scored coordinates.

    For an action field, `fixed` is a state and the returned function maps
    normalized actions to their scores; for a state field, `fixed` is an
    action and the function maps normalized states. Inputs and outputs are in
    normalized coordinates.
    """
    if field.kind is ScoreKind.ACTION:
        fixed_n = field.norm.normalize_state(fixed)
    else:
        fixed_n = field.norm.normalize_action(fixed)

    def fn(x: np.ndarray) -> np.ndarray:
        x2 = np.atleast_2d(np.asarray(x, dtype=np.float64))
        tile = np.broadcast_to(fixed_n, (len(x2), len(fixed_n)))
        inp = (np.hstack([tile, x2]) if field.kind is ScoreKind.ACTION
               else np.hstack([x2, tile]))
        out, _ = forward_batch(field.params, inp)
        return out.reshape(np.asarray(x).shape)

    return fn
