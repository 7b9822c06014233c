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
one-row / one-episode cases. The networks run on InferenceNet snapshots built
once per batch (before any fork) from the models and the ControlConfig, with
the rule's constants folded into their weights: the normalization of their
inputs, the gains k1 and k2, the action and state stds and the action mean.
So the snapshots read and return env units: g returns the whole k1 term, h
the state step state_std * h, and I the whole k2 term. With both terms on,
g and h run as one stacked pass, since both read [s, a], then I; so a pass
makes two network calls, or one (g alone) when the k2 term is off. A step
clips the base actions into the bounds once (the ControlConfig's bounds must
be the env spec's), runs the passes, and checks the corrected actions for
finiteness once, after the last pass, since the clips carry a NaN through
and map an inf onto a bound; the env then steps them without repeating the
checks and clip they have passed. A write into the params is seen by the
next batch, not by one already running. A batch of at least
SPLIT_MIN_EPISODES (64) runs as two halves on two cores, the second in a
child made by a POSIX fork, as train_cdsa trains the inverse model; the one
threshold lies between the break-evens of corrected rollouts and dataset
generation (see the constant). Each half steps its own copy of the policy
and of its episodes' rngs, so a policy must not carry state from one
act_batch call to the next (none does).

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
from .envs import EnvError, EnvSpec, EnvStates, Policy, env_reset, env_step_rows
from .invdyn import InvDynModel, InvDynTrainConfig, train_invdyn
from .neuralcore import InferenceNet, Rng, forward_batch, row_norms
from .scorefield import ScoreField, ScoreKind, ScoreTrainConfig, train_score_field

ABLATIONS = ("full", "no_a1", "no_a2", "baseline")
MODELS = ("action_score", "state_score", "invdyn")  # the CdsaModels fields, named by kind

# run_episodes splits a batch of at least this many episodes across two
# processes. Measured on 2 shared vCPUs, split against one process on paired
# seeds in alternating order (14 pairs per count, median split/one ratio) at
# 48, 56, 64, 72, 80, 90 and 100 episodes: the six corrected arms of the
# eval-pointmass bundle ran 1.34x, 0.86x, 0.92x, 0.82x, 1.04x, 0.81x and
# 0.84x, transport planner dataset generation 1.45x, 1.15x, 1.11x, 1.11x,
# 0.94x, 1.04x and 0.90x (2.2x at 32 and 40). Rollouts break even near 50
# episodes and dataset generation near 80-90; 64 lies between. So gen-data's
# default 50 and the 40-episode pipeline builds run in one process, and
# eval's default 200 and the benchmark's 100-episode arms split.
SPLIT_MIN_EPISODES = 64


class ControlError(ValueError):
    """Dimension mismatch or non-finite value inside the controller."""


def check_slot(model, slot: str, state_dim: int, action_dim: int) -> None:
    """ControlError("slot S: ...") unless model is of kind slot, its net fitting the dims."""
    kind = getattr(getattr(model, "arch", None), "kind", type(model).__name__)
    if kind != slot:
        raise ControlError(f"slot {slot}: holds a {kind} model")
    model.arch.check(model.params, state_dim, action_dim, ControlError, f"slot {slot}")


@dataclass
class CdsaModels:
    action_score: ScoreField
    state_score: ScoreField
    invdyn: InvDynModel
    norm: NormStats

    def validate(self) -> None:
        """ControlError unless each slot holds its kind's model, fitting one shared norm."""
        for slot in MODELS:
            model = getattr(self, slot)
            check_slot(model, slot, self.state_dim, self.action_dim)
            if not self.norm.equals(model.norm):
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
            raise ControlError(f"ablation must be one of {ABLATIONS}, got {self.ablation!r}")
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


def _on_two_cores(here, there):
    """(here(), there()), with there() run in a forked child process meanwhile.

    there()'s outcome comes back pickled over a pipe: its value, or the
    exception it raised, which is raised here once here() has returned (an
    exception that does not survive pickling comes back as a RuntimeError
    naming it). The child never returns into the caller's stack: it leaves
    through os._exit whatever happens. Being a fork, it inherits every lock
    as it was, so fork only where no other thread may hold one that there()
    needs. If here() raises, or the wait for the child is interrupted, the
    child is killed; it is always reaped.
    """
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read)
            try:
                outcome = (True, there())
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
    try:
        with os.fdopen(read, "rb") as fh:
            mine = here()
            blob = fh.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _, status = os.waitpid(pid, 0)
    if not blob:
        raise RuntimeError(f"child process {pid} sent no result "
                           f"(exit code {os.waitstatus_to_exitcode(status)})")
    ok, theirs = pickle.loads(blob)
    if not ok:
        raise theirs
    return mine, theirs


def train_cdsa(dataset: Dataset, score_cfg: ScoreTrainConfig,
               invdyn_cfg: InvDynTrainConfig,
               histories_out: dict | None = None) -> CdsaModels:
    """Train both score fields and the inverse dynamics model, on two cores.

    The three models never interact, so each is trained alone by its own
    trainer: the action field with score_cfg.seed, the state field with
    score_cfg.seed + 1, the inverse model with invdyn_cfg.seed. The inverse
    model trains in a forked child process while this process trains the
    action field and then the state field, and the results are bitwise those
    of training the three one after another. An exception in the child is
    raised here with its type and message. Both configs are checked before
    any training starts. When histories_out is given it is filled with
    per-step (step, loss) lists under keys action_score, state_score, invdyn.
    """
    score_cfg.validate()
    invdyn_cfg.validate()

    def score_fields():
        return (train_score_field(dataset, ScoreKind.ACTION, score_cfg),
                train_score_field(dataset, ScoreKind.STATE,
                                  replace(score_cfg, seed=score_cfg.seed + 1)))

    ((action_score, g_hist), (state_score, h_hist)), (invdyn, i_hist) = _on_two_cores(
        score_fields, lambda: train_invdyn(dataset, invdyn_cfg))
    if histories_out is not None:
        histories_out.update(action_score=g_hist, state_score=h_hist, invdyn=i_hist)
    models = CdsaModels(action_score=action_score, state_score=state_score, invdyn=invdyn,
                        norm=dataset.norm)
    models.validate()
    return models


def correct_action(models: CdsaModels, s: np.ndarray, a_o: np.ndarray,
                   cfg: ControlConfig, deltas_out: list | None = None) -> np.ndarray:
    """Apply the correction rule to one action. Result is always in bounds.

    The action is clipped into the bounds first. With ablation "baseline", or
    k1 = k2 = 0, that is all that happens to it. Disabled terms are skipped
    entirely, never added as zeros, so ablations agree bitwise with the
    matching k at 0. Per-pass action-delta norms are appended to deltas_out
    as floats when given. This is the one-row case of the batched correction
    rollouts use, run one pass at a time, so it stops at the first pass whose
    result is not finite.
    """
    cfg.validate()
    s = np.asarray(s, dtype=np.float64)
    a_o = np.asarray(a_o, dtype=np.float64)
    if s.shape != (models.state_dim,) or a_o.shape != (models.action_dim,):
        raise ControlError(
            f"expected state dim {models.state_dim} and action dim "
            f"{models.action_dim}, got {s.shape} and {a_o.shape}")
    a = np.minimum(np.maximum(a_o, cfg.action_low), cfg.action_high)[None, :]
    nets = _inference_nets(models, cfg)
    passes = 0 if nets[0] is None else 1 + cfg.n_refine  # none when both terms are off
    for _ in range(passes):
        old, a = a, _correct_rows(nets, s[None, :], a, cfg.action_low, cfg.action_high, 0)
        if deltas_out is not None:
            deltas_out.append(float(row_norms(a - old)[0]))
    return a[0]


def _inference_nets(models: CdsaModels, cfg: ControlConfig):
    """One arm's snapshots (score, inv), with the rule's constants folded in.

    score reads raw [s, a] rows. With both terms on it is the g|h stack,
    returning k1 * action_std * g and state_std * h; with the k1 term alone it
    is g alone, and with the k2 term alone h alone. inv reads raw [s, s~]
    rows and returns k2 * denormalize_action(I); it is None when the k2 term
    is off, and both are None when neither term is on. A disabled term is
    left out, never folded in at gain 0, so an ablation agrees bitwise with
    the matching gain at 0.
    """
    use_a1 = cfg.ablation in ("full", "no_a2") and cfg.k1 != 0.0
    use_a2 = cfg.ablation in ("full", "no_a1") and cfg.k2 != 0.0
    norm = models.norm
    s_in, a_in = norm.state_normalizer(), norm.action_normalizer()
    fields, outs = [], []
    if use_a1:
        fields.append(models.action_score.params)
        outs.append((cfg.k1 * norm.action_std, 0.0))
    if use_a2:
        fields.append(models.state_score.params)
        outs.append((norm.state_std, 0.0))
    if not fields:
        return None, None
    score = InferenceNet(*fields, in_affine=[np.concatenate(v) for v in zip(s_in, a_in)],
                         out_affines=outs)
    inv = None
    if use_a2:
        inv = InferenceNet(models.invdyn.params,
                           in_affine=[np.concatenate([v, v]) for v in s_in],
                           out_affines=[(cfg.k2 * norm.action_std, cfg.k2 * norm.action_mean)])
    return score, inv


def _correct_rows(nets: tuple, s: np.ndarray, a_o: np.ndarray, low: np.ndarray,
                  high: np.ndarray, n_refine: int) -> np.ndarray:
    """The correction rule on (n, d) rows of states and in-bounds base actions at once.

    nets are _inference_nets(models, cfg), so the rule's constants live in
    them and every value here is in env units: a pass adds the g term and the
    I term at s~ = s + h to the action and clips once. A pass makes one
    network call when the k2 term is off (g) and two when it is on (the g|h
    stack, or h alone, then I); their values match the rule on eval_score and
    infer_action to float tolerance, not bitwise (InferenceNet). Each of the
    1 + n_refine passes clips to low and high, cfg's action bounds as (da,)
    vectors or as (n, da) rows. Inputs are trusted: callers validate models,
    cfg and dims once per batch, and clip a_o into the bounds. Finiteness is
    checked once, after the last pass: the clips carry a NaN through every
    later pass and map an inf onto a bound.
    """
    score, inv = nets
    if score is None:
        return a_o
    (n, ds), da = s.shape, a_o.shape[1]
    # the networks' inputs, [s, a] and [s, s~], with s written once
    x = np.empty((n, ds + da))
    x[:, :ds] = s
    if inv is not None:
        y = np.empty((n, 2 * ds))
        y[:, :ds] = s
    a_cur = a_o
    for _ in range(1 + n_refine):
        x[:, ds:] = a_cur
        out, _ = forward_batch(score, x)
        if inv is None:  # g alone
            delta = out
        else:  # the g|h stack (3-D) or h alone (2-D), then I at s + h
            np.add(s, out if out.ndim == 2 else out[1, :, :ds], out=y[:, ds:])
            delta, _ = forward_batch(inv, y)
            if out.ndim == 3:
                delta += out[0, :, :da]
        delta += a_cur
        a_cur = np.minimum(np.maximum(delta, low, out=delta), high, out=delta)
    if not np.isfinite(a_cur).all():
        raise ControlError("non-finite corrected action (diverged model)")
    return a_cur


@dataclass
class Trajectory:
    """One episode's steps (pre-step state, applied action, reward, done) and the
    state it ended in: what dataset generation and the scene SVG read."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    dones: np.ndarray
    final_state: np.ndarray

    def __len__(self) -> int:
        return len(self.rewards)


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
    (EpisodeTotals, trajectories): every episode's totals (return, steps,
    risk entries, goal flag), and the step records of the first `record`
    episodes as Trajectory objects.

    A batch of SPLIT_MIN_EPISODES or more runs as two halves on two cores:
    episodes [0, h) here and [h, n) in a forked child, joined in episode
    order. The child advances its own copies of its rngs, so rngs[h:] are
    left as they were; and the policy must not carry state from one
    act_batch call to the next, since each half calls its own copy.

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
        # the lockstep clips base actions to the spec's bounds once, for both
        if not (np.array_equal(cfg.action_low, spec.action_low)
                and np.array_equal(cfg.action_high, spec.action_high)):
            raise ControlError("the ControlConfig's action bounds differ from the env spec's")
    budget = spec.max_steps if max_steps is None else max_steps
    # built before the fork, so a child shares them copy-on-write
    nets = None if models is None else _inference_nets(models, cfg)

    def episodes(lo: int, hi: int):
        return _lockstep(spec, base_policy, nets, cfg, rngs[lo:hi], budget, gamma,
                         max(record - lo, 0))

    n = len(rngs)
    if n < SPLIT_MIN_EPISODES:
        return episodes(0, n)
    h = n // 2
    (head, head_trajs), (tail, tail_trajs) = _on_two_cores(lambda: episodes(0, h),
                                                           lambda: episodes(h, n))
    totals = EpisodeTotals(**{k: np.concatenate([v, getattr(tail, k)])
                              for k, v in vars(head).items()})
    return totals, head_trajs + tail_trajs


def _lockstep(spec: EnvSpec, base_policy: Policy, nets: tuple | None,
              cfg: ControlConfig | None, rngs: list, budget: int, gamma: float, record: int):
    """run_episodes in this process, on inputs it has checked.

    nets are the models' snapshots for cfg, or None to run the base policy untouched.
    """
    n, ds, da = len(rngs), spec.state_dim, spec.action_dim
    st = EnvStates.stack([env_reset(spec, rng) for rng in rngs])
    final = st.take(np.arange(n))  # a copy: rows are stored into it as episodes end
    ids = np.arange(n)
    live_rngs = list(rngs)
    returns = np.zeros(n)
    discounted = np.zeros(n)
    risk_entries = np.zeros(n, dtype=np.int64)
    # running totals of the live rows, stored into the arrays above as episodes end
    ret, disc, risks = returns.copy(), discounted.copy(), risk_entries.copy()
    # the bounds as (n, da) rows: a clip of live rows against a prefix of them
    # runs as one flat loop, against a (da,) vector as one short loop per row
    lows, highs = (np.tile(v, (n, 1)) for v in (spec.action_low, spec.action_high))
    score = None if nets is None else nets[0]
    cols: list = [[] for _ in range(5)]  # episode, s, a, r, done
    for t in range(budget):
        if len(ids) == 0:
            break
        a_o = np.asarray(base_policy.act_batch(st.s, st, live_rngs), dtype=np.float64)
        if a_o.shape != (len(ids), da):
            raise ControlError(f"policy returned actions of shape {a_o.shape}, "
                               f"expected {(len(ids), da)}")
        low, high = lows[:len(ids)], highs[:len(ids)]
        a_o = np.minimum(np.maximum(a_o, low), high)
        # ids ascend: recorded rows lead
        k = int(np.searchsorted(ids, record)) if record else 0
        if score is None:
            a = a_o
            if not np.isfinite(a).all():
                raise EnvError("the base policy returned a non-finite action")
        else:
            a = _correct_rows(nets, st.s, a_o, low, high, cfg.n_refine)
        # a is finite and inside the bounds, as env_step_rows requires
        st_next, r, done, risk = env_step_rows(spec, st, a, live_rngs)
        ret += r
        disc += r * gamma ** t
        risks += risk
        if k:
            # copies, so the step's full-batch arrays are not kept alive
            for col, v in zip(cols, (ids, st.s, a, r, done)):
                col.append(v[:k].copy())
        st = st_next
        if done.any():
            gone = ids[done]
            final.put(gone, st.take(done))
            returns[gone], discounted[gone] = ret[done], disc[done]
            risk_entries[gone] = risks[done]
            keep = ~done
            st, ids = st.take(keep), ids[keep]
            ret, disc, risks = ret[keep], disc[keep], risks[keep]
            live_rngs = [rng for rng, d in zip(live_rngs, done) if not d]
    final.put(ids, st)
    returns[ids], discounted[ids], risk_entries[ids] = ret, disc, risks

    at_goal = row_norms(final.s - spec.goal) <= spec.capture_radius
    if spec.variant == "goods":
        at_goal &= final.goods_visited
    totals = EpisodeTotals(returns=returns, discounted_returns=discounted,
                           steps=final.steps, risk_entries=risk_entries,
                           reached_goal=at_goal & (final.steps > 0))
    tails = ((), (ds,), (da,), (), ())
    dtypes = (np.int64, np.float64, np.float64, np.float64, bool)
    ep, S, A, R, DONE = (
        np.concatenate(col) if col else np.zeros((0,) + tail, dtype=dt)
        for col, tail, dt in zip(cols, tails, dtypes))
    trajectories = []
    for e in range(min(record, n)):
        m = ep == e
        trajectories.append(Trajectory(states=S[m], actions=A[m], rewards=R[m], dones=DONE[m],
                                       final_state=final.s[e].copy()))
    return totals, trajectories


def control_episode(spec: EnvSpec, base_policy: Policy, models: CdsaModels | None,
                    cfg: ControlConfig, rng: Rng,
                    max_steps: int | None = None) -> Trajectory:
    """Roll one episode, correcting every base action before stepping the env.

    models = None runs the base policy untouched (same as ablation
    "baseline"). max_steps overrides the env spec's budget when given; 0
    yields an empty trajectory. This is the one-episode case of run_episodes.
    """
    _, trajectories = run_episodes(spec, base_policy, models, cfg, [rng], max_steps,
                                   record=1)
    return trajectories[0]


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
