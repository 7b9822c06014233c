"""Shared test helpers: JSON field mutations, the reference correction rule, env
step and planner action, the squared-error loss the finite-difference oracle
differentiates, the bitwise check that two nets are equal, and the checks
that a forking call left no child and OpenBLAS on one thread."""

import json
import os

import numpy as np
import pytest

from cdsa.dataset import NormStats
from cdsa.envs import EnvState
from cdsa.invdyn import infer_action
from cdsa.neuralcore import _openblas_threads
from cdsa.scorefield import eval_score

# each replaces a number; integer fields also get 2.5
BAD_NUMBERS = (float("nan"), float("inf"), float("-inf"), "x", "0.5", True)


def fields(node, path=()):
    """(path, value) of every field below node; a list contributes its first entry."""
    entries = node.items() if isinstance(node, dict) else enumerate(node[:1])
    for key, val in entries:
        yield path + (key,), val
        if isinstance(val, (dict, list)):
            yield from fields(val, path + (key,))


def mutated(doc, path, value=None, delete=False):
    """A deep copy of doc with the field at path set to value, or deleted."""
    out = json.loads(json.dumps(doc))
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return out


def mutations(doc, optional=()):
    """(label, document): each field deleted and wrapped in a list, each number
    replaced by every BAD_NUMBERS value, and each integer by 2.5 as well.

    Deleting a field whose dotted label is in optional leaves a valid document,
    so those deletions are skipped.
    """
    for path, val in fields(doc):
        label = ".".join(map(str, path))
        if label not in optional:
            yield f"delete {label}", mutated(doc, path, delete=True)
        yield f"wrap {label}", mutated(doc, path, [val])
        if isinstance(val, (int, float)) and not isinstance(val, bool):
            for bad in BAD_NUMBERS + ((2.5,) if isinstance(val, int) else ()):
                yield f"{label}={bad!r}", mutated(doc, path, bad)


def missed(cases, path, load, error, expect=None, write=json.dumps):
    """For each (label, document) case, write(document) goes to path and load()
    must raise error with expect (default: the path) in its message; returns
    "label: what happened instead" for each case that did not."""
    expect = str(path) if expect is None else expect
    out = []
    for label, doc in cases:
        path.write_text(write(doc), encoding="utf-8")
        try:
            load()
        except error as exc:
            if expect not in str(exc):
                out.append(f"{label}: message lacks {expect!r}: {exc}")
        except Exception as exc:  # noqa: BLE001 - every other type is a miss
            out.append(f"{label}: {type(exc).__name__}: {exc}")
        else:
            out.append(f"{label}: loaded")
    return out


def identity_norm(state_dim, action_dim):
    """Norm stats that leave states and actions as they are: mean 0, std 1."""
    return NormStats(np.zeros(state_dim), np.ones(state_dim),
                     np.zeros(action_dim), np.ones(action_dim))


def same_params(a, b):
    """Whether two nets have equal dims and slope and bitwise equal parameters."""
    return (a.layer_dims == b.layer_dims and a.leaky_slope == b.leaky_slope
            and a.flat.tobytes() == b.flat.tobytes())


def squared_error(target, scale):
    """fd_grads' loss_of_output: scale times the batch mean of each stacked
    output's squared error against target rows, summed over coordinates."""
    return lambda out: scale * np.sum((out - target) ** 2, axis=(1, 2)) / len(target)


def reference_correction(models, s, a_o, cfg):
    """The correction rule on one row through eval_score and infer_action."""
    norm = models.norm
    a = np.clip(a_o, cfg.action_low, cfg.action_high)
    for _ in range(1 + cfg.n_refine):
        g = eval_score(models.action_score, s, a)
        h = eval_score(models.state_score, s, a)
        s_tilde = (norm.normalize_state(s) + h) * norm.state_std + norm.state_mean
        a = np.clip(a + cfg.k1 * (norm.action_std * g)
                    + cfg.k2 * infer_action(models.invdyn, s, s_tilde),
                    cfg.action_low, cfg.action_high)
    return a


def reference_env_step(spec, st, action, rng):
    """One env step of one episode, written out row-wise without cdsa.envs' step
    functions; the batched step must reproduce it bitwise."""
    a = np.clip(np.asarray(action, dtype=np.float64), spec.action_low, spec.action_high)
    pos = np.clip(st.s + a * spec.dt, spec.arena_min, spec.arena_max)
    airport_used = st.airport_used
    if (spec.variant == "airport" and not airport_used
            and spec.airport_region.contains_many(pos[None])[0]):
        pos = np.array(spec.landing_point, dtype=np.float64)
        airport_used = True
    risk_entered = any(reg.contains_many(pos[None])[0] for reg in spec.risk_regions)
    fired = rng.random() < spec.risk_prob
    reward = -spec.step_cost * float(np.linalg.norm(pos - spec.goal))
    if risk_entered and fired:
        reward += spec.risk_penalty
    goods_visited = st.goods_visited or (
        spec.variant == "goods" and spec.goods_region.contains_many(pos[None])[0])
    steps = st.steps + 1
    at_goal = float(np.linalg.norm(pos - spec.goal)) <= spec.capture_radius
    done = (at_goal and (spec.variant != "goods" or goods_visited)) or steps >= spec.max_steps
    return EnvState(pos, steps, goods_visited, airport_used), reward, done, risk_entered


def reference_planner_act(policy, fieldv, target, s, rng):
    """ScriptedRiskAvoiding's action for one row, written out with a scan of
    the row's cell's neighbours on its target's distance field fieldv; the
    batched act_batch must reproduce it bitwise."""
    spec, g = policy.spec, policy._grid

    def capped_step():
        a = (target - s) / spec.dt
        n = float(np.linalg.norm(a))
        return np.clip(a / n if n > 1.0 else a, spec.action_low, spec.action_high)

    idx = np.clip(np.floor((np.asarray(s) - g.lo) / g.cell).astype(int), 0, g.n - 1)
    i, j = int(idx[0]), int(idx[1])
    if fieldv[i, j] == 0.0:
        a = capped_step()
    else:
        best, best_val = None, fieldv[i, j]
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                ni, nj = i + di, j + dj
                if (di == 0 and dj == 0) or not (0 <= ni < g.n and 0 <= nj < g.n):
                    continue
                if fieldv[ni, nj] < best_val:
                    best, best_val = (ni, nj), fieldv[ni, nj]
        if best is None:
            a = capped_step()
        else:
            waypoint = g.centers[best]
            d = waypoint - s
            n = float(np.linalg.norm(d))
            a = d / n if n > 0 else d
    if policy.exec_noise > 0:
        a = a + policy.exec_noise * rng.normal(size=spec.action_dim)
    return np.clip(a, spec.action_low, spec.action_high)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def blas_threads():
    """The loaded OpenBLAS's thread count, or None without one."""
    threads = _openblas_threads()
    return None if threads is None else threads[0]()


needs_openblas = pytest.mark.skipif(_openblas_threads() is None, reason="no OpenBLAS loaded")
