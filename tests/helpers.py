"""Shared test helpers: JSON field mutations, the two oracles the training math
is checked against (fd_grads, central finite differences of a loss of a net's
output by forward arithmetic alone, and dsm_loss_reference, the denoising loss
in its analytic-target form), the squared-error loss fd_grads differentiates,
the reference correction rule, env step and planner action, the bitwise check
that two nets are equal, and the checks that a forking call left no child and
OpenBLAS on one thread."""

import json
import os

import numpy as np
import pytest

from cdsa.dataset import NormStats
from cdsa.envs import EnvState
from cdsa.invdyn import infer_action
from cdsa.neuralcore import (
    MlpParams,
    _leaky,
    _openblas_threads,
    forward_batch,
    zero_like_params,
)
from cdsa.scorefield import ScoreKind, eval_score

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


def fd_grads(net: MlpParams, x: np.ndarray, loss_of_output, h: float = 1e-6) -> MlpParams:
    """Central finite-difference gradients of a loss of net's output on input x.

    loss_of_output maps a (P, rows, out_dim) stack of outputs to their P
    losses. Moving a parameter of layer l by +-h moves one column c of that
    layer's pre-activation alone, so every layer's values are computed once,
    and chunks of moves, stacked as (P, rows, width), enter the next layer as
    column c's change times column c of its weights and run through the rest.
    Forward arithmetic alone: an oracle independent of backward_batch.
    """
    x = np.asarray(x, dtype=np.float64)
    last = len(net.weights) - 1
    inputs, preacts = [x], []
    for w, b in zip(net.weights, net.biases):
        preacts.append(np.dot(inputs[-1], w.T) + b)
        inputs.append(_leaky(preacts[-1], net.leaky_slope))
    chunk = max(1, (1 << 16) // (len(x) * max(net.layer_dims)))  # 2**16 floats per stack
    grads = zero_like_params(net)
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        theta = np.concatenate([w.ravel(), b])
        steps = np.concatenate([(theta + h) - theta, (theta - h) - theta])
        # weight (i, j) moves column i by its step times input column j; bias i by its step
        col = np.tile(np.concatenate([np.repeat(np.arange(len(b)), w.shape[1]),
                                      np.arange(len(b))]), 2)
        unit = np.tile(np.concatenate([np.tile(inputs[l].T, (len(b), 1)),
                                       np.ones((len(b), len(x)))]), (2, 1))
        # moved column c adds its change (after the activation) times row c of rows_of
        if l < last:
            base, rows_of, unmoved = preacts[l + 1], net.weights[l + 1].T, inputs[l + 1].T
        else:
            base, rows_of, unmoved = preacts[l], np.eye(len(b)), preacts[l].T
        losses = np.empty(len(steps))
        for k in range(0, len(steps), chunk):
            c = col[k:k + chunk]
            moved = preacts[l].T[c] + steps[k:k + chunk, None] * unit[k:k + chunk]
            if l < last:
                moved = _leaky(moved, net.leaky_slope)
            moved -= unmoved[c]
            z = base + moved[:, :, None] * rows_of[c][:, None, :]
            for m in range(l + 2, last + 1):
                a = _leaky(z, net.leaky_slope)
                z = np.dot(a.reshape(-1, a.shape[-1]), net.weights[m].T).reshape(len(c), len(x), -1)
                z += net.biases[m]
            losses[k:k + len(c)] = loss_of_output(z)
        g = (losses[:len(theta)] - losses[len(theta):]) / (2.0 * h)
        grads.weights[l][...] = g[:w.size].reshape(w.shape)
        grads.biases[l][...] = g[w.size:]
    return grads


def squared_error(target, scale):
    """fd_grads' loss_of_output: scale times the batch mean of each stacked
    output's squared error against target rows, summed over coordinates."""
    return lambda out: scale * np.sum((out - target) ** 2, axis=(1, 2)) / len(target)


def dsm_loss_reference(net: MlpParams, batch_with_noise, sigma: float,
                       kind: ScoreKind) -> float:
    """Oracle form of the denoising loss, from clean and perturbed samples.

    Regresses net(x_tilde) onto the analytic Gaussian-kernel score
    -(perturbed - clean)/sigma^2 of the scored coordinates. Never used in
    training; exists to pin the training loss down exactly.
    """
    states, actions, pert = (np.asarray(v, dtype=np.float64) for v in batch_with_noise)
    if kind is ScoreKind.ACTION:
        x_tilde = np.concatenate([states, pert], axis=1)
        target = -(pert - actions) / sigma**2
    else:
        x_tilde = np.concatenate([pert, actions], axis=1)
        target = -(pert - states) / sigma**2
    out, _ = forward_batch(net, x_tilde)
    resid = out - target
    return 0.5 * float(np.sum(resid * resid)) / len(resid)


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
