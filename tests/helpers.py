"""Shared test helpers: JSON field mutations, the reference correction rule and
the squared-error loss the finite-difference oracle differentiates."""

import json

import numpy as np

from cdsa.invdyn import infer_action
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
        s_tilde = norm.denormalize_state(norm.normalize_state(s) + h)
        a = np.clip(a + cfg.k1 * (norm.action_std * g)
                    + cfg.k2 * infer_action(models.invdyn, s, s_tilde),
                    cfg.action_low, cfg.action_high)
    return a
