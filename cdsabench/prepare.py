"""Offline preparation for the eval workload.

Trains the pointmass bundle once per checkout, outside every timed run, with
the settings of acceptance check 6: risk-avoiding planner data (seed 100,
200 episodes, exec noise 0.2), both score fields at sigma 0.2 (seed 21), the
inverse dynamics model (seed 31), all at full iterations, plus an
under-converged behavior-cloned base policy (700 iterations, seed 11).

The bundle directory name carries a digest of the `cdsa` source tree, so a
checkout of another commit trains its own bundle instead of reusing a stale
one. Training writes to a private temporary directory that is renamed into
place, so a half-written bundle is never visible.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time


def source_digest(src_pkg: str) -> str:
    """sha256 over the relative paths and bytes of every file in the package."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src_pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".pyc", ".pyo")):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src_pkg).encode("utf-8") + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
            h.update(b"\0")
    return h.hexdigest()


def pointmass_bundle(cache_dir: str, src_pkg: str, log) -> str:
    """Path of the trained pointmass bundle for this source tree; trains it if absent."""
    final = os.path.join(cache_dir, f"pointmass-{source_digest(src_pkg)[:16]}")
    if os.path.exists(os.path.join(final, "manifest.json")):
        return final
    from cdsa import checkpoint, controller, dataset, envs
    from cdsa.invdyn import InvDynTrainConfig
    from cdsa.neuralcore import Rng
    from cdsa.scorefield import ScoreTrainConfig

    t0 = time.perf_counter()
    spec = envs.load_env_spec(envs.builtin_spec_path("pointmass"))
    data = dataset.generate_dataset(
        spec, envs.ScriptedRiskAvoiding(spec, exec_noise=0.2), 200, spec.max_steps, Rng(100))
    models = controller.train_cdsa(data, ScoreTrainConfig(sigma=0.2, seed=21),
                                   InvDynTrainConfig(seed=31))
    bc, _ = envs.train_bc_policy(data, envs.BcTrainConfig(iterations=700, seed=11),
                                 spec.action_low, spec.action_high)
    os.makedirs(cache_dir, exist_ok=True)
    tmp = f"{final}.tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    checkpoint.save_bundle(models, tmp, bc)
    try:
        os.rename(tmp, final)
    except OSError:
        # another run finished the same bundle first; theirs is identical
        shutil.rmtree(tmp, ignore_errors=True)
        if not os.path.exists(os.path.join(final, "manifest.json")):
            raise
    log(f"prepared pointmass bundle {final} in {time.perf_counter() - t0:.1f} s")
    return final
