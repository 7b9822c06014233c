"""cdsa benchmark: run one workload and print its metrics.

Usage, from the root of a checkout:

    python3 cdsabench/run.py --workload eval-pointmass --seed 1 --seconds 30 --trace 0

The benchmark imports `cdsa` from the checkout's `src/` and nowhere else, and
exits with code 2 when that tree is missing. The eval workload loads a pointmass
bundle that `prepare.py` trains once per source digest under
`.bench_build/cdsabench/`; the first run in a fresh checkout pays for that
training, outside every timed section.

A run sets the workload up several times before and after its timed window
(the median is `setup_s`), builds its inputs from `--seed`, sends requests for
`--seconds`, checks the outputs, and prints two JSON lines: a record of the
machine, the workload's metrics under
their domain names and the checks, then the result line with `correct`,
`attempted`, `failed` and `metrics`. With `--trace 1` it measures the
workload untraced and then traced, and reports every per-layer metric plus the
tracing overhead (traced minus untraced) of every end-to-end metric.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(ROOT, ".bench_build", "cdsabench")
SETUP_REPEATS = 16

# (name, unit) of every end-to-end metric, in report order
END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("request_mean_ms", "ms"),
    ("request_p95_ms", "ms"),
    ("work_per_s", "1/s"),
]

# the workload's own names for the end-to-end metrics: name -> (metric, scale, unit)
DOMAIN_NAMES = {
    "eval-pointmass": {"eval_report_s": ("request_mean_ms", 1e-3, "s"),
                       "eval_steps_per_s": ("work_per_s", 1.0, "steps/s")},
    "pipeline-transport": {"pipeline_s": ("request_mean_ms", 1e-3, "s"),
                           "train_iters_per_s": ("work_per_s", 1.0, "1/s")},
}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def blas_threads():
    """OpenBLAS thread count read from the loaded library, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        # system OpenBLAS, and the 64-bit-index build numpy wheels bundle
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


class Context:
    """What a workload may touch: the bundle path and run-private directories."""

    def __init__(self, bundle):
        self.bundle = bundle
        self.root = os.path.join(CACHE, f"run-{os.getpid()}")

    def scratch(self, name: str) -> str:
        path = os.path.join(self.root, name)
        os.makedirs(path, exist_ok=True)
        return path

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def measure(cls, ctx, seed: int, seconds: float, tr=None):
    """Set up SETUP_REPEATS times around one timed window. Returns (metrics, result)."""
    import tracer
    from workloads import clock, percentile

    setups = []

    def set_up():
        w = cls(ctx)
        t0 = clock()
        w.setup()
        setups.append(clock() - t0)
        return w

    # half the set-ups run before the window and half after it, so setup_s
    # samples the shared host at two times a window apart
    for _ in range(SETUP_REPEATS // 2):
        w = set_up()
    if tr is not None:
        tr.request_id = tracer.UNTIMED
    w.make_inputs(seed)
    res = w.window(seconds, tr)
    if tr is not None:
        tr.request_id = tracer.SETUP
        tr.requests = len(res.latencies)
    for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2):
        set_up()
    res.notes["setup_runs_s"] = setups
    res.notes["samples"] = len(res.latencies)
    metrics = {
        "setup_s": percentile(setups, 50.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "request_mean_ms": sum(res.latencies) / len(res.latencies) * 1e3,
        "request_p95_ms": percentile(res.latencies, 95.0) * 1e3,
        "work_per_s": res.work_units / res.work_s,
    }
    return metrics, res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("eval-pointmass", "pipeline-transport"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "cdsa", "__init__.py")):
        log(f"error: cdsa sources not found under {SRC}; run from the root of a checkout")
        return 2
    sys.path.insert(0, SRC)
    import numpy as np
    import cdsa
    if os.path.dirname(os.path.abspath(cdsa.__file__)) != os.path.join(SRC, "cdsa"):
        log(f"error: imported cdsa from {cdsa.__file__}, not from {SRC}")
        return 2
    import prepare
    import tracer
    from workloads import WORKLOADS

    # every workload makes sure the bundle exists, so whichever run comes first
    # in a fresh checkout pays for training, and no later run does
    ctx = Context(prepare.pointmass_bundle(CACHE, os.path.join(SRC, "cdsa"), log))
    cls = WORKLOADS[args.workload]
    try:
        metrics, res = measure(cls, ctx, args.seed, args.seconds)
        if args.trace:
            tr = tracer.Tracer()
            tracer.install(tr)
            try:
                traced, res_t = measure(cls, ctx, args.seed, args.seconds, tr)
            finally:
                tr.uninstall()
            os.makedirs(CACHE, exist_ok=True)
            tr.dump(os.path.join(CACHE, f"spans-{args.workload}-seed{args.seed}.npz"))
            layer = tracer.layer_metrics(tr)
            units = {name: unit for name, unit, _ in tracer.LAYER_METRICS}
            out_metrics = {k: {"value": v, "unit": units[k]} for k, v in layer.items()}
            for name, unit in END_TO_END:
                out_metrics[f"trace_overhead.{name}"] = {
                    "value": traced[name] - metrics[name], "unit": unit}
            res.attempted += res_t.attempted
            res.failed += res_t.failed
        else:
            out_metrics = {name: {"value": metrics[name], "unit": unit}
                           for name, unit in END_TO_END}
    finally:
        ctx.close()

    domain = {name: {"value": metrics[m] * scale, "unit": unit}
              for name, (m, scale, unit) in DOMAIN_NAMES[args.workload].items()}
    for name in ("setup_s", "peak_rss_mb"):
        domain[name] = {"value": metrics[name], "unit": dict(END_TO_END)[name]}
    domain["failed_share"] = {"value": res.failed / res.attempted, "unit": "ratio"}
    if "datagen_transitions_per_s" in res.notes:
        domain["datagen_transitions_per_s"] = {
            "value": res.notes.pop("datagen_transitions_per_s"), "unit": "1/s"}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "machine": {"nproc": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(), "numpy": np.__version__,
                    "blas_threads": blas_threads(), "processes": 1},
        "metrics": domain,
        "checks": res.notes,
    }
    print(json.dumps(record))
    print(json.dumps({"correct": res.failed == 0, "attempted": res.attempted,
                      "failed": res.failed, "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
