#!/usr/bin/env python3
"""kpp benchmark: one workload, measured in this single process.

    python3 perfbench/run.py --workload train-default --seed 1 --seconds 28 --trace 0

--trace 0 reports the end-to-end metrics; --trace 1 the per-layer metrics
from spans that the benchmark records around calls into kpp's layers.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it records the run's
environment (backend, NumPy and BLAS versions, nproc, thread caps) and
every output check.  kpp is imported from the src/ directory beside this
one, never from an installed copy.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# One BLAS/OpenMP thread: kpp's matrices are small, and a single thread
# keeps timings steady on a shared two-core box.
THREADS = 1


def cap_threads():
    """Set the thread caps; must run before NumPy is imported."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    cap = min(THREADS, nproc or 1)
    for var in THREAD_VARS:
        os.environ[var] = str(cap)
    return nproc, cap


def blas_version(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    nproc, cap = cap_threads()
    if not os.path.isfile(os.path.join(SRC, "kpp", "__init__.py")):
        print(f"perfbench: no kpp package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy as np
    import kpp
    import workloads

    if os.path.dirname(os.path.dirname(os.path.abspath(kpp.__file__))) != SRC:
        print(f"perfbench: imported kpp from {kpp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    threads = workloads.threads_after_blas()
    os.makedirs(SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH)
    try:
        if args.trace:
            run, extra = workloads.run_traced(args.workload, args.seed, args.seconds, workdir)
        else:
            run, extra = workloads.run_untraced(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks = run.checks()
    checks["thread_cap"] = threads is None or threads <= cap
    kernels_ok, kernel_diff = extra["kernels_ok"]
    checks["kernel_cases"] = bool(kernels_ok)
    if args.trace:
        checks["tracing_invariance"] = extra["invariant"]
        metrics = run.per_layer(extra["case_ms"])
        metrics["trace.overhead_step_ms"] = (extra["overhead_step_ms"], "ms")
        spans_path = os.path.join(SCRATCH, f"{args.workload}-seed{args.seed}.spans.json")
        with open(spans_path, "w") as f:
            json.dump({"fields": ["name", "phase", "start_s", "end_s", "parent"],
                       "spans": run.probe.spans}, f)
    else:
        metrics = run.end_to_end()

    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "backend": getattr(getattr(kpp, "backend", None), "BACKEND", "numpy"),
        "numpy": np.__version__, "blas": blas_version(np), "nproc": nproc,
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
        "threads_after_blas": threads,
        "kernel_cross_backend_max_diff": kernel_diff,
        "steps": len(run.probe.steps), "epochs": sum(len(e) for e in run.probe.epochs),
        "evals": len(run.probe.evals), "generate_calls": len(run.generate_s),
        "denoise_calls": len(run.denoise_s), "fingerprint": run.fingerprint(),
        "checks": checks, "unhooked": run.probe.unhooked, "errors": run.errors,
    }
    if args.trace:
        info["reference_fingerprint"] = extra["reference_fingerprint"]
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": all(checks.values()),
        "attempted": run.attempted(),
        "failed": run.failed_ops(),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
