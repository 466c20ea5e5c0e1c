"""Smoke test of the benchmark in perfbench/: a one-second run of every
workload, and traced runs of the default and the long-episode training,
must pass all of its own checks.

The benchmark hooks kpp from outside through module attributes
(``trainer.elbo_graph``, the four-argument ``trainer.eval_conditional``,
``write_memory`` feeding ``objective.generate``, ...).  If a change to kpp
moved one of them, the probe would lose a hook or a per-step check without
any kpp test failing; these runs catch that.  The traced runs also pin
the kernel calls and graph nodes of a step, so a change that routes a read
or a conv around the probed kernels fails here instead of reading 0 ms.
Nothing under perfbench/ is edited.
"""

import json
import os
import subprocess
import sys

import pytest

from conftest import STEP_NODES

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")

# per step (and per eval) of a memory-arm training workload
TRACED_PER_STEP = {
    "kernels.conv2d_forward.calls_per_step": 10,
    "kernels.conv2d_input_grad.calls_per_step": 9,
    "kernels.conv2d_kernel_grad.calls_per_step": 10,
    "kernels.bilinear_forward.calls_per_step": 1,
    "kernels.bilinear_image_grad.calls_per_step": 1,
    "kernels.bilinear_grid_grad.calls_per_step": 1,
    "autodiff.nodes_per_step": STEP_NODES,
    # per eval: the test split's episodes, 8 to a graph, make one graph
    "autodiff.make_node.calls": STEP_NODES,
}

RUNS = [("train-default", 0), ("train-long-episode", 0), ("train-no-memory", 0),
        ("infer-read", 0), ("train-default", 1), ("train-long-episode", 1)]


@pytest.mark.parametrize("workload,trace", RUNS, ids=[f"{w}-trace{t}" for w, t in RUNS])
def test_benchmark_run_is_correct(workload, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seconds", "1", "--seed", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    info = json.loads(lines[-2])["info"]
    result = json.loads(lines[-1])
    assert info["unhooked"] == [], info["unhooked"]
    assert result["failed"] == 0, info["errors"]
    assert result["correct"] is True, info["checks"]
    if trace:
        got = {name: result["metrics"][name]["value"] for name in TRACED_PER_STEP}
        assert got == TRACED_PER_STEP
