"""Hooks that the benchmark installs on kpp from outside the package.

The probe rebinds the module and class attributes through which kpp's own
calls pass (``trainer.adam_step``, ``EpisodeSampler.sample_batch``, ...).
Nothing under ``src/`` is edited.  Two levels exist:

* markers (always on): step start/end, epoch starts, eval results and the
  bound identity of every loss.  They cost a few clock reads per step and
  give the end-to-end numbers.
* spans (``trace=True``): one record per call into each layer's public
  functions, kept in memory, plus ``make_node`` call counts and the
  computed work of each kernel call.  They give the per-layer numbers.

No wrapper draws random numbers or touches an argument or result, so a
traced run computes the same values as an untraced one.
"""

import inspect
import time
from collections import defaultdict

import numpy as np

from kpp import autodiff, data, nets, objective, stn, trainer

KERNELS = ("conv2d_forward", "conv2d_input_grad", "conv2d_kernel_grad",
           "bilinear_forward", "bilinear_image_grad", "bilinear_grid_grad")
NET_METHODS = ("encode", "write_memory", "key_posterior", "readout_prior",
               "latent_posterior", "decode", "ablation_prior")


class Stop(Exception):
    """Raised from the step hook to end a training run at its deadline."""


def _conv_flop(name, args, out):
    """Multiply-adds x2 of one conv kernel call, from its operand shapes."""
    if name == "conv2d_forward":          # (x, w, stride, pad) -> y
        return 2.0 * out.size * int(np.prod(args[1].shape[1:]))
    if name == "conv2d_input_grad":       # (gy, w, stride, pad, h, w) -> gx
        return 2.0 * args[0].size * int(np.prod(args[1].shape[1:]))
    return 2.0 * args[0].size * int(np.prod(out.shape[1:]))  # kernel_grad -> gw


def _bilinear_bytes(name, args, out):
    """float64 bytes one bilinear call moves: operands read once, the output
    written once, and four corner accesses per sampled value (read and
    write for the scatter of the image gradient)."""
    operands = sum(a.size for a in args if isinstance(a, np.ndarray))
    sampled = out.size if name == "bilinear_forward" else args[0].size
    corners = 8 * sampled if name == "bilinear_image_grad" else 4 * sampled
    return 8.0 * (operands + out.size + corners)


def kernel_work(name, args, out):
    if name.startswith("conv2d"):
        return _conv_flop(name, args, out)
    return _bilinear_bytes(name, args, out)


def bound_ok(loss, bd, bernoulli):
    """The loss is -elbo, elbo = recon - kl_z - kl_y, both KLs are >= 0 and a
    Bernoulli log-likelihood is <= 0, all finite."""
    loss_v = float(np.asarray(loss.data).reshape(()))
    values = (loss_v, bd.recon_ll, bd.kl_z, bd.kl_y, bd.elbo)
    if not np.all(np.isfinite(values)):
        return False
    tol = 1e-9 * max(1.0, abs(bd.elbo))
    return (abs(bd.elbo - (bd.recon_ll - bd.kl_z - bd.kl_y)) <= tol
            and abs(loss_v + bd.elbo) <= tol
            and bd.kl_z >= -tol and bd.kl_y >= -tol
            and (not bernoulli or bd.recon_ll <= tol))


def kernel_owners():
    """Objects whose kernel attributes autodiff's calls go through: the
    selected backend module, else modules or names autodiff imports."""
    backend = getattr(autodiff, "backend", None)
    if hasattr(backend, "kernels"):
        return [backend.kernels]
    owners = [m for m in vars(autodiff).values()
              if inspect.ismodule(m) and any(hasattr(m, k) for k in KERNELS)]
    if any(hasattr(autodiff, k) for k in KERNELS):
        owners.append(autodiff)
    return owners


class Probe:
    """Markers, and spans when ``trace`` is set, for one run."""

    def __init__(self, trace):
        self.trace = trace
        self.phase = "setup"
        self.deadline = float("inf")
        self.stop_after_evals = None      # end a run after this many evals
        self.on_eval = None               # callback(model, row, index in run)
        self.between_steps = None         # callback run off the clock before a step
        self.paused_s = 0.0               # time spent in between_steps
        self.unhooked = []
        self._patches = []
        self._stack = []
        # markers
        self.steps = []                   # (run, start, end) per completed step
        self.epochs = []                  # per run: list of epoch start times
        self.evals = []                   # (seconds, test images) per eval
        self.losses = 0
        self.bad_losses = 0
        self.epoch_step_errors = 0        # epochs whose step count was wrong
        self.expected_steps_per_epoch = None
        self._step_start = None
        self._epoch_open = True
        self._steps_at_epoch = 0
        self._evals_in_run = 0
        # spans
        self.spans = []                   # (name, phase, start, end, parent)
        self.node_counts = defaultdict(int)   # phase -> make_node calls
        self.work = defaultdict(float)    # (name, phase) -> flop or bytes

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, make):
        if not hasattr(owner, attr):
            self.unhooked.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        original = inspect.getattr_static(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(getattr(owner, attr)))

    def install(self):
        self._patch(data.EpisodeSampler, "sample_batch",
                    lambda f: self._step_begins(self._span("data.sample_batch", f)))
        self._patch(trainer, "adam_step",
                    lambda f: self._step_ends(self._span("trainer.adam_step", f)))
        self._patch(trainer, "eval_conditional",
                    lambda f: self._eval(self._span("trainer.eval_conditional", f)))
        for owner in (objective, trainer):
            self._patch(owner, "elbo_graph",
                        lambda f: self._checked(self._span("objective.elbo_graph", f)))
        if not self.trace:
            return
        self._install_kernels()
        self._patch(autodiff, "make_node", self._count_nodes)
        self._patch(autodiff, "backward", lambda f: self._span("autodiff.backward", f))
        for method in NET_METHODS:
            self._patch(nets.MemoryVAE, method,
                        lambda f, m=method: self._span(f"nets.{m}", f))
        for owner, name in ((stn, "sample_traces"), (nets, "save_checkpoint"),
                            (nets, "load_checkpoint"), (objective, "generate"),
                            (objective, "iterative_read")):
            self._patch(owner, name,
                        lambda f, n=f"{owner.__name__.split('.')[-1]}.{name}": self._span(n, f))

    def _install_kernels(self):
        owners = kernel_owners()
        for k in KERNELS:
            found = [o for o in owners if hasattr(o, k)]
            if not found:
                self.unhooked.append(f"kernels.{k}")
            for owner in found:
                self._patch(owner, k, lambda f, k=k: self._span(f"kernels.{k}", f, work=kernel_work))

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn, work=None):
        if not self.trace:
            return fn
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            phase = self.phase
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[index] = (name, phase, start, clock(), parent)
                stack.pop()
            if work is not None:
                self.work[(name, phase)] += work(name.split(".")[-1], args, out)
            return out

        return wrapper

    def _count_nodes(self, fn):
        counts = self.node_counts

        def wrapper(*args, **kwargs):
            counts[self.phase] += 1
            return fn(*args, **kwargs)

        return wrapper

    def now(self):
        """A clock that stands still while ``between_steps`` runs."""
        return time.perf_counter() - self.paused_s

    def _step_begins(self, fn):
        def wrapper(*args, **kwargs):
            if time.perf_counter() >= self.deadline or (
                    self.stop_after_evals is not None
                    and self._evals_in_run >= self.stop_after_evals):
                raise Stop
            if self.between_steps is not None:
                start = time.perf_counter()
                self.between_steps()
                self.paused_s += time.perf_counter() - start
            now = self.now()
            if self._epoch_open:
                self.epochs[-1].append(now)
                self._steps_at_epoch = len(self.steps)
                self._epoch_open = False
            self.phase = "step"
            self._step_start = now
            return fn(*args, **kwargs)

        return wrapper

    def _step_ends(self, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.end_step()
            return out

        return wrapper

    def _eval(self, fn):
        def wrapper(model, dataset, t, seed):
            self.phase = "eval"
            start = time.perf_counter()
            row = fn(model, dataset, t, seed)
            seconds = time.perf_counter() - start
            self.phase = "epoch"
            self.evals.append((seconds, (len(dataset) // t) * t))
            steps = len(self.steps) - self._steps_at_epoch
            if self.expected_steps_per_epoch is not None and steps != self.expected_steps_per_epoch:
                self.epoch_step_errors += 1
            self._epoch_open = True
            if self.on_eval is not None:
                self.on_eval(model, row, self._evals_in_run)
            self._evals_in_run += 1
            return row

        return wrapper

    def _checked(self, fn):
        def wrapper(model, *args, **kwargs):
            loss, bd = fn(model, *args, **kwargs)
            self.losses += 1
            if not bound_ok(loss, bd, model.config.likelihood == "bernoulli"):
                self.bad_losses += 1
            return loss, bd

        return wrapper

    # -- markers the workload drives itself --------------------------------

    def begin_run(self):
        """A new training run (or inference loop) starts its first epoch."""
        self.epochs.append([])
        self._epoch_open = True
        self._evals_in_run = 0

    def end_step(self):
        self.steps.append((len(self.epochs) - 1, self._step_start, self.now()))
        self.phase = "epoch"

    # -- per-layer aggregation ---------------------------------------------

    def layer_totals(self):
        """{(name, phase): [calls, total s, self s]} over all spans."""
        child = [0.0] * len(self.spans)
        for name, phase, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, phase, start, end, _) in enumerate(self.spans):
            entry = totals[(name, phase)]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[i]
        return totals
