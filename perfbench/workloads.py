"""The four kpp workloads, their output checks and the metrics they report.

Every workload feeds kpp only a synth corpus generated from the run's seed
and a config built from the CLI defaults (``cli.TRAIN_DEFAULTS``, whose
training seed fixes the model's initial weights).  Train workloads call
``trainer.train`` itself, so the benchmark times whatever that function
does; the probe ends the call at the run's deadline.
"""

import hashlib
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np

from kpp import autodiff as ad
from kpp import cli, data, objective, trainer
from kpp.nets import MemoryVAE, ModelConfig
from kpp.trainer import TrainConfig

import kernel_cases
from probe import KERNELS, NET_METHODS, Probe, Stop, kernel_owners

# Why these four: train-default is what users run; train-long-episode puts
# most of a step into the memory read (bilinear kernels); train-no-memory
# makes no stn or bilinear call, so memory-path changes must leave it
# unchanged; infer-read has no backward pass and no Adam, so backward-pass
# changes must leave it unchanged while forward graph building and the
# checkpoint load show.
WORKLOADS = {
    "train-default": {},
    "train-long-episode": {"T": 32, "K": 4},
    "train-no-memory": {"no_memory": True},
    "infer-read": {"infer": True},
}

SETUP_REPEATS = 7
READ_SHARE = 0.1        # of a train run spent in read rounds, spread between steps
WARMUP_STEPS = 2        # left out of the step-time percentiles
ELBO_EPOCH = 1          # train workloads report the test bound after this epoch
MIN_ROUNDS = 3          # read rounds (and infer-read cycles) run even past the deadline
PREFIX_CYCLES = 16      # infer-read cycles in a traced run's untraced prefix
GENERATE_N = cli.GEN_DEFAULTS["n"]
DENOISE_STEPS = cli.DENOISE_DEFAULTS["steps"]
NOISE = cli.DENOISE_DEFAULTS["noise"]


def make_config(name):
    opts = dict(cli.TRAIN_DEFAULTS)
    opts.update({k: v for k, v in WORKLOADS[name].items() if k != "infer"})
    side = cli.SYNTH_SIDE
    model = ModelConfig(
        image_shape=(1, side, side), T=opts["T"], K=opts["K"], L=opts["L"],
        likelihood=opts["likelihood"], gaussian_std=opts["sigma"],
        ablation=opts["no_memory"],
    )
    return TrainConfig(
        model=model, epochs=opts["epochs"], batch_episodes=opts["batch"],
        episodes_per_epoch=opts["episodes_per_epoch"], lr=opts["lr"],
        schedule=opts["schedule"], warmup_epochs=opts["warmup"],
        weight_decay=opts["weight_decay"], seed=opts["seed"],
    )


def make_corpus(seed):
    side = cli.SYNTH_SIDE
    return (data.synth_shapes(cli.SYNTH_TRAIN_N, side, side, seed=[seed, cli.SYNTH_TRAIN_SEED]),
            data.synth_shapes(cli.SYNTH_TEST_N, side, side, seed=[seed, cli.SYNTH_TEST_SEED],
                              split="test"))


def _rng(seed):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def generate_no_memory(model, episode_images, n, seed):
    """The no-memory arm has no memory to read: draw z from the ablation
    prior of one episode and decode it."""
    prior = model.ablation_prior(model.encode(ad.constant(episode_images)))
    eps = _rng(seed).standard_normal((n, model.config.L))
    z = prior.mean.data[:1] + np.exp(prior.log_std.data[:1]) * eps
    return ad.sigmoid(model.decode(ad.constant(z))).data.copy()


def denoise_no_memory(model, x_clean, steps, seed):
    """Iterative reconstruction through the latent posterior mean; errors
    as ``objective.denoise`` returns them."""
    noisy = data.inject_noise(x_clean, NOISE, int(_rng(seed).integers(0, 2**31 - 1)))
    x = noisy
    errors = [float(np.linalg.norm((noisy - x_clean).ravel()))]
    for _ in range(steps):
        q = model.latent_posterior(model.encode(ad.constant(x[None])))
        x = ad.sigmoid(model.decode(q.mean)).data[0].copy()
        errors.append(float(np.linalg.norm((x - x_clean).ravel())))
    return errors


def _median(values):
    return statistics.median(values) if values else 0.0


class Run:
    """One workload on one seed, observed through one probe."""

    def __init__(self, name, seed, workdir, probe):
        self.seed = seed
        self.workdir = workdir
        self.probe = probe
        self.infer = WORKLOADS[name].get("infer", False)
        self.config = make_config(name)
        self.elbo_eval = 0 if self.infer else ELBO_EPOCH
        self.setup_s = []
        self.generate_s = []
        self.denoise_s = []
        self.failed = 0
        self.errors = []
        self.bad_generations = 0
        self.bad_denoise = 0
        self.test_elbo = None
        self.snapshot = None
        self.fingerprint_images = None
        self.live_model = None
        self.train_deadline = float("inf")
        self.rounds = 0
        self.read_s = 0.0

    # -- set-up ----------------------------------------------------------------

    def setup(self):
        """Corpus and seeded model; infer-read also writes its checkpoint
        and loads it back."""
        self.probe.phase = "setup"
        start = time.perf_counter()
        self.train_set, self.test_set = make_corpus(self.seed)
        model = MemoryVAE(self.config.model, seed=self.config.seed)
        if self.infer:
            path = os.path.join(self.workdir, "seeded.bin")
            model.save(path)
            model = MemoryVAE.load(path)
        else:
            trainer.init_adam_state(model.trainable())
        self.model = model
        self.setup_s.append(time.perf_counter() - start)

    # -- measured work ---------------------------------------------------------

    def measure(self, seconds):
        start = time.perf_counter()
        if self.infer:
            self._infer_loop(start + seconds)
        else:
            self.probe.between_steps = lambda: self._read_if_due(start)
            self._train(start + seconds)
            self.probe.between_steps = None
            while self.live_model is not None and self.rounds < MIN_ROUNDS:
                self._read_round(self.live_model)
        self._fingerprint()

    def prefix(self):
        """The shortest run that fixes test_elbo_nats and the fingerprint."""
        if self.infer:
            self._infer_loop(0.0, PREFIX_CYCLES)
        else:
            self._train(float("inf"), stop_after_evals=ELBO_EPOCH + 1)
        self._fingerprint()

    def _fail(self, exc):
        self.failed += 1
        self.errors.append(f"{type(exc).__name__}: {exc}")
        traceback.print_exc(file=sys.stderr)

    def _on_eval(self, model, row, index):
        self.live_model = model
        if len(self.probe.epochs) == 1 and index == self.elbo_eval:
            self.test_elbo = row.elbo
            if not self.infer:
                self.snapshot = model.state_arrays()
                self.probe.deadline = self.train_deadline

    def _train(self, deadline, stop_after_evals=None):
        """Train until the deadline, but never stop before the epoch that
        fixes test_elbo_nats."""
        probe = self.probe
        self.train_deadline = deadline
        probe.deadline = deadline if self.test_elbo is not None else float("inf")
        probe.stop_after_evals = stop_after_evals
        probe.expected_steps_per_epoch = (self.config.episodes_per_epoch
                                          // self.config.batch_episodes)
        probe.on_eval = self._on_eval
        while True:
            probe.begin_run()
            try:
                trainer.train(self.config, self.train_set, self.test_set, out_dir=self.workdir)
            except Stop:
                break
            except Exception as exc:  # a failed step or eval: counted and reported
                self._fail(exc)
                break
            if time.perf_counter() >= deadline:
                break
        probe.deadline = float("inf")
        probe.stop_after_evals = None

    def _read_if_due(self, start):
        """Read rounds on the model being trained, kept to READ_SHARE of the
        elapsed time, so they sample the whole run rather than its end."""
        if self.live_model is None:
            return
        while self.read_s < READ_SHARE * (time.perf_counter() - start):
            round_start = time.perf_counter()
            ok = self._read_round(self.live_model)
            self.read_s += time.perf_counter() - round_start
            if not ok:
                break

    def _infer_loop(self, deadline, min_cycles=MIN_ROUNDS):
        probe = self.probe
        probe.expected_steps_per_epoch = 1
        probe.on_eval = self._on_eval
        t = self.config.model.T
        sampler = data.EpisodeSampler(self.test_set, t, np.random.SeedSequence([self.seed, 1]))
        noise = _rng([self.seed, 2])
        probe.begin_run()
        i = 0
        while i < min_cycles or time.perf_counter() < deadline:
            try:
                for episode in sampler.sample_batch(self.config.batch_episodes):
                    objective.elbo_graph(self.model, episode, noise)
                probe.end_step()
                trainer.eval_conditional(self.model, self.test_set, t, [self.seed, 3, i])
            except Exception as exc:  # counted and reported
                self._fail(exc)
                break
            self._read_round(self.model)
            i += 1

    def _readers(self, model, i):
        """(generate, denoise) closures on one test episode's memory."""
        episode = data.episode_grid(self.test_set, model.config.T, [self.seed, 10, i])
        gen_seed, den_seed = [self.seed, 11, i], [self.seed, 12, i]
        clean = episode.images[0]
        if model.config.ablation:
            return (lambda: generate_no_memory(model, episode.images, GENERATE_N, gen_seed),
                    lambda: denoise_no_memory(model, clean, DENOISE_STEPS, den_seed))
        memory = model.write_memory(model.encode(ad.constant(episode.images)))
        return (lambda: objective.generate(memory, GENERATE_N, model, gen_seed),
                lambda: objective.denoise(memory, clean, NOISE, DENOISE_STEPS, model, den_seed)[2])

    def _read_round(self, model):
        """One timed generate and denoise; False if either raised."""
        i = self.rounds
        self.rounds += 1
        self.probe.phase = "read"
        try:
            generate, denoise = self._readers(model, i)
            start = time.perf_counter()
            images = generate()
            self.generate_s.append(time.perf_counter() - start)
            self.bad_generations += not self._generation_ok(images)
            if self.infer and i == 0:
                self.fingerprint_images = images
            start = time.perf_counter()
            errors = denoise()
            self.denoise_s.append(time.perf_counter() - start)
            self.bad_denoise += not (len(errors) == DENOISE_STEPS + 1
                                     and np.all(np.isfinite(errors)))
        except Exception as exc:  # counted and reported
            self._fail(exc)
            return False
        return True

    def _generation_ok(self, images):
        return (images.shape == (GENERATE_N,) + self.config.model.image_shape
                and np.all(np.isfinite(images))
                and images.min() >= 0.0 and images.max() <= 1.0)

    def _fingerprint(self):
        if self.snapshot is not None:
            model = MemoryVAE(self.config.model, seed=self.config.seed)
            model.load_arrays(self.snapshot)
            self.fingerprint_images = self._readers(model, 0)[0]()

    def fingerprint(self):
        """Hash of test_elbo_nats and one set of generations, both fixed by the seed."""
        if self.test_elbo is None or self.fingerprint_images is None:
            return None
        h = hashlib.sha256(repr(float(self.test_elbo)).encode())
        h.update(np.ascontiguousarray(self.fingerprint_images).tobytes())
        return h.hexdigest()[:16]

    # -- results ---------------------------------------------------------------

    def step_seconds(self):
        return [end - start for _, start, end in self.probe.steps]

    def attempted(self):
        """Steps, evals, generate and denoise calls, and calls that raised."""
        return (len(self.probe.steps) + len(self.probe.evals) + len(self.generate_s)
                + len(self.denoise_s) + self.failed)

    def failed_ops(self):
        """Calls that raised, plus calls and epochs whose outputs failed a check."""
        probe = self.probe
        return (self.failed + probe.bad_losses + probe.epoch_step_errors
                + self.bad_generations + self.bad_denoise)

    def checks(self):
        probe = self.probe
        return {
            "losses_finite_and_bound_identity": probe.losses > 0 and probe.bad_losses == 0,
            "expected_steps_per_epoch": probe.epoch_step_errors == 0,
            "test_elbo_reached": self.test_elbo is not None,
            "generations_in_unit_range": bool(self.generate_s) and self.bad_generations == 0,
            "denoise_errors_finite": bool(self.denoise_s) and self.bad_denoise == 0,
            "no_failed_ops": self.failed_ops() == 0,
        }

    def end_to_end(self):
        probe = self.probe
        t = self.config.model.T
        steps = self.step_seconds()[WARMUP_STEPS:]
        walls = {}
        for run, start, end in probe.steps:
            lo, hi = walls.get(run, (start, end))
            walls[run] = (min(lo, start), max(hi, end))
        loop_s = sum(hi - lo for lo, hi in walls.values())
        images_per_step = self.config.batch_episodes * t
        epochs = [b - a for starts in probe.epochs for a, b in zip(starts, starts[1:])]
        eval_s = sum(s for s, _ in probe.evals)
        return {
            "setup_s": (_median(self.setup_s), "s"),
            "train_images_per_s": (len(probe.steps) * images_per_step / loop_s if loop_s else 0.0,
                                   "images/s"),
            "step_ms_p50": (float(np.percentile(steps, 50)) * 1e3 if steps else 0.0, "ms"),
            "step_ms_p90": (float(np.percentile(steps, 90)) * 1e3 if steps else 0.0, "ms"),
            "epoch_s_p50": (_median(epochs), "s"),
            "eval_images_per_s": (sum(n for _, n in probe.evals) / eval_s if eval_s else 0.0,
                                  "images/s"),
            "generate_images_per_s": (GENERATE_N * len(self.generate_s) / sum(self.generate_s)
                                      if self.generate_s else 0.0, "images/s"),
            "denoise_steps_per_s": (DENOISE_STEPS * len(self.denoise_s) / sum(self.denoise_s)
                                    if self.denoise_s else 0.0, "steps/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "test_elbo_nats": (self.test_elbo if self.test_elbo is not None else 0.0, "nats"),
        }

    def per_layer(self, case_ms):
        """Per-layer numbers from the spans.  ``*_per_step`` and ``self_ms``
        are per step of the workload's step loop; the others per call."""
        probe = self.probe
        totals = probe.layer_totals()
        n = max(1, len(probe.steps))

        def in_step(name, field):
            return totals.get((name, "step"), (0, 0.0, 0.0))[field]

        def per_call_ms(name):
            calls = sum(v[0] for (k, _), v in totals.items() if k == name)
            total = sum(v[1] for (k, _), v in totals.items() if k == name)
            return total * 1e3 / calls if calls else 0.0

        out = {}
        for k in KERNELS:
            name = f"kernels.{k}"
            out[f"{name}.ms_per_step"] = (in_step(name, 1) * 1e3 / n, "ms")
            out[f"{name}.calls_per_step"] = (in_step(name, 0) / n, "count")
            work = probe.work.get((name, "step"), 0.0) / n
            if k.startswith("conv2d"):
                out[f"{name}.gflop_computed"] = (work / 1e9, "GFLOP")
            else:
                out[f"{name}.mb_computed"] = (work / 1e6, "MB")
            out[f"{name}.case_ms"] = (case_ms[k], "ms")
        out["stn.sample_traces.ms"] = (in_step("stn.sample_traces", 1) * 1e3 / n, "ms")
        out["autodiff.backward.self_ms"] = (in_step("autodiff.backward", 2) * 1e3 / n, "ms")
        out["autodiff.nodes_per_step"] = (probe.node_counts["step"] / n, "count")
        out["autodiff.make_node.calls"] = (
            probe.node_counts["eval"] / len(probe.evals) if probe.evals else 0.0, "count")
        for m in NET_METHODS:
            out[f"nets.{m}.self_ms"] = (in_step(f"nets.{m}", 2) * 1e3 / n, "ms")
        out["objective.elbo_graph.self_ms"] = (in_step("objective.elbo_graph", 2) * 1e3 / n, "ms")
        out["trainer.adam_step.ms"] = (per_call_ms("trainer.adam_step"), "ms")
        out["trainer.eval_conditional.s"] = (per_call_ms("trainer.eval_conditional") / 1e3, "s")
        for name in ("nets.save_checkpoint", "nets.load_checkpoint",
                     "objective.generate", "objective.iterative_read"):
            out[f"{name}.ms"] = (per_call_ms(name), "ms")
        out["data.sample_batch.ms"] = (in_step("data.sample_batch", 1) * 1e3 / n, "ms")
        attempted = self.attempted()
        out["ops_failed_frac"] = (self.failed_ops() / attempted if attempted else 0.0, "ratio")
        return out


def threads_after_blas():
    """This process's thread count after a BLAS call, or None without /proc."""
    a = np.ones((256, 256))
    float((a @ a).sum())
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def run_untraced(name, seed, seconds, workdir):
    run = Run(name, seed, workdir, Probe(trace=False))
    run.probe.install()
    try:
        for _ in range(SETUP_REPEATS):
            run.setup()
        run.measure(seconds)
    finally:
        run.probe.remove()
    return run, {"kernels_ok": kernel_cases.check()}


def run_traced(name, seed, seconds, workdir):
    """An untraced prefix, then the traced run; both must agree bit for bit."""
    reference = Run(name, seed, workdir, Probe(trace=False))
    reference.probe.install()
    try:
        reference.setup()
        reference.prefix()
    finally:
        reference.probe.remove()
    run = Run(name, seed, workdir, Probe(trace=True))
    run.probe.install()
    try:
        run.setup()
        run.measure(seconds)
    finally:
        run.probe.remove()
    ref_steps = reference.step_seconds()
    k = len(ref_steps)
    traced_steps = run.step_seconds()[:k]
    overhead = 0.0
    if k > WARMUP_STEPS and len(traced_steps) == k:
        overhead = (statistics.median(traced_steps[WARMUP_STEPS:])
                    - statistics.median(ref_steps[WARMUP_STEPS:])) * 1e3
    fingerprint = run.fingerprint()
    return run, {
        "kernels_ok": kernel_cases.check(),
        "case_ms": kernel_cases.time_cases(kernel_owners()[0]),
        "overhead_step_ms": overhead,
        "invariant": fingerprint is not None and fingerprint == reference.fingerprint(),
        "reference_fingerprint": reference.fingerprint(),
    }
