"""Episodic training loop: Adam with decoupled weight decay, warmup +
cosine schedule, per-epoch train/test metrics, best checkpointing."""

import copy
import csv
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .data import Dataset, EpisodeSampler, check_episode_length
from .nets import MemoryVAE, ModelConfig
from .objective import elbo_graph

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# test episodes per eval graph: with no backward state, 8 peak below a 4-episode
# training step (tracemalloc: 3.2 against 5.2 MB at T=8, 19.6 against 23.6 at T=32)
_EVAL_CHUNK = 8

METRICS_HEADER = ["epoch", "split", "elbo", "recon_ll", "kl_z", "kl_y",
                  "wall_seconds", "seed"]


class DivergenceError(RuntimeError):
    """Raised when training runs away from the initial objective."""


@dataclass
class TrainConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    epochs: int = 30
    batch_episodes: int = 4
    episodes_per_epoch: int = 32
    lr: float = 1e-3
    schedule: str = "cosine"
    warmup_epochs: int = 10
    weight_decay: float = 1e-3
    seed: int = 1

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0 < self.lr < np.inf:  # also fails for NaN
            raise ValueError(f"lr must be finite and > 0, got {self.lr!r}")
        if not 0 <= self.weight_decay < np.inf:
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay!r}")
        if self.warmup_epochs < 0:
            raise ValueError(f"warmup_epochs must be >= 0, got {self.warmup_epochs!r}")
        if self.schedule not in ("constant", "cosine"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.batch_episodes < 1 or self.episodes_per_epoch < self.batch_episodes:
            raise ValueError("need episodes_per_epoch >= batch_episodes >= 1")


@dataclass
class MetricsRow:
    epoch: int
    split: str
    elbo: float
    recon_ll: float
    kl_z: float
    kl_y: float
    wall_seconds: float
    seed: int

    def as_list(self):
        return [self.epoch, self.split,
                f"{self.elbo:.10g}", f"{self.recon_ll:.10g}",
                f"{self.kl_z:.10g}", f"{self.kl_y:.10g}",
                f"{self.wall_seconds:.6f}", self.seed]


def write_metrics(path, rows):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(METRICS_HEADER)
        for row in rows:
            writer.writerow(row.as_list())


def init_adam_state(params):
    return {
        "t": 0,
        "m": [np.zeros_like(p.data) for p in params],
        "v": [np.zeros_like(p.data) for p in params],
    }


def adam_step(params, grads, state, lr, weight_decay):
    """In-place Adam update with decoupled weight decay (biases exempt)."""
    state["t"] += 1
    t = state["t"]
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    for i, (p, g) in enumerate(zip(params, grads)):
        m = state["m"][i]
        v = state["v"][i]
        with np.errstate(over="ignore", invalid="ignore"):  # caught just below
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            update = (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
            if weight_decay and not (p.name or "").endswith(".b"):
                update = update + weight_decay * p.data
            p.data = p.data - lr * update
        if not np.all(np.isfinite(p.data)):
            raise DivergenceError(f"parameter {p.name!r} became non-finite at step {t}")
    return state


def lr_at(config: TrainConfig, epoch: int) -> float:
    """Linear warmup to lr, then cosine decay to 0 (or constant).

    A Python float in every phase: a NumPy float64 would turn every float32
    parameter that Adam updates into float64."""
    if epoch < config.warmup_epochs:
        return config.lr * (epoch + 1) / config.warmup_epochs
    if config.schedule == "constant":
        return config.lr
    span = max(1, config.epochs - 1 - config.warmup_epochs)
    t = (epoch - config.warmup_epochs) / span
    return float(config.lr * 0.5 * (1.0 + np.cos(np.pi * min(t, 1.0))))


def _constants(model: MemoryVAE) -> MemoryVAE:
    """The model with its parameters as constants.  A graph built on it
    keeps no parents, so each intermediate is freed once the next op has
    used it, instead of living until the loss is dropped."""
    frozen = copy.copy(model)
    frozen.params = {name: ad.tensor(p.data, name=name) for name, p in model.params.items()}
    return frozen


def eval_conditional(model: MemoryVAE, dataset: Dataset, t: int, seed) -> MetricsRow:
    """Partition the split into episodes, write memory from each, score
    the conditional bound on the same episode; averages over episodes.

    Episodes are scored a few at a time, one forward-only graph per chunk."""
    check_episode_length(t, dataset)
    n = len(dataset)
    rng = np.random.default_rng(seed)
    episodes = rng.permutation(n)[:n // t * t].reshape(-1, t)
    start = time.perf_counter()
    frozen = _constants(model)
    sums = np.zeros(3)
    for lo in range(0, len(episodes), _EVAL_CHUNK):
        chunk = episodes[lo:lo + _EVAL_CHUNK]
        bd = elbo_graph(frozen, dataset.images[chunk], rng)[1]
        sums += len(chunk) * np.array((bd.recon_ll, bd.kl_z, bd.kl_y))
    recon, kl_z, kl_y = sums / len(episodes)
    seed_int = seed if isinstance(seed, int) else -1
    return MetricsRow(
        epoch=-1, split=dataset.split, elbo=recon - kl_z - kl_y,
        recon_ll=recon, kl_z=kl_z, kl_y=kl_y,
        wall_seconds=time.perf_counter() - start, seed=seed_int,
    )


def train(config: TrainConfig, train_set: Dataset, test_set: Dataset,
          out_dir=None, log=None):
    """Optimize the model; returns (model, history of MetricsRow).

    Writes best.bin (by test elbo), final.bin and metrics.csv under
    out_dir when given.  Aborts with DivergenceError if the train elbo
    sits 10x below its initial value for three consecutive epochs, or as
    soon as a training step's forward pass or update is non-finite.
    """
    check_episode_length(config.model.T, train_set, test_set)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    model = MemoryVAE(config.model, seed=config.seed)
    params = model.trainable()
    state = init_adam_state(params)
    sampler = EpisodeSampler(train_set, config.model.T,
                             np.random.SeedSequence([config.seed, 1]))
    noise_rng = np.random.default_rng([config.seed, 2])

    steps_per_epoch = config.episodes_per_epoch // config.batch_episodes
    history = []
    t_start = time.perf_counter()
    init_elbo = None
    bad_epochs = 0
    best_test = -np.inf

    for epoch in range(config.epochs):
        lr = lr_at(config, epoch)
        acc = np.zeros(3)
        n_acc = 0
        for _ in range(steps_per_epoch):
            episodes = sampler.sample_batch(config.batch_episodes)
            # an overflow shows as a non-finite value: the forward pass and
            # adam_step raise on those
            with np.errstate(over="ignore"):
                try:
                    loss, bd = elbo_graph(model, episodes, noise_rng)
                except ad.NonFiniteError as exc:
                    raise DivergenceError(f"training diverged at epoch {epoch}: {exc}") from exc
                ad.zero_grad(params)
                ad.backward(loss)
            acc += len(episodes) * np.array((bd.recon_ll, bd.kl_z, bd.kl_y))
            n_acc += len(episodes)
            adam_step(params, [p.grad for p in params], state, lr, config.weight_decay)

        recon, kl_z, kl_y = acc / n_acc
        train_elbo = recon - kl_z - kl_y
        history.append(MetricsRow(
            epoch=epoch, split="train", elbo=train_elbo, recon_ll=recon,
            kl_z=kl_z, kl_y=kl_y,
            wall_seconds=time.perf_counter() - t_start, seed=config.seed,
        ))

        test_row = eval_conditional(model, test_set, config.model.T,
                                    [config.seed, 3, epoch])
        test_row.epoch = epoch
        test_row.seed = config.seed
        test_row.wall_seconds = time.perf_counter() - t_start
        history.append(test_row)
        if log:
            log(f"epoch {epoch:3d} lr {lr:.2e} train {train_elbo:10.3f} "
                f"test {test_row.elbo:10.3f} (recon {test_row.recon_ll:10.3f} "
                f"kl_z {test_row.kl_z:7.3f} kl_y {test_row.kl_y:7.3f})")

        if out_dir and test_row.elbo > best_test:
            best_test = test_row.elbo
            model.save(os.path.join(out_dir, "best.bin"))

        if init_elbo is None:
            init_elbo = train_elbo
        threshold = init_elbo - 10.0 * max(1.0, abs(init_elbo))
        if train_elbo < threshold:
            bad_epochs += 1
            if bad_epochs >= 3:
                raise DivergenceError(
                    f"train elbo {train_elbo:.3f} below divergence threshold "
                    f"{threshold:.3f} (10x worse than initial {init_elbo:.3f}) "
                    f"for 3 consecutive epochs, aborting at epoch {epoch}"
                )
        else:
            bad_epochs = 0

    if out_dir:
        model.save(os.path.join(out_dir, "final.bin"))
        write_metrics(os.path.join(out_dir, "metrics.csv"), history)
    return model, history
