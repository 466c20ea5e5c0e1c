"""Conditional evidence lower bound and the read/write/generate procedures.

One elbo evaluation runs the full pipeline on a single episode: encode,
infer keys, write the memory, read per-sample traces, form the readout
prior, infer latents, decode, and assemble

    elbo = recon_ll - kl_z - kl_y        (nats per image)

with a single reparameterized draw for both keys and latents.  The
no-memory ablation replaces the trace prior by a head on the pooled
embedding and drops the key term.
"""

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import NonFiniteError, Tensor
from . import stn
from .distributions import (
    DiagGaussian,
    bernoulli_log_prob,
    gaussian_log_prob,
    kl_diag_gaussians,
    kl_to_standard_normal,
    reparam_sample,
)
from .nets import Episode, MemoryVAE
from . import data as data_mod


@dataclass
class ElboBreakdown:
    recon_ll: float
    kl_z: float
    kl_y: float
    elbo: float
    units: str = "nats/image"

    def __post_init__(self):
        if not np.isfinite([self.recon_ll, self.kl_z, self.kl_y, self.elbo]).all():
            raise NonFiniteError(f"non-finite elbo breakdown: {self}")


def _rng(seed_or_rng):
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed_or_rng)))


class _Stage:
    """Context that relabels non-finite failures with the pipeline stage."""

    def __init__(self, name):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None and issubclass(exc_type, NonFiniteError):
            raise NonFiniteError(f"non-finite value in stage {self.name!r}: {exc}") from exc
        return False


def _as_episode(episode):
    if isinstance(episode, Episode):
        return episode
    images = np.asarray(episode, dtype=np.float64)
    return Episode(images=images, dataset_ids=list(range(images.shape[0])))


def _recon_term(model, logits, target):
    t = target.shape[0]
    flat_out = ad.reshape(logits, (t, int(np.prod(logits.shape[1:]))))
    flat_x = ad.reshape(target, (t, int(np.prod(target.shape[1:]))))
    if model.config.likelihood == "bernoulli":
        return bernoulli_log_prob(flat_out, flat_x)
    sigma = model.config.gaussian_std
    log_std = ad.constant(np.full(flat_out.shape, np.log(sigma)))
    return gaussian_log_prob(DiagGaussian(mean=flat_out, log_std=log_std), flat_x)


def read_memory(model, memory: Tensor, squashed_keys):
    """Crop K traces per sample from one memory: keys (T,K,3) -> (T,K,C,h,w).

    All T*K windows are read from the single memory in one sampling call, so
    its image gradient is scattered once rather than once per sample.
    """
    t, k = squashed_keys.shape[:2]
    traces = stn.sample_traces(
        ad.reshape(memory, (1,) + memory.shape),
        ad.reshape(squashed_keys, (1, t * k, 3)),
        model.config.trace_size,
    )
    return ad.reshape(traces, (t, k) + traces.shape[2:])


def elbo_graph(model: MemoryVAE, episode, rng):
    """Build the differentiable -elbo loss for one episode.

    Returns (loss Tensor, ElboBreakdown).  The loss is the negative mean
    elbo over the episode's images.
    """
    episode = _as_episode(episode)
    rng = _rng(rng)
    t = episode.T
    x = ad.constant(episode.images)

    with _Stage("encode"):
        emb = model.encode(x)

    kl_y_mean = None
    if model.config.ablation:
        with _Stage("ablation_prior"):
            zp = model.ablation_prior(emb)
        # keep rng stream aligned with the memory arm (keys drawn, unused)
        rng.standard_normal((t, model.config.K, 3))
    else:
        with _Stage("key_posterior"):
            kq = model.key_posterior(emb)
        with _Stage("key_sample"):
            eps_y = ad.constant(rng.standard_normal((t, model.config.K, 3)))
            y = reparam_sample(kq, eps_y)
            y_sq = ad.tanh(y)
        with _Stage("write_memory"):
            memory = model.write_memory(emb)
        with _Stage("read_memory"):
            traces = read_memory(model, memory, y_sq)
        with _Stage("readout_prior"):
            zp = model.readout_prior(traces)
        with _Stage("kl_y"):
            kl_y_mean = ad.mean_(kl_to_standard_normal(kq))

    with _Stage("latent_posterior"):
        zq = model.latent_posterior(emb)
    with _Stage("latent_sample"):
        eps_z = ad.constant(rng.standard_normal((t, model.config.L)))
        z = reparam_sample(zq, eps_z)
    with _Stage("kl_z"):
        kl_z_mean = ad.mean_(kl_diag_gaussians(zq, zp))
    with _Stage("decode"):
        logits = model.decode(z)
    with _Stage("recon_ll"):
        recon_mean = ad.mean_(_recon_term(model, logits, x))

    with _Stage("elbo"):
        obj = ad.sub(recon_mean, kl_z_mean)
        if kl_y_mean is not None:
            obj = ad.sub(obj, kl_y_mean)
        loss = ad.neg(obj)

    recon_v = float(recon_mean.data)
    kl_z_v = float(kl_z_mean.data)
    kl_y_v = float(kl_y_mean.data) if kl_y_mean is not None else 0.0
    breakdown = ElboBreakdown(
        recon_ll=recon_v,
        kl_z=kl_z_v,
        kl_y=kl_y_v,
        elbo=recon_v - kl_z_v - kl_y_v,
    )
    return loss, breakdown


def elbo(episode, model: MemoryVAE, rng_seed) -> ElboBreakdown:
    """Evaluate the per-image elbo of one episode (no gradients kept)."""
    _, breakdown = elbo_graph(model, episode, _rng(rng_seed))
    return breakdown


def _decode_output(model, z):
    logits = model.decode(z)
    if model.config.likelihood == "bernoulli":
        return ad.sigmoid(logits)
    return logits


def generate(memory: Tensor, n: int, model: MemoryVAE, rng_seed) -> np.ndarray:
    """Sample n images from the memory: prior keys, trace prior mean, decode."""
    rng = _rng(rng_seed)
    raw_keys = rng.standard_normal((n, model.config.K, 3))
    return _generate_from_raw_keys(memory, raw_keys, model)


def _generate_from_raw_keys(memory, raw_keys, model):
    keys = ad.tanh(ad.constant(raw_keys))
    traces = read_memory(model, memory, keys)
    zp = model.readout_prior(traces)
    out = _decode_output(model, zp.mean)
    return out.data.copy()


def perturbed_generate(memory: Tensor, base_keys, eps_std: float, n: int,
                       model: MemoryVAE, rng_seed) -> np.ndarray:
    """Generations from base_keys plus Gaussian key perturbations."""
    if eps_std <= 0:
        raise ValueError(f"eps_std must be > 0, got {eps_std}")
    base = np.asarray(base_keys, dtype=np.float64)
    if base.shape != (model.config.K, 3):
        raise ValueError(f"base_keys must be (K, 3), got {base.shape}")
    rng = _rng(rng_seed)
    raw = base[None] + rng.standard_normal((n, model.config.K, 3)) * eps_std
    return _generate_from_raw_keys(memory, raw, model)


def iterative_read(memory: Tensor, x_init, steps: int, model: MemoryVAE,
                   rng_seed) -> list:
    """Repeatedly re-infer keys and decode, holding the memory fixed."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    rng = _rng(rng_seed)
    x_hat = np.asarray(x_init, dtype=np.float64)
    if x_hat.shape != model.config.image_shape:
        raise ValueError(
            f"x_init shape {x_hat.shape} does not match image shape "
            f"{model.config.image_shape}"
        )
    trajectory = []
    for _ in range(steps):
        emb = model.encode(ad.constant(x_hat[None]))
        kq = model.key_posterior(emb)
        eps_y = ad.constant(rng.standard_normal((1, model.config.K, 3)))
        y_sq = ad.tanh(reparam_sample(kq, eps_y))
        traces = read_memory(model, memory, y_sq)
        zp = model.readout_prior(traces)
        out = _decode_output(model, zp.mean)
        x_hat = out.data[0].copy()
        trajectory.append(x_hat)
    return trajectory


def denoise(memory: Tensor, x_clean, noise_kind: str, steps: int,
            model: MemoryVAE, rng_seed, rate=0.1, std=0.3, scale=30.0):
    """Corrupt x_clean, then run iterative reads; track L2 error per step.

    Returns (noisy, trajectory, errors) where errors[0] is the
    noisy-vs-clean distance and errors[i] the step-i reconstruction error.
    """
    x_clean = np.asarray(x_clean, dtype=np.float64)
    rng = _rng(rng_seed)
    noise_seed = int(rng.integers(0, 2**31 - 1))
    noisy = data_mod.inject_noise(
        x_clean, noise_kind, noise_seed, rate=rate, std=std, scale=scale
    )
    trajectory = iterative_read(memory, noisy, steps, model, rng)
    errors = [float(np.linalg.norm((noisy - x_clean).ravel()))]
    errors += [float(np.linalg.norm((x - x_clean).ravel())) for x in trajectory]
    return noisy, trajectory, errors
