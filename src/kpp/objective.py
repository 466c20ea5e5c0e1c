"""Conditional evidence lower bound and the read/write/generate procedures.

One elbo evaluation runs the full pipeline on a batch of B episodes in one
graph: encode, infer keys, write one memory per episode, read per-sample
traces from the sample's own memory, form the readout prior, infer latents,
decode, and assemble

    elbo = recon_ll - kl_z - kl_y        (nats per image)

averaged over the episodes, with a single reparameterized draw for both
keys and latents.  The no-memory ablation replaces the trace prior by a
head on each episode's pooled embedding and drops the key term.

Images, noise and keys take the model's dtype.  The three terms are means
formed in float64 (see ``autodiff.mean_``), so ``loss == -elbo`` holds
exactly whatever the model's dtype.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import NonFiniteError, Tensor
from . import stn
from .distributions import (
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

    def __post_init__(self):
        if not np.isfinite([self.recon_ll, self.kl_z, self.kl_y, self.elbo]).all():
            raise NonFiniteError(f"non-finite elbo breakdown: {self}")


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


def _episode_stack(episodes, dtype):
    """Images (B, T, C, H, W) in dtype of one episode (an Episode or a
    (T,C,H,W) array) or of a sequence of B equal-length episodes."""
    if isinstance(episodes, Episode):
        episodes = episodes.images[None]
    elif isinstance(episodes, (list, tuple)) and episodes and isinstance(episodes[0], Episode):
        episodes = [ep.images for ep in episodes]
    images = np.asarray(episodes, dtype=dtype)
    if images.ndim == 4:
        images = images[None]
    if images.ndim != 5 or 0 in images.shape[:2]:
        raise ValueError(f"episodes must be (T,C,H,W) or (B,T,C,H,W), got {images.shape}")
    return images


def elbo_graph(model: MemoryVAE, episodes, rng):
    """Build the differentiable -elbo loss for one episode or a batch of
    equal-length episodes, in one graph.

    Returns (loss Tensor, ElboBreakdown).  The loss is the negative mean
    elbo over the episodes' images, which is the mean over episodes of each
    episode's own loss; the breakdown holds the episode means.  Noise is
    drawn episode by episode, keys before latents, so a batch draws what
    the same episodes draw one at a time.
    """
    images = _episode_stack(episodes, model.dtype)
    rng = np.random.default_rng(rng)
    b, t = images.shape[:2]
    cfg = model.config
    eps_y = np.empty((b, t, cfg.K, 3), dtype=model.dtype)
    eps_z = np.empty((b, t, cfg.L), dtype=model.dtype)
    for i in range(b):
        # the no-memory arm draws the keys too, then leaves them unused
        eps_y[i] = rng.standard_normal((t, cfg.K, 3))
        eps_z[i] = rng.standard_normal((t, cfg.L))
    x = ad.constant(images.reshape((b * t,) + images.shape[2:]))

    with _Stage("encode"):
        emb = model.encode(x, t)

    kl_y_mean = None
    if cfg.ablation:
        with _Stage("ablation_prior"):
            zp = model.ablation_prior(emb, t)
    else:
        with _Stage("key_posterior"):
            kq = model.key_posterior(emb)
        with _Stage("key_sample"):
            y = reparam_sample(kq, ad.constant(eps_y.reshape(b * t, cfg.K, 3)))
            y_sq = ad.tanh(y)
        with _Stage("write_memory"):
            memory = model.write_memory(emb, t)
        with _Stage("read_memory"):
            traces = stn.sample_traces(memory, y_sq, cfg.trace_size)
        with _Stage("readout_prior"):
            zp = model.readout_prior(traces)
        with _Stage("kl_y"):
            kl_y_mean = ad.mean_(kl_to_standard_normal(kq))

    with _Stage("latent_posterior"):
        zq = model.latent_posterior(emb)
    with _Stage("latent_sample"):
        z = reparam_sample(zq, ad.constant(eps_z.reshape(b * t, cfg.L)))
    with _Stage("kl_z"):
        kl_z_mean = ad.mean_(kl_diag_gaussians(zq, zp))
    with _Stage("decode"):
        logits = model.decode(z)
    with _Stage("recon_ll"):
        recon_mean = ad.mean_(bernoulli_log_prob(logits, x) if cfg.likelihood == "bernoulli"
                              else gaussian_log_prob(logits, x, cfg.gaussian_std))

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


def _one_memory(memory, what, shape):
    if memory.shape[0] != 1:
        raise ValueError(f"one memory (1,C,H,W) is read for {what} {shape}, got {memory.shape}")


def _read_decode(model, memory, squashed_keys):
    """Read one memory at the keys and decode at the readout prior mean:
    pixel probabilities, or Gaussian means."""
    traces = stn.sample_traces(memory, squashed_keys, model.config.trace_size)
    out = model.decode(model.readout_prior(traces).mean)
    return ad.sigmoid(out) if model.config.likelihood == "bernoulli" else out


def generate(memory: Tensor, n: int, model: MemoryVAE, rng_seed) -> np.ndarray:
    """Sample n images from one memory (1,C,H,W), as ``write_memory`` returns
    it for one episode: prior keys, trace prior mean, decode."""
    rng = np.random.default_rng(rng_seed)
    raw_keys = rng.standard_normal((n, model.config.K, 3))
    return generate_from_keys(memory, raw_keys, model)


def generate_from_keys(memory: Tensor, raw_keys, model: MemoryVAE) -> np.ndarray:
    """Decode one image per key set from one memory (1,C,H,W): raw keys
    (n,K,3) are squashed by tanh, read, and decoded at the trace prior mean."""
    raw_keys = np.asarray(raw_keys, dtype=model.dtype)
    _one_memory(memory, "keys", raw_keys.shape)
    return _read_decode(model, memory, ad.tanh(ad.constant(raw_keys))).data.copy()


def perturbed_generate(memory: Tensor, base_keys, eps_std: float, n: int,
                       model: MemoryVAE, rng_seed) -> np.ndarray:
    """Generations from base_keys plus Gaussian key perturbations."""
    if not 0 < eps_std < np.inf:  # also fails for NaN
        raise ValueError(f"eps_std must be finite and > 0, got {eps_std!r}")
    base = np.asarray(base_keys)
    if base.shape != (model.config.K, 3):
        raise ValueError(f"base_keys must be (K, 3), got {base.shape}")
    rng = np.random.default_rng(rng_seed)
    raw = base[None] + rng.standard_normal((n, model.config.K, 3)) * eps_std
    return generate_from_keys(memory, raw, model)


def iterative_read(memory: Tensor, x_init, steps: int, model: MemoryVAE,
                   rng_seed) -> list:
    """Repeatedly re-infer keys and decode, holding the memory fixed."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    rng = np.random.default_rng(rng_seed)
    x_hat = np.asarray(x_init)
    if x_hat.shape != model.config.image_shape:
        raise ValueError(
            f"x_init shape {x_hat.shape} does not match image shape "
            f"{model.config.image_shape}"
        )
    _one_memory(memory, "image", x_hat.shape)
    trajectory = []
    for _ in range(steps):
        emb = model.encode(ad.constant(x_hat[None]))
        kq = model.key_posterior(emb)
        eps_y = ad.constant(rng.standard_normal((1, model.config.K, 3)).astype(model.dtype))
        x_hat = _read_decode(model, memory, ad.tanh(reparam_sample(kq, eps_y))).data[0].copy()
        trajectory.append(x_hat)
    return trajectory


def denoise(memory: Tensor, x_clean, noise_kind: str, steps: int,
            model: MemoryVAE, rng_seed, rate=0.1, std=0.3, scale=30.0):
    """Corrupt x_clean, then run iterative reads; track L2 error per step.

    Returns (noisy, trajectory, errors) where errors[0] is the
    noisy-vs-clean distance and errors[i] the step-i reconstruction error.
    """
    x_clean = np.asarray(x_clean)
    rng = np.random.default_rng(rng_seed)
    noise_seed = int(rng.integers(0, 2**31 - 1))
    noisy = data_mod.inject_noise(
        x_clean, noise_kind, noise_seed, rate=rate, std=std, scale=scale
    )
    trajectory = iterative_read(memory, noisy, steps, model, rng)
    errors = [float(np.linalg.norm((noisy - x_clean).ravel()))]
    errors += [float(np.linalg.norm((x - x_clean).ravel())) for x in trajectory]
    return noisy, trajectory, errors
