"""Diagonal Gaussian and Bernoulli probability machinery.

Every stochastic node in the model is either a diagonal Gaussian
(posteriors, readout prior, key prior) or a pixelwise Bernoulli
(binary image likelihood).  All functions build autodiff graphs, so
gradients flow into means, log-stds and logits.  Constants are plain
numbers, which take the dtype of the tensors they meet.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class DiagGaussian:
    """Factorized Gaussian with (batch, dim) mean and log-std tensors."""

    mean: Tensor
    log_std: Tensor

    def __post_init__(self):
        if self.mean.shape != self.log_std.shape:
            raise ValueError(
                f"DiagGaussian shape mismatch: mean {self.mean.shape} "
                f"vs log_std {self.log_std.shape}"
            )

    @property
    def shape(self):
        return self.mean.shape


def standard_normal_like(d: DiagGaussian) -> DiagGaussian:
    """N(0, 1) with the same shape as d."""
    zero = ad.constant(np.zeros(d.shape, dtype=d.mean.data.dtype))
    return DiagGaussian(mean=zero, log_std=zero)


def _sum_trailing(x: Tensor) -> Tensor:
    """Reduce all axes but the leading batch axis."""
    if len(x.shape) <= 1:
        return x
    return ad.sum_(x, axis=tuple(range(1, len(x.shape))))


def reparam_sample(d: DiagGaussian, noise: Tensor) -> Tensor:
    """mean + exp(log_std) * noise, differentiable through both stats."""
    if noise.shape != d.mean.shape:
        raise ValueError(
            f"noise shape {noise.shape} does not match mean shape {d.mean.shape}"
        )
    return ad.add(d.mean, ad.mul(ad.exp(d.log_std), noise))


def kl_diag_gaussians(q: DiagGaussian, p: DiagGaussian) -> Tensor:
    """Closed-form KL(q || p) per batch element, summed over dim.

    KL = log(sp/sq) + (sq^2 + (mq - mp)^2) / (2 sp^2) - 1/2
    """
    if q.shape != p.shape:
        raise ValueError(f"KL shape mismatch: q {q.shape} vs p {p.shape}")
    log_ratio = ad.sub(p.log_std, q.log_std)
    var_q = ad.exp(ad.mul(q.log_std, 2.0))
    inv_var_p = ad.exp(ad.mul(p.log_std, -2.0))
    delta = ad.sub(q.mean, p.mean)
    quad = ad.mul(ad.add(var_q, ad.mul(delta, delta)), inv_var_p)
    per_dim = ad.add(log_ratio, ad.mul(quad, 0.5))
    per_dim = ad.sub(per_dim, 0.5)
    return _sum_trailing(per_dim)


def kl_to_standard_normal(q: DiagGaussian) -> Tensor:
    """KL(q || N(0,1)); exact alias of kl_diag_gaussians with a standard p."""
    return kl_diag_gaussians(q, standard_normal_like(q))


def bernoulli_log_prob(logits: Tensor, target: Tensor) -> Tensor:
    """Stable Bernoulli log-likelihood, summed over pixels.

    ln p(x | logit) = x * logit - softplus(logit); never forms probabilities.
    """
    if logits.shape != target.shape:
        raise ValueError(
            f"bernoulli shape mismatch: logits {logits.shape} vs target {target.shape}"
        )
    tvals = target.data
    if not np.all((tvals == 0.0) | (tvals == 1.0)):
        bad = tvals[(tvals != 0.0) & (tvals != 1.0)].flat[0]
        raise ValueError(f"bernoulli target must be binary, found {bad!r}")
    per_pixel = ad.sub(ad.mul(target, logits), ad.softplus(logits))
    return _sum_trailing(per_pixel)


def gaussian_log_prob(mean: Tensor, target: Tensor, std: float) -> Tensor:
    """Log density of target under N(mean, std^2) per pixel, summed over
    pixels; the scalar std's constants are formed in mean's dtype."""
    if target.shape != mean.shape:
        raise ValueError(
            f"gaussian shape mismatch: target {target.shape} vs mean {mean.shape}"
        )
    if not std > 0:
        raise ValueError(f"gaussian std must be > 0, got {std!r}")
    dtype = mean.data.dtype.type
    log_std = dtype(np.log(std))
    delta = ad.sub(target, mean)
    quad = ad.mul(ad.mul(delta, delta), np.exp(log_std * dtype(-2.0)))
    per_pixel = ad.mul(ad.add(quad, dtype(_LOG_2PI) + log_std * dtype(2.0)), -0.5)
    return _sum_trailing(per_pixel)
