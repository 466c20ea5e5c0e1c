"""Block-allocated latent-memory generative model, desk scale."""

import os

# KPP_THREADS=n caps BLAS/OpenMP threads.  BLAS reads its caps once, when
# NumPy loads it, so they are set here, before this package imports NumPy;
# caps already in the environment win.
if os.environ.get("KPP_THREADS"):
    os.environ.setdefault("OMP_NUM_THREADS", os.environ["KPP_THREADS"])
    os.environ.setdefault("OPENBLAS_NUM_THREADS", os.environ["KPP_THREADS"])

from .autodiff import GraphError, NonFiniteError, Tensor
from .data import Dataset, EpisodeSampler, binarize, inject_noise, load_idx, synth_shapes
from .distributions import (
    DiagGaussian,
    bernoulli_log_prob,
    gaussian_log_prob,
    kl_diag_gaussians,
    kl_to_standard_normal,
    reparam_sample,
)
from .nets import MemoryVAE, ModelConfig, load_checkpoint, save_checkpoint
from .objective import ElboBreakdown, denoise, elbo_graph, generate, iterative_read, perturbed_generate
from .trainer import DivergenceError, MetricsRow, TrainConfig, adam_step, eval_conditional, lr_at, train

__version__ = "0.1.0"
