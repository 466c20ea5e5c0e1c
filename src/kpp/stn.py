"""Differentiable extraction of memory sub-blocks via affine grids.

A key is three scalars (scale s, x-shift, y-shift) squashed into
(-1, 1) by tanh.  For every target pixel with normalized coordinates
(tx, ty) in [-1, 1]^2 the source coordinate is (s*tx + x, s*ty + y);
bilinear interpolation with zero padding turns those real-valued
coordinates into a differentiable crop.  Gradients reach only the
memory cells actually touched by the sampling footprint.
"""

import functools

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


@functools.lru_cache(maxsize=None)
def _target_coords(out_h, out_w, dtype):
    """Normalized target coordinates (h, w, 2) in (x, y) order, corners at +-1; read-only."""
    tx = np.linspace(-1.0, 1.0, out_w) if out_w > 1 else np.zeros(1)
    ty = np.linspace(-1.0, 1.0, out_h) if out_h > 1 else np.zeros(1)
    gy, gx = np.meshgrid(ty, tx, indexing="ij")
    coords = np.stack([gx, gy], axis=-1).astype(dtype)
    coords.flags.writeable = False
    return coords


def grid_from_keys(keys: Tensor, out_h: int, out_w: int) -> Tensor:
    """Batched sampling grids from squashed keys (B, K, 3) -> (B, K, h, w, 2)."""
    keys = ad.tensor(keys) if not isinstance(keys, Tensor) else keys
    if len(keys.shape) != 3 or keys.shape[-1] != 3 or keys.shape[1] < 1:
        raise ValueError(f"grid_from_keys expects (B, K, 3) keys with K >= 1, got {keys.shape}")
    if out_h < 1 or out_w < 1:
        raise ValueError(f"grid size must be >= 1, got ({out_h}, {out_w})")
    b, k = keys.shape[0], keys.shape[1]
    scale = ad.reshape(keys[..., 0:1], (b, k, 1, 1, 1))
    shift = ad.reshape(keys[..., 1:3], (b, k, 1, 1, 2))
    return ad.add(ad.mul(scale, _target_coords(out_h, out_w, keys.data.dtype)), shift)


def sample_traces(memory: Tensor, keys: Tensor, out_size) -> Tensor:
    """Crop batched memories (B,C,H,W) with squashed keys (B,K,3) -> (B,K,C,h,w)."""
    out_h, out_w = out_size
    grid = grid_from_keys(keys, out_h, out_w)
    return ad.bilinear_sample(memory, grid)

