"""Differentiable extraction of memory sub-blocks by key-placed windows.

A key is three scalars (scale s, x-shift, y-shift) squashed into
(-1, 1) by tanh.  For every target pixel with normalized coordinates
(tx, ty) in [-1, 1]^2 the source coordinate is (s*tx + x, s*ty + y);
bilinear interpolation with zero padding turns those real-valued
coordinates into a differentiable crop.  Source x depends only on the
column and y only on the row, so a read is one graph node whose corner
table comes from those per-axis coordinates, with no grid tensor.
N samples read B memories, N a multiple of B: the rows come grouped by
memory, N/B to each, and each row's K windows read its own memory.
Gradients reach only the memory cells the sampling footprint touches.
"""

import functools

import numpy as np

from . import autodiff as ad
from . import kernels
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


def sample_traces(memory: Tensor, keys: Tensor, out_size) -> Tensor:
    """Crop memories (B,C,H,W) with the squashed keys (N,K,3) of N samples,
    N/B to a memory in memory order, into traces (N,K,C,h,w) in one node."""
    memory, keys = (t if isinstance(t, Tensor) else ad.tensor(t) for t in (memory, keys))
    out_h, out_w = out_size
    if len(keys.shape) != 3 or keys.shape[-1] != 3 or keys.shape[1] < 1:
        raise ValueError(f"sample_traces expects (N, K, 3) keys with K >= 1, got {keys.shape}")
    if out_h < 1 or out_w < 1:
        raise ValueError(f"trace size must be >= 1, got ({out_h}, {out_w})")
    if len(memory.shape) != 4 or memory.shape[0] < 1 or keys.shape[0] % memory.shape[0]:
        raise ValueError(f"need (B,C,H,W) memories, B dividing N, got {memory.shape} "
                         f"for keys {keys.shape}")
    mc = np.ascontiguousarray(memory.data)
    b, _, h, w = mc.shape
    k = keys.data.reshape(b, -1, 3)                                # each memory's windows
    coords = _target_coords(out_h, out_w, k.dtype)
    xs = k[..., 0:1] * coords[0, :, 0] + k[..., 1:2]               # (B,N/B*K,w)
    ys = k[..., 0:1] * coords[:, 0, 1] + k[..., 2:3]               # (B,N/B*K,h)
    taps = kernels.corner_table(ys[..., None], xs[..., None, :], b, h, w)
    out = kernels.bilinear_forward(mc, None, taps=taps)

    def bwd(gy):
        gy = np.ascontiguousarray(gy).reshape(out.shape)
        if memory.requires_grad:
            ad.accumulate(memory, kernels.bilinear_image_grad(gy, None, h, w, taps=taps))
        if keys.requires_grad:  # the coordinate gradient, through s * target + shift
            gg = kernels.bilinear_grid_grad(gy, mc, None, taps=taps)
            gk = np.empty_like(k)
            gk[..., 0] = (gg * coords).sum(axis=(2, 3, 4))
            gk[..., 1:] = gg.sum(axis=(2, 3))
            ad.accumulate(keys, gk.reshape(keys.shape))

    traces = out.reshape(keys.shape[:2] + out.shape[2:])
    return ad.make_node("sample_traces", traces, (memory, keys), bwd)
