"""Test-only reference kernels: the per-tap einsum convolutions and the
``np.add.at`` bilinear scatter that ``kpp.kernels`` used before it moved
to im2col products and ``np.bincount``.

Slow but direct: each kernel tap and each bilinear corner is one visible
step, so these serve as the oracle for the production kernels.
"""

import numpy as np


def _padded(x, pad):
    n, ci, h, wid = x.shape
    xp = np.zeros((n, ci, h + 2 * pad, wid + 2 * pad), dtype=np.float64)
    xp[:, :, pad:pad + h, pad:pad + wid] = x
    return xp


def conv2d_forward(x, w, stride, pad):
    co, _, kh, kw = w.shape
    xp = _padded(x, pad)
    ho = (xp.shape[2] - kh) // stride + 1
    wo = (xp.shape[3] - kw) // stride + 1
    y = np.zeros((x.shape[0], co, ho, wo), dtype=np.float64)
    for u in range(kh):
        for v in range(kw):
            patch = xp[:, :, u:u + ho * stride:stride, v:v + wo * stride:stride]
            y += np.einsum("nchw,fc->nfhw", patch, w[:, :, u, v])
    return y


def conv2d_input_grad(gy, w, stride, pad, h, wid):
    n, _, ho, wo = gy.shape
    _, ci, kh, kw = w.shape
    gxp = np.zeros((n, ci, h + 2 * pad, wid + 2 * pad), dtype=np.float64)
    for u in range(kh):
        for v in range(kw):
            contrib = np.einsum("nfhw,fc->nchw", gy, w[:, :, u, v])
            gxp[:, :, u:u + ho * stride:stride, v:v + wo * stride:stride] += contrib
    return gxp[:, :, pad:pad + h, pad:pad + wid]


def conv2d_kernel_grad(gy, x, stride, pad, kh, kw):
    _, co, ho, wo = gy.shape
    xp = _padded(x, pad)
    gw = np.zeros((co, x.shape[1], kh, kw), dtype=np.float64)
    for u in range(kh):
        for v in range(kw):
            patch = xp[:, :, u:u + ho * stride:stride, v:v + wo * stride:stride]
            gw[:, :, u, v] = np.einsum("nfhw,nchw->fc", gy, patch)
    return gw


def bilinear_image_grad(gy, grid, h, w):
    b, _, c = gy.shape[:3]
    px = (grid[..., 0] + 1.0) * 0.5 * (w - 1)
    py = (grid[..., 1] + 1.0) * 0.5 * (h - 1)
    x0 = np.floor(px).astype(np.intp)
    y0 = np.floor(py).astype(np.intp)
    fx = px - x0
    fy = py - y0
    gimg = np.zeros((b, c, h, w), dtype=np.float64)
    bidx = np.arange(b).reshape(b, 1, 1, 1, 1)
    cidx = np.arange(c).reshape(1, 1, c, 1, 1)
    for dy, dx, wt in ((0, 0, (1 - fx) * (1 - fy)), (0, 1, fx * (1 - fy)),
                       (1, 0, (1 - fx) * fy), (1, 1, fx * fy)):
        cy, cx = y0 + dy, x0 + dx
        valid = (cy >= 0) & (cy < h) & (cx >= 0) & (cx < w)
        contrib = gy * (wt * valid)[:, :, None]
        at = (bidx, cidx, np.clip(cy, 0, h - 1)[:, :, None], np.clip(cx, 0, w - 1)[:, :, None])
        np.add.at(gimg, at, contrib)
    return gimg
