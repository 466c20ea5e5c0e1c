"""Test-only reference kernels: the per-tap einsum convolutions, the
``np.add.at`` bilinear scatter, and the per-corner fancy-index bilinear
forward and grid gradient that ``kpp.kernels`` used before it moved to
im2col products, ``np.bincount`` and one shared corner table; that table as
first built, with ``np.stack``; the conv forward pass with one contiguous
im2col matrix per image; the conv input gradient that added each tap's
product into a strided window of the padded canvas; and the memory read as
first composed from graph nodes over a (B,K,h,w,2) grid.

Slow but direct: each kernel tap and each bilinear corner is one visible
step, so these serve as the oracle for the production kernels.
"""

import numpy as np

from kpp import autodiff as ad
from kpp import kernels
from kpp.stn import _target_coords


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


def _grid_to_pixels(grid, h, w):
    px = (grid[..., 0] + 1.0) * 0.5 * (w - 1)
    py = (grid[..., 1] + 1.0) * 0.5 * (h - 1)
    return px, py


def _corners(px, py, h, w):
    x0 = np.floor(px)
    y0 = np.floor(py)
    fx = px - x0
    fy = py - y0
    x0 = x0.astype(np.intp)
    y0 = y0.astype(np.intp)
    x1 = x0 + 1
    y1 = y0 + 1
    vx0 = (x0 >= 0) & (x0 < w)
    vx1 = (x1 >= 0) & (x1 < w)
    vy0 = (y0 >= 0) & (y0 < h)
    vy1 = (y1 >= 0) & (y1 < h)
    cx0 = np.clip(x0, 0, w - 1)
    cx1 = np.clip(x1, 0, w - 1)
    cy0 = np.clip(y0, 0, h - 1)
    cy1 = np.clip(y1, 0, h - 1)
    return (cx0, cx1, cy0, cy1), (vx0, vx1, vy0, vy1), fx, fy


def _corner_values(images, grid):
    """Image values (B,G,h,w,C) at the four bilinear corners of every grid
    point, in (y0x0, y0x1, y1x0, y1x1) order and zero where the corner is
    off the canvas, with the fractional offsets fx, fy."""
    b, _, h, w = images.shape
    px, py = _grid_to_pixels(grid, h, w)
    (cx0, cx1, cy0, cy1), (vx0, vx1, vy0, vy1), fx, fy = _corners(px, py, h, w)
    bidx = np.arange(b).reshape(b, 1, 1, 1)

    def gather(cy, cx, valid):
        return images[bidx, :, cy, cx] * valid[..., None]

    corners = (gather(cy0, cx0, vy0 & vx0), gather(cy0, cx1, vy0 & vx1),
               gather(cy1, cx0, vy1 & vx0), gather(cy1, cx1, vy1 & vx1))
    return corners, fx, fy


def bilinear_forward(images, grid):
    """Sample images (B,C,H,W) at grid (B,G,h,w,2) of normalized (x,y) coords.

    Returns (B,G,C,h,w).  Coordinates outside [-1, 1] read zeros.
    """
    (v00, v01, v10, v11), fx, fy = _corner_values(images, grid)
    w00 = ((1 - fx) * (1 - fy))[..., None]
    w01 = (fx * (1 - fy))[..., None]
    w10 = ((1 - fx) * fy)[..., None]
    w11 = (fx * fy)[..., None]
    out = v00 * w00 + v01 * w01 + v10 * w10 + v11 * w11
    return np.ascontiguousarray(np.moveaxis(out, -1, 2))


def bilinear_grid_grad(gy, images, grid):
    """Gradient of bilinear_forward w.r.t. the normalized grid coordinates."""
    h, w = images.shape[2:]
    (v00, v01, v10, v11), fx, fy = _corner_values(images, grid)
    gyc = np.moveaxis(gy, 2, -1)                 # (B,G,h,w,C)
    # d out / d px and d out / d py, contracted with gy over channels
    dpx = np.einsum(
        "...c,...c->...",
        gyc,
        (v01 - v00) * (1 - fy)[..., None] + (v11 - v10) * fy[..., None],
        optimize=True,
    )
    dpy = np.einsum(
        "...c,...c->...",
        gyc,
        (v10 - v00) * (1 - fx)[..., None] + (v11 - v01) * fx[..., None],
        optimize=True,
    )
    ggrid = np.empty_like(grid)
    ggrid[..., 0] = dpx * 0.5 * (w - 1)
    ggrid[..., 1] = dpy * 0.5 * (h - 1)
    return ggrid


def bilinear_taps(grid, b, h, w):
    """The corner table of ``kpp.kernels.bilinear_taps``, built from stacked
    temporaries: flat indices (2, 2, B, G, h, w), then per-axis weights and
    on-canvas masks (2, B, G, h, w) for y and for x."""
    def axis(p, size):
        p0 = np.floor(p)
        frac = p - p0
        i = p0.astype(np.intp) + np.arange(2).reshape(2, 1, 1, 1, 1)
        on = (i >= 0) & (i < size)
        wt = np.stack([1 - frac, frac]) * on
        return np.clip(i, 0, size - 1), wt, on

    iy, wy, on_y = axis((grid[..., 1] + 1.0) * 0.5 * (h - 1), h)
    ix, wx, on_x = axis((grid[..., 0] + 1.0) * 0.5 * (w - 1), w)
    iy = (iy + np.arange(b).reshape(b, 1, 1, 1) * h) * w
    return iy[:, None] + ix, (wy, wx), (on_y, on_x)


def conv2d_forward_per_image(x, w, stride, pad):
    """``kpp.kernels.conv2d_forward`` as it was before it took a shared
    window matrix: one contiguous (Ci*kh*kw, ho*wo) matrix per image."""
    n, ci, h, wid = x.shape
    co, _, kh, kw = w.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wid + 2 * pad - kw) // stride + 1
    win = kernels._windows(x, pad, kh, kw, stride, ho, wo)
    cols = np.ascontiguousarray(win.transpose(0, 1, 4, 5, 2, 3)).reshape(n, ci * kh * kw, ho * wo)
    return np.matmul(w.reshape(co, ci * kh * kw), cols).reshape(n, co, ho, wo)


def conv2d_input_grad_strided(gy, w, stride, pad, h, wid):
    """``kpp.kernels.conv2d_input_grad`` as it was before it added each tap
    in one contiguous pass: the same per-tap BLAS products, each added into
    its strided (n, ci, ho, wo) window of the padded canvas."""
    n, co, ho, wo = gy.shape
    _, ci, kh, kw = w.shape
    wt = np.ascontiguousarray(w.transpose(2, 3, 1, 0))
    g = gy.reshape(n, co, ho * wo)
    gxp = np.zeros((n, ci, h + 2 * pad, wid + 2 * pad), dtype=np.result_type(gy, w))
    for u in range(kh):
        for v in range(kw):
            tap = np.matmul(wt[u, v], g).reshape(n, ci, ho, wo)
            gxp[:, :, u:u + ho * stride:stride, v:v + wo * stride:stride] += tap
    return np.ascontiguousarray(gxp[:, :, pad:pad + h, pad:pad + wid])


def grid_read(memory, keys, out_size):
    """The memory read as composed before it became one node: slice,
    reshape, mul and add nodes build the grid scale * target + shift of
    keys (B,K,3), and a bilinear node samples memory (B,C,H,W) at it with
    the corner table of ``kpp.kernels.bilinear_taps``.  The bit-exact
    oracle of ``kpp.stn.sample_traces``: value and both gradients."""
    b, k = keys.shape[:2]
    scale = ad.reshape(keys[..., 0:1], (b, k, 1, 1, 1))
    shift = ad.reshape(keys[..., 1:3], (b, k, 1, 1, 2))
    grid = ad.add(ad.mul(scale, _target_coords(*out_size, keys.data.dtype)), shift)
    mc = np.ascontiguousarray(memory.data)
    gc = np.ascontiguousarray(grid.data)
    h, w = mc.shape[2:]
    taps = kernels.bilinear_taps(gc, b, h, w)

    def bwd(gy):
        gy = np.ascontiguousarray(gy)
        ad.accumulate(memory, kernels.bilinear_image_grad(gy, gc, h, w, taps=taps))
        ad.accumulate(grid, kernels.bilinear_grid_grad(gy, mc, gc, taps=taps))

    out = kernels.bilinear_forward(mc, gc, taps=taps)
    return ad.make_node("bilinear_sample", out, (memory, grid), bwd)
