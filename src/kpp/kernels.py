"""The hot kernels: strided convolution and bilinear sampling, forward and
backward, in NumPy.

The convolutions run as BLAS matrix products: the forward pass and the
kernel gradient over an im2col matrix built from a ``sliding_window_view``
of the padded input, the input gradient as one product per kernel tap
added into its strided window.  The bilinear image gradient is a single
``np.bincount`` scatter.  Conventions: float64, zero padding, and the
"corners map to +/-1" grid convention where a normalized coordinate c maps
to pixel (c + 1) / 2 * (size - 1).
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def _padded(x, pad):
    if not pad:
        return x
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=np.float64)
    xp[:, :, pad:pad + h, pad:pad + w] = x
    return xp


def _im2col(x, pad, kh, kw, stride, ho, wo):
    """Windows of a strided correlation over zero-padded x, as one matrix
    per image: (N, Ci*kh*kw, ho*wo), rows in (c, u, v) order."""
    n, c = x.shape[:2]
    win = sliding_window_view(_padded(x, pad), (kh, kw), axis=(2, 3))
    win = win[:, :, :(ho - 1) * stride + 1:stride, :(wo - 1) * stride + 1:stride]
    return np.ascontiguousarray(win.transpose(0, 1, 4, 5, 2, 3)).reshape(n, c * kh * kw, ho * wo)


def conv2d_forward(x, w, stride, pad):
    """Correlate x (N,Ci,H,W) with w (Co,Ci,kh,kw); zero padding, given stride."""
    n, ci, h, wid = x.shape
    co, ci2, kh, kw = w.shape
    if ci != ci2:
        raise ValueError(f"conv2d channel mismatch: input {ci} vs kernel {ci2}")
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wid + 2 * pad - kw) // stride + 1
    if ho < 1 or wo < 1:
        raise ValueError(f"conv2d output would be empty for input {x.shape} kernel {w.shape}")
    cols = _im2col(x, pad, kh, kw, stride, ho, wo)
    return np.matmul(w.reshape(co, ci * kh * kw), cols).reshape(n, co, ho, wo)


def conv2d_input_grad(gy, w, stride, pad, h, wid):
    """Gradient of conv2d_forward w.r.t. the input, for input size (h, wid)."""
    n, co, ho, wo = gy.shape
    co2, ci, kh, kw = w.shape
    # One product per kernel tap, added into its strided window (col2im).
    # A single product for all taps is no faster: its kh*kw-times-larger
    # buffer costs more in fresh pages than the saved BLAS calls.
    wt = np.ascontiguousarray(w.transpose(2, 3, 1, 0))      # (kh,kw,Ci,Co)
    g = gy.reshape(n, co, ho * wo)
    gxp = np.zeros((n, ci, h + 2 * pad, wid + 2 * pad), dtype=np.float64)
    for u in range(kh):
        for v in range(kw):
            tap = np.matmul(wt[u, v], g).reshape(n, ci, ho, wo)
            gxp[:, :, u:u + ho * stride:stride, v:v + wo * stride:stride] += tap
    if pad:
        return np.ascontiguousarray(gxp[:, :, pad:pad + h, pad:pad + wid])
    return gxp


def conv2d_kernel_grad(gy, x, stride, pad, kh, kw):
    """Gradient of conv2d_forward w.r.t. the kernel (Co,Ci,kh,kw)."""
    n, co, ho, wo = gy.shape
    ci = x.shape[1]
    cols = _im2col(x, pad, kh, kw, stride, ho, wo)
    gw = np.matmul(gy.reshape(n, co, ho * wo), cols.transpose(0, 2, 1)).sum(axis=0)
    return gw.reshape(co, ci, kh, kw)


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


def bilinear_image_grad(gy, grid, h, w):
    """Gradient of bilinear_forward w.r.t. the images; gy is (B,G,C,h,w)."""
    b, g, c, gh, gw = gy.shape
    px, py = _grid_to_pixels(grid, h, w)
    (cx0, cx1, cy0, cy1), (vx0, vx1, vy0, vy1), fx, fy = _corners(px, py, h, w)
    # One scatter-add over flat (b, c, y, x) indices, the four corners
    # stacked in front.  Off-canvas corners were clipped onto the canvas
    # and carry weight 0.
    pixel = np.stack([cy0 * w + cx0, cy0 * w + cx1, cy1 * w + cx0, cy1 * w + cx1])
    weight = np.stack([(1 - fx) * (1 - fy) * (vy0 & vx0), fx * (1 - fy) * (vy0 & vx1),
                       (1 - fx) * fy * (vy1 & vx0), fx * fy * (vy1 & vx1)])
    plane = (np.arange(b)[:, None] * c + np.arange(c)) * (h * w)          # (B,C)
    idx = plane[None, :, None, :, None, None] + pixel[:, :, :, None]     # (4,B,G,C,h,w)
    gimg = np.bincount(idx.ravel(), (gy * weight[:, :, :, None]).ravel(), minlength=b * c * h * w)
    return gimg.reshape(b, c, h, w)


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
