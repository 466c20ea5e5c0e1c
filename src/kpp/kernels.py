"""The hot kernels: strided convolution and bilinear sampling, forward and
backward, in NumPy.

The convolutions run as BLAS matrix products: the forward pass and the
kernel gradient over one (Ci*kh*kw, N*ho*wo) im2col matrix (``im2col``)
built from a strided window view of the padded input, which a caller can
build once and pass to both as ``cols`` (the forward pass multiplies a
strided view of it one image at a time, the kernel gradient all of it at
once); the input gradient, which is also the transposed conv's forward
pass, as one product per kernel tap, each added in one contiguous pass
into a stride-phase plane of the padded canvas.  The three bilinear
kernels share one 2x2 corner table (``corner_table``), built once per read
and passed to each as ``taps``: the forward pass and the grid gradient
gather one corner at a time, and the image gradient scatters through it
with one ``np.bincount`` per channel; given ``taps``, a kernel does not
read its grid argument.
Conventions: zero padding, and the "corners map to +/-1" grid convention
where a normalized coordinate c maps to pixel (c + 1) / 2 * (size - 1).

Every kernel returns the dtype of its array operands (float32 in, float32
out; float64 in, float64 out), and its temporaries take that dtype too.
"""

import numpy as np


def _windows(x, pad, kh, kw, stride, ho, wo):
    """Read-only (N, Ci, ho, wo, kh, kw) windows of a strided correlation over zero-padded x."""
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    xp[:, :, pad:pad + h, pad:pad + w] = x
    sn, sc, sh, sw = xp.strides
    win = np.ndarray((n, c, ho, wo, kh, kw), xp.dtype, xp, 0,
                     (sn, sc, sh * stride, sw * stride, sh, sw))
    win.flags.writeable = False
    return win


def im2col(x, kh, kw, stride, pad):
    """The (Ci*kh*kw, N*ho*wo) window matrix of a strided correlation over
    zero-padded x (N,Ci,H,W): rows in (c, u, v) order, columns in (n, i, j)
    order.  ``conv2d_forward`` and ``conv2d_kernel_grad`` take it as ``cols``."""
    n, ci, h, wid = x.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wid + 2 * pad - kw) // stride + 1
    if ho < 1 or wo < 1:
        raise ValueError(f"conv2d output would be empty for input {x.shape} kernel {(kh, kw)}")
    win = _windows(x, pad, kh, kw, stride, ho, wo)
    return np.ascontiguousarray(win.transpose(1, 4, 5, 0, 2, 3)).reshape(ci * kh * kw, n * ho * wo)


def conv2d_forward(x, w, stride, pad, cols=None):
    """Correlate x (N,Ci,H,W) with w (Co,Ci,kh,kw); zero padding, given stride."""
    n, ci, h, wid = x.shape
    co, ci2, kh, kw = w.shape
    if ci != ci2:
        raise ValueError(f"conv2d channel mismatch: input {ci} vs kernel {ci2}")
    if cols is None:
        cols = im2col(x, kh, kw, stride, pad)
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wid + 2 * pad - kw) // stride + 1
    # one BLAS product per image, over a strided (N, Ci*kh*kw, ho*wo) view
    per_image = cols.reshape(ci * kh * kw, n, ho * wo).transpose(1, 0, 2)
    return np.matmul(w.reshape(co, ci * kh * kw), per_image).reshape(n, co, ho, wo)


def conv2d_input_grad(gy, w, stride, pad, h, wid):
    """Gradient of conv2d_forward w.r.t. the input, for input size (h, wid)."""
    n, co, ho, wo = gy.shape
    co2, ci, kh, kw = w.shape
    s = stride
    # One product per kernel tap, added into the padded canvas (col2im).  A
    # single product for all taps is no faster: its kh*kw-times-larger buffer
    # costs more in fresh pages than the saved BLAS calls.  Canvas row s*i + p
    # is row i of phase plane p, so tap (s*a + p, s*b + q) adds at row a,
    # column b of plane (p, q).  With gy zero-padded to the plane's r x c, a
    # product shares the planes' row and plane strides, so each tap is one
    # contiguous add at offset a*c + b; what spills past a row's end is zeros.
    r = max(ho + (kh - 1) // s, (h + pad - 1) // s + 1)
    c = max(wo + (kw - 1) // s, (wid + pad - 1) // s + 1)
    wt = np.ascontiguousarray(w.transpose(2, 3, 1, 0))      # (kh,kw,Ci,Co)
    g = np.zeros((n, co, r * c), dtype=gy.dtype)
    g.reshape(n, co, r, c)[:, :, :ho, :wo] = gy
    size, dtype = n * ci * r * c, np.result_type(gy, w)
    planes = np.zeros((s, s, size + r * c), dtype=dtype)    # any offset a*c + b < r*c
    for u in range(kh):
        for v in range(kw):
            (a, p), (b, q) = divmod(u, s), divmod(v, s)
            planes[p, q, a * c + b:a * c + b + size] += np.matmul(wt[u, v], g).reshape(size)
    # one strided copy per plane: output row y of phase p = (y + pad) % s is
    # plane row (y + pad) // s
    gx = np.empty((n, ci, h, wid), dtype=dtype)
    for p, q in np.ndindex(s, s):
        y, x = (p - pad) % s, (q - pad) % s
        rows = slice((y + pad) // s, (y + pad) // s + len(range(y, h, s)))
        cols = slice((x + pad) // s, (x + pad) // s + len(range(x, wid, s)))
        gx[:, :, y::s, x::s] = planes[p, q, :size].reshape(n, ci, r, c)[:, :, rows, cols]
    return gx


def conv2d_kernel_grad(gy, x, stride, pad, kh, kw, cols=None):
    """Gradient of conv2d_forward w.r.t. the kernel (Co,Ci,kh,kw)."""
    n, co, ho, wo = gy.shape
    ci = x.shape[1]
    # One product over every image, so no per-image stack of partial kernels to sum.
    if cols is None:
        cols = im2col(x, kh, kw, stride, pad)
    g = gy.transpose(1, 0, 2, 3).reshape(co, n * ho * wo)
    return np.matmul(g, cols.T).reshape(co, ci, kh, kw)


def _axis_taps(c, size):
    """Near and far tap indices, weights and on-canvas masks (2, ...) of
    normalized coordinates c on an axis of the given size.  Each array is
    filled in place: on the read shapes much of a bilinear kernel's time is
    first-touch faults on fresh arrays."""
    p = (c + 1.0) * (0.5 * (size - 1))
    wt = np.empty((2,) + p.shape, dtype=p.dtype)
    i = np.empty(wt.shape, dtype=np.intp)
    i[0] = np.floor(p, out=wt[0])
    np.add(i[0], 1, out=i[1])
    np.subtract(p, wt[0], out=wt[1])
    np.subtract(1, wt[1], out=wt[0])
    on = (i >= 0) & (i < size)
    wt *= on
    return np.clip(i, 0, size - 1, out=i), wt, on


def corner_table(ys, xs, b, h, w):
    """The 2x2 corner table that all three bilinear kernels take as ``taps``,
    for a read of B canvases of H x W at normalized ys and xs that
    broadcast to (B,G,h,w): a separable read passes ys (B,G,h,1) and xs
    (B,G,1,w).  Returns flat indices (2, 2, B, G, h, w) into the B*H*W
    canvas, the y tap first, then per-axis weights and on-canvas masks
    (2, ...) of ys and of xs.  An off-canvas corner is clipped onto the
    canvas and has weight 0."""
    iy, wy, on_y = _axis_taps(ys, h)
    ix, wx, on_x = _axis_taps(xs, w)
    iy += np.arange(b).reshape(b, 1, 1, 1) * h
    iy *= w
    return iy[:, None] + ix, (wy, wx), (on_y, on_x)


def bilinear_taps(grid, b, h, w):
    """The ``corner_table`` of grid (B,G,h,w,2) of normalized (x, y) coords."""
    return corner_table(grid[..., 1], grid[..., 0], b, h, w)


def _canvas(images):
    """Images (B,C,H,W) as one channel-first (C, B*H*W) matrix."""
    b, c, h, w = images.shape
    return images.transpose(1, 0, 2, 3).reshape(c, b * h * w)


def bilinear_forward(images, grid, taps=None):
    """Sample images (B,C,H,W) at grid (B,G,h,w,2) of normalized (x,y) coords.

    Returns (B,G,C,h,w).  Coordinates outside [-1, 1] read zeros.
    """
    b, _, h, w = images.shape
    idx, (wy, wx), _ = taps or bilinear_taps(grid, b, h, w)
    canvas = _canvas(images)
    # One corner at a time, so no temporary holds all four corners.
    out = None
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
        term = np.take(canvas, idx[i, j], axis=1)                # (C,B,G,h,w)
        term *= wy[i] * wx[j]
        out = term if out is None else np.add(out, term, out=out)
    return np.ascontiguousarray(out.transpose(1, 2, 0, 3, 4))


def bilinear_image_grad(gy, grid, h, w, taps=None):
    """Gradient of bilinear_forward w.r.t. the images; gy is (B,G,C,h,w)."""
    b, _, c = gy.shape[:3]
    idx, (wy, wx), _ = taps or bilinear_taps(grid, b, h, w)
    # One scatter-add per channel over the flat (b, y, x) indices, the four
    # corners in front, so each bin sums in the same order for every channel.
    bins = idx.ravel()
    weight = wy[:, None] * wx                                    # (2,2,B,G,h,w)
    gimg = np.empty((b, c, h, w), dtype=np.result_type(gy, weight))
    for ch in range(c):
        gimg[:, ch] = np.bincount(bins, (weight * gy[:, :, ch]).ravel(),
                                  minlength=b * h * w).reshape(b, h, w)
    return gimg


def bilinear_grid_grad(gy, images, grid, taps=None):
    """Gradient of bilinear_forward w.r.t. the normalized grid coordinates."""
    b, _, h, w = images.shape
    idx, (wy, wx), (on_y, on_x) = taps or bilinear_taps(grid, b, h, w)
    canvas = _canvas(images)
    # gy against the value at one corner at a time, times d weight / d pixel
    # coordinate (the slope: -1 for the near tap, +1 for the far one, 0 off
    # the canvas), added in corner order.
    sign = np.array([-1.0, 1.0], dtype=wy.dtype).reshape(2, 1, 1, 1, 1)
    slope_y, slope_x = sign * on_y, sign * on_x
    dpx = dpy = None
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
        dot = np.einsum("bgcij,cbgij->bgij", gy, np.take(canvas, idx[i, j], axis=1))
        tx = dot * (wy[i] * slope_x[j])
        ty = np.multiply(dot, slope_y[i] * wx[j], out=dot)
        dpx = tx if dpx is None else np.add(dpx, tx, out=dpx)
        dpy = ty if dpy is None else np.add(dpy, ty, out=dpy)
    return np.stack([dpx * 0.5 * (w - 1), dpy * 0.5 * (h - 1)], axis=-1)
