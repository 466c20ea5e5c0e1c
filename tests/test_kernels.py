"""Kernel checks: the NumPy kernels against a test-only oracle, their
dtypes, and hand-checkable values."""

import os

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import kernels_reference as ref
from kpp import kernels


STRIDE_PAD = [(1, 0), (1, 1), (2, 1), (3, 2)]
KERNEL_SIZES = [3, 4]


# (kh, kw, stride, pad, h, wid) of input gradients whose scatter has an edge:
# taps that miss the last rows or columns ((h + 2 pad - k) % stride != 0),
# stride 3, 1x1 kernels, a rectangular kernel and 1x1 outputs
INPUT_GRAD_EDGES = [(4, 4, 2, 0, 9, 8), (4, 4, 2, 0, 8, 9), (5, 5, 3, 1, 10, 8),
                    (2, 2, 3, 0, 7, 5), (1, 1, 1, 0, 5, 6), (1, 1, 2, 0, 7, 6),
                    (3, 4, 2, 1, 7, 9), (3, 3, 2, 0, 3, 4), (2, 2, 3, 0, 2, 2),
                    (3, 3, 1, 1, 1, 1)]
INPUT_GRAD_EDGE_IDS = ["miss-rows", "miss-cols", "stride3", "stride3-miss", "k1", "k1-stride2",
                       "k3x4", "out1x1", "out1x1-stride3", "out1x1-in1x1"]

# (B,G,C,h,w,H,W) shapes with grids in +-1.3 (the third is a batched read:
# several canvases, many windows each), then two edge cases
BILINEAR_CASES = [(2, 4, 3, 5, 6, 7, 9), (3, 2, 1, 16, 16, 8, 8), (4, 48, 3, 6, 5, 24, 20),
                  "off_canvas", "on_pixels"]
BILINEAR_IDS = ["shape0", "shape1", "batched", "off_canvas", "on_pixels"]


def _out_size(size, k, stride, pad):
    return (size + 2 * pad - k) // stride + 1


def _bilinear_case(rng, case):
    """(images, grid, gy) for one of BILINEAR_CASES."""
    if case == "off_canvas":
        # mostly off a 5x5 canvas; the first window wholly outside
        grid = rng.uniform(-2.5, 2.5, size=(1, 2, 4, 4, 2))
        grid[:, 0] = 1.6
        c, h, w = 2, 5, 5
    elif case == "on_pixels":
        # every pixel of a 9x5 canvas, exactly: fx or fy is 0 there, and on
        # the right and bottom edges the x1 / y1 corner is off the canvas
        c, h, w = 2, 9, 5
        py, px = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        grid = np.stack([px / 2.0 - 1, py / 4.0 - 1], axis=-1)[None, None]
        grid = np.repeat(grid, 2, axis=0)
    else:
        b, g, c, gh, gw, h, w = case
        grid = rng.uniform(-1.3, 1.3, size=(b, g, gh, gw, 2))
    b, g, gh, gw = grid.shape[:4]
    return rng.normal(size=(b, c, h, w)), grid, rng.normal(size=(b, g, c, gh, gw))


class TestOracle:
    """The NumPy kernels match the per-tap / np.add.at / per-corner
    reference kernels."""

    @pytest.mark.parametrize("k", KERNEL_SIZES)
    @pytest.mark.parametrize("stride,pad", STRIDE_PAD)
    def test_conv2d_forward(self, rng, stride, pad, k):
        x = rng.normal(size=(3, 4, 9, 11))
        w = rng.normal(size=(5, 4, k, k))
        got = kernels.conv2d_forward(x, w, stride, pad)
        expect = ref.conv2d_forward(x, w, stride, pad)
        assert got.shape == expect.shape
        assert np.max(np.abs(got - expect)) <= 1e-12

    @pytest.mark.parametrize("k", KERNEL_SIZES)
    @pytest.mark.parametrize("stride,pad", STRIDE_PAD)
    def test_conv2d_input_grad(self, rng, stride, pad, k):
        h, wid = 9, 11
        w = rng.normal(size=(5, 4, k, k))
        gy = rng.normal(size=(2, 5, _out_size(h, k, stride, pad), _out_size(wid, k, stride, pad)))
        got = kernels.conv2d_input_grad(gy, w, stride, pad, h, wid)
        expect = ref.conv2d_input_grad(gy, w, stride, pad, h, wid)
        assert got.shape == (2, 4, h, wid)
        assert np.max(np.abs(got - expect)) <= 1e-12

    @pytest.mark.parametrize("k", KERNEL_SIZES)
    @pytest.mark.parametrize("stride,pad", STRIDE_PAD)
    def test_conv2d_kernel_grad(self, rng, stride, pad, k):
        h, wid = 9, 11
        x = rng.normal(size=(2, 4, h, wid))
        gy = rng.normal(size=(2, 5, _out_size(h, k, stride, pad), _out_size(wid, k, stride, pad)))
        got = kernels.conv2d_kernel_grad(gy, x, stride, pad, k, k)
        expect = ref.conv2d_kernel_grad(gy, x, stride, pad, k, k)
        assert got.shape == (5, 4, k, k)
        assert np.max(np.abs(got - expect)) <= 1e-12

    @pytest.mark.parametrize("kh,kw,stride,pad,h,wid", INPUT_GRAD_EDGES, ids=INPUT_GRAD_EDGE_IDS)
    def test_conv2d_input_grad_edges(self, rng, kh, kw, stride, pad, h, wid):
        w = rng.normal(size=(5, 4, kh, kw))
        gy = rng.normal(size=(2, 5, _out_size(h, kh, stride, pad), _out_size(wid, kw, stride, pad)))
        got = kernels.conv2d_input_grad(gy, w, stride, pad, h, wid)
        expect = ref.conv2d_input_grad(gy, w, stride, pad, h, wid)
        assert got.shape == (2, 4, h, wid)
        assert np.max(np.abs(got - expect)) <= 1e-12

    def test_conv2d_kernel_grad_batched(self, rng):
        """Many images whose im2col has more rows (Ci*kh*kw) than output
        pixels (ho*wo), as in the encoder's last layer over a batch."""
        x = rng.normal(size=(40, 12, 4, 4))
        gy = rng.normal(size=(40, 7, 2, 2))
        got = kernels.conv2d_kernel_grad(gy, x, 2, 1, 3, 3)
        expect = ref.conv2d_kernel_grad(gy, x, 2, 1, 3, 3)
        assert got.shape == (7, 12, 3, 3)
        assert np.max(np.abs(got - expect)) <= 1e-12

    def test_conv_transpose_layer_shape(self, rng):
        """4x4 stride-2 pad-1, as every convT layer uses it: the transposed
        conv runs conv2d_input_grad forward and the other two backward."""
        x = rng.normal(size=(3, 6, 4, 4))
        w = rng.normal(size=(6, 5, 4, 4))
        y = kernels.conv2d_input_grad(x, w, 2, 1, 8, 8)
        assert np.max(np.abs(y - ref.conv2d_input_grad(x, w, 2, 1, 8, 8))) <= 1e-12
        gy = rng.normal(size=y.shape)
        assert np.max(np.abs(kernels.conv2d_forward(gy, w, 2, 1)
                             - ref.conv2d_forward(gy, w, 2, 1))) <= 1e-12
        assert np.max(np.abs(kernels.conv2d_kernel_grad(x, gy, 2, 1, 4, 4)
                             - ref.conv2d_kernel_grad(x, gy, 2, 1, 4, 4))) <= 1e-12

    @pytest.mark.parametrize("case", BILINEAR_CASES, ids=BILINEAR_IDS)
    def test_bilinear_forward(self, rng, case):
        images, grid, gy = _bilinear_case(rng, case)
        got = kernels.bilinear_forward(images, grid)
        expect = ref.bilinear_forward(images, grid)
        assert got.shape == gy.shape
        assert np.max(np.abs(got - expect)) <= 1e-12

    @pytest.mark.parametrize("case", BILINEAR_CASES, ids=BILINEAR_IDS)
    def test_bilinear_image_grad(self, rng, case):
        images, grid, gy = _bilinear_case(rng, case)
        h, w = images.shape[2:]
        got = kernels.bilinear_image_grad(gy, grid, h, w)
        expect = ref.bilinear_image_grad(gy, grid, h, w)
        assert got.shape == images.shape
        assert np.max(np.abs(got - expect)) <= 1e-12

    @pytest.mark.parametrize("case", BILINEAR_CASES, ids=BILINEAR_IDS)
    def test_bilinear_grid_grad(self, rng, case):
        images, grid, gy = _bilinear_case(rng, case)
        got = kernels.bilinear_grid_grad(gy, images, grid)
        expect = ref.bilinear_grid_grad(gy, images, grid)
        assert got.shape == grid.shape
        assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))

    def test_bilinear_image_grad_off_canvas(self, rng):
        """Corners that fall off the canvas add nothing; a read wholly
        outside gives a zero gradient."""
        gy = rng.normal(size=(1, 1, 2, 3, 3))
        grid = np.full((1, 1, 3, 3, 2), 1.6)   # pixel 5.2 on a 5-wide canvas
        assert np.array_equal(kernels.bilinear_image_grad(gy, grid, 5, 5),
                              np.zeros((1, 2, 5, 5)))
        grid[..., 0] = 1.0   # right edge: the x1 corners fall off
        grid[..., 1] = 0.3
        got = kernels.bilinear_image_grad(gy, grid, 5, 5)
        assert np.max(np.abs(got - ref.bilinear_image_grad(gy, grid, 5, 5))) <= 1e-12


class TestTapScatter:
    """The one-add-per-tap scatter of ``conv2d_input_grad`` matches the
    per-tap strided-add kernel it replaced, relative to the output's size,
    on every conv shape of a default-model step: as a conv input gradient
    and as a transposed conv's forward pass."""

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-12)],
                             ids=["float32", "float64"])
    def test_model_shapes(self, model_convs, dtype, tol):
        rng = np.random.default_rng(6)
        for name, xv, wv, stride, pad in model_convs:
            wv = wv.astype(dtype)
            if name == "conv2d":
                ho, wo = (_out_size(s, k, stride, pad) for s, k in zip(xv.shape[2:], wv.shape[2:]))
                gy = rng.normal(size=(xv.shape[0], wv.shape[0], ho, wo)).astype(dtype)
                args = (gy, wv, stride, pad) + xv.shape[2:]
            else:
                size = [(s - 1) * stride - 2 * pad + k for s, k in zip(xv.shape[2:], wv.shape[2:])]
                args = (xv.astype(dtype), wv, stride, pad, *size)
            got = kernels.conv2d_input_grad(*args)
            expect = ref.conv2d_input_grad_strided(*args)
            assert got.dtype == expect.dtype == dtype
            assert np.max(np.abs(got - expect)) <= tol * np.max(np.abs(expect)), (name, xv.shape)


def _conv_cases():
    """(kernel name, args) of every conv case TestOracle checks."""
    rng = np.random.default_rng(7)
    h, wid = 9, 11
    for stride, pad in STRIDE_PAD:
        for k in KERNEL_SIZES:
            ho, wo = _out_size(h, k, stride, pad), _out_size(wid, k, stride, pad)
            w = rng.normal(size=(5, 4, k, k))
            yield "conv2d_forward", (rng.normal(size=(3, 4, h, wid)), w, stride, pad)
            gy = rng.normal(size=(2, 5, ho, wo))
            yield "conv2d_input_grad", (gy, w, stride, pad, h, wid)
            yield "conv2d_kernel_grad", (gy, rng.normal(size=(2, 4, h, wid)), stride, pad, k, k)


def _bilinear_cases():
    """(kernel name, args) of every BILINEAR_CASES case, for each kernel."""
    rng = np.random.default_rng(8)
    for case in BILINEAR_CASES:
        images, grid, gy = _bilinear_case(rng, case)
        yield "bilinear_forward", (images, grid)
        yield "bilinear_image_grad", (gy, grid) + images.shape[2:]
        yield "bilinear_grid_grad", (gy, images, grid)


KERNEL_CASES = list(_conv_cases()) + list(_bilinear_cases())


def _benchmark_cases(monkeypatch):
    """The benchmark's six fixed kernel cases, {kernel name: args}."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
    import kernel_cases
    return kernel_cases.cases()


def _read_of(name, args):
    """(grid, b, h, w): the read a bilinear kernel call makes."""
    if name == "bilinear_forward":
        images, grid = args
        b, _, h, w = images.shape
    elif name == "bilinear_image_grad":
        gy, grid, h, w = args
        b = gy.shape[0]
    else:
        gy, images, grid = args
        b, _, h, w = images.shape
    return grid, b, h, w


def _table_grids():
    """(grid, b, h, w) of every BILINEAR_CASES read, then grids at exactly
    +-1 and on integer pixels of canvases whose (size - 1) is a power of two."""
    for name, args in _bilinear_cases():
        if name == "bilinear_forward":
            yield _read_of(name, args)
    rng = np.random.default_rng(9)
    yield rng.choice([-1.0, 1.0], size=(2, 3, 4, 5, 2)), 2, 7, 9
    py, px = np.meshgrid(np.arange(17), np.arange(9), indexing="ij")
    on_pixels = np.stack([px / 4.0 - 1, py / 8.0 - 1], axis=-1)[None, None]
    yield np.repeat(on_pixels, 3, axis=0), 3, 17, 9


class TestWindows:
    """The im2col window view matches NumPy's sliding_window_view."""

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("pad", [0, 1])
    @pytest.mark.parametrize("layout", ["contiguous", "transposed"])
    def test_matches_sliding_window_view(self, rng, stride, pad, layout):
        x = rng.normal(size=(2, 3, 7, 8)).astype(np.float32)
        if layout == "transposed":
            x = x.transpose(0, 1, 3, 2)
        kh, kw = 3, 2
        ho = _out_size(x.shape[2], kh, stride, pad)
        wo = _out_size(x.shape[3], kw, stride, pad)
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        expect = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
        got = kernels._windows(x, pad, kh, kw, stride, ho, wo)
        assert got.shape == expect.shape and got.dtype == x.dtype
        assert np.array_equal(got, expect)
        assert not got.flags.writeable


class TestCornerTable:
    """The in-place corner table matches the stacked formula it replaced,
    and each kernel gives the same output with the table handed in."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_stacked_reference(self, dtype):
        for grid, b, h, w in _table_grids():
            grid = grid.astype(dtype)
            idx, weights, masks = kernels.bilinear_taps(grid, b, h, w)
            ref_idx, ref_weights, ref_masks = ref.bilinear_taps(grid, b, h, w)
            assert np.array_equal(idx, ref_idx) and idx.dtype == ref_idx.dtype
            for got, expect in zip(weights + masks, ref_weights + ref_masks):
                assert np.array_equal(got, expect) and got.dtype == expect.dtype

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_separable_table_is_the_grid_table(self, rng, dtype):
        """Per-axis coordinates (y per row, x per column) give the table of
        the full grid they span: the same indices, and weights and masks
        that broadcast to the grid's."""
        ys = rng.uniform(-1.3, 1.3, size=(3, 4, 5)).astype(dtype)
        xs = rng.uniform(-1.3, 1.3, size=(3, 4, 6)).astype(dtype)
        xs[0, 0, 0], ys[1, 2, 3] = 1.0, -1.0
        grid = np.stack(np.broadcast_arrays(xs[..., None, :], ys[..., None]), axis=-1)
        got = kernels.corner_table(ys[..., None], xs[..., None, :], 3, 7, 9)
        expect = kernels.bilinear_taps(grid, 3, 7, 9)
        assert np.array_equal(got[0], expect[0])
        for part, want in zip(got[1] + got[2], expect[1] + expect[2]):
            assert part.dtype == want.dtype
            assert np.array_equal(np.broadcast_to(part, want.shape), want)

    def test_given_table_changes_nothing(self, monkeypatch):
        cases = [(n, a) for n, a in _benchmark_cases(monkeypatch).items()
                 if n.startswith("bilinear")]
        for name, args in list(_bilinear_cases()) + cases:
            kernel = getattr(kernels, name)
            taps = kernels.bilinear_taps(*_read_of(name, args))
            assert np.array_equal(kernel(*args, taps=taps), kernel(*args)), name


class TestDtype:
    """Each kernel computes in its operands' dtype, and in float32 stays
    within 1e-5 of the float64 oracle, relative to the output's size."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_output_takes_input_dtype(self, dtype):
        for name, args in KERNEL_CASES:
            cast = [a.astype(dtype) if isinstance(a, np.ndarray) else a for a in args]
            assert getattr(kernels, name)(*cast).dtype == dtype, name

    def test_float32_close_to_float64_oracle(self):
        for name, args in KERNEL_CASES:
            narrow = [a.astype(np.float32) if isinstance(a, np.ndarray) else a for a in args]
            wide = [a.astype(np.float64) if isinstance(a, np.ndarray) else a for a in narrow]
            got = getattr(kernels, name)(*narrow)
            expect = getattr(ref, name)(*wide)
            assert np.max(np.abs(got - expect)) <= 1e-5 * np.max(np.abs(expect)), name

    def test_benchmark_cases_stay_float64(self, monkeypatch):
        """The benchmark's fixed cases call the kernels with float64."""
        for name, args in _benchmark_cases(monkeypatch).items():
            assert getattr(kernels, name)(*args).dtype == np.float64, name


class TestSemantics:
    """Hand-checkable values."""

    def test_conv2d_hand_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0  # center tap: identity for stride 1, pad 1
        y = kernels.conv2d_forward(x, w, 1, 1)
        assert np.array_equal(y, x)

    def test_conv2d_matches_direct_correlation(self, rng):
        x = rng.normal(size=(1, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        y = kernels.conv2d_forward(x, w, 1, 0)
        expect = np.zeros((1, 3, 3, 3))
        for f in range(3):
            for oy in range(3):
                for ox in range(3):
                    expect[0, f, oy, ox] = (x[0, :, oy:oy + 3, ox:ox + 3] * w[f]).sum()
        assert np.max(np.abs(y - expect)) <= 1e-12

    def test_input_grad_is_adjoint_of_forward(self, rng):
        x = rng.normal(size=(2, 3, 8, 8))
        w = rng.normal(size=(4, 3, 3, 3))
        y = kernels.conv2d_forward(x, w, 2, 1)
        gy = rng.normal(size=y.shape)
        gx = kernels.conv2d_input_grad(gy, w, 2, 1, 8, 8)
        assert abs((y * gy).sum() - (x * gx).sum()) <= 1e-9

    def test_kernel_grad_matches_fd(self, rng):
        x = rng.normal(size=(1, 2, 6, 6))
        w = rng.normal(size=(2, 2, 3, 3))
        gy = rng.normal(size=(1, 2, 3, 3))
        gw = kernels.conv2d_kernel_grad(gy, x, 2, 1, 3, 3)
        h = 1e-6
        for idx in [(0, 0, 0, 0), (1, 1, 2, 2), (0, 1, 1, 0)]:
            wp, wm = w.copy(), w.copy()
            wp[idx] += h
            wm[idx] -= h
            fp = (kernels.conv2d_forward(x, wp, 2, 1) * gy).sum()
            fm = (kernels.conv2d_forward(x, wm, 2, 1) * gy).sum()
            assert abs(gw[idx] - (fp - fm) / (2 * h)) <= 1e-5

    def test_bilinear_ramp_value(self):
        img = np.arange(5.0).reshape(1, 1, 1, 5)
        # pixel x = 1.25 on a 5-wide row is normalized c = 1.25 / 2 - 1
        grid = np.array([[[[[1.25 / 2 - 1, -1.0]]]]])
        out = kernels.bilinear_forward(img, grid)
        assert out.shape == (1, 1, 1, 1, 1)
        assert abs(out[0, 0, 0, 0, 0] - 1.25) <= 1e-12

    def test_bilinear_out_of_range_reads_zero(self, rng):
        imgs = rng.normal(size=(1, 2, 4, 4))
        grid = np.full((1, 1, 2, 2, 2), 5.0)  # far outside [-1, 1]
        out = kernels.bilinear_forward(imgs, grid)
        assert np.array_equal(out, np.zeros_like(out))

    def test_conv_shapes_empty_output_error(self, rng):
        x = rng.normal(size=(1, 1, 2, 2))
        w = rng.normal(size=(1, 1, 5, 5))
        with pytest.raises(ValueError):
            kernels.conv2d_forward(x, w, 1, 0)
