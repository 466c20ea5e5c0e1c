"""Spatial-transformer reads checked against brute-force bilinear crops,
and the one-node read against the grid path it replaced, bit for bit."""

import numpy as np
import pytest

import kernels_reference as ref
from kpp import autodiff as ad
from kpp import kernels
from kpp.stn import _target_coords, sample_traces

from conftest import check_op_gradient, clean_keys, rel_err


def r(rng, *shape):
    return rng.normal(size=shape)


def reference_crop(memory, key, out_h, out_w):
    """Straight-line numpy oracle: affine grid + zero-padded bilinear."""
    c, hh, ww = memory.shape
    s, x, y = key
    tx = np.linspace(-1.0, 1.0, out_w) if out_w > 1 else np.zeros(1)
    ty = np.linspace(-1.0, 1.0, out_h) if out_h > 1 else np.zeros(1)
    out = np.zeros((c, out_h, out_w))
    for i in range(out_h):
        for j in range(out_w):
            px = (s * tx[j] + x + 1.0) / 2.0 * (ww - 1)
            py = (s * ty[i] + y + 1.0) / 2.0 * (hh - 1)
            x0, y0 = int(np.floor(px)), int(np.floor(py))
            fx, fy = px - x0, py - y0
            for dy, wy in ((0, 1 - fy), (1, fy)):
                for dx, wx in ((0, 1 - fx), (1, fx)):
                    xx, yy = x0 + dx, y0 + dy
                    if 0 <= xx < ww and 0 <= yy < hh:
                        out[:, i, j] += wy * wx * memory[:, yy, xx]
    return out


def contributing_cells(shape, key, out_h, out_w):
    """Brute-force set of (y, x) memory cells with nonzero bilinear weight."""
    _, hh, ww = shape
    s, x, y = key
    tx = np.linspace(-1.0, 1.0, out_w) if out_w > 1 else np.zeros(1)
    ty = np.linspace(-1.0, 1.0, out_h) if out_h > 1 else np.zeros(1)
    cells = set()
    for i in range(out_h):
        for j in range(out_w):
            px = (s * tx[j] + x + 1.0) / 2.0 * (ww - 1)
            py = (s * ty[i] + y + 1.0) / 2.0 * (hh - 1)
            x0, y0 = int(np.floor(px)), int(np.floor(py))
            fx, fy = px - x0, py - y0
            for dy, wy in ((0, 1 - fy), (1, fy)):
                for dx, wx in ((0, 1 - fx), (1, fx)):
                    xx, yy = x0 + dx, y0 + dy
                    if wy * wx != 0.0 and 0 <= xx < ww and 0 <= yy < hh:
                        cells.add((yy, xx))
    return cells


def key_grid(key, out_h, out_w):
    """Source coordinates (h, w, 2) of one squashed key's window, read back
    through sample_traces from a 9x9 ramp whose two channels hold each
    cell's normalized x and y: inside the canvas a bilinear read of a
    linear ramp returns the point it samples."""
    ramp = np.linspace(-1.0, 1.0, 9)
    mem = np.stack([np.broadcast_to(ramp, (9, 9)), np.broadcast_to(ramp[:, None], (9, 9))])
    return np.moveaxis(crop(mem, key, (out_h, out_w))[0], 0, -1)


def source_pixels(key, out_h, out_w, hh, ww):
    """Pixel coordinates (x per column, y per row) that one key reads."""
    s, x, y = key
    tx = np.linspace(-1.0, 1.0, out_w) if out_w > 1 else np.zeros(1)
    ty = np.linspace(-1.0, 1.0, out_h) if out_h > 1 else np.zeros(1)
    return (s * tx + x + 1) / 2 * (ww - 1), (s * ty + y + 1) / 2 * (hh - 1)


def crop(image, keys, out_size):
    """Crop one image (C,H,W) with squashed keys (K,3) via the batched path."""
    keys = ad.constant(np.reshape(keys, (1, -1, 3)))
    return sample_traces(ad.constant(image[None]), keys, out_size).data[0]


class TestAffineGrid:
    """Where a key's window lands, read back from a coordinate ramp."""

    def test_identity_key(self):
        g = key_grid([1.0, 0.0, 0.0], 5, 7)
        tx = np.linspace(-1, 1, 7)
        ty = np.linspace(-1, 1, 5)
        assert np.max(np.abs(g[..., 0] - tx[None, :])) <= 1e-15
        assert np.max(np.abs(g[..., 1] - ty[:, None])) <= 1e-15

    def test_half_window_offset(self):
        # squashed key (0.5, 0.3, 0.5): half-size window centered at (0.3, 0.5)
        g = key_grid([0.5, 0.3, 0.5], 4, 4)
        assert abs(g[..., 0].min() + 0.2) <= 1e-15
        assert abs(g[..., 0].max() - 0.8) <= 1e-15
        assert abs(g[..., 1].min() - 0.0) <= 1e-15
        assert abs(g[..., 1].max() - 1.0) <= 1e-15
        assert abs(g[..., 0].mean() - 0.3) <= 1e-12
        assert abs(g[..., 1].mean() - 0.5) <= 1e-12

    def test_pure_scaling_corner(self):
        g = key_grid([0.5, 0.0, 0.0], 3, 3)
        assert np.allclose(g[0, 0], [-0.5, -0.5], atol=1e-15)
        assert np.allclose(g[2, 2], [0.5, 0.5], atol=1e-15)
        assert np.allclose(g[1, 1], [0.0, 0.0], atol=1e-15)

    def test_size_one_grid_hits_center(self):
        g = key_grid([0.7, 0.2, -0.1], 1, 1)
        assert np.allclose(g[0, 0], [0.2, -0.1], atol=1e-15)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_target_coords_cached_read_only(self, dtype):
        """One read-only table per (h, w, dtype), equal to one built afresh."""
        coords = _target_coords(5, 7, np.dtype(dtype))
        assert coords is _target_coords(5, 7, np.dtype(dtype))
        assert coords.dtype == dtype and not coords.flags.writeable
        gy, gx = np.meshgrid(np.linspace(-1, 1, 5), np.linspace(-1, 1, 7), indexing="ij")
        assert np.array_equal(coords, np.stack([gx, gy], axis=-1).astype(dtype))
        assert np.array_equal(coords, _target_coords.__wrapped__(5, 7, np.dtype(dtype)))

    def test_bad_inputs(self):
        mem = ad.constant(np.zeros((1, 1, 8, 8)))
        with pytest.raises(ValueError, match="keys"):
            sample_traces(mem, ad.constant(np.zeros((1, 1, 2))), (4, 4))
        with pytest.raises(ValueError, match="trace size"):
            sample_traces(mem, ad.constant(np.zeros((1, 1, 3))), (0, 4))


class TestBilinearSample:
    def test_identity_roundtrip(self, rng):
        img = rng.random((3, 6, 8))
        out = crop(img, [1.0, 0.0, 0.0], (6, 8))
        assert np.max(np.abs(out[0] - img)) <= 1e-12

    def test_ramp_midpoint(self):
        # I[i, j] = j on a 5-wide row; pixel coordinate 1.25 reads 1.25.
        # A 1x1 crop samples the key's shift (x, y).
        img = np.arange(5.0)[None, None, :]
        px = 1.25
        cx = px / (5 - 1) * 2.0 - 1.0
        out = crop(img, [0.0, cx, 0.0], (1, 1))
        assert abs(out[0, 0, 0, 0] - 1.25) <= 1e-12

    def test_out_of_bounds_zero(self):
        img = np.ones((1, 4, 4))
        out = crop(img, [[0.0, -3.0, 0.0], [0.0, 0.0, 3.0]], (1, 1))
        assert np.array_equal(out[:, 0, 0, 0], [0.0, 0.0])

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            sample_traces(ad.constant(rng.random((4, 4))),
                          ad.constant(np.zeros((1, 1, 3))), (2, 2))
        with pytest.raises(ValueError):
            sample_traces(ad.constant(rng.random((1, 1, 4, 4))),
                          ad.constant(np.zeros((1, 1, 2))), (2, 2))

    def test_matches_reference_crop(self, rng):
        mem = rng.random((3, 9, 11))
        for _ in range(10):
            key = np.tanh(rng.normal(size=3))
            out = crop(mem, key, (5, 6))[0]
            assert np.max(np.abs(out - reference_crop(mem, key, 5, 6))) <= 1e-10


class TestReadTraces:
    """Reads from one memory: a batch of 1 through sample_traces."""

    def test_identity_reproduces_memory(self, rng):
        mem = rng.random((3, 8, 8))
        ts = sample_traces(ad.constant(mem[None]),
                           ad.constant(np.array([[[1.0, 0.0, 0.0]]])), (8, 8))
        assert ts.shape == (1, 1, 3, 8, 8)
        assert np.max(np.abs(ts.data[0, 0] - mem)) <= 1e-12

    def test_appendix_window_against_bruteforce(self, rng):
        mem = rng.random((3, 16, 16))
        key = np.array([0.5, 0.3, 0.5])
        ts = sample_traces(ad.constant(mem[None]), ad.constant(key[None, None]), (8, 8))
        ref = reference_crop(mem, key, 8, 8)
        assert np.max(np.abs(ts.data[0, 0] - ref)) <= 1e-10

    def test_identical_keys_identical_traces(self, rng):
        mem = rng.random((2, 10, 10))
        keys = ad.constant(np.array([[[0.4, -0.2, 0.1], [0.4, -0.2, 0.1]]]))
        ts = sample_traces(ad.constant(mem[None]), keys, (5, 5))
        assert np.array_equal(ts.data[0, 0], ts.data[0, 1])

    def test_zero_keys_rejected(self, rng):
        mem = ad.constant(rng.random((1, 1, 8, 8)))
        with pytest.raises(ValueError):
            sample_traces(mem, [], (4, 4))
        with pytest.raises(ValueError):
            sample_traces(mem, ad.constant(np.zeros((1, 0, 3))), (4, 4))

    def test_unread_cells_get_exact_zero_gradient(self, rng):
        mem = ad.parameter(rng.random((1, 1, 16, 16)))
        key = np.array([0.5, 0.0, 0.0])
        ts = sample_traces(mem, ad.constant(key[None, None]), (8, 8))
        ad.backward(ad.sum_(ts))
        grad = mem.grad[0]
        allowed = contributing_cells((1, 16, 16), key, 8, 8)
        for yy in range(16):
            for xx in range(16):
                if (yy, xx) not in allowed:
                    assert grad[0, yy, xx] == 0.0, (yy, xx)
        # and the read region did receive gradient
        assert sum(grad[0, yy, xx] != 0.0 for yy, xx in allowed) > 0

    def test_gradient_support_random_keys(self, rng):
        for _ in range(5):
            mem = ad.parameter(rng.random((1, 2, 12, 14)))
            key = np.tanh(rng.normal(size=3))
            ts = sample_traces(mem, ad.constant(key[None, None]), (5, 7))
            ad.backward(ad.sum_(ts))
            allowed = contributing_cells((2, 12, 14), key, 5, 7)
            outside = [(yy, xx)
                       for yy in range(12) for xx in range(14)
                       if (yy, xx) not in allowed]
            for yy, xx in outside:
                assert np.all(mem.grad[0, :, yy, xx] == 0.0)


class TestKeyGradients:
    def test_fd_thirty_random_keys(self, rng):
        mem = rng.random((2, 13, 17))
        proj = rng.normal(size=(1, 6, 7))
        checked = 0
        attempts = 0
        while checked < 30 and attempts < 200:
            attempts += 1
            key = np.tanh(rng.normal(size=3) * 0.7)
            # skip keys whose window lands near integer pixels (bilinear kinks)
            px, py = source_pixels(key, 6, 7, 13, 17)
            frac = np.concatenate([(px % 1).ravel(), (py % 1).ravel()])
            if np.min(np.abs(frac - np.round(frac))) < 1e-3:
                continue
            kt = ad.parameter(key[None, None])
            ts = sample_traces(ad.constant(mem[None]), kt, (6, 7))
            loss = ad.sum_(ad.mul(ad.slice_(ts, (0, 0)), ad.constant(proj)))
            ad.backward(loss)

            def scalar(kv):
                t = sample_traces(ad.constant(mem[None]), ad.constant(kv), (6, 7))
                return float((t.data[0, 0] * proj[0]).sum())

            g_fd = np.zeros(3)
            h = 1e-5
            for i in range(3):
                kp, km = key.copy(), key.copy()
                kp[i] += h
                km[i] -= h
                g_fd[i] = (scalar(kp[None, None]) - scalar(km[None, None])) / (2 * h)
            assert rel_err(kt.grad[0, 0], g_fd) <= 1e-4
            checked += 1
        assert checked == 30

    def test_continuity_at_pixel_boundaries(self, rng):
        # identity key puts every grid point exactly on an integer pixel;
        # nudging across that boundary must not jump the output
        mem = rng.random((1, 1, 8, 8))
        base = float(ad.sum_(sample_traces(
            ad.constant(mem),
            ad.constant(np.array([[[1.0, 0.0, 0.0]]])), (8, 8))).data)
        for delta in (1e-9, -1e-9):
            moved = float(ad.sum_(sample_traces(
                ad.constant(mem),
                ad.constant(np.array([[[1.0, delta, 0.0]]])), (8, 8))).data)
            assert abs(moved - base) <= 1e-6


class TestBatchedSampling:
    def test_sample_traces_matches_per_item(self, rng):
        mems = rng.random((3, 2, 10, 10))
        keys = np.tanh(rng.normal(size=(3, 2, 3)))
        out = sample_traces(ad.constant(mems), ad.constant(keys), (4, 4)).data
        assert out.shape == (3, 2, 2, 4, 4)
        for b in range(3):
            for k in range(2):
                ref = reference_crop(mems[b], keys[b, k], 4, 4)
                assert np.max(np.abs(out[b, k] - ref)) <= 1e-10

    def test_rows_read_own_memory(self, rng):
        """N = 2B key rows: rows 2b and 2b+1 read memory b, as one node's
        read equals each memory's own read."""
        memory = rng.normal(size=(3, 1, 16, 16))
        keys = np.tanh(rng.normal(size=(6, 2, 3)))
        both = sample_traces(ad.constant(memory), ad.constant(keys), (4, 4)).data
        assert both.shape == (6, 2, 1, 4, 4)
        for e in range(3):
            alone = sample_traces(ad.constant(memory[e:e + 1]),
                                  ad.constant(keys[2 * e:2 * e + 2]), (4, 4)).data
            assert np.array_equal(both[2 * e:2 * e + 2], alone)

    def test_uneven_split_rejected(self):
        with pytest.raises(ValueError, match="B dividing N") as err:
            sample_traces(ad.constant(np.zeros((2, 1, 16, 16))),
                          ad.constant(np.zeros((5, 1, 3))), (4, 4))
        assert "(5, 1, 3)" in str(err.value) and "(2, 1, 16, 16)" in str(err.value)

    def test_grid_shape_validation(self):
        with pytest.raises(ValueError, match="keys"):
            sample_traces(ad.constant(np.zeros((2, 1, 4, 4))), ad.constant(np.zeros((2, 3))),
                          (4, 4))
        with pytest.raises(ValueError, match="memories"):
            sample_traces(ad.constant(np.zeros((3, 1, 4, 4))),
                          ad.constant(np.zeros((2, 1, 3))), (4, 4))


def _read_case(rng, case, dtype):
    """(memory, keys) of a batched read: T*K windows from each of two
    3x64x64 memories, as a training step reads them; "off_canvas" puts
    the windows partly or wholly off the canvas."""
    t, k = (8, 2) if case == "off_canvas" else case
    memory = rng.normal(size=(2, 3, 64, 64)).astype(dtype)
    keys = rng.uniform(-0.95, 0.95, size=(2, t * k, 3))
    if case == "off_canvas":
        keys[..., 1:] = rng.uniform(-1.8, 1.8, size=(2, t * k, 2))
        keys[0, 0] = [0.5, 1.7, -1.7]
    return memory, keys.astype(dtype)


class TestReadOp:
    """sample_traces is one graph node that matches the grid path it
    replaced (``kernels_reference.grid_read``) bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", [(8, 2), (32, 4), "off_canvas"],
                             ids=["T8K2", "T32K4", "off_canvas"])
    def test_matches_composed_grid_path(self, rng, case, dtype):
        memory, keys = _read_case(rng, case, dtype)
        proj = rng.normal(size=(2, keys.shape[1], 3, 16, 16)).astype(dtype)
        results = []
        for read in (sample_traces, ref.grid_read):
            m, k = ad.parameter(memory), ad.parameter(keys)
            out = read(m, k, (16, 16))
            ad.backward(ad.sum_(ad.mul(out, ad.constant(proj))))
            results.append((out.data, m.grad, k.grad))
        for got, expect in zip(*results):
            assert got.dtype == expect.dtype == dtype
            assert np.array_equal(got, expect)

    def test_is_one_node_with_one_corner_table(self, rng, monkeypatch):
        """The forward pass and both gradients of one read share one
        corner table, built from per-axis coordinates, not from a grid."""
        calls, nodes = [], []
        build, make_node = kernels.corner_table, ad.make_node
        monkeypatch.setattr(kernels, "corner_table",
                            lambda *args: calls.append(args) or build(*args))
        monkeypatch.setattr(kernels, "bilinear_taps", None)
        monkeypatch.setattr(ad, "make_node", lambda *args: nodes.append(args[0]) or make_node(*args))
        memory = ad.parameter(r(rng, 2, 3, 6, 7))
        keys = ad.parameter(rng.uniform(-1.2, 1.2, size=(2, 4, 3)))
        out = sample_traces(memory, keys, (3, 5))
        assert nodes == ["sample_traces"]
        ad.backward(ad.sum_(ad.mul(out, ad.constant(r(rng, 2, 4, 3, 3, 5)))))
        assert len(calls) == 1
        assert memory.grad is not None and keys.grad is not None

    def test_of_constants_keeps_no_backward(self, rng):
        """A forward-only read drops its backward, and the table with it."""
        out = sample_traces(ad.constant(r(rng, 1, 2, 5, 5)),
                            ad.constant(rng.uniform(-1, 1, size=(1, 2, 3))), (3, 3))
        assert out._backward is None

    @pytest.mark.parametrize("const", ["memory", "keys"])
    def test_constant_operand_gets_no_gradient_work(self, rng, monkeypatch, const):
        skipped = "bilinear_image_grad" if const == "memory" else "bilinear_grid_grad"
        monkeypatch.setattr(kernels, skipped, None)
        memory = (ad.constant if const == "memory" else ad.parameter)(r(rng, 2, 3, 6, 7))
        keys = (ad.constant if const == "keys" else ad.parameter)(
            rng.uniform(-1, 1, size=(2, 4, 3)))
        ad.backward(ad.sum_(sample_traces(memory, keys, (3, 5))))
        assert (memory.grad is None) == (const == "memory")
        assert (keys.grad is None) == (const == "keys")

    def test_gradient(self):
        """Finite differences over the memory and the keys, clear of the
        bilinear kinks."""
        for draw in range(50):
            rng = np.random.default_rng(4200 + draw)
            worst = check_op_gradient(lambda m, k: sample_traces(m, k, (3, 3)),
                                      [r(rng, 2, 3, 5, 5), clean_keys(rng, 2, 2)], seed=draw)
            assert worst <= 1e-4
