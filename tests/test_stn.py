"""Spatial-transformer reads checked against brute-force bilinear crops."""

import numpy as np
import pytest

from kpp import autodiff as ad
from kpp.stn import _target_coords, grid_from_keys, sample_traces

from conftest import rel_err


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
    """Sampling grid (h, w, 2) of one squashed key, via the batched path."""
    return grid_from_keys(ad.constant(np.reshape(key, (1, 1, 3))), out_h, out_w).data[0, 0]


def crop(image, keys, out_size):
    """Crop one image (C,H,W) with squashed keys (K,3) via the batched path."""
    keys = ad.constant(np.reshape(keys, (1, -1, 3)))
    return sample_traces(ad.constant(image[None]), keys, out_size).data[0]


class TestAffineGrid:
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
        with pytest.raises(ValueError):
            grid_from_keys(ad.constant(np.zeros((1, 1, 2))), 4, 4)
        with pytest.raises(ValueError):
            grid_from_keys(ad.constant(np.zeros((1, 1, 3))), 0, 4)


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
            # skip keys whose grid lands near integer pixels (bilinear kinks)
            g = key_grid(key, 6, 7)
            px = (g[..., 0] + 1) / 2 * 16
            py = (g[..., 1] + 1) / 2 * 12
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

    def test_grid_shape_validation(self):
        with pytest.raises(ValueError):
            grid_from_keys(ad.constant(np.zeros((2, 3))), 4, 4)
