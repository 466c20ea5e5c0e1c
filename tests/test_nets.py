"""Model networks: temporal shift, writer, heads, decoder, checkpoints."""

import re

import numpy as np
import pytest

from kpp import autodiff as ad
from kpp.nets import (
    CHECKPOINT_MAGIC,
    LOG_STD_MAX,
    LOG_STD_MIN,
    MemoryVAE,
    ModelConfig,
    load_checkpoint,
    save_checkpoint,
    tsm_shift,
)
from kpp.objective import elbo_graph

from conftest import conv_cfg, fd_grad, float64, randomize, rel_err


def tiny_dense_cfg(**kw):
    base = dict(image_shape=(1, 4, 4), T=3, K=2, L=5,
                memory_shape=(2, 6, 6), trace_size=(4, 4),
                embed_dim=16, key_hidden=8, post_hidden=8,
                dec_hidden=8, dense_nets=True)
    base.update(kw)
    return ModelConfig(**base)


def n_params(model, prefix=""):
    """Number of parameter entries whose tensor name starts with prefix."""
    return sum(p.data.size for name, p in model.params.items() if name.startswith(prefix))


class TestModelConfig:
    def test_basic_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(T=0)
        with pytest.raises(ValueError):
            ModelConfig(K=0)
        with pytest.raises(ValueError):
            ModelConfig(L=0)
        with pytest.raises(ValueError):
            ModelConfig(likelihood="laplace")
        with pytest.raises(ValueError):
            ModelConfig(likelihood="gaussian", gaussian_std=0.0)
        for std in (np.nan, np.inf):
            with pytest.raises(ValueError, match="gaussian_std must be finite"):
                ModelConfig(likelihood="gaussian", gaussian_std=std)

    def test_conv_divisibility(self):
        with pytest.raises(ValueError):
            ModelConfig(image_shape=(1, 10, 16))
        with pytest.raises(ValueError):
            ModelConfig(memory_shape=(3, 20, 64))
        with pytest.raises(ValueError):
            ModelConfig(trace_size=(6, 16))

    def test_dense_mode_skips_conv_constraints(self):
        cfg = ModelConfig(image_shape=(1, 5, 5), memory_shape=(2, 7, 7),
                          trace_size=(3, 3), dense_nets=True)
        assert cfg.image_shape == (1, 5, 5)

    def test_dict_roundtrip(self):
        cfg = conv_cfg()
        again = ModelConfig.from_dict(cfg.to_dict())
        assert again == cfg


class TestTsmShift:
    def test_shift_definition(self, rng):
        x = rng.normal(size=(3, 8, 2, 2))  # fold = 1
        out = tsm_shift(ad.constant(x)).data
        # channel 0 moves toward later samples, zero enters at t=0
        assert np.array_equal(out[0, 0], np.zeros((2, 2)))
        assert np.array_equal(out[1, 0], x[0, 0])
        assert np.array_equal(out[2, 0], x[1, 0])
        # channel 1 moves toward earlier samples, zero enters at the end
        assert np.array_equal(out[0, 1], x[1, 1])
        assert np.array_equal(out[1, 1], x[2, 1])
        assert np.array_equal(out[2, 1], np.zeros((2, 2)))
        # remaining channels untouched
        assert np.array_equal(out[:, 2:], x[:, 2:])

    def test_single_step_zeroes_shifted_groups(self, rng):
        x = rng.normal(size=(1, 8, 3, 3))
        out = tsm_shift(ad.constant(x)).data
        assert np.array_equal(out[0, :2], np.zeros((2, 3, 3)))
        assert np.array_equal(out[0, 2:], x[0, 2:])

    def test_small_channel_count_passthrough(self, rng):
        x = ad.constant(rng.normal(size=(4, 7, 2, 2)))
        assert tsm_shift(x) is x

    def test_mass_conservation(self, rng):
        x = rng.normal(size=(5, 16, 3, 3))  # fold = 2
        out = tsm_shift(ad.constant(x)).data
        dropped = x[-1, :2].sum() + x[0, 2:4].sum()
        assert abs(out.sum() - (x.sum() - dropped)) <= 1e-10

    def test_gradient_zero_at_dropped_slots(self, rng):
        for t in (3, 1):   # T=1: denoise encodes single images
            x = ad.parameter(rng.normal(size=(t, 8, 2, 2)))
            ad.backward(ad.sum_(tsm_shift(x)))
            g = x.grad
            assert np.all(g[t - 1, 0] == 0.0)   # last fwd-group slot is dropped
            assert np.all(g[0, 1] == 0.0)       # first bwd-group slot is dropped
            assert np.all(g[:t - 1, 0] == 1.0)
            assert np.all(g[1:, 1] == 1.0)
            assert np.all(g[:, 2:] == 1.0)

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            tsm_shift(ad.constant(np.zeros((2, 8, 4))))

    @pytest.mark.parametrize("t", [1, 3])
    def test_episodes_shift_apart(self, rng, t):
        """Three stacked episodes shift as each episode does on its own,
        values and gradients alike: nothing crosses a boundary."""
        x = rng.normal(size=(3 * t, 16, 2, 2))
        proj = rng.normal(size=x.shape)
        stacked = ad.parameter(x)
        ad.backward(ad.sum_(ad.mul(tsm_shift(stacked, t), ad.constant(proj))))
        for e in range(3):
            rows = slice(e * t, (e + 1) * t)
            alone = ad.parameter(x[rows])
            out = tsm_shift(alone)
            ad.backward(ad.sum_(ad.mul(out, ad.constant(proj[rows]))))
            assert np.array_equal(tsm_shift(ad.constant(x), t).data[rows], out.data)
            assert np.array_equal(stacked.grad[rows], alone.grad)

    def test_one_node_against_loop(self, rng):
        """One graph node whose value and gradient match a per-entry loop
        over two episodes of 3 rows with 16 channels (fold 2)."""
        x = ad.parameter(rng.normal(size=(6, 16, 2, 2)))
        out = tsm_shift(x, 3)
        assert out._parents == (x,)
        gy = rng.normal(size=x.shape)
        ad.backward(ad.sum_(ad.mul(out, ad.constant(gy))))
        expect, grad = np.zeros(x.shape), np.zeros(x.shape)
        for row in range(6):
            for ch in range(16):
                src = row - 1 if ch < 2 else row + 1 if ch < 4 else row
                if src // 3 == row // 3:
                    expect[row, ch] = x.data[src, ch]
                    grad[src, ch] += gy[row, ch]
        assert np.array_equal(out.data, expect)
        assert np.array_equal(x.grad, grad)

    def test_episode_length_must_split_rows(self):
        with pytest.raises(ValueError):
            tsm_shift(ad.constant(np.zeros((5, 8, 2, 2))), 2)


class ComposedVAE(MemoryVAE):
    """The graph the fused layers replaced: each layer is its op, a
    reshaped bias and an add."""

    def _dense(self, x, prefix):
        return ad.add(ad.matmul(x, self.params[f"{prefix}.w"]), self.params[f"{prefix}.b"])

    def _conv(self, x, prefix, stride=2, pad=1):
        y = ad.conv2d(x, self.params[f"{prefix}.w"], stride=stride, pad=pad)
        b = self.params[f"{prefix}.b"]
        return ad.add(y, ad.reshape(b, (1, b.shape[0], 1, 1)))

    def _convT(self, x, prefix, stride=2, pad=1):
        y = ad.conv_transpose2d(x, self.params[f"{prefix}.w"], stride=stride, pad=pad)
        b = self.params[f"{prefix}.b"]
        return ad.add(y, ad.reshape(b, (1, b.shape[0], 1, 1)))


def composed_clamp(x, lo, hi):
    """The clamp as relu ops, as it was before it became one node."""
    return ad.sub(ad.add(x, ad.relu(ad.sub(lo, x))), ad.relu(ad.sub(x, hi)))


class TestFusedLayers:
    @pytest.mark.parametrize("wide", [False, True], ids=["float32", "float64"])
    @pytest.mark.parametrize("cfg", [conv_cfg(), conv_cfg(ablation=True), tiny_dense_cfg()],
                             ids=["conv", "conv-no-memory", "dense"])
    def test_match_composed_graph(self, monkeypatch, cfg, wide):
        """Loss and every gradient are bit-identical to the composed graph's,
        with heads wide enough that the clamp clips."""
        clipped = []
        results = []
        for cls, clamp in ((MemoryVAE, ad.clamp), (ComposedVAE, composed_clamp)):
            def spy(x, lo, hi, clamp=clamp):
                clipped.append(int(((x.data < lo) | (x.data > hi)).sum()))
                return clamp(x, lo, hi)

            monkeypatch.setattr(ad, "clamp", spy)
            model = cls(cfg, seed=3)
            randomize(model, np.random.default_rng(8), scale=1.0)
            if wide:
                float64(model)
            images = np.random.default_rng(2).random((2, cfg.T) + cfg.image_shape) < 0.5
            loss, _ = elbo_graph(model, images.astype(np.float64), 5)
            ad.backward(loss)
            results.append((loss.data, {n: p.grad for n, p in model.params.items()}))
        assert clipped and all(clipped)  # every head clips some entries
        (loss, grads), (ref_loss, ref_grads) = results
        assert loss.dtype == ref_loss.dtype and np.array_equal(loss, ref_loss)
        for name, g in grads.items():
            assert g.dtype == model.dtype and np.array_equal(g, ref_grads[name]), name


class TestEncode:
    def test_zero_episode_zero_embedding(self):
        for cfg in (tiny_dense_cfg(), conv_cfg()):
            model = MemoryVAE(cfg, seed=1)
            t = 2
            emb = model.encode(np.zeros((t,) + cfg.image_shape))
            assert emb.shape == (t, cfg.embed_dim)
            assert np.array_equal(emb.data, np.zeros((t, cfg.embed_dim)))

    def test_wrong_image_shape_rejected(self):
        model = MemoryVAE(conv_cfg(), seed=0)
        with pytest.raises(ValueError):
            model.encode(np.zeros((2, 1, 4, 4)))

    def test_tsm_breaks_permutation_equivariance(self, rng):
        model = MemoryVAE(conv_cfg(), seed=2)
        x = rng.random((3, 1, 8, 8))
        emb = model.encode(x).data
        emb_r = model.encode(x[::-1].copy()).data
        assert not np.allclose(emb_r, emb[::-1], atol=1e-8)

    def test_deterministic(self, rng):
        model = MemoryVAE(conv_cfg(), seed=3)
        x = rng.random((2, 1, 8, 8))
        assert np.array_equal(model.encode(x).data, model.encode(x).data)

    def test_episode_stack_matches_each_episode(self, rng):
        """Two stacked episodes embed row for row as each does alone; a
        shift across the flat B*T axis would mix them at the boundary."""
        model = MemoryVAE(conv_cfg(), seed=3)
        randomize(model, rng, scale=0.5)
        x = rng.random((6, 1, 8, 8))
        both = model.encode(x, 3).data
        for e in range(2):
            alone = model.encode(x[3 * e:3 * e + 3]).data
            assert np.max(np.abs(both[3 * e:3 * e + 3] - alone)) <= 1e-12


class TestWriteMemory:
    def test_permutation_invariance(self, rng):
        model = MemoryVAE(conv_cfg(), seed=4)
        emb = rng.normal(size=(5, 8))
        m0 = model.write_memory(ad.constant(emb)).data
        m1 = model.write_memory(ad.constant(emb[::-1].copy())).data
        assert np.max(np.abs(m0 - m1)) <= 1e-12
        assert m0.shape == (1,) + model.config.memory_shape   # one episode, one memory

    def test_duplicate_rows_match_single(self, rng):
        model = MemoryVAE(conv_cfg(), seed=4)
        row = rng.normal(size=(1, 8))
        single = model.write_memory(ad.constant(row)).data
        double = model.write_memory(ad.constant(np.vstack([row, row]))).data
        assert np.array_equal(single, double)

    def test_distinct_episodes_distinct_memories(self, rng):
        model = MemoryVAE(conv_cfg(), seed=4)
        seen = set()
        for _ in range(100):
            emb = rng.normal(size=(2, 8))
            memory = model.write_memory(ad.constant(emb)).data
            seen.add(memory.tobytes())
        assert len(seen) == 100

    def test_one_memory_per_episode(self, rng):
        model = MemoryVAE(conv_cfg(), seed=4)
        emb = rng.normal(size=(6, 8))
        both = model.write_memory(ad.constant(emb), 3).data
        assert both.shape == (2,) + model.config.memory_shape
        for e in range(2):
            alone = model.write_memory(ad.constant(emb[3 * e:3 * e + 3])).data
            assert np.max(np.abs(both[e] - alone[0])) <= 1e-12

    def test_ablation_model_has_no_writer(self):
        model = MemoryVAE(conv_cfg(ablation=True), seed=0)
        with pytest.raises(RuntimeError):
            model.write_memory(ad.constant(np.zeros((2, 8))))


class TestGaussianHeads:
    def test_standard_normal_at_init(self, rng):
        cfg = conv_cfg()
        model = MemoryVAE(cfg, seed=5)
        emb = ad.constant(rng.normal(size=(3, cfg.embed_dim)))
        kq = model.key_posterior(emb)
        assert np.array_equal(kq.mean.data, np.zeros((3, cfg.K, 3)))
        assert np.array_equal(kq.log_std.data, np.zeros((3, cfg.K, 3)))
        zq = model.latent_posterior(emb)
        assert np.array_equal(zq.mean.data, np.zeros((3, cfg.L)))
        assert np.array_equal(zq.log_std.data, np.zeros((3, cfg.L)))
        traces = ad.constant(rng.random((3, cfg.K, 1, 4, 4)))
        zp = model.readout_prior(traces)
        assert np.array_equal(zp.mean.data, np.zeros((3, cfg.L)))
        assert np.array_equal(zp.log_std.data, np.zeros((3, cfg.L)))

    def test_ablation_prior_standard_normal_at_init(self, rng):
        cfg = conv_cfg(ablation=True)
        model = MemoryVAE(cfg, seed=5)
        emb = ad.constant(rng.normal(size=(3, cfg.embed_dim)))
        d = model.ablation_prior(emb)
        assert np.array_equal(d.mean.data, np.zeros((3, cfg.L)))
        assert np.array_equal(d.log_std.data, np.zeros((3, cfg.L)))

    def test_ablation_prior_per_episode(self, rng):
        cfg = conv_cfg(ablation=True)
        model = MemoryVAE(cfg, seed=5)
        randomize(model, rng, scale=0.5)
        emb = rng.normal(size=(6, cfg.embed_dim))
        both = model.ablation_prior(ad.constant(emb), 2)
        assert both.mean.shape == (6, cfg.L)
        for e in range(3):
            alone = model.ablation_prior(ad.constant(emb[2 * e:2 * e + 2]))
            for got, want in ((both.mean, alone.mean), (both.log_std, alone.log_std)):
                assert np.max(np.abs(got.data[2 * e:2 * e + 2] - want.data)) <= 1e-12

    def test_log_std_clamped(self, rng):
        cfg = tiny_dense_cfg()
        model = MemoryVAE(cfg, seed=6)
        randomize(model, rng, scale=50.0)  # drive head outputs far out
        emb = ad.constant(rng.normal(size=(4, cfg.embed_dim)))
        d = model.latent_posterior(emb)
        assert d.log_std.data.min() >= LOG_STD_MIN - 1e-12
        assert d.log_std.data.max() <= LOG_STD_MAX + 1e-12

    def test_latent_posterior_gradient_fd(self, rng):
        cfg = tiny_dense_cfg()
        model = MemoryVAE(cfg, seed=7)
        randomize(model, rng, scale=0.1)
        x = rng.normal(size=(3, cfg.embed_dim))
        pa = rng.normal(size=(3, cfg.L))
        pb = rng.normal(size=(3, cfg.L))
        xt = ad.parameter(x.copy())
        d = model.latent_posterior(xt)
        loss = ad.add(ad.sum_(ad.mul(d.mean, ad.constant(pa))),
                      ad.sum_(ad.mul(d.log_std, ad.constant(pb))))
        ad.backward(loss)

        def scalar(v):
            dd = model.latent_posterior(ad.constant(v))
            return float((dd.mean.data * pa).sum() + (dd.log_std.data * pb).sum())

        assert rel_err(xt.grad, fd_grad(scalar, x)) <= 1e-4

    def test_key_posterior_gradient_fd(self, rng):
        cfg = tiny_dense_cfg()
        model = MemoryVAE(cfg, seed=8)
        randomize(model, rng, scale=0.1)
        x = rng.normal(size=(2, cfg.embed_dim))
        pa = rng.normal(size=(2, cfg.K, 3))
        xt = ad.parameter(x.copy())
        d = model.key_posterior(xt)
        ad.backward(ad.sum_(ad.mul(d.mean, ad.constant(pa))))

        def scalar(v):
            return float((model.key_posterior(ad.constant(v)).mean.data * pa).sum())

        assert rel_err(xt.grad, fd_grad(scalar, x)) <= 1e-4


class TestReadoutPrior:
    def test_trace_count_mismatch_rejected(self, rng):
        model = MemoryVAE(conv_cfg(K=1), seed=0)
        with pytest.raises(ValueError):
            model.readout_prior(ad.constant(rng.random((2, 3, 1, 4, 4))))

    def test_trace_shape_mismatch_rejected(self, rng):
        model = MemoryVAE(conv_cfg(), seed=0)
        with pytest.raises(ValueError):
            model.readout_prior(ad.constant(rng.random((2, 1, 1, 8, 8))))
        with pytest.raises(ValueError):
            model.readout_prior(ad.constant(rng.random((2, 1, 4, 4))))


class TestDecode:
    def test_output_shape(self, rng):
        cfg = conv_cfg()
        model = MemoryVAE(cfg, seed=10)
        out = model.decode(ad.constant(rng.normal(size=(3, cfg.L))))
        assert out.shape == (3,) + cfg.image_shape

    def test_wrong_latent_width_rejected(self, rng):
        model = MemoryVAE(conv_cfg(L=4), seed=0)
        for shape in ((2, 5), (4,)):
            with pytest.raises(ValueError, match=r"latents must be \(N, L=4\)"):
                model.decode(ad.constant(rng.normal(size=shape)))

    def test_gradient_fd(self, rng):
        cfg = tiny_dense_cfg()
        model = float64(MemoryVAE(cfg, seed=11))
        randomize(model, rng, scale=0.1)
        z = rng.normal(size=(2, cfg.L))
        proj = rng.normal(size=(2,) + cfg.image_shape)
        zt = ad.parameter(z.copy())
        ad.backward(ad.sum_(ad.mul(model.decode(zt), ad.constant(proj))))

        def scalar(v):
            return float((model.decode(ad.constant(v)).data * proj).sum())

        assert rel_err(zt.grad, fd_grad(scalar, z)) <= 1e-4


class TestArmsAndParity:
    def test_parameter_ownership(self):
        mem_arm = MemoryVAE(conv_cfg(), seed=0)
        abl_arm = MemoryVAE(conv_cfg(ablation=True), seed=0)
        mem_heads = {n.split(".")[0] for n in mem_arm.params}
        abl_heads = {n.split(".")[0] for n in abl_arm.params}
        assert "abl" not in mem_heads
        assert mem_heads >= {"enc", "mem", "key", "post", "read", "dec"}
        assert abl_heads == {"enc", "post", "dec", "abl"}

    def test_shared_parameters_identical_across_arms(self):
        mem_arm = MemoryVAE(ModelConfig(), seed=42)
        abl_arm = MemoryVAE(ModelConfig(ablation=True), seed=42)
        shared = set(mem_arm.params) & set(abl_arm.params)
        assert shared  # enc/post/dec at least
        for name in shared:
            assert np.array_equal(mem_arm.params[name].data,
                                  abl_arm.params[name].data), name

    def test_parameter_parity_within_five_percent(self):
        for cfg_fn in (ModelConfig, conv_cfg):
            mem_arm = cfg_fn()
            abl_arm = cfg_fn(ablation=True)
            n_mem = n_params(MemoryVAE(mem_arm, seed=0))
            n_abl = n_params(MemoryVAE(abl_arm, seed=0))
            # the ablation head stands in for writer + reader capacity
            gap = abs(n_mem - (n_abl + n_params(MemoryVAE(mem_arm, seed=0), "key.")))
            assert gap / n_mem <= 0.05
            assert abs(n_mem - n_abl) / n_mem <= 0.05

    def test_n_params_prefix(self):
        model = MemoryVAE(conv_cfg(), seed=0)
        total = n_params(model)
        by_head = sum(n_params(model, h + ".")
                      for h in ("enc", "mem", "key", "post", "read", "dec"))
        assert total == by_head
        assert n_params(model, "abl.") == 0

    def test_trainable_sorted(self):
        model = MemoryVAE(conv_cfg(), seed=0)
        names = [p.name for p in model.trainable()]
        assert names == sorted(model.params)

    def test_same_seed_same_init(self):
        a = MemoryVAE(conv_cfg(), seed=13)
        b = MemoryVAE(conv_cfg(), seed=13)
        for name in a.params:
            assert np.array_equal(a.params[name].data, b.params[name].data)
        c = MemoryVAE(conv_cfg(), seed=14)
        assert any(not np.array_equal(a.params[n].data, c.params[n].data)
                   for n in a.params)


class TestCheckpoint:
    def test_array_roundtrip(self, tmp_path, rng):
        arrays = {
            "a.w": rng.normal(size=(3, 4)),
            "b": rng.normal(size=(2, 1, 5)),
            "scalar": np.array(3.5),
        }
        p = tmp_path / "ck.bin"
        save_checkpoint(p, arrays)
        loaded, cfg = load_checkpoint(p)
        assert cfg is None
        assert set(loaded) == set(arrays)
        for k in arrays:
            assert np.array_equal(loaded[k], arrays[k])

    def test_config_roundtrip(self, tmp_path):
        cfg = conv_cfg()
        p = tmp_path / "ck.bin"
        save_checkpoint(p, {"x": np.zeros(2)}, cfg.to_dict())
        _, loaded = load_checkpoint(p)
        assert ModelConfig.from_dict(loaded) == cfg

    def test_model_roundtrip(self, tmp_path, rng):
        model = MemoryVAE(conv_cfg(), seed=15)
        randomize(model, rng, scale=0.1)
        p = tmp_path / "model.bin"
        model.save(p)
        again = MemoryVAE.load(p)
        assert again.config == model.config
        for name in model.params:
            assert np.array_equal(again.params[name].data, model.params[name].data)
        x = rng.random((2, 1, 8, 8))
        assert np.array_equal(again.encode(x).data, model.encode(x).data)

    def test_load_makes_no_draws(self, tmp_path, rng, monkeypatch):
        """load builds the model straight from the checkpoint arrays: no
        initial values are drawn, and the parameters equal the saved ones."""
        model = MemoryVAE(conv_cfg(), seed=15)
        randomize(model, rng, scale=0.1)
        p = tmp_path / "model.bin"
        model.save(p)
        saved, _ = load_checkpoint(p)

        def no_draws(*args):
            raise AssertionError("load drew initial parameter values")

        monkeypatch.setattr(MemoryVAE, "_init_value", no_draws)
        again = MemoryVAE.load(p)
        assert set(again.params) == set(saved)
        for name, arr in saved.items():
            assert again.params[name].data.dtype == np.float32
            assert np.array_equal(again.params[name].data, arr)

    def test_float64_checkpoint_loads_as_float32(self, tmp_path, rng):
        """A checkpoint written the old way, float64 parameters and a config
        with no dtype entry, loads as a float32 model."""
        cfg = conv_cfg()
        assert not any("dtype" in key for key in cfg.to_dict())
        arrays = {name: rng.normal(size=p.data.shape)
                  for name, p in MemoryVAE(cfg, seed=0).params.items()}
        p = tmp_path / "old.bin"
        save_checkpoint(p, arrays, cfg.to_dict())
        model = MemoryVAE.load(p)
        for name, arr in arrays.items():
            assert model.params[name].data.dtype == np.float32
            assert np.array_equal(model.params[name].data, arr.astype(np.float32))

    def test_retired_keys_load_at_built_values(self, tmp_path):
        """Checkpoints written before tsm and the log-std bounds were fixed
        store them at the values every model is now built with."""
        model = MemoryVAE(conv_cfg(), seed=3)
        p = tmp_path / "old.bin"
        save_checkpoint(p, model.state_arrays(), dict(
            model.config.to_dict(), tsm=True, log_std_min=-7.0, log_std_max=2.0))
        again = MemoryVAE.load(p)
        assert again.config == model.config
        for name in model.params:
            assert np.array_equal(again.params[name].data, model.params[name].data)

    @pytest.mark.parametrize("key,value", [
        ("tsm", False), ("log_std_min", -5.0), ("log_std_max", 3.0), ("foo", 1),
        ("T", "x"), ("T", 2.0), ("ablation", 1), ("memory_shape", 5),
        ("memory_shape", [1, 16])])
    def test_bad_config_entry_rejected(self, tmp_path, key, value):
        """A retired key at another value, an unknown key or a value of the
        wrong type is a ValueError naming the checkpoint and the key."""
        model = MemoryVAE(conv_cfg(), seed=3)
        p = tmp_path / "bad.bin"
        save_checkpoint(p, model.state_arrays(), dict(model.config.to_dict(), **{key: value}))
        with pytest.raises(ValueError, match=f"checkpoint {re.escape(str(p))}: .*{key!r}"):
            MemoryVAE.load(p)

    def test_load_arrays_keeps_model_dtype(self, rng):
        arrays = MemoryVAE(conv_cfg(), seed=1).state_arrays()
        model = float64(MemoryVAE(conv_cfg(), seed=0))
        model.load_arrays(arrays)
        for name, arr in arrays.items():
            assert model.params[name].data.dtype == np.float64
            assert np.array_equal(model.params[name].data, arr)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(p)

    def test_truncation_reports_offset(self, tmp_path, rng):
        p = tmp_path / "full.bin"
        save_checkpoint(p, {"w": rng.normal(size=(4, 4))})
        raw = p.read_bytes()
        q = tmp_path / "cut.bin"
        q.write_bytes(raw[:len(raw) - 40])
        with pytest.raises(ValueError, match="at byte"):
            load_checkpoint(q)

    def test_missing_parameter(self, tmp_path):
        model = MemoryVAE(conv_cfg(), seed=0)
        arrays = model.state_arrays()
        arrays.pop("enc.fc.w")
        with pytest.raises(KeyError, match="enc.fc.w"):
            model.load_arrays(arrays)

    def test_shape_mismatch(self):
        model = MemoryVAE(conv_cfg(), seed=0)
        arrays = model.state_arrays()
        arrays["enc.fc.w"] = np.zeros((2, 2))
        with pytest.raises(ValueError, match="enc.fc.w"):
            model.load_arrays(arrays)

    def test_load_requires_config(self, tmp_path):
        p = tmp_path / "noconf.bin"
        save_checkpoint(p, {"w": np.zeros(3)})
        with pytest.raises(ValueError, match="config"):
            MemoryVAE.load(p)


class TestEndToEndGradient:
    def test_twenty_parameters_against_fd(self, rng):
        model = float64(MemoryVAE(conv_cfg(), seed=16))
        randomize(model, rng, scale=0.1)
        images = (rng.random((2, 1, 8, 8)) < 0.5).astype(np.float64)

        def scalar():
            loss, _ = elbo_graph(model, images, np.random.default_rng(77))
            return float(loss.data)

        loss, _ = elbo_graph(model, images, np.random.default_rng(77))
        ad.backward(loss)
        grads = {n: p.grad.copy() for n, p in model.params.items() if p.grad is not None}
        assert set(grads) == set(model.params)

        names = sorted(model.params)
        h = 1e-5
        picks = []
        while len(picks) < 20:
            name = names[rng.integers(len(names))]
            idx = int(rng.integers(model.params[name].data.size))
            if (name, idx) not in picks:
                picks.append((name, idx))
        worst = 0.0
        for name, idx in picks:
            p = model.params[name]
            orig = p.data.ravel()[idx]
            p.data.ravel()[idx] = orig + h
            fp = scalar()
            p.data.ravel()[idx] = orig - h
            fm = scalar()
            p.data.ravel()[idx] = orig
            fd = (fp - fm) / (2 * h)
            worst = max(worst, rel_err(grads[name].ravel()[idx], fd))
        assert worst <= 1e-3
