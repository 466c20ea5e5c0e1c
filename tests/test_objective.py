"""Conditional bound and the write/read/generate/denoise procedures.

The hand-model oracles run a 1-pixel dense model whose entire forward pass
is re-implemented here in straight-line numpy, and whose exact bound terms
are estimated by large vectorized Monte Carlo with standard-error bands.
"""

import numpy as np
import pytest

from kpp import autodiff as ad
from kpp.autodiff import NonFiniteError
from kpp.data import synth_shapes
from kpp.nets import LOG_STD_MAX, LOG_STD_MIN, Episode, MemoryVAE, ModelConfig
from kpp.objective import (
    ElboBreakdown,
    denoise,
    elbo_graph,
    generate,
    iterative_read,
    perturbed_generate,
)
from kpp.stn import sample_traces
from kpp.trainer import eval_conditional

from conftest import STEP_NODES, conv_cfg, float64, randomize, rel_err
from test_stn import reference_crop


def hand_cfg(**kw):
    base = dict(image_shape=(1, 1, 1), T=2, K=1, L=1,
                memory_shape=(1, 4, 4), trace_size=(2, 2),
                embed_dim=2, key_hidden=2, post_hidden=2,
                dec_hidden=2, dense_nets=True)
    base.update(kw)
    return ModelConfig(**base)


def softplus_np(x):
    return np.logaddexp(0.0, x)


class HandOracle:
    """Straight-line numpy evaluation of the dense 1-pixel pipeline."""

    def __init__(self, model):
        self.p = {k: v.data for k, v in model.params.items()}
        self.cfg = model.config

    def dense(self, x, prefix):
        return x @ self.p[f"{prefix}.w"] + self.p[f"{prefix}.b"]

    def head(self, h, prefix, d):
        out = self.dense(h, prefix)
        mean = out[:, :d]
        ls = np.clip(out[:, d:2 * d], LOG_STD_MIN, LOG_STD_MAX)
        return mean, ls

    def encode(self, x):
        t = x.shape[0]
        flat = x.reshape(t, -1)
        h = np.maximum(self.dense(flat, "enc.fc0"), 0.0)
        return self.dense(h, "enc.out")

    def memory(self, emb):
        pooled = emb.mean(axis=0, keepdims=True)
        h = np.maximum(self.dense(pooled, "mem.fc0"), 0.0)
        return self.dense(h, "mem.out").reshape(self.cfg.memory_shape)

    def key_posterior(self, emb):
        h = np.maximum(self.dense(emb, "key.fc"), 0.0)
        return self.head(h, "key.out", self.cfg.K * 3)

    def latent_posterior(self, emb):
        h = np.maximum(self.dense(emb, "post.fc"), 0.0)
        return self.head(h, "post.out", self.cfg.L)

    def crop_batch(self, mem, keys):
        """Vectorized zero-padded bilinear crops: keys (N,3) -> (N,C,th,tw)."""
        c, hh, ww = mem.shape
        th, tw = self.cfg.trace_size
        tx = np.linspace(-1, 1, tw) if tw > 1 else np.zeros(1)
        ty = np.linspace(-1, 1, th) if th > 1 else np.zeros(1)
        gx = np.broadcast_to(tx[None, :], (th, tw))
        gy = np.broadcast_to(ty[:, None], (th, tw))
        px = (keys[:, 0, None, None] * gx[None] + keys[:, 1, None, None] + 1) / 2 * (ww - 1)
        py = (keys[:, 0, None, None] * gy[None] + keys[:, 2, None, None] + 1) / 2 * (hh - 1)
        x0 = np.floor(px).astype(int)
        y0 = np.floor(py).astype(int)
        fx, fy = px - x0, py - y0
        out = np.zeros((keys.shape[0], c, th, tw))
        for dy in (0, 1):
            for dx in (0, 1):
                xx, yy = x0 + dx, y0 + dy
                w = (fx if dx else 1 - fx) * (fy if dy else 1 - fy)
                valid = (xx >= 0) & (xx < ww) & (yy >= 0) & (yy < hh)
                vals = mem[:, np.clip(yy, 0, hh - 1), np.clip(xx, 0, ww - 1)]
                out += np.where(valid[None], vals, 0.0).transpose(1, 0, 2, 3) * w[:, None]
        return out

    def prior_from_keys(self, mem, squashed):
        """squashed (N,K,3) -> readout-prior (mean, log_std), each (N,L)."""
        n, k = squashed.shape[0], squashed.shape[1]
        traces = self.crop_batch(mem, squashed.reshape(n * k, 3))
        flat = traces.reshape(n, -1)
        h = np.maximum(self.dense(flat, "read.fc0"), 0.0)
        return self.head(h, "read.out", self.cfg.L)

    def decode(self, z):
        h = np.maximum(self.dense(z, "dec.fc0"), 0.0)
        return self.dense(h, "dec.out")

    def recon_ll(self, logits, xflat):
        return (xflat * logits - softplus_np(logits)).sum(axis=1)

    def elbo(self, images, seed):
        """Replays one single-sample bound evaluation, mirrored draw order."""
        rng = np.random.default_rng(seed)
        t = images.shape[0]
        k, l = self.cfg.K, self.cfg.L
        emb = self.encode(images)
        mu_y, ls_y = self.key_posterior(emb)
        eps_y = rng.standard_normal((t, k, 3))
        y = mu_y.reshape(t, k, 3) + np.exp(ls_y.reshape(t, k, 3)) * eps_y
        ysq = np.tanh(y)
        mem = self.memory(emb)
        mu_p, ls_p = self.prior_from_keys(mem, ysq)
        kl_y = (0.5 * (mu_y ** 2 + np.exp(2 * ls_y) - 1.0) - ls_y).sum(axis=1)
        mu_q, ls_q = self.latent_posterior(emb)
        eps_z = rng.standard_normal((t, l))
        z = mu_q + np.exp(ls_q) * eps_z
        kl_z = ((ls_p - ls_q)
                + (np.exp(2 * ls_q) + (mu_q - mu_p) ** 2) * np.exp(-2 * ls_p) / 2
                - 0.5).sum(axis=1)
        recon = self.recon_ll(self.decode(z), images.reshape(t, -1))
        return recon.mean() - kl_z.mean() - kl_y.mean(), \
            recon.mean(), kl_z.mean(), kl_y.mean()


class TestBreakdown:
    def test_identity_and_signs(self, rng):
        model = MemoryVAE(conv_cfg(), seed=1)
        randomize(model, rng, scale=0.1)
        images = (rng.random((3, 1, 8, 8)) < 0.5).astype(np.float64)
        br = elbo_graph(model, images, 5)[1]
        assert br.elbo == br.recon_ll - br.kl_z - br.kl_y
        assert br.kl_z >= 0.0 and br.kl_y >= 0.0
        assert br.recon_ll <= 0.0  # Bernoulli log-likelihood of binary data

    def test_loss_is_negative_elbo(self, rng):
        model = MemoryVAE(conv_cfg(), seed=1)
        randomize(model, rng, scale=0.1)
        images = (rng.random((2, 1, 8, 8)) < 0.5).astype(np.float64)
        ep = Episode(images=images, dataset_ids=[0, 1])
        loss, br = elbo_graph(model, ep, np.random.default_rng(3))
        assert float(loss.data) == -br.elbo

    def test_zero_init_heads_zero_kl(self, rng):
        model = MemoryVAE(conv_cfg(), seed=2)
        images = (rng.random((2, 1, 8, 8)) < 0.5).astype(np.float64)
        br = elbo_graph(model, images, 0)[1]
        assert br.kl_z == 0.0 and br.kl_y == 0.0
        assert br.elbo == br.recon_ll

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            ElboBreakdown(recon_ll=np.nan, kl_z=0.0, kl_y=0.0, elbo=np.nan)
        with pytest.raises(NonFiniteError):
            ElboBreakdown(recon_ll=-np.inf, kl_z=0.0, kl_y=0.0, elbo=-np.inf)


class TestHandModelOracle:
    @pytest.mark.parametrize("likelihood", ["bernoulli", "gaussian"])
    def test_straight_line_numpy_match(self, likelihood, rng):
        cfg = hand_cfg(likelihood=likelihood, gaussian_std=0.7)
        model = float64(MemoryVAE(cfg, seed=3))
        randomize(model, rng, scale=0.5)
        if likelihood == "bernoulli":
            images = np.array([1.0, 0.0]).reshape(2, 1, 1, 1)
        else:
            images = np.array([0.8, 0.3]).reshape(2, 1, 1, 1)
        oracle = HandOracle(model)
        if likelihood == "gaussian":
            sig = cfg.gaussian_std
            oracle.recon_ll = lambda logits, xflat: (
                -0.5 * np.log(2 * np.pi) - np.log(sig)
                - 0.5 * (xflat - logits) ** 2 / sig ** 2
            ).sum(axis=1)
        for seed in range(5):
            br = elbo_graph(model, images, seed)[1]
            want, want_recon, want_klz, want_kly = oracle.elbo(images, seed)
            assert abs(br.elbo - want) <= 1e-10
            assert abs(br.recon_ll - want_recon) <= 1e-10
            assert abs(br.kl_z - want_klz) <= 1e-10
            assert abs(br.kl_y - want_kly) <= 1e-10

    def test_trace_path_matches_reference_crop(self, rng):
        # ties the in-graph trace extraction to the brute-force crop oracle
        model = float64(MemoryVAE(hand_cfg(T=3, K=2), seed=4))
        randomize(model, rng, scale=0.5)
        memory = model.write_memory(model.encode(ad.constant(rng.random((3, 1, 1, 1)))))
        keys = np.tanh(rng.normal(size=(3, 2, 3)))
        traces = sample_traces(memory, ad.constant(keys), model.config.trace_size)
        assert traces.shape == (3, 2, 1, 2, 2)
        for t in range(3):
            for k in range(2):
                ref = reference_crop(memory.data[0], keys[t, k], 2, 2)
                assert np.max(np.abs(traces.data[t, k] - ref)) <= 1e-12


class TestBoundAndUnbiasedness:
    def test_mc_mean_matches_oracle_and_stays_below_lnp(self, rng):
        cfg = hand_cfg(T=1)
        model = MemoryVAE(cfg, seed=5)
        randomize(model, rng, scale=0.5)
        x = np.array([1.0]).reshape(1, 1, 1, 1)
        oracle = HandOracle(model)
        emb = oracle.encode(x)
        mem = oracle.memory(emb)
        mu_y, ls_y = oracle.key_posterior(emb)
        mu_q, ls_q = oracle.latent_posterior(emb)
        kl_y = float((0.5 * (mu_y ** 2 + np.exp(2 * ls_y) - 1.0) - ls_y).sum())

        big = np.random.default_rng(99)
        n_big = 2_000_000
        xflat = x.reshape(1, -1)

        # E_{q(y)}[ KL(q_z || p_z|y) ] by vectorized Monte Carlo
        eps = big.standard_normal((n_big, 1, 3))
        ysq = np.tanh(mu_y.reshape(1, 1, 3) + np.exp(ls_y.reshape(1, 1, 3)) * eps)
        mu_p, ls_p = oracle.prior_from_keys(mem, ysq)
        klz_draws = ((ls_p - ls_q) + (np.exp(2 * ls_q) + (mu_q - mu_p) ** 2)
                     * np.exp(-2 * ls_p) / 2 - 0.5).sum(axis=1)
        klz_mean = klz_draws.mean()
        klz_se = klz_draws.std(ddof=1) / np.sqrt(n_big)

        # E_{q(z)}[ ln p(x|z) ] by Monte Carlo
        z = mu_q + np.exp(ls_q) * big.standard_normal((n_big, 1))
        recon_draws = oracle.recon_ll(oracle.decode(z), xflat)
        recon_mean = recon_draws.mean()
        recon_se = recon_draws.std(ddof=1) / np.sqrt(n_big)

        exact_elbo = recon_mean - klz_mean - kl_y
        exact_se = np.hypot(recon_se, klz_se)

        # ln p(x|M) by joint prior sampling: y ~ N(0,1), z ~ p(z|y)
        y0 = big.standard_normal((n_big, 1, 3))
        mu_p0, ls_p0 = oracle.prior_from_keys(mem, np.tanh(y0))
        z0 = mu_p0 + np.exp(ls_p0) * big.standard_normal((n_big, 1))
        lik = np.exp(oracle.recon_ll(oracle.decode(z0), xflat))
        p_hat = lik.mean()
        lnp = np.log(p_hat)
        lnp_se = lik.std(ddof=1) / np.sqrt(n_big) / p_hat

        # the bound: exact elbo sits below the exact evidence
        assert exact_elbo <= lnp + 3 * (exact_se + lnp_se)
        assert lnp - exact_elbo > 10 * (exact_se + lnp_se)  # real gap, not noise

        # single-sample estimator is unbiased: 1e4 package draws in-band,
        # both for the full bound and for the key-averaged kl_z term alone
        picks = [elbo_graph(model, x, i)[1] for i in range(10_000)]
        draws = np.array([b.elbo for b in picks])
        pkg_se = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - exact_elbo) <= 3 * np.hypot(pkg_se, exact_se)
        assert draws.mean() <= lnp + 3 * (pkg_se + lnp_se)

        klz_pkg = np.array([b.kl_z for b in picks])
        klz_pkg_se = klz_pkg.std(ddof=1) / np.sqrt(klz_pkg.size)
        assert abs(klz_pkg.mean() - klz_mean) <= 3 * np.hypot(klz_pkg_se, klz_se)


class TestStageLabels:
    @pytest.mark.parametrize("param,stage", [
        ("enc.conv0.w", "encode"),
        ("key.fc.w", "key_posterior"),
        ("mem.fc.w", "write_memory"),
        ("read.conv0.w", "readout_prior"),
        ("post.fc.w", "latent_posterior"),
        ("dec.fc.w", "decode"),
    ])
    def test_poisoned_parameter_names_stage(self, param, stage, rng):
        model = MemoryVAE(conv_cfg(), seed=7)
        randomize(model, rng, scale=0.1)
        model.params[param].data[:] = np.nan
        images = (rng.random((2, 1, 8, 8)) < 0.5).astype(np.float64)
        with pytest.raises(NonFiniteError, match=stage):
            elbo_graph(model, images, 0)


class TestArms:
    def test_identical_elbo_at_init_same_seed(self, rng):
        images = (rng.random((3, 1, 8, 8)) < 0.5).astype(np.float64)
        mem_arm = MemoryVAE(conv_cfg(), seed=8)
        abl_arm = MemoryVAE(conv_cfg(ablation=True), seed=8)
        a = elbo_graph(mem_arm, images, 4)[1]
        b = elbo_graph(abl_arm, images, 4)[1]
        assert a.elbo == b.elbo  # aligned rng streams + shared init
        assert b.kl_y == 0.0

    def test_ablation_has_no_key_term(self, rng):
        model = MemoryVAE(conv_cfg(ablation=True), seed=9)
        randomize(model, rng, scale=0.1)
        images = (rng.random((2, 1, 8, 8)) < 0.5).astype(np.float64)
        br = elbo_graph(model, images, 0)[1]
        assert br.kl_y == 0.0
        assert br.kl_z > 0.0


class TestEpisodeBatch:
    """One graph over a batch of episodes is the mean of one graph per
    episode: the same loss, breakdown, gradients and noise draws."""

    @staticmethod
    def _run(model, batch, seed):
        """(loss, breakdown terms, parameter gradients, next draw)."""
        params = model.trainable()
        ad.zero_grad(params)
        noise = np.random.default_rng(seed)
        loss, br = elbo_graph(model, batch, noise)
        ad.backward(loss)
        grads = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
        terms = np.array([float(loss.data), br.recon_ll, br.kl_z, br.kl_y, br.elbo])
        return terms, grads, noise.standard_normal(4)

    @pytest.mark.parametrize("ablation", [False, True])
    @pytest.mark.parametrize("t", [1, 3])
    def test_batch_is_mean_of_episodes(self, rng, ablation, t):
        model = float64(MemoryVAE(conv_cfg(T=t, K=2, ablation=ablation), seed=11))
        randomize(model, rng, scale=0.3)
        images = (rng.random((3, t, 1, 8, 8)) < 0.5).astype(np.float64)
        episodes = [Episode(images=im, dataset_ids=list(range(t))) for im in images]
        terms, grads, draw = self._run(model, episodes, 21)

        # the reference: one graph per episode on one noise stream, averaged
        params = model.trainable()
        ad.zero_grad(params)
        noise = np.random.default_rng(21)
        losses, rows = [], []
        for ep in episodes:
            loss, br = elbo_graph(model, ep, noise)
            losses.append(loss)
            rows.append([float(loss.data), br.recon_ll, br.kl_z, br.kl_y, br.elbo])
        total = ad.mul(ad.add(ad.add(losses[0], losses[1]), losses[2]), ad.constant(1 / 3))
        ad.backward(total)

        want = np.mean(rows, axis=0)
        assert rel_err(terms, want, floor=1e-300) <= 1e-12
        assert terms[0] == -terms[4]          # the loss is -elbo, exactly
        for p, g in zip(params, grads):
            ref = np.zeros_like(p.data) if p.grad is None else p.grad
            assert np.max(np.abs(g - ref)) <= 1e-12 * max(np.max(np.abs(ref)), 1e-300), p.name
        assert np.array_equal(draw, noise.standard_normal(4))

    def test_array_batch_matches_episode_list(self, rng):
        model = MemoryVAE(conv_cfg(T=2), seed=12)
        randomize(model, rng, scale=0.3)
        images = (rng.random((2, 2, 1, 8, 8)) < 0.5).astype(np.float64)
        episodes = [Episode(images=im, dataset_ids=[0, 1]) for im in images]
        a = self._run(model, images, 5)
        b = self._run(model, episodes, 5)
        assert np.array_equal(a[0], b[0])

    def test_unequal_episodes_rejected(self, rng):
        model = MemoryVAE(conv_cfg(T=2), seed=12)
        episodes = [rng.random((2, 1, 8, 8)), rng.random((3, 1, 8, 8))]
        with pytest.raises(ValueError):
            elbo_graph(model, episodes, 0)


class TestOneMemoryReads:
    """A read that takes one memory rejects a stack of memories instead of
    splitting the keys between them."""

    @pytest.fixture
    def two(self, rng):
        model, memory, data = make_trained_ish(rng)
        return model, ad.constant(np.concatenate([memory.data, memory.data])), data

    @pytest.mark.parametrize("n", [16, 15])
    def test_generate(self, two, n):
        model, memory, _ = two
        with pytest.raises(ValueError, match="one memory") as err:
            generate(memory, n, model, rng_seed=0)
        assert f"({n}, 1, 3)" in str(err.value) and "(2, 1, 16, 16)" in str(err.value)
        with pytest.raises(ValueError, match="one memory"):
            perturbed_generate(memory, np.zeros((1, 3)), 0.1, n, model, rng_seed=0)

    def test_iterative_read_and_denoise(self, two):
        model, memory, data = two
        for read in (lambda: iterative_read(memory, data.images[0], 2, model, 0),
                     lambda: denoise(memory, data.images[0], "salt_pepper", 2, model, 0)):
            with pytest.raises(ValueError, match="one memory") as err:
                read()
            assert "(1, 8, 8)" in str(err.value) and "(2, 1, 16, 16)" in str(err.value)


def make_trained_ish(rng, **kw):
    model = MemoryVAE(conv_cfg(**kw), seed=10)
    randomize(model, rng, scale=0.3)
    data = synth_shapes(16, 8, 8, seed=0)
    emb = model.encode(ad.constant(data.images[:4]))
    memory = ad.constant(model.write_memory(emb).data.copy())
    return model, memory, data


class TestGenerate:
    def test_shape_range_determinism(self, rng):
        model, memory, _ = make_trained_ish(rng)
        out = generate(memory, 5, model, rng_seed=3)
        assert out.shape == (5, 1, 8, 8)
        assert out.min() >= 0.0 and out.max() <= 1.0  # sigmoid outputs
        again = generate(memory, 5, model, rng_seed=3)
        assert np.array_equal(out, again)
        other = generate(memory, 5, model, rng_seed=4)
        assert not np.array_equal(out, other)

    def test_different_memories_separate_generations(self, rng):
        model, memory_a, data = make_trained_ish(rng)
        emb_b = model.encode(ad.constant(data.images[8:12]))
        memory_b = ad.constant(model.write_memory(emb_b).data.copy())
        assert not np.array_equal(memory_a.data, memory_b.data)
        for seed in range(10):
            gen_a = generate(memory_a, 4, model, rng_seed=seed)
            gen_b = generate(memory_b, 4, model, rng_seed=seed)  # same keys
            repeat = generate(memory_a, 4, model, rng_seed=seed)
            d_cross = np.abs(gen_a - gen_b).mean()
            d_repeat = np.abs(gen_a - repeat).mean()
            assert d_repeat == 0.0
            assert d_cross > d_repeat

    def test_gaussian_output_is_mean(self, rng):
        model, memory, _ = make_trained_ish(rng, likelihood="gaussian")
        out = generate(memory, 2, model, rng_seed=0)
        # raw decoder means, so values need not be probabilities
        assert out.shape == (2, 1, 8, 8)


class TestPerturbedGenerate:
    def test_continuity_in_eps(self, rng):
        model, memory, _ = make_trained_ish(rng)
        base = rng.normal(size=(1, 3))
        near = perturbed_generate(memory, base, 1e-8, 8, model, rng_seed=5)
        nearer = perturbed_generate(memory, base, 1e-12, 8, model, rng_seed=5)
        assert np.abs(near - nearer).mean() < 1e-4

    def test_spread_orders_with_eps(self, rng):
        model, memory, _ = make_trained_ish(rng)
        base = rng.normal(size=(1, 3)) * 0.5
        tight = perturbed_generate(memory, base, 0.1, 20, model, rng_seed=6)
        wide = perturbed_generate(memory, base, 1.0, 20, model, rng_seed=6)
        ref = perturbed_generate(memory, base, 1e-12, 1, model, rng_seed=7)
        d_tight = np.abs(tight - ref).mean()
        d_wide = np.abs(wide - ref).mean()
        assert d_tight < d_wide

    def test_determinism_and_validation(self, rng):
        model, memory, _ = make_trained_ish(rng)
        base = rng.normal(size=(1, 3))
        a = perturbed_generate(memory, base, 0.1, 3, model, rng_seed=8)
        b = perturbed_generate(memory, base, 0.1, 3, model, rng_seed=8)
        assert a.shape == (3, 1, 8, 8) and np.array_equal(a, b)
        for eps in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="eps_std"):
                perturbed_generate(memory, base, eps, 3, model, rng_seed=8)
        with pytest.raises(ValueError):
            perturbed_generate(memory, np.zeros((2, 3)), 0.1, 3, model, rng_seed=8)


class TestIterativeRead:
    def test_single_step_equals_manual_pass(self, rng):
        model, memory, data = make_trained_ish(rng)
        x = data.images[0]
        got = iterative_read(memory, x, 1, model, rng_seed=11)
        assert len(got) == 1

        rr = np.random.default_rng(11)
        emb = model.encode(ad.constant(x[None]))
        kq = model.key_posterior(emb)
        eps = rr.standard_normal((1, model.config.K, 3))
        y = kq.mean.data + np.exp(kq.log_std.data) * eps
        traces = sample_traces(memory, ad.constant(np.tanh(y)), model.config.trace_size)
        zp = model.readout_prior(traces)
        want = ad.sigmoid(model.decode(zp.mean)).data[0]
        assert np.max(np.abs(got[0] - want)) <= 1e-12

    def test_deterministic_trajectory(self, rng):
        model, memory, data = make_trained_ish(rng)
        a = iterative_read(memory, data.images[1], 4, model, rng_seed=12)
        b = iterative_read(memory, data.images[1], 4, model, rng_seed=12)
        assert len(a) == 4
        for s, t in zip(a, b):
            assert np.array_equal(s, t)

    def test_validation(self, rng):
        model, memory, data = make_trained_ish(rng)
        with pytest.raises(ValueError):
            iterative_read(memory, data.images[0], 0, model, rng_seed=0)
        with pytest.raises(ValueError):
            iterative_read(memory, np.zeros((1, 4, 4)), 1, model, rng_seed=0)


class TestDenoise:
    def test_zero_rate_noisy_equals_clean(self, rng):
        model, memory, data = make_trained_ish(rng)
        noisy, traj, errors = denoise(memory, data.images[2], "salt_pepper", 3,
                                      model, rng_seed=13, rate=0.0)
        assert np.array_equal(noisy, data.images[2])
        assert errors[0] == 0.0
        assert len(traj) == 3 and len(errors) == 4

    def test_error_definition(self, rng):
        model, memory, data = make_trained_ish(rng)
        clean = data.images[3]
        noisy, traj, errors = denoise(memory, clean, "salt_pepper", 2,
                                      model, rng_seed=14, rate=0.3)
        assert errors[0] == float(np.linalg.norm((noisy - clean).ravel()))
        for i, x in enumerate(traj):
            assert errors[i + 1] == float(np.linalg.norm((x - clean).ravel()))

    def test_unknown_kind_rejected(self, rng):
        model, memory, data = make_trained_ish(rng)
        with pytest.raises(ValueError):
            denoise(memory, data.images[0], "shot", 2, model, rng_seed=0)

    def test_deterministic(self, rng):
        model, memory, data = make_trained_ish(rng)
        a = denoise(memory, data.images[0], "speckle", 2, model, rng_seed=15)
        b = denoise(memory, data.images[0], "speckle", 2, model, rng_seed=15)
        assert np.array_equal(a[0], b[0]) and a[2] == b[2]


class TestGraphSize:
    """make_node calls per graph on the default model, so a change that
    adds graph nodes back (an unfused bias, a composed clamp, a read
    composed from grid nodes) shows."""

    @pytest.fixture
    def nodes(self, monkeypatch):
        count = [0]
        make_node = ad.make_node

        def counted(*args):
            count[0] += 1
            return make_node(*args)

        monkeypatch.setattr(ad, "make_node", counted)
        return count

    @pytest.mark.parametrize("kw,expect", [({}, STEP_NODES), ({"ablation": True}, 60),
                                           ({"likelihood": "gaussian"}, 99)],
                             ids=["memory", "no-memory", "gaussian"])
    def test_training_step(self, nodes, kw, expect):
        model = MemoryVAE(ModelConfig(**kw), seed=1)
        images = synth_shapes(16, 16, 16, seed=3).images.reshape(2, 8, 1, 16, 16)
        elbo_graph(model, images, 4)
        assert nodes[0] == expect

    @pytest.mark.parametrize("n_images,graphs", [(64, 1), (256, 4)])
    def test_eval(self, nodes, n_images, graphs):
        """Eight T=8 episodes per eval graph: the 64-image synth test split
        is one graph of a training step's size, 256 images are four."""
        model = MemoryVAE(ModelConfig(), seed=1)
        eval_conditional(model, synth_shapes(n_images, 16, 16, seed=3, split="test"), 8, 0)
        assert nodes[0] == graphs * STEP_NODES

    def test_read_step_and_generate(self, nodes):
        model = MemoryVAE(ModelConfig(), seed=1)
        images = synth_shapes(8, 16, 16, seed=3).images
        memory = model.write_memory(model.encode(ad.constant(images)))
        nodes[0] = 0
        iterative_read(memory, images[0], 3, model, 5)
        assert nodes[0] == 3 * 42
        nodes[0] = 0
        generate(memory, 4, model, 6)
        assert nodes[0] == 22
