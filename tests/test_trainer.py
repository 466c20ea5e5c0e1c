"""Optimizer, schedule, metrics, and the episodic training loop."""

import csv
import gc
import tracemalloc

import numpy as np
import pytest

from kpp import autodiff as ad
from kpp import trainer
from kpp.data import synth_shapes
from kpp.objective import elbo_graph
from kpp.nets import MemoryVAE, ModelConfig
from kpp.trainer import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    METRICS_HEADER,
    DivergenceError,
    MetricsRow,
    TrainConfig,
    adam_step,
    eval_conditional,
    init_adam_state,
    lr_at,
    train,
    write_metrics,
)

from conftest import conv_cfg, float64, rel_err


def small_train_cfg(**kw):
    base = dict(model=conv_cfg(), epochs=2, batch_episodes=2,
                episodes_per_epoch=4, lr=1e-3, schedule="cosine",
                warmup_epochs=1, weight_decay=1e-3, seed=1)
    base.update(kw)
    return TrainConfig(**base)


def small_data():
    return (synth_shapes(12, 8, 8, seed=100, split="train"),
            synth_shapes(8, 8, 8, seed=101, split="test"))


class RefAdam:
    """Textbook Adam with decoupled weight decay, kept fully separate."""

    def __init__(self, arrays):
        self.m = [np.zeros_like(a) for a in arrays]
        self.v = [np.zeros_like(a) for a in arrays]
        self.t = 0

    def step(self, arrays, grads, names, lr, wd):
        self.t += 1
        out = []
        for i, (a, g) in enumerate(zip(arrays, grads)):
            self.m[i] = ADAM_BETA1 * self.m[i] + (1 - ADAM_BETA1) * g
            self.v[i] = ADAM_BETA2 * self.v[i] + (1 - ADAM_BETA2) * g * g
            m_hat = self.m[i] / (1 - ADAM_BETA1 ** self.t)
            v_hat = self.v[i] / (1 - ADAM_BETA2 ** self.t)
            upd = m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            if wd and not names[i].endswith(".b"):
                upd = upd + wd * a
            out.append(a - lr * upd)
        return out


class TestAdam:
    def test_first_step_is_signed_lr(self):
        p = ad.parameter(np.array([2.0, -3.0]), name="p.w")
        state = init_adam_state([p])
        adam_step([p], [np.array([10.0, -0.001])], state, lr=0.1, weight_decay=0.0)
        # bias-corrected first step moves by ~lr in the gradient's direction
        assert abs(p.data[0] - (2.0 - 0.1)) <= 1e-6
        assert abs(p.data[1] - (-3.0 + 0.1)) <= 1e-6

    def test_minimizes_quadratic(self):
        p = ad.parameter(np.array([5.0]), name="p.w")
        state = init_adam_state([p])
        for _ in range(500):
            adam_step([p], [2.0 * p.data], state, lr=0.05, weight_decay=0.0)
        assert abs(p.data[0]) < 1e-2

    def test_matches_reference_implementation(self, rng):
        shapes = [(3, 4), (4,), (2, 2)]
        names = ["a.w", "a.b", "c.w"]
        init = [rng.normal(size=s) for s in shapes]
        params = [ad.parameter(a.copy(), name=n) for a, n in zip(init, names)]
        state = init_adam_state(params)
        ref = RefAdam(init)
        arrays = [a.copy() for a in init]
        for step in range(100):
            grads = [rng.normal(size=s) for s in shapes]
            adam_step(params, grads, state, lr=0.01, weight_decay=0.02)
            arrays = ref.step(arrays, grads, names, lr=0.01, wd=0.02)
        for p, a in zip(params, arrays):
            assert np.max(np.abs(p.data - a)) <= 1e-12

    def test_bias_parameters_skip_weight_decay(self):
        w = ad.parameter(np.array([1.0]), name="x.w")
        b = ad.parameter(np.array([1.0]), name="x.b")
        state = init_adam_state([w, b])
        # zero gradient isolates the decay term
        adam_step([w, b], [np.zeros(1), np.zeros(1)], state, lr=0.1, weight_decay=0.5)
        assert w.data[0] < 1.0
        assert b.data[0] == 1.0

    def test_non_finite_parameters_raise(self):
        p = ad.parameter(np.array([1.0]), name="p.w")
        state = init_adam_state([p])
        with pytest.raises(DivergenceError, match="p.w"):
            adam_step([p], [np.array([np.inf])], state, lr=0.1, weight_decay=0.0)


class TestSchedule:
    def test_warmup_closed_form(self):
        cfg = small_train_cfg(epochs=30, warmup_epochs=10, lr=1e-3)
        for e in range(10):
            assert lr_at(cfg, e) == pytest.approx(1e-3 * (e + 1) / 10, abs=0)

    def test_cosine_endpoints(self):
        cfg = small_train_cfg(epochs=30, warmup_epochs=10, lr=1e-3)
        assert lr_at(cfg, 10) == pytest.approx(1e-3)
        assert lr_at(cfg, 29) == pytest.approx(0.0, abs=1e-18)
        mid = 10 + (30 - 1 - 10) / 2
        assert lr_at(cfg, int(mid)) == pytest.approx(
            1e-3 * 0.5 * (1 + np.cos(np.pi * (int(mid) - 10) / 19)))

    def test_python_float_keeps_float32_parameters(self):
        """lr_at gives a Python float in both phases, so an Adam step in the
        cosine phase leaves float32 parameters float32."""
        cfg = small_train_cfg(epochs=30, warmup_epochs=10)
        assert type(lr_at(cfg, 3)) is float
        lr = lr_at(cfg, 15)
        assert type(lr) is float
        p = ad.parameter(np.array([1.0, -2.0], dtype=np.float32), name="p.w")
        state = init_adam_state([p])
        adam_step([p], [np.array([0.5, 0.25], dtype=np.float32)], state, lr, 1e-3)
        assert p.data.dtype == np.float32
        assert state["m"][0].dtype == state["v"][0].dtype == np.float32

    def test_constant_after_warmup(self):
        cfg = small_train_cfg(epochs=8, warmup_epochs=2, schedule="constant", lr=2e-3)
        assert lr_at(cfg, 0) == pytest.approx(1e-3)
        assert lr_at(cfg, 1) == pytest.approx(2e-3)
        for e in range(2, 8):
            assert lr_at(cfg, e) == 2e-3

    def test_monotone_decay_after_warmup(self):
        cfg = small_train_cfg(epochs=20, warmup_epochs=5)
        vals = [lr_at(cfg, e) for e in range(5, 20)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            small_train_cfg(epochs=0)
        with pytest.raises(ValueError):
            small_train_cfg(lr=0.0)
        with pytest.raises(ValueError):
            small_train_cfg(schedule="step")
        with pytest.raises(ValueError):
            small_train_cfg(batch_episodes=0)
        with pytest.raises(ValueError):
            small_train_cfg(batch_episodes=8, episodes_per_epoch=4)
        with pytest.raises(ValueError, match="warmup_epochs must be >= 0"):
            small_train_cfg(warmup_epochs=-3)

    @pytest.mark.parametrize("field", ["lr", "weight_decay"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rates_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            small_train_cfg(**{field: value})


class TestMetrics:
    def test_row_formatting(self):
        row = MetricsRow(epoch=3, split="test", elbo=-52.123456789012,
                         recon_ll=-50.0, kl_z=1.5, kl_y=0.623456789012,
                         wall_seconds=12.3456789, seed=7)
        got = row.as_list()
        assert got[0] == 3 and got[1] == "test"
        assert got[2] == "-52.12345679"
        assert got[6] == "12.345679"
        assert got[7] == 7

    def test_write_metrics_csv(self, tmp_path):
        rows = [MetricsRow(0, "train", -100.0, -99.0, 0.5, 0.5, 1.0, 1),
                MetricsRow(0, "test", -90.0, -89.0, 0.5, 0.5, 2.0, 1)]
        path = tmp_path / "metrics.csv"
        write_metrics(path, rows)
        with open(path, newline="") as f:
            got = list(csv.reader(f))
        assert got[0] == METRICS_HEADER
        assert len(got) == 3
        assert got[1][0] == "0" and got[1][1] == "train"
        assert float(got[2][2]) == -90.0


class TestEvalConditional:
    def test_deterministic_given_seed(self, rng):
        model = MemoryVAE(conv_cfg(), seed=2)
        _, test_set = small_data()
        a = eval_conditional(model, test_set, t=2, seed=5)
        b = eval_conditional(model, test_set, t=2, seed=5)
        assert (a.elbo, a.recon_ll, a.kl_z, a.kl_y) == (b.elbo, b.recon_ll, b.kl_z, b.kl_y)
        c = eval_conditional(model, test_set, t=2, seed=6)
        assert a.elbo != c.elbo

    def test_split_smaller_than_episode_rejected(self):
        model = MemoryVAE(conv_cfg(), seed=2)
        tiny = synth_shapes(3, 8, 8, seed=0)
        with pytest.raises(ValueError):
            eval_conditional(model, tiny, t=4, seed=0)

    def test_row_identity(self):
        model = MemoryVAE(conv_cfg(), seed=2)
        _, test_set = small_data()
        row = eval_conditional(model, test_set, t=2, seed=5)
        assert row.elbo == row.recon_ll - row.kl_z - row.kl_y
        assert row.split == "test"

    def test_chunks_match_per_episode_loop(self, rng):
        """Five episodes (the last chunk holds one; one image is left over)
        score as one graph per episode does, averaged."""
        model = float64(MemoryVAE(conv_cfg(T=3), seed=2))
        for p in model.params.values():
            p.data = rng.normal(size=p.data.shape) * 0.3
        test_set = synth_shapes(16, 8, 8, seed=101, split="test")
        row = eval_conditional(model, test_set, 3, [4, 5])

        noise = np.random.Generator(np.random.PCG64(np.random.SeedSequence([4, 5])))
        order = noise.permutation(16)
        terms = []
        for lo in range(0, 15, 3):
            br = elbo_graph(model, test_set.images[order[lo:lo + 3]], noise)[1]
            terms.append([br.elbo, br.recon_ll, br.kl_z, br.kl_y])
        got = [row.elbo, row.recon_ll, row.kl_z, row.kl_y]
        assert rel_err(got, np.mean(terms, axis=0), floor=1e-300) <= 1e-12


    def test_chunk_size_changes_nothing(self, monkeypatch):
        """Eleven episodes score the same whether each graph holds 1, 4 or
        8 of them (the last graph holds what is left)."""
        model = float64(MemoryVAE(conv_cfg(T=2), seed=2))
        test_set = synth_shapes(23, 8, 8, seed=102, split="test")
        rows = []
        for chunk in (1, 4, 8):
            monkeypatch.setattr(trainer, "_EVAL_CHUNK", chunk)
            row = eval_conditional(model, test_set, 2, 7)
            rows.append([row.elbo, row.recon_ll, row.kl_z, row.kl_y])
        for got in rows[1:]:
            assert rel_err(got, rows[0], floor=1e-300) <= 1e-12


class TestStepMemory:
    @pytest.mark.parametrize("t,k", [(8, 2), (32, 4)], ids=["T8", "T32"])
    def test_backward_peak_within_budget(self, capsys, t, k):
        """On the default model, one 4-episode step's tracemalloc peak during
        backward is at most 1.5x what the graph holds when elbo_graph
        returns, since backward frees the graph as it goes; an 8-episode
        eval graph, which keeps no backward state, peaks below that step."""
        model = MemoryVAE(ModelConfig(T=t, K=k), seed=1)
        images = synth_shapes(8 * t, 16, 16, seed=3).images.reshape(
            (8, t) + model.config.image_shape)
        frozen = trainer._constants(model)
        ad.backward(elbo_graph(model, images[:4], 0)[0])  # fill lazy caches
        ad.zero_grad(model.trainable())  # as a training step starts
        tracemalloc.start()
        try:
            loss, _ = elbo_graph(model, images[:4], 0)
            graph = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ad.backward(loss)
            step = tracemalloc.get_traced_memory()[1]
            del loss
            tracemalloc.stop()
            tracemalloc.start()
            elbo_graph(frozen, images, 0)
            eval_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        with capsys.disabled():
            print(f"\n[memory] T={t} K={k}: graph {graph / 1e6:.1f} MB when elbo_graph "
                  f"returns, backward peak {step / 1e6:.1f} MB ({step / graph:.2f}x, budget 1.5x), "
                  f"8-episode eval graph peak {eval_peak / 1e6:.1f} MB", flush=True)
        assert step <= 1.5 * graph
        assert eval_peak < step


class TestTrain:
    def test_history_shape_and_artifacts(self, tmp_path):
        train_set, test_set = small_data()
        cfg = small_train_cfg()
        model, history = train(cfg, train_set, test_set, out_dir=str(tmp_path))
        assert len(history) == 2 * cfg.epochs
        for e in range(cfg.epochs):
            assert history[2 * e].split == "train" and history[2 * e].epoch == e
            assert history[2 * e + 1].split == "test" and history[2 * e + 1].epoch == e
        assert (tmp_path / "best.bin").exists()
        assert (tmp_path / "final.bin").exists()
        assert (tmp_path / "metrics.csv").exists()
        with open(tmp_path / "metrics.csv", newline="") as f:
            got = list(csv.reader(f))
        assert got[0] == METRICS_HEADER and len(got) == 1 + 2 * cfg.epochs

    def test_creates_missing_out_dir(self, tmp_path):
        train_set, test_set = small_data()
        out = tmp_path / "runs" / "lib"
        train(small_train_cfg(epochs=1), train_set, test_set, out_dir=str(out))
        assert sorted(p.name for p in out.iterdir()) == ["best.bin", "final.bin", "metrics.csv"]

    def test_bitwise_determinism(self):
        train_set, test_set = small_data()
        m1, h1 = train(small_train_cfg(), train_set, test_set)
        m2, h2 = train(small_train_cfg(), train_set, test_set)
        for a, b in zip(h1, h2):
            assert (a.epoch, a.split, a.elbo, a.recon_ll, a.kl_z, a.kl_y, a.seed) == \
                   (b.epoch, b.split, b.elbo, b.recon_ll, b.kl_z, b.kl_y, b.seed)
        for name in m1.params:
            assert np.array_equal(m1.params[name].data, m2.params[name].data)

    def test_seed_changes_run(self):
        train_set, test_set = small_data()
        _, h1 = train(small_train_cfg(seed=1), train_set, test_set)
        _, h2 = train(small_train_cfg(seed=2), train_set, test_set)
        assert h1[0].elbo != h2[0].elbo

    def test_final_checkpoint_reproduces_eval(self, tmp_path):
        train_set, test_set = small_data()
        cfg = small_train_cfg()
        model, history = train(cfg, train_set, test_set, out_dir=str(tmp_path))
        loaded = MemoryVAE.load(tmp_path / "final.bin")
        last_epoch = cfg.epochs - 1
        row = eval_conditional(loaded, test_set, cfg.model.T,
                               [cfg.seed, 3, last_epoch])
        assert row.elbo == history[-1].elbo
        assert row.recon_ll == history[-1].recon_ll

    def test_divergence_aborts(self):
        train_set, test_set = small_data()
        cfg = small_train_cfg(epochs=10, lr=50.0, warmup_epochs=1,
                              schedule="constant")
        with pytest.raises(DivergenceError):
            train(cfg, train_set, test_set)

    def test_step_graph_released_before_eval(self, monkeypatch):
        """No graph node that holds a gradient is alive when the epoch's
        eval starts: the last step's graph is gone, not kept beside the
        eval graph."""
        live = []

        def checked(model, dataset, t, seed):
            gc.collect()
            live.append(sum(1 for o in gc.get_objects()
                            if isinstance(o, ad.Tensor) and o._parents and o.grad is not None))
            return real(model, dataset, t, seed)

        real = trainer.eval_conditional
        monkeypatch.setattr(trainer, "eval_conditional", checked)
        train_set, test_set = small_data()
        train(small_train_cfg(epochs=1), train_set, test_set)
        assert live == [0]

    @pytest.mark.parametrize("dense", [False, True], ids=["conv", "dense"])
    @pytest.mark.parametrize("ablation", [False, True], ids=["memory", "no-memory"])
    def test_step_grads_every_parameter(self, monkeypatch, dense, ablation):
        """adam_step receives a gradient array for every trainable
        parameter: no parameter of any arm sits outside the loss."""
        seen = []
        monkeypatch.setattr(trainer, "adam_step",
                            lambda params, grads, *rest: seen.append((params, grads)))
        model = conv_cfg(dense_nets=dense, ablation=ablation)
        train_set, test_set = small_data()
        train(small_train_cfg(model=model, epochs=1, episodes_per_epoch=2),
              train_set, test_set)
        (params, grads), = seen
        assert len(params) == len(MemoryVAE(model, seed=1).params)
        for p, g in zip(params, grads):
            assert g is not None and g is p.grad and g.shape == p.data.shape, p.name

    def test_split_smaller_than_episode_rejected_first(self, monkeypatch):
        """A test split too small for one episode fails before any step."""
        monkeypatch.setattr(trainer, "elbo_graph", lambda *a: pytest.fail("a step ran"))
        train_set, test_set = small_data()
        with pytest.raises(ValueError, match="exceeds the test split of 8 images"):
            train(small_train_cfg(model=conv_cfg(T=9)), train_set, test_set)

    def test_log_callback_invoked(self):
        train_set, test_set = small_data()
        lines = []
        train(small_train_cfg(epochs=1), train_set, test_set, log=lines.append)
        assert len(lines) == 1 and "epoch" in lines[0]
