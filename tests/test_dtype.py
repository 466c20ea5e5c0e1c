"""Dtype census: a float32 model computes in float32 from end to end, and a
float64-upcast model in float64, through the same code.

Each test counts, by dtype, every graph node an op makes and every gradient
a backward rule hands down, over one training step (forward, backward and
Adam), one eval chunk, one generate, one perturbed generate and one
denoise.  The 0-d loss terms are exempt: they accumulate in float64 by
design.  A plain float64 constant, noise draw or kernel temporary anywhere
on those paths would show up here as a float64 node or gradient.
"""

import numpy as np
import pytest

from kpp import autodiff as ad
from kpp import objective
from kpp.data import synth_shapes
from kpp.nets import MemoryVAE
from kpp.trainer import TrainConfig, adam_step, eval_conditional, init_adam_state, lr_at

from conftest import conv_cfg, float64

ARMS = {"bernoulli": {}, "gaussian": {"likelihood": "gaussian", "gaussian_std": 0.7},
        "no_memory": {"ablation": True}}


@pytest.fixture
def census(monkeypatch):
    """{dtype name: sites} of every non-0-d node and gradient made while the
    fixture is alive; a site is "node <op>" or "grad <tensor>"."""
    seen = {}
    make_node, accumulate = ad.make_node, ad.accumulate

    def note(value, site):
        if np.ndim(value):
            seen.setdefault(value.dtype.name, set()).add(site)

    def counted_make_node(op_name, data, parents, backward_fn):
        note(data, f"node {op_name}")
        return make_node(op_name, data, parents, backward_fn)

    def counted_accumulate(node, g):
        note(g, f"grad {node.name or tuple(node.shape)}")
        accumulate(node, g)

    monkeypatch.setattr(ad, "make_node", counted_make_node)
    monkeypatch.setattr(ad, "accumulate", counted_accumulate)
    return seen


def _run(model):
    """One training step, one eval chunk and the read procedures, as the
    trainer and the CLI call them; returns (loss, Adam state)."""
    cfg = model.config
    t = cfg.T
    data = synth_shapes(4 * t, 8, 8, seed=0, split="test")
    params = model.trainable()
    loss, _ = objective.elbo_graph(model, data.images[:2 * t].reshape((2, t) + cfg.image_shape), 0)
    ad.backward(loss)
    state = init_adam_state(params)
    lr = lr_at(TrainConfig(model=cfg, epochs=3, warmup_epochs=1), 2)    # cosine phase
    adam_step(params, [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params],
              state, lr, 1e-3)
    eval_conditional(model, data, t, 0)       # four episodes: one chunk
    if not cfg.ablation:
        memory = model.write_memory(model.encode(ad.constant(data.images[:t])))
        objective.generate(memory, 2, model, 0)
        objective.perturbed_generate(memory, np.zeros((cfg.K, 3)), 0.1, 2, model, 0)
        objective.denoise(memory, data.images[0], "speckle", 2, model, 0)
    return loss, state


def _check(model, census, dtype):
    loss, state = _run(model)
    assert set(census) == {np.dtype(dtype).name}, census
    assert loss.data.ndim == 0 and loss.data.dtype == np.float64
    for p in model.trainable():
        assert p.data.dtype == dtype, p.name
        assert p.grad is None or p.grad.dtype == dtype, p.name
    assert all(a.dtype == dtype for a in state["m"] + state["v"])


@pytest.mark.parametrize("arm", ARMS)
def test_float32_model_computes_in_float32(census, arm):
    model = MemoryVAE(conv_cfg(**ARMS[arm]), seed=1)
    _check(model, census, np.float32)


@pytest.mark.parametrize("arm", ARMS)
def test_float64_model_computes_in_float64(census, arm):
    model = float64(MemoryVAE(conv_cfg(**ARMS[arm]), seed=1))
    _check(model, census, np.float64)
