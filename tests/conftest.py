"""Shared test helpers: a tiny model, finite-difference oracles and tolerances."""

import numpy as np
import pytest

from kpp import autodiff as ad
from kpp.data import synth_shapes
from kpp.nets import MemoryVAE, ModelConfig
from kpp.objective import elbo_graph


# make_node calls of one default-model training step, and of one eval graph
STEP_NODES = 97


def conv_cfg(**kw):
    """A conv model small enough for finite differences: 8x8 images,
    T=2, K=1, L=4."""
    base = dict(image_shape=(1, 8, 8), T=2, K=1, L=4,
                memory_shape=(1, 16, 16), trace_size=(4, 4),
                embed_dim=8, enc_channels=(8, 8, 8), key_hidden=4,
                post_hidden=4, read_channels=(4, 4), dec_hidden=4,
                dec_base_channels=4, dec_mid_channels=4,
                mem_base_channels=8, writer_channels=(4, 4))
    base.update(kw)
    return ModelConfig(**base)


def randomize(model, rng, scale):
    """Overwrite every parameter with normal draws times scale."""
    for p in model.params.values():
        p.data = (rng.normal(size=p.data.shape) * scale).astype(p.data.dtype)


def float64(model):
    """Upcast a model's parameters to float64, in place, and return it.

    A model computes in its parameters' dtype, so the checks whose
    tolerance lies below float32 resolution (finite differences, the STN
    and hand-model oracles) run the same code in float64."""
    for p in model.params.values():
        p.data = p.data.astype(np.float64)
    return model


def rel_err(a, b, floor=1.0):
    """Relative error with an absolute floor for near-zero references."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = np.maximum(floor, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / scale))


def fd_grad(f, x, h=1e-5):
    """Central finite differences of scalar f at array x, coordinate-wise."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def clean_keys(rng, b, k, size=3, side=5):
    """Squashed keys (b, k, 3) whose size x size windows on a side x side
    canvas keep every source coordinate 2e-3 pixels clear of the integer
    pixels, where a bilinear read has kinks."""
    t = np.linspace(-1.0, 1.0, size)
    while True:
        keys = rng.uniform(-0.9, 0.9, size=(b, k, 3))
        p = (keys[..., 1:, None] + keys[..., :1, None] * t + 1.0) * 0.5 * (side - 1)
        if np.min(np.abs(p - np.round(p))) > 2e-3:
            return keys


def check_op_gradient(build, inputs, rtol=1e-4, h=1e-5, seed=0):
    """Compare autodiff gradients of a random projection of `build(*tensors)`
    against finite differences, for every input array.

    build: callable taking ad.Tensor inputs, returning an output Tensor.
    inputs: list of numpy arrays (all treated as differentiable).
    """
    rng = np.random.default_rng(seed)
    tensors = [ad.parameter(x.copy()) for x in inputs]
    out = build(*tensors)
    proj = rng.normal(size=out.shape)
    loss = ad.sum_(ad.mul(out, ad.constant(proj)))
    ad.backward(loss)

    worst = 0.0
    for i, x in enumerate(inputs):
        def scalar(xv, i=i):
            args = [ad.constant(v.copy()) for v in inputs]
            args[i] = ad.constant(xv)
            o = build(*args)
            return float((o.data * proj).sum())

        g_fd = fd_grad(scalar, x, h=h)
        g_ad = tensors[i].grad
        assert g_ad is not None, f"input {i} received no gradient"
        worst = max(worst, rel_err(g_ad, g_fd))
    return worst


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="module")
def model_convs():
    """(op name, x, w, stride, pad) of every conv call of a default-model
    training step, in float32 as the model computes."""
    calls = []
    originals = {name: getattr(ad, name) for name in ("conv2d", "conv_transpose2d")}

    def recorder(name):
        def op(x, w, stride=1, pad=0, **kw):
            calls.append((name, x.data.copy(), w.data.copy(), stride, pad))
            return originals[name](x, w, stride, pad, **kw)
        return op

    mp = pytest.MonkeyPatch()
    for name in originals:
        mp.setattr(ad, name, recorder(name))
    try:
        model = MemoryVAE(ModelConfig(), seed=1)
        images = synth_shapes(16, 16, 16, seed=3).images.reshape(2, 8, 1, 16, 16)
        elbo_graph(model, images, 4)
    finally:
        mp.undo()
    return calls
