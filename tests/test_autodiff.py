"""Gradient and graph-mechanics checks for the tensor engine."""

import weakref

import numpy as np
import pytest

from kpp import autodiff as ad
from kpp import kernels
from kpp.autodiff import GraphError, NonFiniteError

import kernels_reference as ref

from conftest import check_op_gradient, fd_grad, rel_err


def r(rng, *shape):
    return rng.normal(size=shape)


# --- elementwise and linear ops ------------------------------------------

UNARY_OPS = [
    ("exp", ad.exp, lambda rng: r(rng, 3, 4) * 0.5),
    ("softplus", ad.softplus, lambda rng: r(rng, 3, 4) * 3),
    ("tanh", ad.tanh, lambda rng: r(rng, 3, 4)),
    ("sigmoid", ad.sigmoid, lambda rng: r(rng, 3, 4) * 2),
    ("neg", ad.neg, lambda rng: r(rng, 3, 4)),
    ("relu", ad.relu, lambda rng: r(rng, 3, 4) + 0.05 * np.sign(r(rng, 3, 4))),
]


@pytest.mark.parametrize("name,op,make", UNARY_OPS, ids=[u[0] for u in UNARY_OPS])
def test_unary_gradients(name, op, make):
    for draw in range(50):
        rng = np.random.default_rng(1000 + draw)
        x = make(rng)
        if name == "relu":  # keep draws away from the kink
            x = x + 0.1 * np.sign(x)
        worst = check_op_gradient(op, [x], seed=draw)
        assert worst <= 1e-4, f"{name} draw {draw}: rel err {worst}"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softplus_value_matches_logaddexp(dtype):
    """softplus is within 4 ulp of np.logaddexp(0, x) over [-100, 100] in
    its input's dtype (3 ulp measured), far tails included."""
    x = np.concatenate([np.linspace(-100.0, 100.0, 200_001), [-100.0, 100.0, 0.0, 1e-30]])
    x = x.astype(dtype)
    out = ad.softplus(ad.constant(x)).data
    want = np.logaddexp(dtype(0), x)
    assert out.dtype == dtype
    assert np.all(np.abs(out - want) <= 4 * np.spacing(np.abs(want)))


BINARY_OPS = [
    ("add", ad.add, (2, 3), (2, 3)),
    ("add_broadcast", ad.add, (2, 1, 4), (3, 1)),
    ("sub", ad.sub, (3, 2), (3, 2)),
    ("mul", ad.mul, (2, 3), (2, 3)),
    ("mul_broadcast", ad.mul, (4, 1), (1, 5)),
    ("matmul", ad.matmul, (3, 4), (4, 2)),
]


@pytest.mark.parametrize("name,op,sa,sb", BINARY_OPS, ids=[b[0] for b in BINARY_OPS])
def test_binary_gradients(name, op, sa, sb):
    for draw in range(50):
        rng = np.random.default_rng(2000 + draw)
        worst = check_op_gradient(op, [r(rng, *sa), r(rng, *sb)], seed=draw)
        assert worst <= 1e-4, f"{name} draw {draw}: rel err {worst}"


# --- shape ops -------------------------------------------------------------

def test_reshape_gradient():
    for draw in range(50):
        rng = np.random.default_rng(3000 + draw)
        worst = check_op_gradient(lambda x: ad.reshape(x, (6, 2)), [r(rng, 3, 4)], seed=draw)
        assert worst <= 1e-4


def test_broadcast_to_gradient():
    for draw in range(50):
        rng = np.random.default_rng(3100 + draw)
        worst = check_op_gradient(
            lambda x: ad.broadcast_to(x, (5, 3, 4)), [r(rng, 3, 4)], seed=draw)
        assert worst <= 1e-4


def test_slice_gradient():
    for idx in ((slice(1, 3), slice(None, 2)), (None, Ellipsis, 2)):
        for draw in range(50):
            rng = np.random.default_rng(3300 + draw)
            worst = check_op_gradient(lambda x: ad.slice_(x, idx), [r(rng, 4, 5)], seed=draw)
            assert worst <= 1e-4, f"index {idx} draw {draw}: rel err {worst}"


@pytest.mark.parametrize("axis,keepdims", [(None, False), (0, False), (1, True), ((0, 1), False)])
def test_sum_mean_gradients(axis, keepdims):
    for draw in range(25):
        rng = np.random.default_rng(3400 + draw)
        for op in (ad.sum_, ad.mean_):
            worst = check_op_gradient(
                lambda x: op(x, axis=axis, keepdims=keepdims), [r(rng, 3, 4)], seed=draw)
            assert worst <= 1e-4


@pytest.mark.parametrize("idx", [(slice(1, 3), slice(None, 2)), (Ellipsis, 2)],
                         ids=["basic", "basic_int"])
def test_slice_gradient_scatters_exactly(rng, idx):
    """A basic slice's gradient is gy in its entries and zero elsewhere."""
    x = ad.parameter(r(rng, 4, 5))
    out = ad.slice_(x, idx)
    assert not np.shares_memory(out.data, x.data)
    gy = r(rng, *out.shape)
    ad.backward(ad.sum_(ad.mul(out, ad.constant(gy))))
    expect = np.zeros((4, 5))
    np.add.at(expect, idx, gy)
    assert np.array_equal(x.grad, expect)


@pytest.mark.parametrize("idx", [np.array([0, 0, 2]), [0, 2], (slice(None), np.array([1]))],
                         ids=["array", "list", "array_in_tuple"])
def test_slice_rejects_fancy_index(idx):
    with pytest.raises(ValueError, match=r"basic indices only, got .*\["):
        ad.slice_(ad.parameter(np.zeros((4, 5))), idx)


def test_clamp_gradient_and_boundaries():
    for draw in range(50):
        rng = np.random.default_rng(3500 + draw)
        x = r(rng, 3, 4) * 3
        x = x[np.abs(np.abs(x) - 1.5) > 0.05].reshape(-1)  # keep away from edges
        if x.size == 0:
            continue
        worst = check_op_gradient(lambda t: ad.clamp(t, -1.5, 1.5), [x], seed=draw)
        assert worst <= 1e-4
    # pass-through region, boundary included, has exactly unit gradient,
    # clipped region exactly zero; one graph node
    x = ad.parameter(np.array([-3.0, -1.5, 0.0, 1.5, 3.0]))
    out = ad.clamp(x, -1.5, 1.5)
    assert out._parents == (x,)
    ad.backward(ad.sum_(out))
    assert np.array_equal(x.grad, [0.0, 1.0, 1.0, 1.0, 0.0])
    assert np.array_equal(ad.clamp(ad.constant([-3.0, 0.2, 3.0]), -1.5, 1.5).data,
                          [-1.5, 0.2, 1.5])


# --- convolution and sampling ops ------------------------------------------

@pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1)])
def test_conv2d_gradient(stride, pad):
    for draw in range(17):
        rng = np.random.default_rng(4000 + draw)
        x = r(rng, 2, 3, 6, 6)
        w = r(rng, 4, 3, 3, 3) * 0.5
        worst = check_op_gradient(
            lambda a, b: ad.conv2d(a, b, stride=stride, pad=pad), [x, w], seed=draw)
        assert worst <= 1e-4


@pytest.mark.parametrize("stride,pad", [(1, 0), (2, 1)])
def test_conv_transpose2d_gradient(stride, pad):
    for draw in range(25):
        rng = np.random.default_rng(4100 + draw)
        x = r(rng, 2, 3, 4, 4)
        w = r(rng, 3, 2, 3, 3) * 0.5
        worst = check_op_gradient(
            lambda a, b: ad.conv_transpose2d(a, b, stride=stride, pad=pad), [x, w], seed=draw)
        assert worst <= 1e-4


# (name, op(a, b, bias=None), operand shapes with the bias last)
BIASED_OPS = [
    ("matmul", lambda a, b, bias=None: ad.matmul(a, b, bias=bias), [(3, 4), (4, 2), (2,)]),
    ("conv2d", lambda a, b, bias=None: ad.conv2d(a, b, stride=2, pad=1, bias=bias),
     [(2, 3, 6, 6), (4, 3, 3, 3), (4,)]),
    ("conv_transpose2d",
     lambda a, b, bias=None: ad.conv_transpose2d(a, b, stride=2, pad=1, bias=bias),
     [(2, 3, 4, 4), (3, 2, 3, 3), (2,)]),
]
BIASED_IDS = [b[0] for b in BIASED_OPS]


@pytest.mark.parametrize("name,op,shapes", BIASED_OPS, ids=BIASED_IDS)
def test_biased_gradients(name, op, shapes):
    for draw in range(25):
        rng = np.random.default_rng(4200 + draw)
        worst = check_op_gradient(op, [r(rng, *s) for s in shapes], seed=draw)
        assert worst <= 1e-4, f"{name} draw {draw}: rel err {worst}"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name,op,shapes", BIASED_OPS, ids=BIASED_IDS)
def test_biased_op_equals_op_plus_bias(rng, name, op, shapes, dtype):
    """One biased node gives the value and gradients, bit for bit, of the
    op followed by a reshaped bias add."""
    arrays = [r(rng, *s).astype(dtype) for s in shapes]
    proj = None
    results = []
    for fused in (True, False):
        a, b, bias = (ad.parameter(x.copy()) for x in arrays)
        if fused:
            out = op(a, b, bias=bias)
        else:
            y = op(a, b)
            out = ad.add(y, bias if len(y.shape) == 2 else ad.reshape(bias, (1, -1, 1, 1)))
        if proj is None:
            proj = r(rng, *out.shape).astype(dtype)
        ad.backward(ad.sum_(ad.mul(out, ad.constant(proj))))
        results.append([out.data, a.grad, b.grad, bias.grad])
    for got, expect in zip(*results):
        assert got.dtype == expect.dtype == dtype and np.array_equal(got, expect)


def test_bias_shape_mismatch_rejected(rng):
    with pytest.raises(ValueError, match="bias"):
        ad.conv2d(ad.constant(r(rng, 1, 2, 4, 4)), ad.constant(r(rng, 3, 2, 3, 3)),
                  bias=ad.constant(r(rng, 2)))
    with pytest.raises(ValueError, match="bias"):
        ad.matmul(ad.constant(r(rng, 2, 3)), ad.constant(r(rng, 3, 4)),
                  bias=ad.constant(r(rng, 1)))


def test_conv_transpose_is_conv_adjoint(rng):
    x = r(rng, 2, 5, 7, 7)
    w = r(rng, 4, 5, 3, 3)
    y = r(rng, 2, 4, 4, 4)
    conv_x = ad.conv2d(ad.constant(x), ad.constant(w), stride=2, pad=1).data
    # adjoint pairing: <conv(x), y> == <x, convT(y)> with transposed kernel layout
    wt = np.ascontiguousarray(w)
    convT_y = ad.conv_transpose2d(ad.constant(y), ad.constant(wt), stride=2, pad=1).data
    lhs = float((conv_x * y).sum())
    rhs = float((x * convT_y).sum())
    assert rel_err(lhs, rhs) <= 1e-12


def test_conv2d_skips_input_grad_of_constant_input(rng, monkeypatch):
    calls = []
    input_grad = kernels.conv2d_input_grad
    monkeypatch.setattr(kernels, "conv2d_input_grad",
                        lambda *args: calls.append(args) or input_grad(*args))
    x = ad.constant(r(rng, 2, 3, 6, 6))
    w = ad.parameter(r(rng, 4, 3, 3, 3))
    ad.backward(ad.sum_(ad.conv2d(x, w, stride=2, pad=1)))
    assert len(calls) == 0
    assert x.grad is None and w.grad is not None


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_convs_share_window_matrix_bit_exactly(model_convs, dtype):
    """With one window matrix per node, each conv op's output and both
    gradients equal the separate kernel calls of per-image im2col bit for
    bit, on every conv shape of the default model."""
    rng = np.random.default_rng(5)
    assert {c[0] for c in model_convs} == {"conv2d", "conv_transpose2d"}
    for name, xv, wv, stride, pad in model_convs:
        xv, wv = xv.astype(dtype), wv.astype(dtype)
        x, w = ad.parameter(xv), ad.parameter(wv)
        out = getattr(ad, name)(x, w, stride, pad)
        gy = rng.normal(size=out.shape).astype(dtype)
        ad.backward(ad.sum_(ad.mul(out, ad.constant(gy))))
        kh, kw = wv.shape[2:]
        if name == "conv2d":
            expect = (ref.conv2d_forward_per_image(xv, wv, stride, pad),
                      kernels.conv2d_input_grad(gy, wv, stride, pad, *xv.shape[2:]),
                      kernels.conv2d_kernel_grad(gy, xv, stride, pad, kh, kw))
        else:
            expect = (kernels.conv2d_input_grad(xv, wv, stride, pad, *out.shape[2:]),
                      ref.conv2d_forward_per_image(gy, wv, stride, pad),
                      kernels.conv2d_kernel_grad(xv, gy, stride, pad, kh, kw))
        for got, want in zip((out.data, x.grad, w.grad), expect):
            assert got.dtype == want.dtype == dtype
            assert np.array_equal(got, want), (name, xv.shape, wv.shape)


CONSTANT_OPERAND_OPS = [
    ("add", ad.add, (2, 3), (2, 3)),
    ("sub", ad.sub, (2, 1), (1, 3)),
    ("mul", ad.mul, (2, 3), (3,)),
    ("matmul", ad.matmul, (2, 3), (3, 4)),
    ("conv2d", lambda a, b: ad.conv2d(a, b, stride=2, pad=1), (1, 2, 6, 6), (3, 2, 3, 3)),
    ("conv_transpose2d", lambda a, b: ad.conv_transpose2d(a, b, stride=2, pad=1),
     (1, 2, 4, 4), (2, 3, 3, 3)),
]


@pytest.mark.parametrize("name,op,sa,sb", CONSTANT_OPERAND_OPS,
                         ids=[c[0] for c in CONSTANT_OPERAND_OPS])
@pytest.mark.parametrize("const", [0, 1], ids=["first-constant", "second-constant"])
def test_constant_operands_get_no_gradient_work(rng, monkeypatch, name, op, sa, sb, const):
    """An operand that needs no gradient keeps grad None, and backward
    computes nothing for it: no gradient of it reaches accumulate."""
    reached = []
    accumulate = ad.accumulate
    monkeypatch.setattr(ad, "accumulate", lambda node, g: reached.append(node) or accumulate(node, g))
    operands = [ad.parameter(r(rng, *sa)), ad.parameter(r(rng, *sb))]
    operands[const] = ad.constant(operands[const].data)
    out = op(*operands)
    ad.backward(ad.sum_(ad.mul(out, ad.constant(r(rng, *out.shape)))))
    assert operands[const].grad is None and operands[1 - const].grad is not None
    assert not any(node is operands[const] for node in reached)


def test_conv_transpose2d_skips_input_grad_of_constant_input(rng, monkeypatch):
    monkeypatch.setattr(kernels, "conv2d_forward", None)
    x = ad.constant(r(rng, 2, 3, 4, 4))
    w = ad.parameter(r(rng, 3, 2, 3, 3))
    ad.backward(ad.sum_(ad.conv_transpose2d(x, w, stride=2, pad=1)))
    assert x.grad is None and w.grad is not None


def _grad_cases(rng):
    """(name, loss, [(tensor, expected grad)]) of graphs where one upstream
    gradient reaches a node's grad unchanged, or reaches two nodes."""
    x = ad.parameter(r(rng, 3, 4))
    proj = r(rng, 3, 4)
    yield "add(x, x)", ad.mul(ad.add(x, x), ad.constant(proj)), [(x, 2 * proj)]
    x = ad.parameter(r(rng, 3, 4))
    yield "mul(x, x)", ad.mul(ad.mul(x, x), ad.constant(proj)), [(x, 2 * x.data * proj)]
    x = ad.parameter(r(rng, 3, 4))
    view = ad.reshape(x, (2, 6))
    yield "reshape view", ad.mul(view, ad.constant(proj.reshape(2, 6))), [(x, proj)]
    a = ad.parameter(r(rng, 3, 1))
    yield "broadcast_to", ad.mul(ad.broadcast_to(a, (3, 4)), ad.constant(proj)), \
        [(a, proj.sum(axis=1, keepdims=True))]
    p, q = ad.parameter(r(rng, 3, 4)), ad.parameter(r(rng, 3, 4))
    yield "add(p, q)", ad.mul(ad.add(p, q), ad.constant(proj)), [(p, proj), (q, proj)]


def test_first_gradient_is_a_private_copy(rng):
    """Each leaf's first gradient is its own array: right values, and
    writing into one leaf's grad leaves every other leaf's grad
    unchanged."""
    for name, out, expect in _grad_cases(rng):
        ad.backward(ad.sum_(out))
        for t, want in expect:
            assert np.array_equal(t.grad, want), name
        # backward leaves .grad on leaves only
        for t, _ in expect:
            others = [(node, node.grad.copy()) for node, _ in expect if node is not t]
            t.grad[...] = 7.0
            assert all(np.array_equal(node.grad, old) for node, old in others), name


# --- graph mechanics ---------------------------------------------------------

def test_backward_accumulates_shared_nodes(rng):
    x = ad.parameter(r(rng, 4))
    y = ad.add(ad.mul(x, x), ad.mul(x, ad.constant(3.0)))
    ad.backward(ad.sum_(y))
    assert np.allclose(x.grad, 2 * x.data + 3, atol=1e-12)


def test_backward_linearity(rng):
    xv = r(rng, 5)
    x1 = ad.parameter(xv.copy())
    ad.backward(ad.sum_(ad.mul(x1, x1)))
    g_f = x1.grad.copy()
    x2 = ad.parameter(xv.copy())
    ad.backward(ad.sum_(ad.exp(x2)))
    g_g = x2.grad.copy()
    x3 = ad.parameter(xv.copy())
    ad.backward(ad.add(ad.sum_(ad.mul(x3, x3)), ad.sum_(ad.exp(x3))))
    assert np.max(np.abs(x3.grad - (g_f + g_g))) <= 1e-12


def test_gradient_determinism(rng):
    xv = r(rng, 3, 3)

    def run():
        x = ad.parameter(xv.copy())
        y = ad.sum_(ad.tanh(ad.matmul(x, x)))
        ad.backward(y)
        return x.grad.copy()

    assert np.array_equal(run(), run())


def test_backward_requires_scalar(rng):
    x = ad.parameter(r(rng, 3))
    with pytest.raises(GraphError):
        ad.backward(ad.mul(x, x))


def test_double_backward_rejected(rng):
    x = ad.parameter(r(rng, 3))
    loss = ad.sum_(ad.mul(x, x))
    ad.backward(loss)
    with pytest.raises(GraphError):
        ad.backward(loss)


def test_backward_consumes_the_graph(rng):
    """backward frees each intermediate once the pass is done with it: the
    conv and relu outputs die while the loss lives, leaves keep their
    gradients and the loss its own, and the graph cannot be walked again."""
    x = ad.tensor(r(rng, 2, 3, 6, 6), requires_grad=True)
    w = ad.parameter(r(rng, 4, 3, 3, 3))
    conv = ad.conv2d(x, w, pad=1)
    act = ad.relu(conv)
    loss = ad.sum_(act)
    conv_data, act_data = weakref.ref(conv.data), weakref.ref(act.data)
    del conv, act
    assert conv_data() is not None and act_data() is not None
    ad.backward(loss)
    assert conv_data() is None and act_data() is None
    assert x.grad.shape == x.shape and w.grad.shape == w.shape
    assert loss.grad == 1.0
    with pytest.raises(GraphError):
        ad.backward(loss)


def test_consumed_graph_rejected_in_a_new_one(rng):
    """A tensor of a consumed graph that a new gradient reaches raises,
    rather than passing for a leaf and leaving the parameters under it
    without their share."""
    w = ad.parameter(r(rng, 3))
    y = ad.mul(w, w)
    ad.backward(ad.sum_(y))
    with pytest.raises(GraphError, match="consumed"):
        ad.backward(ad.sum_(ad.mul(y, ad.constant(2.0))))


def test_nonfinite_forward_rejected():
    with pytest.raises(NonFiniteError):
        ad.exp(ad.constant([1000.0]))
    with pytest.raises(NonFiniteError), np.errstate(over="ignore"):
        ad.mul(ad.constant([1e200]), ad.constant([1e200]))
    with pytest.raises(NonFiniteError):
        ad.tensor([np.nan])


def test_constant_branches_get_no_gradient(rng):
    x = ad.parameter(r(rng, 3))
    c = ad.constant(r(rng, 3))
    loss = ad.sum_(ad.mul(x, c))
    ad.backward(loss)
    assert c.grad is None
    assert x.grad is not None


def test_backward_without_parameters_rejected(rng):
    c = ad.constant(r(rng, 3))
    with pytest.raises(GraphError):
        ad.backward(ad.sum_(ad.mul(c, c)))


def test_matmul_shape_errors(rng):
    with pytest.raises(ValueError):
        ad.matmul(ad.constant(r(rng, 2, 3)), ad.constant(r(rng, 2, 3)))
    with pytest.raises(ValueError):
        ad.matmul(ad.constant(r(rng, 3)), ad.constant(r(rng, 3, 2)))


def test_zero_grad_resets(rng):
    x = ad.parameter(r(rng, 3))
    ad.backward(ad.sum_(ad.mul(x, x)))
    assert x.grad is not None
    ad.zero_grad([x])
    assert x.grad is None

