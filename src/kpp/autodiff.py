"""Define-by-run reverse-mode differentiation over dense float tensors.

A Tensor wraps a NumPy array plus an optional gradient and the backward rule
that produced it.  Graphs are built implicitly by calling the op functions
below; ``backward(loss)`` walks the graph once in reverse topological order and
consumes it: each node drops its gradient, parents and rule once the rule has
run, so only leaves (parameters, ``requires_grad`` inputs) and the loss keep
``.grad``, and a gradient reaching a consumed tensor raises GraphError.
Every forward op validates that its output is finite: NaN/Inf anywhere is a
hard error, not a warning.

A tensor keeps the float dtype of its data (anything else becomes float64),
and each op computes in the dtype of its operands, so a float32 model runs
in float32 and a float64 one in float64 through the same code.  A plain
number or array handed to a binary op takes the dtype of the tensor it
meets, as NumPy treats a Python number.  The one exception is a full
``mean_``: it accumulates in float64, so the scalar loss terms built from
such means, and their sums, are float64.  Gradients take the dtype of the
tensor they belong to.
"""

import numpy as np

from . import kernels

class NonFiniteError(ArithmeticError):
    """Raised when a forward op produces NaN or Inf."""


class GraphError(RuntimeError):
    """Raised on invalid backward usage (non-scalar loss, reuse)."""


def _as_array(values):
    arr = np.asarray(values)
    return arr if arr.dtype.kind == "f" else arr.astype(np.float64)


class Tensor:
    """Graph node: value, lazily allocated gradient, parents + backward rule."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, name=None, _parents=(), _backward=None):
        self.data = _as_array(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    def __getitem__(self, idx):
        return slice_(self, idx)

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={tuple(self.shape)}{tag})"


def tensor(values, requires_grad=False, name=None):
    t = Tensor(values, requires_grad=requires_grad, name=name)
    if not np.isfinite(t.data).all():
        raise NonFiniteError(f"non-finite values in tensor {name or ''}".strip())
    return t


def constant(values):
    return tensor(values, requires_grad=False)


def parameter(values, name=None):
    return tensor(values, requires_grad=True, name=name)


def _wrap(x, like=None):
    """x as a Tensor; a plain number or array takes the dtype of the tensor
    it meets."""
    if isinstance(x, Tensor):
        return x
    if isinstance(like, Tensor):
        return Tensor(np.asarray(x, dtype=like.data.dtype))
    return Tensor(x)


def make_node(op_name, data, parents, backward_fn):
    """Create a graph node; validates finiteness and prunes dead branches."""
    if not np.isfinite(data).all():
        shapes = ", ".join(str(tuple(p.shape)) for p in parents)
        raise NonFiniteError(f"non-finite values in output of {op_name} (input shapes: {shapes})")
    needs = any(p.requires_grad for p in parents)
    return Tensor(
        data,
        requires_grad=needs,
        _parents=tuple(parents) if needs else (),
        _backward=backward_fn if needs else None,
    )


def _biased(op_name, out, parents, backward_fn, bias, axes):
    """make_node for an op that adds bias, unless None, into out's axis 1 in place."""
    if bias is None:
        return make_node(op_name, out, parents, backward_fn)
    if bias.shape != out.shape[1:2]:
        raise ValueError(f"{op_name} bias {bias.shape} does not match {out.shape[1]} channels")
    out += bias.data.reshape(bias.shape + (1,) * (out.ndim - 2))

    def bwd(gy):
        backward_fn(gy)
        accumulate(bias, gy.sum(axis=axes))

    return make_node(op_name, out, parents + (bias,), bwd)


def accumulate(node, g):
    """Add g into node.grad; the first g, which nothing else may hold, becomes
    node.grad (cast if its dtype differs).  See ``_pass_through``."""
    if not node.requires_grad:
        return
    if g.shape != node.data.shape:
        raise GraphError(f"gradient shape {g.shape} != value shape {node.data.shape}")
    if node.grad is None:
        node.grad = np.asarray(g, dtype=node.data.dtype)
    else:
        node.grad += g


def _pass_through(node, g, gy):
    """accumulate g, computed from gy; a first g that shares gy's memory is copied."""
    if node.requires_grad and node.grad is None and np.may_share_memory(g, gy):
        g = np.array(g, dtype=node.data.dtype)
    accumulate(node, g)


def _unbroadcast(g, shape):
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b):
    a, b = _wrap(a, b), _wrap(b, a)
    out = a.data + b.data

    def bwd(gy):
        if a.requires_grad:
            _pass_through(a, _unbroadcast(gy, a.shape), gy)
        if b.requires_grad:
            _pass_through(b, _unbroadcast(gy, b.shape), gy)

    return make_node("add", out, (a, b), bwd)


def sub(a, b):
    a, b = _wrap(a, b), _wrap(b, a)
    out = a.data - b.data

    def bwd(gy):
        if a.requires_grad:
            _pass_through(a, _unbroadcast(gy, a.shape), gy)
        if b.requires_grad:
            accumulate(b, _unbroadcast(-gy, b.shape))

    return make_node("sub", out, (a, b), bwd)


def mul(a, b):
    a, b = _wrap(a, b), _wrap(b, a)
    out = a.data * b.data

    def bwd(gy):
        if a.requires_grad:
            accumulate(a, _unbroadcast(gy * b.data, a.shape))
        if b.requires_grad:
            accumulate(b, _unbroadcast(gy * a.data, b.shape))

    return make_node("mul", out, (a, b), bwd)


def neg(x):
    x = _wrap(x)

    def bwd(gy):
        accumulate(x, -gy)

    return make_node("neg", -x.data, (x,), bwd)


def matmul(a, b, *, bias=None):
    """a @ b of 2-D operands, plus bias (b's width) on each row when given."""
    a, b = _wrap(a, b), _wrap(b, a)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def bwd(gy):
        if a.requires_grad:
            accumulate(a, gy @ b.data.T)
        if b.requires_grad:
            accumulate(b, a.data.T @ gy)

    return _biased("matmul", out, (a, b), bwd, bias, 0)


# ---------------------------------------------------------------------------
# nonlinearities


def exp(x):
    x = _wrap(x)
    with np.errstate(over="ignore"):
        out = np.exp(x.data)

    def bwd(gy):
        accumulate(x, gy * out)

    return make_node("exp", out, (x,), bwd)


def softplus(x):
    x = _wrap(x)
    # max(x, 0) + log1p(e^-|x|), in place to spare temporaries: within 3 ulp
    # of np.logaddexp(0, x), and about 10x faster than it on x86-64
    out = np.exp(-np.abs(x.data))
    np.log1p(out, out=out)
    out += np.maximum(x.data, 0.0)

    def bwd(gy):
        with np.errstate(over="ignore"):  # exp(-x) -> inf gives the correct 0
            accumulate(x, gy / (1.0 + np.exp(-x.data)))

    return make_node("softplus", out, (x,), bwd)


def tanh(x):
    x = _wrap(x)
    out = np.tanh(x.data)

    def bwd(gy):
        accumulate(x, gy * (1.0 - out * out))

    return make_node("tanh", out, (x,), bwd)


def sigmoid(x):
    x = _wrap(x)
    with np.errstate(over="ignore"):  # exp(-x) -> inf gives the correct 0
        out = 1.0 / (1.0 + np.exp(-x.data))

    def bwd(gy):
        accumulate(x, gy * out * (1.0 - out))

    return make_node("sigmoid", out, (x,), bwd)


def relu(x):
    x = _wrap(x)
    out = np.maximum(x.data, 0.0)

    def bwd(gy):
        accumulate(x, gy * (x.data > 0.0))

    return make_node("relu", out, (x,), bwd)


# ---------------------------------------------------------------------------
# shape ops


def reshape(x, shape):
    x = _wrap(x)
    out = x.data.reshape(shape)

    def bwd(gy):
        _pass_through(x, gy.reshape(x.shape), gy)

    return make_node("reshape", out, (x,), bwd)


def broadcast_to(x, shape):
    x = _wrap(x)
    out = np.broadcast_to(x.data, shape).copy()

    def bwd(gy):
        _pass_through(x, _unbroadcast(gy, x.shape), gy)

    return make_node("broadcast_to", out, (x,), bwd)


def slice_(x, idx):
    """x[idx] for a basic index (slices, ints, None, Ellipsis); an array or
    list in idx is a ValueError."""
    x = _wrap(x)
    if any(isinstance(i, (list, np.ndarray)) for i in (idx if isinstance(idx, tuple) else (idx,))):
        raise ValueError(f"slice_ takes basic indices only, got {idx!r}")
    out = np.array(x.data[idx])

    def bwd(gy):
        g = np.zeros_like(x.data)
        g[idx] = gy
        accumulate(x, g)

    return make_node("slice", out, (x,), bwd)


def sum_(x, axis=None, keepdims=False):
    x = _wrap(x)
    out = x.data.sum(axis=axis, keepdims=keepdims)

    def bwd(gy):
        g = gy
        if not keepdims and axis is not None:
            g = np.expand_dims(g, axis)
        accumulate(x, np.broadcast_to(g, x.shape).copy() if np.ndim(g) else np.full(x.shape, g))

    return make_node("sum", out, (x,), bwd)


def mean_(x, axis=None, keepdims=False):
    """Mean over axis; the mean of every entry accumulates in float64."""
    x = _wrap(x)
    out = x.data.mean(axis=axis, keepdims=keepdims, dtype=np.float64 if axis is None else None)
    denom = x.data.size / max(out.size, 1)

    def bwd(gy):
        g = gy / denom
        if not keepdims and axis is not None:
            g = np.expand_dims(g, axis)
        accumulate(x, np.broadcast_to(g, x.shape).astype(x.data.dtype) if np.ndim(g)
                   else np.full(x.shape, g, dtype=x.data.dtype))

    return make_node("mean", out, (x,), bwd)


# ---------------------------------------------------------------------------
# convolution


def conv2d(x, w, stride=1, pad=0, *, bias=None):
    """2-D correlation of x (N,Ci,H,W) with w (Co,Ci,kh,kw) plus bias (Co,), zero padding."""
    x, w = _wrap(x), _wrap(w)
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ValueError(f"conv2d expects 4-D input and kernel, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ValueError(f"conv2d channel mismatch: input {x.shape} vs kernel {w.shape}")
    xc = np.ascontiguousarray(x.data)
    wc = np.ascontiguousarray(w.data)
    h, wid = x.shape[2], x.shape[3]
    kh, kw = w.shape[2], w.shape[3]
    # one window matrix, for the forward product and the kernel gradient
    cols = kernels.im2col(xc, kh, kw, stride, pad)
    out = kernels.conv2d_forward(xc, wc, stride, pad, cols=cols)

    def bwd(gy):
        gy = np.ascontiguousarray(gy)
        if x.requires_grad:
            accumulate(x, kernels.conv2d_input_grad(gy, wc, stride, pad, h, wid))
        if w.requires_grad:
            accumulate(w, kernels.conv2d_kernel_grad(gy, xc, stride, pad, kh, kw, cols=cols))

    return _biased("conv2d", out, (x, w), bwd, bias, (0, 2, 3))


def conv_transpose2d(x, w, stride=1, pad=0, *, bias=None):
    """Transposed 2-D convolution; x (N,Ci,H,W), w (Ci,Co,kh,kw), bias (Co,).

    Output spatial size is (H-1)*stride - 2*pad + kh.  Without a bias, the
    exact adjoint of conv2d with the same stride/pad.
    """
    x, w = _wrap(x), _wrap(w)
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ValueError(f"conv_transpose2d expects 4-D operands, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[0]:
        raise ValueError(f"conv_transpose2d channel mismatch: input {x.shape} vs kernel {w.shape}")
    kh, kw = w.shape[2], w.shape[3]
    ho = (x.shape[2] - 1) * stride - 2 * pad + kh
    wo = (x.shape[3] - 1) * stride - 2 * pad + kw
    if ho < 1 or wo < 1:
        raise ValueError(f"conv_transpose2d output would be empty for input {x.shape} kernel {w.shape}")
    xc = np.ascontiguousarray(x.data)
    wc = np.ascontiguousarray(w.data)
    out = kernels.conv2d_input_grad(xc, wc, stride, pad, ho, wo)

    def bwd(gy):
        gy = np.ascontiguousarray(gy)
        # one window matrix of gy, for both gradients
        cols = kernels.im2col(gy, kh, kw, stride, pad)
        if x.requires_grad:
            accumulate(x, kernels.conv2d_forward(gy, wc, stride, pad, cols=cols))
        if w.requires_grad:
            accumulate(w, kernels.conv2d_kernel_grad(xc, gy, stride, pad, kh, kw, cols=cols))

    return _biased("conv_transpose2d", out, (x, w), bwd, bias, (0, 2, 3))


# ---------------------------------------------------------------------------
# backward driver


def _topo_order(root):
    """Post-order of the graph under root (acyclic: parents predate a tensor)."""
    order, seen = [], set()
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents if id(p) not in seen)
    return order


def _consumed(gy):
    raise GraphError("gradient reached a tensor whose graph an earlier backward consumed")


def backward(loss):
    """Populate .grad of every leaf the scalar loss depends on, freeing the
    graph under the loss as the pass consumes it (see the module docstring)."""
    if loss.data.size != 1:
        raise GraphError(f"backward requires a scalar loss, got shape {tuple(loss.shape)}")
    if loss.grad is not None:
        raise GraphError("backward already ran for this loss; reset gradients first")
    if not loss.requires_grad:
        raise GraphError("loss does not depend on any differentiable tensor")
    order = _topo_order(loss)
    loss.grad = np.ones_like(loss.data)
    while order:
        node = order.pop()
        if node._backward is not None:  # not a leaf or a constant
            if node.grad is not None:
                node._backward(node.grad)
            node._parents, node._backward = (), _consumed
            if node is not loss:
                node.grad = None


def zero_grad(tensors):
    for t in tensors:
        t.grad = None


def clamp(x, lo, hi):
    """x clipped to [lo, hi]; unit gradient inside, boundary included."""
    x = _wrap(x)

    def bwd(gy):
        accumulate(x, gy * ((x.data >= lo) & (x.data <= hi)))

    return make_node("clamp", np.clip(x.data, lo, hi), (x,), bwd)
