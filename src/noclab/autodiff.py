"""Dense float64 tensors with reverse-mode automatic differentiation.

The op set is exactly what the classifier heads need: matmul, 2-D
cross-correlation, max pooling, a handful of elementwise ops, and a
softmax cross-entropy loss. Each op builds a node in an implicit graph
(parent pointers + a backward closure); `backward` topologically sorts
the graph and accumulates gradients into the leaves.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidValue, NoTrace, SizeMismatch

__all__ = [
    "Tensor",
    "tensor_create",
    "matmul",
    "conv2d",
    "maxpool2d",
    "relu",
    "add",
    "sub",
    "mul",
    "scale",
    "sqrt",
    "div",
    "tensor_sum",
    "softmax_cross_entropy",
    "backward",
    "grad_check",
]


class Tensor:
    """Immutable n-d float64 array, optionally recording its provenance.

    `grad` is populated (as a plain ndarray) by `backward` for tensors
    with requires_grad=True.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad=False, _parents=(), _backward_fn=None):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = tuple(_parents)
        self._backward_fn = _backward_fn

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # Internal: does any ancestor require a gradient?
    def _needs_graph(self):
        return self.requires_grad or self._backward_fn is not None


def tensor_create(shape, data, requires_grad=False):
    """Build a tensor from an explicit shape and flat row-major data list."""
    shape = tuple(int(d) for d in shape)
    if any(d <= 0 for d in shape):
        raise InvalidValue(f"non-positive dimension in shape {shape}")
    flat = np.asarray(data, dtype=np.float64).ravel()
    if int(np.prod(shape)) != flat.size:
        raise SizeMismatch(f"shape {shape} needs {int(np.prod(shape))} values, got {flat.size}")
    if not np.all(np.isfinite(flat)):
        raise InvalidValue("tensor data contains NaN/Inf")
    return Tensor(flat.reshape(shape).copy(), requires_grad=requires_grad)


def _from_op(data, parents, backward_fn):
    parents = [p for p in parents if isinstance(p, Tensor)]
    if any(p._needs_graph() for p in parents):
        return Tensor(data, _parents=parents, _backward_fn=backward_fn)
    return Tensor(data)


def _accum(tensor, grads, delta):
    if tensor._needs_graph():
        if tensor in grads:
            grads[tensor] = grads[tensor] + delta
        else:
            grads[tensor] = np.array(delta, dtype=np.float64, copy=True)


# ---------------------------------------------------------------------------
# numpy kernels of the head ops
#
# Each op's math lives once, here. The Tensor ops below wrap these
# kernels in graph nodes; `nets`' layer chain (`_chain_forward`,
# `_chain_backward`) calls them directly, in the same order, for
# training, inference and a head's input gradient. Keep every memory
# layout as it is: the bias gradients are reductions whose summation
# order follows the layout of the incoming gradient.


def _matmul_bwd(g, a, b, need_a=True):
    """Gradients of a @ b for its operands; the first is None unless need_a."""
    return (g @ b.T if need_a else None), a.T @ g


def _im2col(x, kh, kw, stride, pad):
    """Zero-padded input (b, c_in, h+2p, w+2p) and its columns
    (b, oh*ow, c_in*kh*kw), plus the output size oh, ow."""
    b_, c_in, h, w = x.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    # (b, c_in, oh, ow, kh, kw) -> (b, oh*ow, c_in*kh*kw)
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(b_, oh * ow, c_in * kh * kw)
    return xp, cols, oh, ow


def _conv2d_fwd(cols, k, bias, oh, ow):
    c_out = k.shape[0]
    wmat = k.reshape(c_out, -1)
    return (cols @ wmat.T + bias).transpose(0, 2, 1).reshape(len(cols), c_out, oh, ow)


def _conv2d_bwd(g, cols, k, oh, ow, xp=None, stride=1, pad=0):
    """Gradients (kernels, bias, input) of `_conv2d_fwd`; the input's is
    None unless the padded input xp is given."""
    b_ = len(cols)
    c_out, c_in, kh, kw = k.shape
    g4 = g.reshape(b_, c_out, oh, ow)
    gcols = g4.reshape(b_, c_out, oh * ow).transpose(0, 2, 1)  # (b, oh*ow, c_out)
    db = g4.sum(axis=(0, 2, 3))
    dk = np.einsum("bpo,bpk->ok", gcols, cols).reshape(c_out, c_in, kh, kw)
    if xp is None:
        return dk, db, None
    dcols = gcols @ k.reshape(c_out, -1)  # (b, oh*ow, c_in*kh*kw)
    dxp = np.zeros_like(xp)
    dwin = dcols.reshape(b_, oh, ow, c_in, kh, kw)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i : i + oh * stride : stride, j : j + ow * stride : stride] += (
                dwin[:, :, :, :, i, j].transpose(0, 3, 1, 2)
            )
    h, w = xp.shape[2] - 2 * pad, xp.shape[3] - 2 * pad
    return dk, db, dxp[:, :, pad : pad + h, pad : pad + w]


def _maxpool2d_fwd(x, window, stride):
    """Per-window max of (b, c, h, w) and each window's row-major argmax."""
    b_, c, h, w = x.shape
    oh = (h - window) // stride + 1
    ow = (w - window) // stride + 1
    win = sliding_window_view(x, (window, window), axis=(2, 3))[:, :, ::stride, ::stride]
    flat = win.reshape(b_, c, oh, ow, window * window)
    arg = flat.argmax(axis=-1)  # first occurrence on ties
    return np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0], arg


def _maxpool2d_bwd(g, x, arg, window, stride):
    # zeros_like keeps x's layout, which the next bias gradient sums in
    dx = np.zeros_like(x)
    bi, ci, oi, oj = np.indices(arg.shape)
    ri = oi * stride + arg // window
    rj = oj * stride + arg % window
    np.add.at(dx, (bi, ci, ri, rj), g.reshape(arg.shape))
    return dx


def _relu_fwd(x):
    mask = x > 0
    return np.where(mask, x, 0.0), mask


def _relu_bwd(g, mask):
    return g * mask


def _check_labels(labels, n, classes):
    """Labels as int64, one per row, each in [0, classes)."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (n,):
        raise SizeMismatch(f"{n} rows but {labels.shape} labels")
    if np.any(labels < 0) or np.any(labels >= classes):
        raise InvalidValue("label out of range")
    return labels


def _softmax_xent_fwd(z, labels):
    """Mean cross-entropy of row-max-stabilized softmax(z) and the softmax."""
    n = len(z)
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1)
    loss = float(np.mean(np.log(total) - shifted[np.arange(n), labels]))
    return loss, e / total[:, None]


def _softmax_xent_bwd(g, softmax, labels):
    n = len(softmax)
    d = softmax.copy()
    d[np.arange(n), labels] -= 1.0
    return float(g) * d / n


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise SizeMismatch(f"matmul {a.shape} x {b.shape}")
    out = a.data @ b.data

    def bwd(g, grads):
        da, db = _matmul_bwd(g, a.data, b.data, a._needs_graph())
        _accum(a, grads, da)
        _accum(b, grads, db)

    return _from_op(out, (a, b), bwd)


# ---------------------------------------------------------------------------
# convolution / pooling


def _as_batched(x):
    if x.ndim == 3:
        return x[None], True
    if x.ndim == 4:
        return x, False
    raise SizeMismatch(f"expected 3-d or 4-d input, got shape {x.shape}")


def conv2d(inp, kernels, bias, stride=1, pad=0):
    """2-D cross-correlation (no kernel flip), zero padding.

    inp: (c_in,h,w) or (b,c_in,h,w); kernels: (c_out,c_in,kh,kw);
    bias: (c_out,). Output spatial size floor((h+2p-kh)/s)+1.
    """
    x, squeeze = _as_batched(inp.data)
    k = kernels.data
    if k.ndim != 4 or x.shape[1] != k.shape[1]:
        raise SizeMismatch(f"conv2d input {inp.shape} vs kernels {kernels.shape}")
    if bias.data.shape != (k.shape[0],):
        raise SizeMismatch(f"conv2d bias {bias.shape} vs {k.shape[0]} output maps")
    kh, kw = k.shape[2:]
    stride = int(stride)
    pad = int(pad)
    if x.shape[2] + 2 * pad < kh or x.shape[3] + 2 * pad < kw:
        raise SizeMismatch("kernel larger than padded input")
    xp, cols, oh, ow = _im2col(x, kh, kw, stride, pad)
    out = _conv2d_fwd(cols, k, bias.data, oh, ow)

    def bwd(g, grads):
        dk, db, dx = _conv2d_bwd(g, cols, k, oh, ow,
                                 xp if inp._needs_graph() else None, stride, pad)
        _accum(bias, grads, db)
        _accum(kernels, grads, dk)
        if dx is not None:
            _accum(inp, grads, dx[0] if squeeze else dx)

    res = out[0] if squeeze else out
    return _from_op(res, (inp, kernels, bias), bwd)


def maxpool2d(inp, window, stride):
    """Per-window max; ties route the gradient to the first position (row-major)."""
    x, squeeze = _as_batched(inp.data)
    window = int(window)
    stride = int(stride)
    if x.shape[2] < window or x.shape[3] < window:
        raise SizeMismatch(f"pool window {window} larger than input "
                           f"{x.shape[2]}x{x.shape[3]}")
    out, arg = _maxpool2d_fwd(x, window, stride)

    def bwd(g, grads):
        if inp._needs_graph():
            dx = _maxpool2d_bwd(g, x, arg, window, stride)
            _accum(inp, grads, dx[0] if squeeze else dx)

    res = out[0] if squeeze else out
    return _from_op(res, (inp,), bwd)


# ---------------------------------------------------------------------------
# elementwise ops


def relu(x):
    out, mask = _relu_fwd(x.data)

    def bwd(g, grads):
        _accum(x, grads, _relu_bwd(g, mask))

    return _from_op(out, (x,), bwd)


def add(a, b):
    """Elementwise sum. Also accepts a vector bias broadcast: (n,) added to
    (..., n) rows, or (c,) added over the spatial dims of (c,h,w)/(b,c,h,w)."""
    if a.shape == b.shape:
        out = a.data + b.data

        def bwd(g, grads):
            _accum(a, grads, g)
            _accum(b, grads, g)

        return _from_op(out, (a, b), bwd)

    # bias broadcast: smaller operand is a vector
    big, small = (a, b) if a.data.ndim > b.data.ndim else (b, a)
    v = small.data
    if v.ndim != 1:
        raise SizeMismatch(f"add shape mismatch {a.shape} vs {b.shape}")
    if big.shape[-1] == v.size and big.data.ndim >= 2 and big.shape[-1] == v.shape[0]:
        out = big.data + v
        sum_axes = tuple(range(big.data.ndim - 1))
    elif big.data.ndim in (3, 4) and big.shape[-3] == v.size:
        vshaped = v.reshape((v.size, 1, 1))
        out = big.data + vshaped
        sum_axes = (0, 2, 3) if big.data.ndim == 4 else (1, 2)
    else:
        raise SizeMismatch(f"add shape mismatch {a.shape} vs {b.shape}")

    def bwd(g, grads):
        _accum(big, grads, g)
        _accum(small, grads, g.sum(axis=sum_axes))

    return _from_op(out, (a, b), bwd)


def sub(a, b):
    if a.shape != b.shape:
        raise SizeMismatch(f"sub shape mismatch {a.shape} vs {b.shape}")
    out = a.data - b.data

    def bwd(g, grads):
        _accum(a, grads, g)
        _accum(b, grads, -g)

    return _from_op(out, (a, b), bwd)


def mul(a, b):
    if a.shape != b.shape:
        raise SizeMismatch(f"mul shape mismatch {a.shape} vs {b.shape}")
    out = a.data * b.data

    def bwd(g, grads):
        _accum(a, grads, g * b.data)
        _accum(b, grads, g * a.data)

    return _from_op(out, (a, b), bwd)


def scale(x, alpha):
    alpha = float(alpha)
    out = x.data * alpha

    def bwd(g, grads):
        _accum(x, grads, g * alpha)

    return _from_op(out, (x,), bwd)


def sqrt(x):
    if np.any(x.data < 0):
        raise InvalidValue("sqrt of negative operand")
    out = np.sqrt(x.data)

    def bwd(g, grads):
        _accum(x, grads, g * 0.5 / np.maximum(out, 1e-300))

    return _from_op(out, (x,), bwd)


def div(a, b):
    if a.shape != b.shape:
        raise SizeMismatch(f"div shape mismatch {a.shape} vs {b.shape}")
    out = a.data / b.data

    def bwd(g, grads):
        _accum(a, grads, g / b.data)
        _accum(b, grads, -g * a.data / (b.data * b.data))

    return _from_op(out, (a, b), bwd)


def tensor_sum(x):
    out = x.data.sum()

    def bwd(g, grads):
        _accum(x, grads, np.full_like(x.data, float(g)))

    return _from_op(out, (x,), bwd)


def reshape(x, shape):
    shape = tuple(int(d) for d in shape)
    if int(np.prod(shape)) != x.size:
        raise SizeMismatch(f"cannot reshape {x.shape} to {shape}")
    out = x.data.reshape(shape)

    def bwd(g, grads):
        _accum(x, grads, np.asarray(g).reshape(x.shape))

    return _from_op(out, (x,), bwd)


def softmax_cross_entropy(logits, labels):
    """Mean of -log softmax(logits)[label], row-max stabilized."""
    z = logits.data
    if z.ndim != 2:
        raise SizeMismatch(f"logits must be 2-d, got {logits.shape}")
    labels = _check_labels(labels, *z.shape)
    loss, softmax = _softmax_xent_fwd(z, labels)

    def bwd(g, grads):
        _accum(logits, grads, _softmax_xent_bwd(g, softmax, labels))

    return _from_op(loss, (logits,), bwd)


# ---------------------------------------------------------------------------
# backward pass


def backward(root):
    """Reverse-accumulate gradients from a scalar root.

    Returns a dict mapping each requires_grad leaf Tensor to its gradient
    ndarray; also stores it on the leaf's `.grad`.
    """
    if root.data.ndim != 0 and root.data.size != 1:
        raise InvalidValue(f"backward root must be scalar, got shape {root.shape}")
    if root._backward_fn is None and not root.requires_grad:
        raise NoTrace("root tensor is not attached to a graph")

    topo = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and p._needs_graph():
                stack.append((p, False))

    grads = {root: np.ones_like(root.data)}
    for node in reversed(topo):
        g = grads.get(node)
        if g is None or node._backward_fn is None:
            continue
        node._backward_fn(g, grads)

    leaf_grads = {}
    for node, g in grads.items():
        if node.requires_grad:
            node.grad = g
            leaf_grads[node] = g
    return leaf_grads


def grad_check(f, x, eps=1e-5):
    """Max relative error between f's analytic gradient at x and central
    finite differences, |analytic - numeric| / max(1, |numeric|)."""
    if not (0 < eps <= 1e-2):
        raise InvalidValue("eps out of (0, 1e-2]")
    probe = Tensor(x.data.copy(), requires_grad=True)
    out = f(probe)
    backward(out)
    analytic = probe.grad.ravel()

    flat = x.data.ravel().copy()
    numeric = np.empty_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = float(f(Tensor(flat.reshape(x.shape))).data)
        flat[i] = orig - eps
        lo = float(f(Tensor(flat.reshape(x.shape))).data)
        flat[i] = orig
        numeric[i] = (hi - lo) / (2 * eps)

    denom = np.maximum(1.0, np.abs(numeric))
    return float(np.max(np.abs(analytic - numeric) / denom))
