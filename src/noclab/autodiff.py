"""Dense float64 tensors with reverse-mode automatic differentiation.

The op set is exactly what the classifier heads need: matmul, 2-D
cross-correlation, max pooling, a handful of elementwise ops, and a
softmax cross-entropy loss. Each op builds a node in an implicit graph
(parent pointers + a backward closure); `backward` topologically sorts
the graph and accumulates gradients into the leaves.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidValue, NoTrace, SizeMismatch, check_counts, is_count, is_real

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


def _shape(shape):
    """`shape` as a tuple; raises InvalidValue unless each entry is an
    integer >= 1."""
    shape = tuple(shape)
    if not all(map(is_count, shape)):
        raise InvalidValue(f"shape entries must be integers >= 1, got {shape}")
    return shape


def tensor_create(shape, data, requires_grad=False):
    """Build a tensor from an explicit shape and flat row-major data list."""
    shape = _shape(shape)
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
# training, inference and a head's input gradient. The bias gradients
# are reductions whose summation order follows the layout of the
# incoming gradient, so keep every memory layout as it is.
#
# Convolution columns are channel-major, (b, c_in*kh*kw, oh*ow): the
# forward is one gemm per sample that writes (b, c_out, oh*ow), already
# the output's layout, and each sample's result is independent of the
# other samples in the batch.


def _matmul_bwd(g, a, b, need_a=True):
    """Gradients of a @ b for its operands; the first is None unless need_a."""
    return (g @ b.T if need_a else None), a.T @ g


def _window(h, w, kh, kw, stride, pad=0):
    """Output size (oh, ow) of a kh x kw window that slides by `stride`
    over an h x w plane zero-padded by `pad` on each side. A window
    larger than its padded plane raises SizeMismatch."""
    hp, wp = h + 2 * pad, w + 2 * pad
    if hp < kh or wp < kw:
        raise SizeMismatch(f"{kh}x{kw} window larger than its padded input {hp}x{wp}")
    return (hp - kh) // stride + 1, (wp - kw) // stride + 1


# Output rows shorter than this many values take `_im2col`'s gather: a
# strided slice copy pays a fixed cost per output row, which a short row
# cannot hide, while the gather pays per column entry. Medians of 11
# interleaved blocks of a 3x3, pad-1 conv on one BLAS thread (2 vCPU),
# slices -> gather, in us, by batch shape:
#   (32,16,4,4) 140 -> 72, (11,16,4,4) 56 -> 28, (128,16,4,4) 657 -> 292,
#   (32,16,2,2) 84 -> 25, (8,8,8,8) 44 -> 36; but (8,4,16,16) 57 -> 64
#   and (8,3,32,32) 130 -> 202.
# Over square (8, c, w, w) batches the gather's share of the slices' time
# is 0.70 (c=4) and 1.07 (c=16) at w=9, 0.79 and 1.08 at w=10, 1.04 and
# 1.16 at w=11: the crossover is a row of 9 or 10. So backbone layers
# 1-2 (rows of 32 and 16) copy slices, and backbone layer 3 and every
# head conv (rows of 8 and less) gather.
_GATHER_BELOW_OW = 9


@functools.lru_cache(maxsize=32)
def _gather_index(c_in, hp, wp, kh, kw, stride, oh, ow):
    """Flat index into one sample's padded input (c_in, hp, wp) of its
    channel-major columns, shaped (c_in*kh*kw, oh*ow); read-only, as it
    is shared by every call of one geometry."""
    c, i, j, y, x = np.ix_(np.arange(c_in), np.arange(kh), np.arange(kw),
                           np.arange(oh) * stride, np.arange(ow) * stride)
    index = (c * hp + i + y) * wp + j + x
    index = index.reshape(c_in * kh * kw, oh * ow)
    index.flags.writeable = False
    return index


def _im2col(x, kh, kw, stride, pad):
    """Zero-padded input (b, c_in, h+2p, w+2p) and its channel-major
    columns (b, c_in*kh*kw, oh*ow), plus the output size oh, ow. Output
    rows of _GATHER_BELOW_OW values or more are filled by kh*kw strided
    slice copies of whole rows, shorter ones by one gather (`take`)
    over the flattened padded input; both give the same columns."""
    b_, c_in, h, w = x.shape
    oh, ow = _window(h, w, kh, kw, stride, pad)
    hp, wp = h + 2 * pad, w + 2 * pad
    xp = np.zeros((b_, c_in, hp, wp))
    xp[:, :, pad:pad + h, pad:pad + w] = x
    if ow < _GATHER_BELOW_OW:
        index = _gather_index(c_in, hp, wp, kh, kw, stride, oh, ow)
        # an explicit row length: a reshape to (0, -1) is ambiguous
        return xp, xp.reshape(b_, c_in * hp * wp).take(index, axis=1), oh, ow
    cols = np.empty((b_, c_in, kh, kw, oh, ow))
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i:i + oh * stride:stride, j:j + ow * stride:stride]
    return xp, cols.reshape(b_, c_in * kh * kw, oh * ow), oh, ow


def _conv2d_fwd(cols, k, bias, oh, ow):
    out = k.reshape(len(k), -1) @ cols + bias[:, None]
    return out.reshape(len(cols), len(k), oh, ow)


def _conv2d_bwd(g, cols, k, oh, ow, xp=None, stride=1, pad=0):
    """Gradients (kernels, bias, input) of `_conv2d_fwd`; the input's is
    None unless the padded input xp is given."""
    g3 = g.reshape(len(cols), len(k), oh * ow)
    db = g3.sum(axis=(0, 2))
    dk = (g3 @ cols.transpose(0, 2, 1)).sum(axis=0).reshape(k.shape)
    if xp is None:
        return dk, db, None
    dwin = (k.reshape(len(k), -1).T @ g3).reshape(len(cols), *k.shape[1:], oh, ow)
    dxp = np.zeros_like(xp)
    for i in range(k.shape[2]):
        for j in range(k.shape[3]):
            dxp[:, :, i:i + oh * stride:stride, j:j + ow * stride:stride] += dwin[:, :, i, j]
    h, w = xp.shape[2] - 2 * pad, xp.shape[3] - 2 * pad
    return dk, db, dxp[:, :, pad:pad + h, pad:pad + w]


def _maxpool2d_fwd(x, window, stride):
    """Per-window max of (b, c, h, w) and each window's row-major argmax."""
    b_, c, h, w = x.shape
    oh, ow = _window(h, w, window, window, stride)
    win = sliding_window_view(x, (window, window), axis=(2, 3))[:, :, ::stride, ::stride]
    flat = win.reshape(b_, c, oh, ow, window * window)
    arg = flat.argmax(axis=-1)  # first occurrence on ties
    return np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0], arg


def _maxpool2d_values(x, window, stride):
    """The per-window max of `_maxpool2d_fwd` without its argmax, for
    inference: a running max over the window's strided slices. Its
    values equal the argmax pool's up to the sign of a zero maximum."""
    oh, ow = _window(x.shape[2], x.shape[3], window, window, stride)
    views = [x[:, :, i:i + oh * stride:stride, j:j + ow * stride:stride]
             for i in range(window) for j in range(window)]
    # C order like the argmax pool's output, whatever x's layout: later
    # reductions over the features sum in memory order
    out = views[0].copy(order="C")
    for view in views[1:]:
        np.maximum(out, view, out=out)
    return out


def _maxpool2d_bwd(g, x, arg, window, stride):
    # zeros_like keeps x's layout, which the next bias gradient sums in
    dx = np.zeros_like(x)
    bi, ci, oi, oj = np.indices(arg.shape)
    ri = oi * stride + arg // window
    rj = oj * stride + arg % window
    np.add.at(dx, (bi, ci, ri, rj), g.reshape(arg.shape))
    return dx


def _relu_fwd(x):
    # np.maximum passes -0.0 and NaN through; np.where on the mask would
    # zero them, but branches on a random sign mask and is ~10x slower
    return np.maximum(x, 0.0), x > 0


def _relu_bwd(g, mask):
    return g * mask


def _check_labels(labels, n, classes):
    """Labels as int64, one per row, each an integer in [0, classes)."""
    labels = np.asarray(labels)
    if labels.dtype.kind not in "iu":
        raise InvalidValue(f"labels must be integers, got dtype {labels.dtype}")
    labels = labels.astype(np.int64, copy=False)
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


def conv2d(inp, kernels, bias, stride=1, pad=0):
    """2-D cross-correlation (no kernel flip), zero padding.

    inp: a batch (b,c_in,h,w); kernels: (c_out,c_in,kh,kw); bias:
    (c_out,). Output spatial size floor((h+2p-kh)/s)+1.
    """
    x, k = inp.data, kernels.data
    if x.ndim != 4 or k.ndim != 4 or x.shape[1] != k.shape[1]:
        raise SizeMismatch(f"conv2d input {inp.shape} vs kernels {kernels.shape}")
    if bias.data.shape != (k.shape[0],):
        raise SizeMismatch(f"conv2d bias {bias.shape} vs {k.shape[0]} output maps")
    check_counts(stride=stride, pad=pad)
    xp, cols, oh, ow = _im2col(x, *k.shape[2:], stride, pad)
    out = _conv2d_fwd(cols, k, bias.data, oh, ow)

    def bwd(g, grads):
        dk, db, dx = _conv2d_bwd(g, cols, k, oh, ow,
                                 xp if inp._needs_graph() else None, stride, pad)
        _accum(bias, grads, db)
        _accum(kernels, grads, dk)
        if dx is not None:
            _accum(inp, grads, dx)

    return _from_op(out, (inp, kernels, bias), bwd)


def maxpool2d(inp, window, stride):
    """Per-window max over a batch (b,c,h,w); ties route the gradient to
    the first position (row-major)."""
    x = inp.data
    if x.ndim != 4:
        raise SizeMismatch(f"maxpool2d input must be a batch (b, c, h, w), got {inp.shape}")
    check_counts(window=window, stride=stride)
    out, arg = _maxpool2d_fwd(x, window, stride)

    def bwd(g, grads):
        if inp._needs_graph():
            _accum(inp, grads, _maxpool2d_bwd(g, x, arg, window, stride))

    return _from_op(out, (inp,), bwd)


# ---------------------------------------------------------------------------
# elementwise ops


def relu(x):
    out, mask = _relu_fwd(x.data)

    def bwd(g, grads):
        _accum(x, grads, _relu_bwd(g, mask))

    return _from_op(out, (x,), bwd)


def add(a, b):
    """Elementwise sum of two equal shapes, or a vector bias (n,) added to
    every row of (..., n)."""
    if a.shape == b.shape:
        out = a.data + b.data

        def bwd(g, grads):
            _accum(a, grads, g)
            _accum(b, grads, g)

        return _from_op(out, (a, b), bwd)

    big, small = (a, b) if a.data.ndim > b.data.ndim else (b, a)
    if small.data.ndim != 1 or big.data.ndim < 2 or big.shape[-1] != small.size:
        raise SizeMismatch(f"add shape mismatch {a.shape} vs {b.shape}")
    out = big.data + small.data
    sum_axes = tuple(range(big.data.ndim - 1))

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
    if not is_real(alpha):
        raise InvalidValue(f"scale factor must be a finite number, got {alpha!r}")
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
    shape = _shape(shape)
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
    if not (is_real(eps) and 0 < eps <= 1e-2):
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
