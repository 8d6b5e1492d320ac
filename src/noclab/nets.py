"""Classifier-head architectures, a small conv backbone, and scaled sum
fusion.

Three head layouts are supported, identified as C0F3 (fc-only), C1F3
(one conv then the fc stack) and M1 (conv, maxpool, conv, fc stack).
The historical 4096-wide hidden layers are scaled down by
`width_scale`; the class count stays at its full value. The heads and
the backbone are all written as layer specs that `_build` realizes.

Parameters are plain float64 arrays. One interpreter runs the layer
chain on ndarrays through the `autodiff` kernels (`_chain_forward`,
`_chain_backward`): training (`loss_and_grads`), inference (`infer`)
and the input gradient (`forward`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ArchMismatch, InvalidValue, SizeMismatch, is_count, is_real

ARCH_IDS = ("C0F3", "C1F3", "M1")

FULL_FC_WIDTH = 4096
FULL_CONV_MAPS = 64

MAGIC = b"NOC1"


def _check_input_shape(shape):
    if not (isinstance(shape, tuple) and len(shape) == 3 and all(map(is_count, shape))):
        raise InvalidValue("input_shape must be a tuple of 3 integers >= 1 "
                           f"(channels, h, w), got {shape!r}")


@dataclass(frozen=True)
class NocArch:
    arch_id: str
    input_shape: tuple  # (channels, h, w)
    num_classes: int
    width_scale: float = 1.0

    def __post_init__(self):
        if self.arch_id not in ARCH_IDS:
            raise InvalidValue(f"unknown arch_id {self.arch_id!r}")
        _check_input_shape(self.input_shape)
        if not (is_real(self.width_scale) and 0 < self.width_scale <= 1):
            raise InvalidValue(f"width_scale must be in (0, 1], got {self.width_scale!r}")
        if not is_count(self.num_classes, least=2):
            raise InvalidValue(f"num_classes must be an integer >= 2, got {self.num_classes!r}")
        if self.fc_width < self.num_classes:
            raise InvalidValue("scaled fc width below class count")

    @staticmethod
    def scaled_fc_width(width_scale):
        return int(round(FULL_FC_WIDTH * width_scale))

    @property
    def fc_width(self):
        return self.scaled_fc_width(self.width_scale)

    @property
    def conv_maps(self):
        return max(1, int(round(FULL_CONV_MAPS * self.width_scale)))


@dataclass
class Model:
    """Realized network: ordered layer descriptors plus named parameters
    (name -> float64 ndarray).

    Layer descriptors are tuples:
      ("conv", weight_name, bias_name, stride, pad)
      ("maxpool", window, stride)
      ("fc", weight_name, bias_name)
      ("relu",), ("flatten",)
    """

    arch_id: str
    input_shape: tuple
    layers: list
    params: dict  # name -> float64 ndarray

    def clone(self):
        params = {k: v.copy() for k, v in self.params.items()}
        return Model(self.arch_id, self.input_shape, list(self.layers), params)


def _he_init(rng, shape, fan_in):
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


def _build(arch_id, input_shape, spec, seed) -> Model:
    """Realize a layer spec as a Model.

    A spec entry is ("conv", c_out, stride, pad) with a 3x3 kernel,
    ("maxpool", window, stride), ("fc", n_out), ("relu",) or
    ("flatten",). Shapes are inferred from `input_shape`; a conv or pool
    that does not fit its input raises SizeMismatch. Weights are drawn
    He-style in layer order from `seed` (an integer >= 0, else
    InvalidValue), biases are zero, and the i-th parameterized layer is
    named conv<i> or fc<i>.
    """
    if not is_count(seed, least=0):
        raise InvalidValue(f"seed must be an integer >= 0, got {seed!r}")
    rng = np.random.default_rng(seed)
    shape = tuple(input_shape)
    layers, params = [], {}
    for entry in spec:
        kind = entry[0]
        if kind in ("conv", "fc"):
            name = f"{kind}{len(params) // 2}"
            wn, bn = name + ".w", name + ".b"
        if kind == "conv":
            _, c_out, stride, pad = entry
            c, h, w = shape
            if h + 2 * pad < 3 or w + 2 * pad < 3:
                raise SizeMismatch(f"input {h}x{w} too small for conv")
            params[wn] = _he_init(rng, (c_out, c, 3, 3), c * 9)
            params[bn] = np.zeros(c_out)
            layers.append(("conv", wn, bn, stride, pad))
            shape = (c_out, (h + 2 * pad - 3) // stride + 1,
                     (w + 2 * pad - 3) // stride + 1)
        elif kind == "fc":
            (n_in,), n_out = shape, entry[1]  # an fc layer reads a flat input
            params[wn] = _he_init(rng, (n_in, n_out), n_in)
            params[bn] = np.zeros(n_out)
            layers.append(("fc", wn, bn))
            shape = (n_out,)
        else:
            if kind == "maxpool":
                _, k, stride = entry
                c, h, w = shape
                if h < k or w < k:
                    raise SizeMismatch(f"input {h}x{w} too small for {k}x{k} pool")
                shape = (c, (h - k) // stride + 1, (w - k) // stride + 1)
            elif kind == "flatten":
                shape = (int(np.prod(shape)),)
            layers.append(entry)
    return Model(arch_id, tuple(input_shape), layers, params)


def build_noc(arch: NocArch, seed: int) -> Model:
    """Construct a head network with He-style seeded initialization:
    the arch's conv prefix, then flatten and three fc layers."""
    conv = ("conv", arch.conv_maps, 1, 1)
    prefix = {"C0F3": [],
              "C1F3": [conv, ("relu",)],
              "M1": [conv, ("relu",), ("maxpool", 2, 2), conv, ("relu",)],
              }[arch.arch_id]
    spec = prefix + [("flatten",), ("fc", arch.fc_width), ("relu",),
                     ("fc", arch.fc_width), ("relu",), ("fc", arch.num_classes)]
    # every layout ends (relu, fc): infer(head, X, stop=-1) is the penultimate feature
    return _build(arch.arch_id, arch.input_shape, spec, seed)


def build_backbone(input_shape, feature_channels: int, seed: int) -> Model:
    """Small 3-block conv feature extractor with total downsampling 8."""
    _check_input_shape(input_shape)
    if not is_count(feature_channels):
        raise InvalidValue(f"feature_channels must be an integer >= 1, "
                           f"got {feature_channels!r}")
    _, h, w = input_shape
    if h < 16 or w < 16:
        raise SizeMismatch("backbone needs input at least 16x16")
    chans = [max(4, feature_channels // 4), max(8, feature_channels // 2), feature_channels]
    spec = [layer for c_out in chans
            for layer in (("conv", c_out, 1, 1), ("relu",), ("maxpool", 2, 2))]
    return _build("backbone", input_shape, spec, seed)


def _check_input(model: Model, shape):
    if tuple(shape[1:]) != tuple(model.input_shape):
        raise SizeMismatch(f"batch shape {shape[1:]} vs model input {model.input_shape}")


def _layer_forward(layer, params, x, tape):
    """One layer of the chain on x; appends what its backward reads to
    `tape` unless that is None. Nothing else outlives the call, so
    inference holds only the current activation."""
    kind = layer[0]
    if kind == "conv":
        _, wn, bn, stride, pad = layer
        k = params[wn]
        if isinstance(x, tuple):  # prepared by prepare_batch
            xp, (cols, oh, ow) = None, x
        else:
            xp, cols, oh, ow = ad._im2col(x, k.shape[2], k.shape[3], stride, pad)
        out, saved = ad._conv2d_fwd(cols, k, params[bn], oh, ow), (xp, cols, oh, ow)
    elif kind == "maxpool":
        _, window, stride = layer
        if tape is None:
            # a running max over the window's strided slices; it equals the
            # argmax pool's values, and only the backward reads the argmax
            oh = (x.shape[2] - window) // stride + 1
            ow = (x.shape[3] - window) // stride + 1
            views = [x[:, :, i:i + oh * stride:stride, j:j + ow * stride:stride]
                     for i in range(window) for j in range(window)]
            # C order like the argmax pool's output, whatever x's layout:
            # later reductions over the features sum in memory order
            out = views[0].copy(order="C")
            for view in views[1:]:
                np.maximum(out, view, out=out)
        else:
            out, arg = ad._maxpool2d_fwd(x, window, stride)
            saved = (x, arg)
    elif kind == "fc":
        out, saved = x @ params[layer[1]] + params[layer[2]], x
    elif kind == "relu":
        if tape is None:
            # in place: every relu follows a conv or an fc, whose output
            # is this call's own, never the caller's batch
            out = np.maximum(x, 0.0, out=x)
        else:
            out, saved = ad._relu_fwd(x)
    elif kind == "flatten":
        # an explicit row length: x.size // len(x) divides by zero on no rows
        out, saved = x.reshape(len(x), int(np.prod(x.shape[1:]))), x.shape
    else:
        raise InvalidValue(f"unknown layer kind {kind!r}")
    if tape is not None:
        tape.append(saved)
    return out


def _chain_forward(model: Model, params, x, tape=None, start=None, stop=None):
    """Run layers [start, stop) of the model's chain on the ndarray batch
    x, with `params` (name -> ndarray); a first-layer conv reads a
    prepared (cols, oh, ow) in place of x. When `tape` is a list, each
    layer appends what `_chain_backward` reads for it."""
    for layer in model.layers[start:stop]:
        x = _layer_forward(layer, params, x, tape)
    return x


def _chain_backward(model: Model, params, tape, g, to_input=False):
    """Back-propagate g, the gradient of the chain's output, through the
    taped layers in the order `ad.backward` would. Returns every
    parameter's gradient and, when `to_input`, the batch's (else None);
    without it the pass stops at the first parameterized layer. Each
    layer feeds one consumer, so no gradient is accumulated."""
    first_param = next(i for i, layer in enumerate(model.layers)
                       if layer[0] in ("conv", "fc"))
    grads = {}
    for i in range(len(tape) - 1, -1 if to_input else first_param - 1, -1):
        layer, saved = model.layers[i], tape[i]
        kind = layer[0]
        if kind == "conv":
            _, wn, bn, stride, pad = layer
            xp, cols, oh, ow = saved
            # xp is None for a prepared first-layer conv: no gradient for the batch
            grads[wn], grads[bn], g = ad._conv2d_bwd(g, cols, params[wn], oh, ow,
                                                     xp, stride, pad)
        elif kind == "maxpool":
            g = ad._maxpool2d_bwd(g, *saved, layer[1], layer[2])
        elif kind == "fc":
            _, wn, bn = layer
            grads[bn] = g.sum(axis=0)
            g, grads[wn] = ad._matmul_bwd(g, saved, params[wn],
                                          to_input or i > first_param)
        elif kind == "relu":
            g = ad._relu_bwd(g, saved)
        else:  # flatten
            g = g.reshape(saved)
    return grads, (g if to_input else None)


def infer(model: Model, X, stop=None, start=None) -> np.ndarray:
    """Run layers [start, stop) of the model on the batch X (leading
    batch dim), with no gradient: the logits by default. Every head ends
    (relu, fc), so stop=-1 gives its penultimate features, one row per
    sample, and start=-1 maps those rows to the logits. X is checked
    against the model's input shape when the pass starts at layer 0.
    float64 input is read in place, never copied. Non-finite output, say
    from finite but huge parameters, raises InvalidValue."""
    X = np.asarray(X, dtype=np.float64)
    if not start:
        _check_input(model, X.shape)
    elif model.layers[start][0] == "relu":
        X = X.copy()  # inference's relu works in place
    with np.errstate(over="ignore", invalid="ignore"):
        out = _chain_forward(model, model.params, X, start=start, stop=stop)
    if not np.isfinite(out).all():
        raise InvalidValue(f"{model.arch_id} output non-finite: its parameters overflow it")
    return out


def forward(model: Model, batch: ad.Tensor) -> ad.Tensor:
    """The model's logits for a batch Tensor as one graph node, whose
    backward runs the chain back to the batch: the input-gradient entry.
    Like every op, it returns a constant Tensor when the batch needs no
    gradient; inference without one is `infer`.
    """
    _check_input(model, batch.shape)
    params = dict(model.params)
    tape = []
    out = _chain_forward(model, params, batch.data, tape)

    def bwd(g, grads):
        _, dx = _chain_backward(model, params, tape, g, to_input=True)
        ad._accum(batch, grads, dx)

    return ad._from_op(out, (batch,), bwd)


@dataclass(frozen=True)
class Minibatch:
    """A training minibatch checked against a head, ready for
    `loss_and_grads`: the first layer's input, or its im2col columns
    (cols, oh, ow) when that layer is a conv, and the int64 labels."""

    head_input: object
    labels: np.ndarray


def prepare_batch(model: Model, X, labels) -> Minibatch:
    """Check a minibatch's shape and labels against `model` and compute
    what its first layer reads, once for every step that reuses it."""
    X = np.asarray(X, dtype=np.float64)
    _check_input(model, X.shape)
    classes = model.params[model.layers[-1][2]].shape[0]
    labels = ad._check_labels(labels, len(X), classes)
    first = model.layers[0]
    if first[0] == "conv":
        _, wn, _, stride, pad = first
        _, _, kh, kw = model.params[wn].shape
        _, cols, oh, ow = ad._im2col(X, kh, kw, stride, pad)
        return Minibatch((cols, oh, ow), labels)
    return Minibatch(X, labels)


def loss_and_grads(model: Model, params, batch: Minibatch):
    """Softmax cross-entropy of a prepared batch and its gradient for
    every parameter, with `params` (name -> ndarray) in place of the
    model's own: the chain forward, the loss, and the chain back to the
    first parameterized layer. No gradient is computed for the batch.
    """
    tape = []
    logits = _chain_forward(model, params, batch.head_input, tape)
    loss, softmax = ad._softmax_xent_fwd(logits, batch.labels)
    grads, _ = _chain_backward(model, params, tape,
                               ad._softmax_xent_bwd(1.0, softmax, batch.labels))
    return loss, grads


def fuse_sum(f_rgb: np.ndarray, f_orient: np.ndarray, scale: float) -> np.ndarray:
    """Sum fusion of two equally shaped feature stacks, f_rgb + scale *
    f_orient: the orientation stream is down-weighted so that an
    uninformative one degrades the fused features only mildly. A scale
    that is no finite number, and non-finite fused features, say from a
    huge scale, raise InvalidValue."""
    if not is_real(scale):
        raise InvalidValue(f"fusion scale must be a finite number, got {scale!r}")
    if f_rgb.shape != f_orient.shape:
        raise SizeMismatch(f"fusion shapes {f_rgb.shape} vs {f_orient.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        fused = f_rgb + scale * f_orient
    if not np.isfinite(fused).all():
        raise InvalidValue(f"fused features non-finite (orientation scale {scale})")
    return fused


# ---------------------------------------------------------------------------
# model persistence: magic + arch header + little-endian float64 params


def save_model(model: Model, path):
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        aid = model.arch_id.encode()
        fh.write(struct.pack("<B", len(aid)))
        fh.write(aid)
        fh.write(struct.pack("<BIII", len(model.input_shape), *(
            list(model.input_shape) + [0] * (3 - len(model.input_shape)))))
        fh.write(struct.pack("<I", len(model.params)))
        for name, p in model.params.items():
            nb = name.encode()
            fh.write(struct.pack("<B", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<B", p.ndim))
            fh.write(struct.pack(f"<{p.ndim}I", *p.shape))
            fh.write(p.astype("<f8").tobytes())


def _read_exact(fh, n, path):
    data = fh.read(n)
    if len(data) != n:
        raise InvalidValue(f"{path}: truncated file")
    return data


def _unpack(fmt, fh, path):
    return struct.unpack(fmt, _read_exact(fh, struct.calcsize(fmt), path))


def _read_name(fh, path):
    (length,) = _unpack("<B", fh, path)
    try:
        return _read_exact(fh, length, path).decode()
    except UnicodeDecodeError as exc:
        raise InvalidValue(f"{path}: malformed name") from exc


def load_params(path, model: Model):
    """Load a saved parameter set into a structurally matching model.

    A truncated or malformed file, or one with bytes after the last
    parameter, raises InvalidValue; a file saved from another
    architecture raises ArchMismatch. The model is changed only once
    the whole file has been read.
    """
    with open(path, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise InvalidValue(f"{path}: bad magic")
        arch_id = _read_name(fh, path)
        ndims, d0, d1, d2 = _unpack("<BIII", fh, path)
        shape = (d0, d1, d2)[:ndims]
        if arch_id != model.arch_id or shape != tuple(model.input_shape):
            raise ArchMismatch(f"{path}: saved {arch_id}{shape} vs model "
                               f"{model.arch_id}{tuple(model.input_shape)}")
        (nparams,) = _unpack("<I", fh, path)
        if nparams != len(model.params):
            raise ArchMismatch(f"{path}: parameter count mismatch")
        loaded = {}
        for _ in range(nparams):
            name = _read_name(fh, path)
            if name not in model.params:
                raise ArchMismatch(f"{path}: unknown parameter {name!r}")
            if name in loaded:
                raise InvalidValue(f"{path}: duplicate parameter {name!r}")
            (nd,) = _unpack("<B", fh, path)
            pshape = _unpack(f"<{nd}I", fh, path)
            if pshape != model.params[name].shape:
                raise ArchMismatch(f"{path}: shape mismatch for {name!r}")
            raw = _read_exact(fh, 8 * int(np.prod(pshape)), path)
            data = np.frombuffer(raw, dtype="<f8").reshape(pshape)
            loaded[name] = data.astype(np.float64)
        if fh.read(1):
            raise InvalidValue(f"{path}: trailing bytes after the last parameter")
    model.params.update(loaded)
    return model
