"""Classifier-head architectures, a small conv backbone, and sum fusion.

Three head layouts are supported, identified as C0F3 (fc-only), C1F3
(one conv then the fc stack) and M1 (conv, maxpool, conv, fc stack).
The historical 4096-wide hidden layers are scaled down by
`width_scale`; the class count stays at its full value.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ArchMismatch, InvalidValue, SizeMismatch

ARCH_IDS = ("C0F3", "C1F3", "M1")

FULL_FC_WIDTH = 4096
FULL_CONV_MAPS = 64

MAGIC = b"NOC1"


@dataclass(frozen=True)
class NocArch:
    arch_id: str
    input_shape: tuple  # (channels, h, w)
    num_classes: int
    width_scale: float = 1.0

    def __post_init__(self):
        if self.arch_id not in ARCH_IDS:
            raise InvalidValue(f"unknown arch_id {self.arch_id!r}")
        if not (0 < self.width_scale <= 1):
            raise InvalidValue("width_scale must be in (0, 1]")
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
    """Realized network: ordered layer descriptors plus named parameters.

    Layer descriptors are tuples:
      ("conv", weight_name, bias_name, stride, pad)
      ("maxpool", window, stride)
      ("fc", weight_name, bias_name)
      ("relu",), ("flatten",)
    """

    arch_id: str
    input_shape: tuple
    layers: list
    params: dict  # name -> ad.Tensor (requires_grad)
    penultimate_index: int = -1
    meta: dict = field(default_factory=dict)

    def clone(self):
        params = {
            k: ad.Tensor(v.data.copy(), requires_grad=True) for k, v in self.params.items()
        }
        return Model(self.arch_id, self.input_shape, list(self.layers), params,
                     self.penultimate_index, dict(self.meta))

    def frozen(self):
        """Copy whose parameters record no gradients (cheap inference)."""
        params = {k: ad.Tensor(v.data) for k, v in self.params.items()}
        return Model(self.arch_id, self.input_shape, list(self.layers), params,
                     self.penultimate_index, dict(self.meta))

    def param_items(self):
        return list(self.params.items())


def _he_init(rng, shape, fan_in):
    return ad.Tensor(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape),
                     requires_grad=True)


def _conv_out_hw(h, w, k, stride, pad):
    return (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1


def build_noc(arch: NocArch, seed: int) -> Model:
    """Construct a head network with He-style seeded initialization."""
    rng = np.random.default_rng(seed)
    c, h, w = arch.input_shape
    layers = []
    params = {}
    idx = 0

    def add_conv(c_in, c_out, hh, ww, ksize=3, stride=1, pad=1):
        nonlocal idx
        wn, bn = f"conv{idx}.w", f"conv{idx}.b"
        if hh + 2 * pad < ksize or ww + 2 * pad < ksize:
            raise SizeMismatch(f"input {hh}x{ww} too small for conv")
        params[wn] = _he_init(rng, (c_out, c_in, ksize, ksize), c_in * ksize * ksize)
        params[bn] = ad.Tensor(np.zeros(c_out), requires_grad=True)
        layers.append(("conv", wn, bn, stride, pad))
        idx += 1
        return c_out, *_conv_out_hw(hh, ww, ksize, stride, pad)

    def add_fc(n_in, n_out):
        nonlocal idx
        wn, bn = f"fc{idx}.w", f"fc{idx}.b"
        params[wn] = _he_init(rng, (n_in, n_out), n_in)
        params[bn] = ad.Tensor(np.zeros(n_out), requires_grad=True)
        layers.append(("fc", wn, bn))
        idx += 1
        return n_out

    fcw = arch.fc_width
    if arch.arch_id == "C0F3":
        layers.append(("flatten",))
        n = add_fc(c * h * w, fcw)
        layers.append(("relu",))
        n = add_fc(n, fcw)
        layers.append(("relu",))
        add_fc(n, arch.num_classes)
    elif arch.arch_id == "C1F3":
        c2, h2, w2 = add_conv(c, arch.conv_maps, h, w)
        layers.append(("relu",))
        layers.append(("flatten",))
        n = add_fc(c2 * h2 * w2, fcw)
        layers.append(("relu",))
        n = add_fc(n, fcw)
        layers.append(("relu",))
        add_fc(n, arch.num_classes)
    else:  # M1
        c2, h2, w2 = add_conv(c, arch.conv_maps, h, w)
        layers.append(("relu",))
        if h2 < 2 or w2 < 2:
            raise SizeMismatch("input too small for M1 pooling")
        layers.append(("maxpool", 2, 2))
        h2, w2 = (h2 - 2) // 2 + 1, (w2 - 2) // 2 + 1
        c2, h2, w2 = add_conv(c2, arch.conv_maps, h2, w2)
        layers.append(("relu",))
        layers.append(("flatten",))
        n = add_fc(c2 * h2 * w2, fcw)
        layers.append(("relu",))
        n = add_fc(n, fcw)
        layers.append(("relu",))
        add_fc(n, arch.num_classes)

    # every layout ends (relu, fc): the penultimate feature is that relu's output
    model = Model(arch.arch_id, tuple(arch.input_shape), layers, params, len(layers) - 2)
    model.meta["num_classes"] = arch.num_classes
    model.meta["width_scale"] = arch.width_scale
    return model


def build_backbone(input_shape, feature_channels: int, seed: int) -> Model:
    """Small 3-block conv feature extractor with total downsampling 8."""
    c, h, w = input_shape
    if h < 16 or w < 16:
        raise SizeMismatch("backbone needs input at least 16x16")
    rng = np.random.default_rng(seed)
    layers = []
    params = {}
    chans = [max(4, feature_channels // 4), max(8, feature_channels // 2), feature_channels]
    c_in, hh, ww = c, h, w
    for i, c_out in enumerate(chans):
        wn, bn = f"conv{i}.w", f"conv{i}.b"
        params[wn] = _he_init(rng, (c_out, c_in, 3, 3), c_in * 9)
        params[bn] = ad.Tensor(np.zeros(c_out), requires_grad=True)
        layers.append(("conv", wn, bn, 1, 1))
        layers.append(("relu",))
        layers.append(("maxpool", 2, 2))
        c_in = c_out
        hh, ww = hh // 2, ww // 2
    model = Model("backbone", tuple(input_shape), layers, params, len(layers) - 1)
    model.meta["feature_shape"] = (feature_channels, hh, ww)
    return model


def _apply_layer(layer, x, params):
    kind = layer[0]
    if kind == "conv":
        _, wn, bn, stride, pad = layer
        return ad.conv2d(x, params[wn], params[bn], stride, pad)
    if kind == "maxpool":
        return ad.maxpool2d(x, layer[1], layer[2])
    if kind == "fc":
        _, wn, bn = layer
        return ad.add(ad.matmul(x, params[wn]), params[bn])
    if kind == "relu":
        return ad.relu(x)
    if kind == "flatten":
        b = x.shape[0]
        return ad.reshape(x, (b, x.size // b))
    raise InvalidValue(f"unknown layer kind {kind!r}")


def forward(model: Model, batch: ad.Tensor, cache=None):
    """Run a batch (leading batch dim) through the model; returns logits.

    When `cache` is a list it receives every intermediate activation.
    """
    if tuple(batch.shape[1:]) != tuple(model.input_shape):
        raise SizeMismatch(
            f"batch shape {batch.shape[1:]} vs model input {model.input_shape}")
    x = batch
    for layer in model.layers:
        x = _apply_layer(layer, x, model.params)
        if cache is not None:
            cache.append(x)
    return x


def penultimate_features(model: Model, batch: ad.Tensor) -> ad.Tensor:
    """Activations of the last hidden fc layer (post-relu), one row per sample."""
    cache = []
    forward(model, batch, cache=cache)
    return cache[model.penultimate_index]


def fuse_sum(f_rgb: ad.Tensor, f_orient: ad.Tensor) -> ad.Tensor:
    """Elementwise sum of two equally shaped feature maps."""
    if f_rgb.shape != f_orient.shape:
        raise SizeMismatch(f"fusion shapes {f_rgb.shape} vs {f_orient.shape}")
    return ad.add(f_rgb, f_orient)


def two_stream_forward(backbone_i: Model, backbone_o: Model, head: Model,
                       rgb: ad.Tensor, orient: ad.Tensor) -> ad.Tensor:
    """Head applied to the summed feature maps of the two streams."""
    fi = forward(backbone_i, rgb)
    fo = forward(backbone_o, orient)
    return forward(head, fuse_sum(fi, fo))


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
        for name, t in model.params.items():
            nb = name.encode()
            fh.write(struct.pack("<B", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<B", t.data.ndim))
            fh.write(struct.pack(f"<{t.data.ndim}I", *t.data.shape))
            fh.write(t.data.astype("<f8").tobytes())


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
            if pshape != model.params[name].data.shape:
                raise ArchMismatch(f"{path}: shape mismatch for {name!r}")
            raw = _read_exact(fh, 8 * int(np.prod(pshape)), path)
            data = np.frombuffer(raw, dtype="<f8").reshape(pshape)
            loaded[name] = ad.Tensor(data.copy(), requires_grad=True)
        if fh.read(1):
            raise InvalidValue(f"{path}: trailing bytes after the last parameter")
    model.params.update(loaded)
    return model
