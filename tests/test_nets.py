"""Unit tests for network construction, forward passes, fusion and
model persistence."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from noclab import autodiff as ad
from noclab import nets
from noclab.errors import ArchMismatch, InvalidValue, NoclabError, SizeMismatch


def small_arch(arch_id, shape=(3, 8, 8), classes=4, scale=1 / 64):
    return nets.NocArch(arch_id, shape, classes, scale)


def test_arch_width_scaling():
    a = nets.NocArch("C0F3", (3, 8, 8), 4, width_scale=0.5)
    assert a.fc_width == 2048
    assert a.conv_maps == 32
    full = nets.NocArch("C1F3", (3, 8, 8), 4)
    assert full.fc_width == 4096 and full.conv_maps == 64


def test_arch_validation():
    with pytest.raises(InvalidValue):
        nets.NocArch("F9", (3, 8, 8), 4)
    with pytest.raises(InvalidValue):
        nets.NocArch("C0F3", (3, 8, 8), 4, width_scale=0.0)
    with pytest.raises(InvalidValue):
        nets.NocArch("C0F3", (3, 8, 8), 4000, width_scale=1 / 64)


@pytest.mark.parametrize("num_classes,width_scale,match", [
    # num_classes=2.5 raised a bare TypeError in build_noc, 0 built a
    # head with no logits, and width_scale="a" raised a bare TypeError
    (2.5, 0.5, "num_classes"), (0, 0.5, "num_classes"), (1, 0.5, "num_classes"),
    (True, 0.5, "num_classes"), ("4", 0.5, "num_classes"),
    (4, "a", "width_scale"), (4, np.nan, "width_scale"), (4, True, "width_scale"),
    (4, None, "width_scale"),
])
def test_arch_rejects_bad_num_classes_and_width_scale(num_classes, width_scale, match):
    with pytest.raises(InvalidValue, match=match):
        nets.NocArch("C1F3", (3, 8, 8), num_classes, width_scale)


@pytest.mark.parametrize("arch_id", nets.ARCH_IDS)
def test_forward_shapes_and_penultimate(arch_id):
    arch = small_arch(arch_id)
    model = nets.build_noc(arch, seed=0)
    X = np.random.default_rng(0).random((5, 3, 8, 8))
    logits = nets.infer(model, X)
    assert logits.shape == (5, 4)
    pen = nets.infer(model, X, stop=-1)
    assert pen.shape == (5, arch.fc_width)
    assert np.all(pen >= 0)  # post-relu


def test_infer_reads_float64_input_in_place():
    model = nets.build_noc(small_arch("C0F3"), seed=0)
    X = np.random.default_rng(1).random((4, 3, 8, 8))
    # the first layer is the flatten, a reshape: a view of X unless X was copied
    assert np.shares_memory(nets.infer(model, X, stop=1), X)
    # a read-only broadcast view, as fusion's orientation stream passes
    gray = np.broadcast_to(X[:, :1], X.shape)
    assert not gray.flags.writeable
    assert np.array_equal(nets.infer(model, gray), nets.infer(model, gray.copy()))


def test_infer_leaves_the_batch_unchanged():
    # inference runs its relus in place, on the outputs of convs and fcs only
    X = np.random.default_rng(2).normal(size=(4, 3, 16, 16))
    models = [nets.build_noc(small_arch(a, (3, 16, 16)), seed=0) for a in nets.ARCH_IDS]
    for model in models + [nets.build_backbone((3, 16, 16), 8, seed=0)]:
        for stop in (None, -1, 1):
            before = X.copy()
            nets.infer(model, X, stop=stop)
            assert np.array_equal(X, before)


@pytest.mark.parametrize("arch_id", nets.ARCH_IDS)
@pytest.mark.parametrize("stop", [None, -1])
def test_infer_of_no_rows(arch_id, stop):
    arch = nets.NocArch(arch_id, (16, 4, 4), 16, 1 / 32)
    model = nets.build_noc(arch, seed=0)
    width = 16 if stop is None else arch.fc_width
    assert nets.infer(model, np.zeros((0, 16, 4, 4)), stop=stop).shape == (0, width)


@pytest.mark.parametrize("arch_id", nets.ARCH_IDS)
def test_infer_from_a_later_layer_continues_the_pass(arch_id):
    model = nets.build_noc(small_arch(arch_id), seed=1)
    X = np.random.default_rng(3).random((5, 3, 8, 8))
    pen = nets.infer(model, X, stop=-1)
    assert np.array_equal(nets.infer(model, pen, start=-1), nets.infer(model, X))
    # a pass that starts at a relu leaves the caller's rows unchanged
    pre_relu = nets.infer(model, X, stop=-2)
    before = pre_relu.copy()
    assert np.array_equal(nets.infer(model, pre_relu, start=-2), nets.infer(model, X))
    assert np.array_equal(pre_relu, before)


def test_forward_shape_mismatch():
    model = nets.build_noc(small_arch("C0F3"), seed=0)
    with pytest.raises(SizeMismatch):
        nets.infer(model, np.zeros((2, 3, 9, 9)))
    with pytest.raises(SizeMismatch):
        nets.forward(model, ad.Tensor(np.zeros((2, 3, 9, 9))))


def test_build_determinism():
    m1 = nets.build_noc(small_arch("M1"), seed=3)
    m2 = nets.build_noc(small_arch("M1"), seed=3)
    for k in m1.params:
        assert np.array_equal(m1.params[k], m2.params[k])


def test_clone_is_independent():
    m = nets.build_noc(small_arch("C1F3"), seed=0)
    c = m.clone()
    c.params["fc1.w"][0, 0] += 1.0
    assert m.params["fc1.w"][0, 0] != c.params["fc1.w"][0, 0]


def test_backbone_feature_shape():
    bb = nets.build_backbone((3, 32, 32), 16, seed=0)
    out = nets.infer(bb, np.zeros((2, 3, 32, 32)))
    assert out.shape == (2, 16, 4, 4)
    with pytest.raises(SizeMismatch):
        nets.build_backbone((3, 8, 8), 16, seed=0)


# layer descriptors and (parameter name, shape) pairs in order; heads at
# (3, 8, 8) with 4 classes and width scale 1/64 (fc width 64, 1 conv map)
LAYOUTS = {
    "C0F3": (
        [("flatten",), ("fc", "fc0.w", "fc0.b"), ("relu",),
         ("fc", "fc1.w", "fc1.b"), ("relu",), ("fc", "fc2.w", "fc2.b")],
        [("fc0.w", (192, 64)), ("fc0.b", (64,)), ("fc1.w", (64, 64)),
         ("fc1.b", (64,)), ("fc2.w", (64, 4)), ("fc2.b", (4,))]),
    "C1F3": (
        [("conv", "conv0.w", "conv0.b", 1, 1), ("relu",), ("flatten",),
         ("fc", "fc1.w", "fc1.b"), ("relu",), ("fc", "fc2.w", "fc2.b"), ("relu",),
         ("fc", "fc3.w", "fc3.b")],
        [("conv0.w", (1, 3, 3, 3)), ("conv0.b", (1,)), ("fc1.w", (64, 64)),
         ("fc1.b", (64,)), ("fc2.w", (64, 64)), ("fc2.b", (64,)),
         ("fc3.w", (64, 4)), ("fc3.b", (4,))]),
    "M1": (
        [("conv", "conv0.w", "conv0.b", 1, 1), ("relu",), ("maxpool", 2, 2),
         ("conv", "conv1.w", "conv1.b", 1, 1), ("relu",), ("flatten",),
         ("fc", "fc2.w", "fc2.b"), ("relu",), ("fc", "fc3.w", "fc3.b"), ("relu",),
         ("fc", "fc4.w", "fc4.b")],
        [("conv0.w", (1, 3, 3, 3)), ("conv0.b", (1,)), ("conv1.w", (1, 1, 3, 3)),
         ("conv1.b", (1,)), ("fc2.w", (16, 64)), ("fc2.b", (64,)),
         ("fc3.w", (64, 64)), ("fc3.b", (64,)), ("fc4.w", (64, 4)), ("fc4.b", (4,))]),
    # backbone at (3, 32, 32) with 16 feature channels
    "backbone": (
        [("conv", "conv0.w", "conv0.b", 1, 1), ("relu",), ("maxpool", 2, 2),
         ("conv", "conv1.w", "conv1.b", 1, 1), ("relu",), ("maxpool", 2, 2),
         ("conv", "conv2.w", "conv2.b", 1, 1), ("relu",), ("maxpool", 2, 2)],
        [("conv0.w", (4, 3, 3, 3)), ("conv0.b", (4,)), ("conv1.w", (8, 4, 3, 3)),
         ("conv1.b", (8,)), ("conv2.w", (16, 8, 3, 3)), ("conv2.b", (16,))]),
}


@pytest.mark.parametrize("name", sorted(LAYOUTS))
def test_network_layouts(name):
    if name == "backbone":
        model = nets.build_backbone((3, 32, 32), 16, seed=0)
    else:
        model = nets.build_noc(small_arch(name), seed=0)
    layers, params = LAYOUTS[name]
    assert model.layers == layers
    assert [(k, v.shape) for k, v in model.params.items()] == params


def test_m1_too_small_to_pool():
    # the first conv keeps a 1x1 input at 1x1; the 2x2 pool does not fit it
    with pytest.raises(SizeMismatch):
        nets.build_noc(small_arch("M1", shape=(3, 1, 1)), seed=0)
    nets.build_noc(small_arch("C1F3", shape=(3, 1, 1)), seed=0)


@pytest.mark.parametrize("shape,window,stride", [
    ((2, 3, 7, 9), 2, 2),  # odd sizes drop the last row and column
    ((2, 2, 8, 8), 3, 2),  # overlapping windows
    ((1, 2, 9, 7), 2, 3),  # windows with gaps between them
    ((3, 4, 16, 16), 2, 2),
])
def test_inference_maxpool_matches_argmax_pool(shape, window, stride):
    rng = np.random.default_rng(sum(shape) + window + stride)
    # few distinct values, so most windows hold ties; relu-like, no -0.0
    ties = rng.integers(0, 3, size=shape).astype(float)
    relu = np.maximum(rng.normal(size=shape), 0.0)
    # a channels-last layout
    strided = relu.transpose(0, 2, 3, 1).copy().transpose(0, 3, 1, 2)
    for x in (ties, relu, strided):
        out = nets._layer_forward(("maxpool", window, stride), {}, x, None)
        assert np.array_equal(out, ad._maxpool2d_fwd(x, window, stride)[0])
        assert out.flags["C_CONTIGUOUS"]


@pytest.mark.parametrize("arch_id", ["C1F3", "M1"])
def test_prepared_first_conv_equals_unprepared(arch_id):
    model = nets.build_noc(small_arch(arch_id, classes=4, scale=1 / 16), seed=2)
    rng = np.random.default_rng(5)
    X = rng.normal(size=(6, 3, 8, 8))
    batch = nets.prepare_batch(model, X, rng.integers(0, 4, size=6))
    taped, prepared_tape = [], []
    out = nets._chain_forward(model, model.params, X, taped)
    prepared = nets._chain_forward(model, model.params, batch.head_input, prepared_tape)
    assert np.array_equal(prepared, out)
    g = rng.normal(size=out.shape)
    grads, _ = nets._chain_backward(model, model.params, taped, g)
    prepared_grads, _ = nets._chain_backward(model, model.params, prepared_tape, g)
    assert grads.keys() == prepared_grads.keys() == model.params.keys()
    for name in grads:
        assert np.array_equal(prepared_grads[name], grads[name]), name


def test_fuse_sum():
    a = np.ones((2, 4))
    b = np.full((2, 4), 2.0)
    assert np.array_equal(nets.fuse_sum(a, b, 1.0), np.full((2, 4), 3.0))
    assert np.array_equal(nets.fuse_sum(a, b, 0.25), np.full((2, 4), 1.5))
    assert np.array_equal(nets.fuse_sum(a, b, 0.0), a)
    with pytest.raises(SizeMismatch):
        nets.fuse_sum(a, np.ones((2, 5)), 0.3)
    with pytest.raises(InvalidValue, match="non-finite"):
        nets.fuse_sum(a, b, 1e308)


def test_save_load_roundtrip(tmp_path):
    m = nets.build_noc(small_arch("M1"), seed=5)
    path = tmp_path / "m.noc"
    nets.save_model(m, path)
    fresh = nets.build_noc(small_arch("M1"), seed=99)
    nets.load_params(path, fresh)
    for k in m.params:
        assert np.array_equal(m.params[k], fresh.params[k])


def test_load_arch_mismatch(tmp_path):
    m = nets.build_noc(small_arch("C0F3"), seed=0)
    path = tmp_path / "m.noc"
    nets.save_model(m, path)
    other = nets.build_noc(small_arch("C1F3"), seed=0)
    with pytest.raises(ArchMismatch):
        nets.load_params(path, other)


def test_load_bad_magic(tmp_path):
    path = tmp_path / "junk.noc"
    path.write_bytes(b"XXXX rest")
    m = nets.build_noc(small_arch("C0F3"), seed=0)
    with pytest.raises(InvalidValue):
        nets.load_params(path, m)


def tiny_head(seed):
    """C0F3 with 4-wide hidden layers: a .noc file of about 400 bytes."""
    return nets.build_noc(nets.NocArch("C0F3", (1, 1, 1), 2, 1 / 1024), seed=seed)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(0, 2 ** 32 - 1), st.floats(allow_nan=False, allow_infinity=False))
def test_save_load_roundtrip_property(tmp_path, seed, value):
    m = tiny_head(seed)
    m.params["fc0.b"][0] = value
    path = tmp_path / "m.noc"
    nets.save_model(m, path)
    back = nets.load_params(path, tiny_head(seed + 1))
    for k in m.params:
        assert np.array_equal(m.params[k], back.params[k])


@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(0, 2 ** 32 - 1))
def test_load_truncated_raises_typed_error(tmp_path, seed):
    full, cut = tmp_path / "full.noc", tmp_path / "cut.noc"
    nets.save_model(tiny_head(seed), full)
    data = full.read_bytes()
    for offset in range(len(data)):
        cut.write_bytes(data[:offset])
        with pytest.raises(NoclabError):
            nets.load_params(cut, tiny_head(0))


@pytest.mark.parametrize("tail", [b"\x00", bytes(70), b"NOC1 garbage"],
                         ids=["one_byte", "70_zero_bytes", "text"])
def test_load_trailing_bytes_raises_typed_error(tmp_path, tail):
    path = tmp_path / "m.noc"
    nets.save_model(tiny_head(1), path)
    path.write_bytes(path.read_bytes() + tail)
    with pytest.raises(InvalidValue, match="trailing bytes"):
        nets.load_params(path, tiny_head(0))


def test_failed_load_leaves_model_untouched(tmp_path):
    path = tmp_path / "m.noc"
    nets.save_model(tiny_head(1), path)
    data = path.read_bytes()
    bad = {
        "trailing": data + bytes(8),
        "truncated": data[:-4],  # inside the last parameter
        # fc1.b renamed to fc0.b: same shape, so only the duplicate is wrong
        "duplicate": data.replace(b"fc1.b", b"fc0.b"),
    }
    for kind, raw in bad.items():
        path.write_bytes(raw)
        model = tiny_head(0)
        before = dict(model.params)
        snapshot = {k: v.copy() for k, v in model.params.items()}
        with pytest.raises(InvalidValue):
            nets.load_params(path, model)
        assert model.params.keys() == before.keys(), kind
        for k in before:
            assert model.params[k] is before[k], (kind, k)
            assert np.array_equal(model.params[k], snapshot[k]), (kind, k)
