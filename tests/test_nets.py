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


@pytest.mark.parametrize("arch_id", nets.ARCH_IDS)
def test_forward_shapes_and_penultimate(arch_id):
    arch = small_arch(arch_id)
    model = nets.build_noc(arch, seed=0)
    batch = ad.Tensor(np.random.default_rng(0).random((5, 3, 8, 8)))
    logits = nets.forward(model, batch)
    assert logits.shape == (5, 4)
    pen = nets.penultimate_features(model, batch)
    assert pen.shape == (5, arch.fc_width)
    assert np.all(pen.data >= 0)  # post-relu


def test_forward_shape_mismatch():
    model = nets.build_noc(small_arch("C0F3"), seed=0)
    with pytest.raises(SizeMismatch):
        nets.forward(model, ad.Tensor(np.zeros((2, 3, 9, 9))))


def test_build_determinism():
    m1 = nets.build_noc(small_arch("M1"), seed=3)
    m2 = nets.build_noc(small_arch("M1"), seed=3)
    for k in m1.params:
        assert np.array_equal(m1.params[k].data, m2.params[k].data)


def test_clone_is_independent():
    m = nets.build_noc(small_arch("C1F3"), seed=0)
    c = m.clone()
    c.params["fc1.w"].data[0, 0] += 1.0
    assert m.params["fc1.w"].data[0, 0] != c.params["fc1.w"].data[0, 0]


def test_backbone_feature_shape():
    bb = nets.build_backbone((3, 32, 32), 16, seed=0)
    assert bb.meta["feature_shape"] == (16, 4, 4)
    out = nets.forward(bb.frozen(), ad.Tensor(np.zeros((2, 3, 32, 32))))
    assert out.shape == (2, 16, 4, 4)
    with pytest.raises(SizeMismatch):
        nets.build_backbone((3, 8, 8), 16, seed=0)


def test_fuse_sum():
    a = ad.Tensor(np.ones((2, 4)))
    b = ad.Tensor(np.full((2, 4), 2.0))
    assert np.allclose(nets.fuse_sum(a, b).data, 3.0)
    with pytest.raises(SizeMismatch):
        nets.fuse_sum(a, ad.Tensor(np.ones((2, 5))))


def test_two_stream_forward_shape():
    bb_i = nets.build_backbone((3, 16, 16), 8, seed=1)
    bb_o = nets.build_backbone((3, 16, 16), 8, seed=2)
    head = nets.build_noc(nets.NocArch("C0F3", (8, 2, 2), 4, 1 / 64), seed=0)
    rgb = ad.Tensor(np.random.default_rng(0).random((3, 3, 16, 16)))
    orient = ad.Tensor(np.random.default_rng(1).random((3, 3, 16, 16)))
    logits = nets.two_stream_forward(bb_i, bb_o, head, rgb, orient)
    assert logits.shape == (3, 4)


def test_save_load_roundtrip(tmp_path):
    m = nets.build_noc(small_arch("M1"), seed=5)
    path = tmp_path / "m.noc"
    nets.save_model(m, path)
    fresh = nets.build_noc(small_arch("M1"), seed=99)
    nets.load_params(path, fresh)
    for k in m.params:
        assert np.array_equal(m.params[k].data, fresh.params[k].data)


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
    m.params["fc0.b"].data[0] = value
    path = tmp_path / "m.noc"
    nets.save_model(m, path)
    back = nets.load_params(path, tiny_head(seed + 1))
    for k in m.params:
        assert np.array_equal(m.params[k].data, back.params[k].data)


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
