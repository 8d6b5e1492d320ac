"""Unit tests for the reverse-mode autodiff core."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noclab import autodiff as ad
from noclab.errors import InvalidValue, NoTrace, SizeMismatch

RNG = np.random.default_rng(7)


def rand(shape):
    return ad.Tensor(RNG.normal(size=shape), requires_grad=True)


# ---------------------------------------------------------------------------
# construction


def test_tensor_create_shapes_and_values():
    t = ad.tensor_create((2, 3), [1, 2, 3, 4, 5, 6])
    assert t.shape == (2, 3)
    assert t.data[1, 2] == 6.0


def test_tensor_create_rejects_bad_shape():
    with pytest.raises(InvalidValue):
        ad.tensor_create((0, 3), [])
    with pytest.raises(SizeMismatch):
        ad.tensor_create((2, 2), [1, 2, 3])
    with pytest.raises(InvalidValue):
        ad.tensor_create((2,), [1, np.nan])


@pytest.mark.parametrize("shape", [(2.7, 2), (True, 4), (2, "2")])
def test_shape_entries_must_be_integers(shape):
    # (2.7, 2) built a (2, 2) tensor and (True, 4) a (1, 4) one
    with pytest.raises(InvalidValue, match="shape entries must be integers >= 1"):
        ad.tensor_create(shape, np.arange(4.0))
    with pytest.raises(InvalidValue, match="shape entries must be integers >= 1"):
        ad.reshape(rand((4,)), shape)


def test_tensor_repr_names_shape_and_grad_flag():
    assert repr(rand((2, 3))) == "Tensor(shape=(2, 3), requires_grad=True)"


# ---------------------------------------------------------------------------
# forward values against independent references


def test_matmul_matches_numpy():
    a, b = rand((3, 4)), rand((4, 5))
    assert np.allclose(ad.matmul(a, b).data, a.data @ b.data)


def test_matmul_shape_error():
    with pytest.raises(SizeMismatch):
        ad.matmul(rand((2, 3)), rand((2, 3)))


def test_conv2d_matches_scipy_correlate():
    from scipy import signal

    x = rand((1, 2, 6, 6))
    k = rand((3, 2, 3, 3))
    b = ad.Tensor(np.zeros(3), requires_grad=True)
    out = ad.conv2d(x, k, b, stride=1, pad=1).data
    for co in range(3):
        ref = np.zeros((6, 6))
        for ci in range(2):
            ref += signal.correlate2d(x.data[0, ci], k.data[co, ci], mode="same")
        assert np.allclose(out[0, co], ref)


def test_conv2d_stride_and_pad_shape():
    x = rand((2, 3, 8, 8))
    k = rand((4, 3, 3, 3))
    b = ad.Tensor(np.zeros(4))
    assert ad.conv2d(x, k, b, stride=2, pad=1).shape == (2, 4, 4, 4)
    assert ad.conv2d(x, k, b, stride=1, pad=0).shape == (2, 4, 6, 6)


def test_maxpool_first_occurrence_ties():
    x = ad.Tensor(np.zeros((1, 1, 2, 2)), requires_grad=True)
    out = ad.maxpool2d(x, 2, 2)
    ad.backward(ad.tensor_sum(out))
    # all four entries tie; gradient must route to the first (flat argmax)
    assert x.grad[0, 0, 0, 0] == 1.0
    assert x.grad.sum() == 1.0


@pytest.mark.parametrize("value", [0, 1.5, True, -1])
def test_window_arguments_must_be_counts(value):
    # 0 divided by zero, 1.5 and True ran as 1, and pad -2 failed in numpy
    x = rand((1, 2, 6, 6))
    k, b = rand((3, 2, 3, 3)), rand((3,))
    with pytest.raises(InvalidValue, match="stride must be an integer >= 1"):
        ad.conv2d(x, k, b, stride=value, pad=1)
    with pytest.raises(InvalidValue, match="stride must be an integer >= 1"):
        ad.maxpool2d(x, 2, value)
    with pytest.raises(InvalidValue, match="window must be an integer >= 1"):
        ad.maxpool2d(x, value, 2)
    if value != 0:
        with pytest.raises(InvalidValue, match="pad must be an integer >= 0"):
            ad.conv2d(x, k, b, stride=1, pad=value)


def test_window_larger_than_its_padded_input():
    x = rand((1, 2, 2, 3))
    with pytest.raises(SizeMismatch, match="^3x3 window larger than its padded input 2x3$"):
        ad.conv2d(x, rand((1, 2, 3, 3)), rand((1,)), stride=1, pad=0)
    assert ad.conv2d(x, rand((1, 2, 3, 3)), rand((1,)), stride=1, pad=1).shape == (1, 1, 2, 3)
    with pytest.raises(SizeMismatch, match="^3x3 window larger than its padded input 2x3$"):
        ad.maxpool2d(x, 3, 1)
    assert ad._window(2, 3, 2, 2, 1) == (1, 2)


@pytest.mark.parametrize("op,error", [
    # a (c, h, w) input was run as a batch of one
    (lambda: ad.conv2d(rand((2, 5, 5)), rand((1, 2, 3, 3)), rand((1,))), SizeMismatch),
    (lambda: ad.maxpool2d(rand((1, 4, 4)), 2, 2), SizeMismatch),
    # a (c,) vector was added over the channels of (b, c, h, w)
    (lambda: ad.add(rand((2, 3, 4, 4)), rand((3,))), SizeMismatch),
    (lambda: ad.add(rand((2, 3)), rand((3, 2))), SizeMismatch),
    (lambda: ad.add(rand((2, 3)), rand((2,))), SizeMismatch),
    (lambda: ad.sub(rand((2, 3)), rand((3, 2))), SizeMismatch),
    (lambda: ad.mul(rand((2, 3)), rand((3,))), SizeMismatch),
    (lambda: ad.div(rand((2, 3)), rand((2, 3, 1))), SizeMismatch),
    (lambda: ad.conv2d(rand((1, 2, 5, 5)), rand((1, 3, 3, 3)), rand((1,))), SizeMismatch),
    (lambda: ad.conv2d(rand((1, 2, 5, 5)), rand((1, 2, 3, 3)), rand((2,))), SizeMismatch),
    (lambda: ad.reshape(rand((2, 3)), (4,)), SizeMismatch),
    (lambda: ad.softmax_cross_entropy(rand((2, 3, 1)), [0, 1]), SizeMismatch),
    (lambda: ad.sqrt(ad.Tensor([1.0, -1e-300])), InvalidValue),
], ids=["conv2d_unbatched", "maxpool2d_unbatched", "add_channel_vector", "add", "add_row_vector",
        "sub", "mul", "div", "conv2d_channels", "conv2d_bias", "reshape_size", "logits_3d",
        "sqrt_negative"])
def test_ops_reject_operands_they_cannot_take(op, error):
    with pytest.raises(error):
        op()


def test_softmax_cross_entropy_uniform_logits():
    logits = ad.Tensor(np.zeros((5, 4)), requires_grad=True)
    loss = ad.softmax_cross_entropy(logits, np.zeros(5, dtype=int))
    assert np.isclose(loss.item(), np.log(4.0))


def test_relu_and_elementwise_values():
    x = ad.Tensor(np.array([-1.0, 0.0, 2.0]), requires_grad=True)
    assert np.allclose(ad.relu(x).data, [0, 0, 2])
    y = ad.Tensor(np.array([2.0, 4.0, 8.0]))
    assert np.allclose(ad.div(y, ad.Tensor(np.array([1.0, 2.0, 4.0]))).data, 2.0)
    assert np.allclose(ad.sqrt(y).data, np.sqrt(y.data))
    assert np.allclose(ad.scale(y, -0.5).data, -0.5 * y.data)


@pytest.mark.parametrize("alpha", ["a", True, np.nan, np.inf, None])
def test_scale_factor_must_be_a_finite_number(alpha):
    # "a" raised a bare ValueError, True scaled by 1.0 and NaN gave NaN values
    with pytest.raises(InvalidValue, match="scale factor must be a finite number"):
        ad.scale(rand((2,)), alpha)


def test_relu_passes_nan_through():
    out, mask = ad._relu_fwd(np.array([np.nan, -1.0, 0.0, 3.0]))
    assert np.isnan(out[0]) and np.array_equal(out[1:], [0.0, 0.0, 3.0])
    assert mask.tolist() == [False, False, False, True]


# ---------------------------------------------------------------------------
# gradient checks per op


def check(f, shape, tol=1e-6):
    x = ad.Tensor(RNG.normal(size=shape))
    assert ad.grad_check(f, x) < tol


@pytest.mark.parametrize("eps", ["a", None, np.nan, 0.0, -1e-5, 0.1])
def test_grad_check_eps_must_be_a_number_in_range(eps):
    # "a" raised a bare TypeError
    with pytest.raises(InvalidValue, match=r"eps out of \(0, 1e-2\]"):
        ad.grad_check(ad.tensor_sum, rand((2,)), eps=eps)


def test_grad_matmul():
    w = ad.Tensor(RNG.normal(size=(4, 3)))
    check(lambda t: ad.tensor_sum(ad.matmul(t, w)), (2, 4))


def test_grad_conv2d_input_and_kernel():
    k = ad.Tensor(RNG.normal(size=(2, 3, 3, 3)), requires_grad=True)
    b = ad.Tensor(RNG.normal(size=2), requires_grad=True)
    check(lambda t: ad.tensor_sum(ad.conv2d(t, k, b, stride=2, pad=1)), (1, 3, 5, 5))
    x = ad.Tensor(RNG.normal(size=(1, 3, 5, 5)))
    check(lambda t: ad.tensor_sum(ad.conv2d(x, t, b, stride=1, pad=0)), (2, 3, 3, 3))
    check(lambda t: ad.tensor_sum(ad.conv2d(x, k, t, stride=1, pad=1)), (2,))


def test_grad_maxpool():
    # distinct values avoid finite-difference kinks at ties
    x = ad.Tensor(RNG.permutation(36).astype(float).reshape(1, 1, 6, 6) * 0.1)
    assert ad.grad_check(lambda t: ad.tensor_sum(ad.maxpool2d(t, 2, 2)), x) < 1e-6


def test_maxpool_backward_matches_central_differences():
    """`_maxpool2d_bwd` at M1's pool in the default grid: 2 maps of 4x4,
    window 2, stride 2, under a weighted sum of the pooled maps."""
    rng = np.random.default_rng(8)
    # distinct values 0.1 apart, so no finite difference crosses a tie
    x = rng.permutation(3 * 2 * 4 * 4).reshape(3, 2, 4, 4) * 0.1
    weight = rng.normal(size=(3, 2, 2, 2))
    _, arg = ad._maxpool2d_fwd(x, 2, 2)
    assert np.any(ad._maxpool2d_bwd(weight, x, arg, 2, 2))
    loss = lambda t: ad.tensor_sum(ad.mul(ad.maxpool2d(t, 2, 2), ad.Tensor(weight)))
    assert ad.grad_check(loss, ad.Tensor(x)) < 1e-4


def test_grad_elementwise_chain():
    check(lambda t: ad.tensor_sum(ad.mul(ad.relu(t), t)), (3, 4))
    check(lambda t: ad.tensor_sum(ad.sub(ad.scale(t, 2.0), t)), (5,))


def test_grad_sqrt_div():
    x = ad.Tensor(RNG.uniform(0.5, 2.0, size=(3, 3)))
    assert ad.grad_check(lambda t: ad.tensor_sum(ad.sqrt(t)), x) < 1e-6
    d = ad.Tensor(RNG.uniform(1.0, 2.0, size=(3, 3)))
    assert ad.grad_check(lambda t: ad.tensor_sum(ad.div(t, d)), x) < 1e-6


def test_grad_bias_broadcast_add():
    x = ad.Tensor(RNG.normal(size=(4, 3)))
    b = ad.Tensor(RNG.normal(size=3), requires_grad=True)
    check(lambda t: ad.tensor_sum(ad.add(t, b)), (4, 3))
    loss = ad.tensor_sum(ad.add(ad.Tensor(x.data), b))
    ad.backward(loss)
    assert np.allclose(b.grad, 4.0)


@pytest.mark.parametrize("labels", [[1.7, 1.2], [1.0, 0.0], [True, False], ["1", "0"]])
def test_softmax_cross_entropy_rejects_labels_that_are_no_integers(labels):
    # [1.7, 1.2] returned the loss of labels [1, 1]
    with pytest.raises(InvalidValue, match="labels must be integers"):
        ad.softmax_cross_entropy(rand((2, 3)), labels)


def test_grad_softmax_cross_entropy():
    labels = np.array([0, 2, 1])
    check(lambda t: ad.softmax_cross_entropy(t, labels), (3, 4), tol=1e-6)


def test_grad_reshape():
    check(lambda t: ad.tensor_sum(ad.mul(ad.reshape(t, (6,)), ad.reshape(t, (6,)))),
          (2, 3))


# ---------------------------------------------------------------------------
# backward mechanics


def test_backward_non_scalar_rejected():
    x = rand((2, 2))
    with pytest.raises(InvalidValue):
        ad.backward(ad.relu(x))


def test_backward_detached_rejected():
    x = ad.Tensor(np.ones((2, 2)))
    with pytest.raises(NoTrace):
        ad.backward(ad.tensor_sum(x))


def test_backward_accumulates_shared_subexpression():
    x = ad.Tensor(np.array([3.0]), requires_grad=True)
    y = ad.mul(x, x)  # d/dx x^2 = 2x
    ad.backward(ad.tensor_sum(y))
    assert np.allclose(x.grad, 6.0)


def test_backward_returns_leaf_dict():
    a, b = rand((2,)), rand((2,))
    leaf = ad.backward(ad.tensor_sum(ad.add(a, b)))
    assert set(leaf) == {a, b}
    assert np.allclose(leaf[a], 1.0)


# ---------------------------------------------------------------------------
# conv kernels against a loop convolution

# (batch, c_in, h, w, c_out, kh, kw): non-square kernels, odd and tiny inputs
CONV_SHAPES = [
    (2, 3, 7, 5, 4, 2, 3),
    (1, 2, 5, 6, 3, 3, 1),
    (3, 1, 4, 4, 2, 1, 2),
    (2, 2, 1, 1, 2, 3, 3),
    (1, 1, 3, 2, 1, 2, 2),
    (2, 4, 9, 7, 3, 3, 2),
]


def _conv_cases():
    for stride in (1, 2, 3):
        for pad in (0, 1, 2):
            for shape in CONV_SHAPES:
                b, c_in, h, w, c_out, kh, kw = shape
                if h + 2 * pad >= kh and w + 2 * pad >= kw:
                    yield shape, stride, pad


def loop_conv(x, k, bias, stride, pad, g):
    """Output of a cross-correlation, one dot product per output pixel,
    and the kernel, bias and input gradients of sum(out * g)."""
    b, _, h, w = x.shape
    c_out, _, kh, kw = k.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.empty((b, c_out, oh, ow))
    dk, dxp = np.zeros_like(k), np.zeros_like(xp)
    for n in range(b):
        for o in range(c_out):
            for i in range(oh):
                for j in range(ow):
                    rows = slice(i * stride, i * stride + kh)
                    cols = slice(j * stride, j * stride + kw)
                    out[n, o, i, j] = (xp[n, :, rows, cols] * k[o]).sum() + bias[o]
                    dk[o] += g[n, o, i, j] * xp[n, :, rows, cols]
                    dxp[n, :, rows, cols] += g[n, o, i, j] * k[o]
    return out, dk, g.sum(axis=(0, 2, 3)), dxp[:, :, pad:pad + h, pad:pad + w]


def test_conv_kernels_match_loop_convolution():
    rng = np.random.default_rng(3)
    cases = 0
    for (b, c_in, h, w, c_out, kh, kw), stride, pad in _conv_cases():
        x = rng.normal(size=(b, c_in, h, w))
        k = rng.normal(size=(c_out, c_in, kh, kw))
        bias = rng.normal(size=c_out)
        xp, cols, oh, ow = ad._im2col(x, kh, kw, stride, pad)
        assert cols.shape == (b, c_in * kh * kw, oh * ow)
        out = ad._conv2d_fwd(cols, k, bias, oh, ow)
        g = rng.normal(size=out.shape)
        want = loop_conv(x, k, bias, stride, pad, g)
        got = (out, *ad._conv2d_bwd(g, cols, k, oh, ow, xp, stride, pad))
        for name, a, e in zip(("out", "dk", "db", "dx"), got, want):
            assert a.shape == e.shape, name
            assert np.allclose(a, e, rtol=1e-12, atol=1e-12), name
        dk, db, dx = ad._conv2d_bwd(g, cols, k, oh, ow)
        assert dx is None and np.array_equal(dk, got[1]) and np.array_equal(db, got[2])
        cases += 1
    assert cases >= 45


def _im2col_cases():
    """(x shape, kh, kw, stride, pad): output rows just below and at the
    gather's bound, stride 2, pads 0 and 2, one channel, no rows, one
    row, and non-square planes."""
    edge = ad._GATHER_BELOW_OW
    return [((4, 3, edge - 1, edge - 1), 3, 3, 1, 1),
            ((4, 3, edge, edge), 3, 3, 1, 1),
            ((4, 3, edge + 1, edge + 1), 3, 3, 1, 1),
            ((5, 16, 4, 4), 3, 3, 1, 1),
            ((3, 4, 9, 9), 3, 3, 2, 1),
            ((3, 4, 6, 6), 3, 3, 1, 0),
            ((3, 4, 6, 6), 3, 3, 1, 2),
            ((3, 1, 5, 5), 3, 3, 1, 1),
            ((0, 16, 4, 4), 3, 3, 1, 1),
            ((1, 16, 4, 4), 3, 3, 1, 1),
            ((2, 3, 5, 7), 3, 2, 1, 1),
            ((2, 3, 7, 4), 2, 3, 2, 0)]


@pytest.mark.parametrize("shape,kh,kw,stride,pad", _im2col_cases())
def test_im2col_gather_equals_slices(shape, kh, kw, stride, pad, monkeypatch):
    x = np.random.default_rng(len(shape) + sum(shape)).normal(size=shape)
    monkeypatch.setattr(ad, "_GATHER_BELOW_OW", 0)  # every row by slices
    xp, cols, oh, ow = ad._im2col(x, kh, kw, stride, pad)
    monkeypatch.setattr(ad, "_GATHER_BELOW_OW", 1 << 30)  # every row by gather
    g_xp, g_cols, g_oh, g_ow = ad._im2col(x, kh, kw, stride, pad)
    assert (g_oh, g_ow) == (oh, ow)
    assert np.array_equal(g_xp, xp)
    assert g_cols.shape == cols.shape == (shape[0], shape[1] * kh * kw, oh * ow)
    assert np.array_equal(g_cols, cols)
    assert g_cols.flags.c_contiguous


def test_im2col_path_follows_the_output_row_length(monkeypatch):
    edge = ad._GATHER_BELOW_OW
    gathered = []
    index = ad._gather_index

    def spy(*geometry):
        gathered.append(geometry[-1])  # ow
        return index(*geometry)

    monkeypatch.setattr(ad, "_gather_index", spy)
    for w in (edge - 1, edge, 2 * edge):
        for c in (1, 8):
            ad._im2col(np.zeros((2, c, 3, w)), 3, 3, 1, 1)
    assert gathered == [edge - 1, edge - 1]


def test_conv_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    for (b, c_in, h, w, c_out, kh, kw), stride, pad in _conv_cases():
        x = ad.Tensor(rng.normal(size=(b, c_in, h, w)))
        k = ad.Tensor(rng.normal(size=(c_out, c_in, kh, kw)))
        bias = ad.Tensor(rng.normal(size=c_out))
        oh = (h + 2 * pad - kh) // stride + 1
        ow = (w + 2 * pad - kw) // stride + 1
        # a weighted sum, so that each output pixel's gradient differs
        weight = ad.Tensor(rng.normal(size=(b, c_out, oh, ow)))

        def loss(x, k, bias):
            return ad.tensor_sum(ad.mul(ad.conv2d(x, k, bias, stride, pad), weight))

        assert ad.grad_check(lambda t: loss(t, k, bias), x) < 1e-6
        assert ad.grad_check(lambda t: loss(x, t, bias), k) < 1e-6
        assert ad.grad_check(lambda t: loss(x, k, t), bias) < 1e-6


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(5, 9),
       st.integers(1, 3), st.integers(0, 2), st.integers(3, 3))
def test_conv_output_shape_formula(batch, cin, hw, stride, pad, k):
    x = ad.Tensor(np.zeros((batch, cin, hw, hw)))
    kern = ad.Tensor(np.zeros((2, cin, k, k)))
    b = ad.Tensor(np.zeros(2))
    out = ad.conv2d(x, kern, b, stride=stride, pad=pad)
    expect = (hw + 2 * pad - k) // stride + 1
    assert out.shape == (batch, 2, expect, expect)
