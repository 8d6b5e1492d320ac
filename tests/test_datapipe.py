"""Unit tests for the data pipeline: spectra, sampling, blur, optical
flow, synthetic generation and Netpbm I/O."""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from noclab import datapipe as dp
from noclab.errors import InvalidValue, NoclabError, SizeMismatch

RNG = np.random.default_rng(11)


def rand_frame(c=3, h=16, w=16, seed=0):
    return dp.Frame(np.random.default_rng(seed).random((c, h, w)))


# ---------------------------------------------------------------------------
# containers


def test_frame_clamps_and_promotes_2d():
    f = dp.Frame(np.array([[2.0, -1.0], [0.5, 0.25]]))
    assert f.pixels.shape == (1, 2, 2)
    assert f.pixels.max() <= 1.0 and f.pixels.min() >= 0.0
    pixels = np.random.default_rng(0).random((3, 4, 5))
    assert dp.Frame(pixels).pixels is not pixels


def test_frame_rejects_bad_channel_count():
    with pytest.raises(InvalidValue):
        dp.Frame(np.zeros((2, 4, 4)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_frame_rejects_non_finite_pixels(bad):
    pixels = np.full((3, 4, 4), 0.5)
    pixels[1, 2, 3] = bad
    with pytest.raises(InvalidValue, match="finite"):
        dp.Frame(pixels)
    with pytest.raises(InvalidValue, match="finite"):
        dp.Frame(pixels[1])


def test_clip_rejects_mixed_geometry():
    with pytest.raises(SizeMismatch):
        dp.VideoClip([rand_frame(h=8), rand_frame(h=9)])
    with pytest.raises(InvalidValue):
        dp.VideoClip([])


@settings(max_examples=25, deadline=None)
@given(arrays(np.float64, (1, 4, 4), elements=st.floats(-10, 10)))
def test_frame_clamp_invariant(pix):
    f = dp.Frame(pix)
    assert np.all((f.pixels >= 0) & (f.pixels <= 1))


# ---------------------------------------------------------------------------
# DFT + spectral specification


def test_dft_roundtrip_and_parseval():
    x = RNG.random((12, 10))
    X = dp.dft2d(x)
    back = dp.dft2d(X, inverse=True)
    assert np.max(np.abs(back - x)) < 1e-9
    # Parseval: sum|x|^2 = sum|X|^2 / (h*w)
    assert abs((np.abs(X) ** 2).sum() / x.size - (x ** 2).sum()) < 1e-6


def test_dft_impulse_is_flat():
    x = np.zeros((8, 8))
    x[0, 0] = 1.0
    assert np.allclose(dp.dft2d(x), 1.0)


@pytest.mark.parametrize("plane", [np.arange(8.0), np.zeros((2, 4, 4)), 1.0])
def test_dft_rejects_input_that_is_no_plane(plane):
    with pytest.raises(SizeMismatch, match="need a plane"):
        dp.dft2d(plane)


def test_spectral_specify_dc_and_fixed_point():
    frame, base = rand_frame(seed=1), rand_frame(seed=2)
    out = dp.spectral_specify(frame, base, band=1)
    # band=1 swaps only the DC magnitude: mean matches the base
    assert abs(out.pixels[0].mean() - base.pixels[0].mean()) < 1e-3
    same = dp.spectral_specify(frame, frame, band=4)
    assert np.max(np.abs(same.pixels - frame.pixels)) < 1e-9


def test_spectral_specify_validation():
    with pytest.raises(SizeMismatch):
        dp.spectral_specify(rand_frame(h=8), rand_frame(h=9))


# "a" raised a bare TypeError, and 1.5 and True ran
@pytest.mark.parametrize("band", ["a", 1.5, True, 0, None])
def test_spectral_specify_rejects_bad_band(band):
    with pytest.raises(InvalidValue, match="band must be >= 1"):
        dp.spectral_specify(rand_frame(), rand_frame(), band=band)


# ---------------------------------------------------------------------------
# key frames, kmeans, sampling


def scene(val, seed):
    rng = np.random.default_rng(seed)
    return dp.Frame(np.clip(val + 0.01 * rng.normal(size=(1, 8, 8)), 0, 1))


def test_keyframe_select_scene_changes():
    frames = [scene(0.2, i) for i in range(5)] + [scene(0.8, i) for i in range(5)]
    clip = dp.VideoClip(frames)
    keys = dp.keyframe_select(clip, lambda f: f.pixels.ravel(), tau=1.0)
    assert keys == [0, 5]


def test_keyframe_select_huge_tau_and_validation():
    clip = dp.VideoClip([rand_frame(seed=i) for i in range(4)])
    assert dp.keyframe_select(clip, lambda f: f.pixels.ravel(), tau=1e9) == [0]
    # tau="a" raised a bare TypeError
    for tau in (0.0, np.nan, np.inf, "a", None, True):
        with pytest.raises(InvalidValue, match="tau"):
            dp.keyframe_select(clip, lambda f: f.pixels.ravel(), tau=tau)


def test_kmeans_recovers_separated_centers():
    pts = np.concatenate([RNG.normal(0, 0.05, (30, 2)),
                          RNG.normal(5, 0.05, (30, 2))])
    centers, assign, trace = dp.kmeans(pts, 2, seed=0)
    assert len(set(assign[:30])) == 1 and len(set(assign[30:])) == 1
    assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))  # monotone
    with pytest.raises(InvalidValue):
        dp.kmeans(np.zeros((5, 2)), 2)  # k exceeds distinct points


@pytest.mark.parametrize("k", [0, -1, 2.5, np.nan, True])
def test_kmeans_rejects_nonpositive_k(k):
    pts = np.arange(10.0).reshape(5, 2)
    with pytest.raises(InvalidValue, match="k must be >= 1"):
        dp.kmeans(pts, k)


@pytest.mark.parametrize("max_iters", [0, 2.5, True])
def test_kmeans_rejects_non_count_max_iters(max_iters):
    pts = np.arange(10.0).reshape(5, 2)
    with pytest.raises(InvalidValue, match="max_iters must be >= 1"):
        dp.kmeans(pts, 2, max_iters=max_iters)


@pytest.mark.parametrize("points", [np.arange(5.0), np.zeros((2, 3, 2)), 1.0])
def test_kmeans_rejects_points_that_are_no_rows(points):
    with pytest.raises(SizeMismatch, match="need points"):
        dp.kmeans(points, 1)


def test_sample_dataset_deterministic():
    clips = [dp.VideoClip([rand_frame(seed=i) for i in range(6)], label=0)]
    feat = lambda f: f.pixels.ravel()
    a = dp.sample_dataset(clips, feat, per_cluster=2, seed=3)
    b = dp.sample_dataset(clips, feat, per_cluster=2, seed=3)
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.image.pixels, rb.image.pixels)
    with pytest.raises(InvalidValue):
        dp.sample_dataset([], feat)


@pytest.mark.parametrize("per_cluster", [0, -1, 2.5])
def test_sample_dataset_rejects_non_count_per_cluster(per_cluster):
    clips = [dp.VideoClip([rand_frame(seed=i) for i in range(6)], label=0)]
    with pytest.raises(InvalidValue, match="per_cluster must be >= 1"):
        dp.sample_dataset(clips, lambda f: f.pixels.ravel(), per_cluster=per_cluster)


def test_sample_dataset_dedupes_static_clip():
    base = rand_frame(seed=0)
    rng = np.random.default_rng(1)
    distinct_at = set(rng.choice(np.arange(1, 50), 5, replace=False))
    frames = [rand_frame(seed=100 + i) if i in distinct_at else base
              for i in range(50)]
    clip = dp.VideoClip(frames, label=2)
    recs = dp.sample_dataset([clip], lambda f: f.pixels.ravel(), seed=0)
    dup = sum(np.array_equal(r.image.pixels, base.pixels) for r in recs)
    assert dup / len(recs) <= 0.2
    assert all(r.class_id == 2 for r in recs)


# ---------------------------------------------------------------------------
# blur


def test_blur_kernels_normalized():
    for sigma in (0.2, 0.3, 1.0, 1.5, 3.0):
        g = dp._gaussian_kernel(sigma)
        assert g.ndim == 1 and len(g) == 2 * max(1, int(np.ceil(3 * sigma))) + 1
        assert abs(g.sum() - 1.0) < 1e-12
        assert np.array_equal(g, g[::-1])
    k = dp._motion_kernel(9, 0.0)
    assert abs(k.sum() - 1.0) < 1e-12
    assert np.count_nonzero(k) == 9  # horizontal line
    assert np.allclose(k[4], 1 / 9)


def test_blur_preserves_constant_image():
    const = np.full((1, 3, 12, 12), 0.5)
    for kind in ("gaussian", "motion"):
        out = dp.synth_blur(const, kind=kind)
        assert np.max(np.abs(out - 0.5)) < 1e-12


def test_blur_reduces_variance_and_noise_is_seeded():
    f = rand_frame(seed=4).pixels[None]
    blurred = dp.synth_blur(f, sigma=2.0)
    assert blurred.var() < f.var()
    a = dp.synth_blur(f, sigma=1.0, noise=0.05, seed=9)
    b = dp.synth_blur(f, sigma=1.0, noise=0.05, seed=9)
    assert np.array_equal(a, b)


def test_blur_validation():
    f = rand_frame().pixels[None]
    for sigma in (0.0, -1.0, np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidValue):
            dp.synth_blur(f, sigma=sigma)
    with pytest.raises(InvalidValue):
        dp.synth_blur(f, kind="motion", length=0)
    for angle in (np.nan, np.inf):
        with pytest.raises(InvalidValue):
            dp.synth_blur(f, kind="motion", angle=angle)
    for noise in (-0.1, np.nan, np.inf):
        with pytest.raises(InvalidValue):
            dp.synth_blur(f, noise=noise, seed=0)
    with pytest.raises(InvalidValue):
        dp.synth_blur(f, kind="box")


@pytest.mark.parametrize("kwargs,message", [
    ({"seed": -1, "noise": 0.1}, "seed must be an integer >= 0"),
    ({"seed": 1.5, "noise": 0.1}, "seed must be an integer >= 0"),
    ({"seed": [0, 1.5], "noise": 0.1}, "seed must be an integer >= 0"),
    ({"noise": "a"}, "noise must be finite"),
    ({"noise": True}, "noise must be finite"),
    ({"kind": "motion", "length": 2.5}, "motion length must be an integer"),
    ({"kind": "motion", "angle": "a"}, "motion angle must be finite"),
    ({"sigma": [1.0, "b"]}, "sigma is no float array"),
], ids=["seed=-1", "seed=1.5", "seeds", "noise=a", "noise=True", "length=2.5", "angle=a",
        "sigma=b"])
def test_blur_arguments_checked_before_any_kernel(kwargs, message, monkeypatch):
    def no_kernel(*args):
        raise AssertionError("a kernel ran")

    monkeypatch.setattr(dp, "_gaussian_blur", no_kernel)
    monkeypatch.setattr(dp, "_motion_blur", no_kernel)
    stack = np.random.default_rng(0).random((2, 3, 16, 16))
    with pytest.raises(InvalidValue, match=message):
        dp.synth_blur(stack, **kwargs)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gaussian_blur_at_a_tiny_sigma_is_the_identity():
    # (x / sigma) ** 2 overflows below sigma 7e-155; the taps are [0, 1, 0]
    # from sigma 0.026 down
    stack = np.random.default_rng(2).random((3, 3, 8, 8))
    for sigma in (5e-324, 1e-300, 1e-100, 0.02):
        assert np.array_equal(dp._gaussian_kernel(sigma), [0.0, 1.0, 0.0])
        assert np.array_equal(dp.synth_blur(stack, sigma=sigma), stack)


def reference_gaussian_blur(frame, sigma):
    """One 2-D convolution per channel with the outer-product kernel:
    the unseparated blur the library must reproduce to rounding."""
    r = max(1, int(np.ceil(3 * sigma)))
    x = np.arange(-r, r + 1)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    k2 = np.outer(k, k)
    k2 /= k2.sum()
    return np.stack([ndimage.convolve(frame.pixels[c], k2, mode="reflect")
                     for c in range(frame.channels)])


@pytest.mark.parametrize("size", [3, 5, 16, 32])
@pytest.mark.parametrize("channels", [1, 3])
def test_gaussian_blur_matches_2d_reference(size, channels):
    rng = np.random.default_rng(size * 10 + channels)
    for sigma in (0.2, 0.5, 1.0, 1.7, 2.9, 3.0):
        f = dp.Frame(rng.random((channels, size, size)))
        ref = reference_gaussian_blur(f, sigma)
        out = dp.synth_blur(f.pixels[None], sigma=sigma)[0]
        assert out.shape == ref.shape
        assert np.max(np.abs(out - ref)) < 1e-12
        noisy = dp.synth_blur(f.pixels[None], sigma=sigma, noise=0.05, seed=7)[0]
        draw = np.random.default_rng(7).normal(0.0, 0.05, size=ref.shape)
        assert np.max(np.abs(noisy - np.clip(ref + draw, 0.0, 1.0))) < 1e-12


# (3, 128, 128) at sigma 0.2 takes the banded passes
@pytest.mark.parametrize("shape", [(3, 3, 3), (3, 5, 5), (3, 16, 16), (3, 32, 32),
                                   (3, 48, 48), (1, 7, 12), (3, 128, 128)])
def test_gaussian_blur_matches_separable_ndimage(shape):
    rng = np.random.default_rng(shape[1] * shape[2])
    side = max(shape[1:])
    sigmas = (0.2, 0.5, 1.0, 2.9, side / 3, side / 2, side)
    stack = rng.random((len(sigmas),) + shape)
    out = dp.synth_blur(stack, sigma=sigmas)
    for frame, blurred, sigma in zip(stack, out, sigmas):
        k = dp._gaussian_kernel(sigma)
        ref = ndimage.convolve1d(frame, k, axis=1, mode="reflect")
        ref = ndimage.convolve1d(ref, k, axis=2, mode="reflect")
        assert np.max(np.abs(blurred - ref)) < 1e-15
        if side > dp._DENSE_SPAN * len(k):
            # the banded passes sum as ndimage does
            assert np.array_equal(blurred, np.clip(ref, 0.0, 1.0))


def test_banded_blur_matches_ndimage_bit_for_bit():
    # 1000 columns exceed _DENSE_SPAN widths of every kernel up to radius
    # 9, and radius 9 exceeds the 8 rows
    sigmas = (0.2, 0.5, 1.0, 2.9)
    stack = np.random.default_rng(8).random((len(sigmas), 1, 8, 1000))
    out = dp.synth_blur(stack, sigma=sigmas)
    for frame, blurred, sigma in zip(stack, out, sigmas):
        k = dp._gaussian_kernel(sigma)
        assert 1000 > dp._DENSE_SPAN * len(k)
        ref = ndimage.convolve1d(frame, k, axis=1, mode="reflect")
        ref = ndimage.convolve1d(ref, k, axis=2, mode="reflect")
        assert np.array_equal(blurred, np.clip(ref, 0.0, 1.0))


BLOCK = dp._blur_block(3, 16, 16)


@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1])
def test_blur_stack_matches_per_frame(n):
    rng = np.random.default_rng(n)
    stack = rng.random((n, 3, 16, 16))
    # radii 1 to 9 mixed within every block
    sigmas = rng.uniform(0.2, 3.0, n)
    seeds = rng.integers(1 << 31, size=n).tolist()
    out = dp.synth_blur(stack, sigma=sigmas, noise=0.02, seed=seeds)
    assert out.shape == stack.shape
    for frame, blurred, sigma, seed in zip(stack, out, sigmas, seeds):
        one = dp.synth_blur(frame[None], sigma=sigma, noise=0.02, seed=seed)
        assert np.array_equal(one[0], blurred)


def test_blur_stack_mixing_dense_and_banded_frames_matches_per_frame():
    rng = np.random.default_rng(4)
    stack = rng.random((8, 3, 128, 128))
    # radius 1 takes the banded passes at side 128; the six frames between
    # form one dense run of two blocks
    sigmas = [0.25, 1.0, 2.0, 1.5, 0.9, 3.0, 1.2, 0.3]
    assert dp._blur_block(3, 128, 128) == 4
    assert [128 > dp._DENSE_SPAN * len(dp._gaussian_kernel(s)) for s in sigmas] == \
        [True] + [False] * 6 + [True]
    seeds = list(range(8))
    out = dp.synth_blur(stack, sigma=sigmas, noise=0.02, seed=seeds)
    for frame, blurred, sigma, seed in zip(stack, out, sigmas, seeds):
        one = dp.synth_blur(frame[None], sigma=sigma, noise=0.02, seed=seed)
        assert np.array_equal(one[0], blurred)


def test_blur_of_any_memory_layout_matches_c_ordered(tmp_path):
    rng = np.random.default_rng(9)
    path = tmp_path / "f.ppm"
    dp.write_ppm(dp.Frame(rng.random((3, 12, 10))), path)
    # a PPM is read channels-last, so its Frame holds transposed pixels
    frame = dp.read_ppm(path)
    assert not frame.pixels.flags.c_contiguous
    blurred = dp.synth_blur(frame.pixels[None], sigma=1.5, noise=0.05, seed=3)
    ref = dp.synth_blur(np.ascontiguousarray(frame.pixels)[None], sigma=1.5,
                        noise=0.05, seed=3)
    assert np.array_equal(blurred, ref)
    stack = rng.random((5, 12, 10, 3)).transpose(0, 3, 1, 2)
    sigmas = [0.4, 1.0, 2.0, 3.0, 10.0]
    assert np.array_equal(dp.synth_blur(stack, sigma=sigmas),
                          dp.synth_blur(np.ascontiguousarray(stack), sigma=sigmas))


def test_motion_blur_stack_matches_per_plane():
    # square, non-square and 1-channel frames; the second stack spans more
    # than one motion block, and length 12 exceeds the third's 9 rows
    for shape in ((4, 3, 16, 16), (dp._MOTION_BLOCK + 3, 3, 16, 24), (3, 1, 9, 13)):
        stack = np.random.default_rng(shape[0]).random(shape)
        for length, angle in itertools.product(range(1, 13),  # odd and even kernels
                                               (0.0, 17.0, 30.0, 45.0, 90.0, 137.0)):
            kernel = dp._motion_kernel(length, angle)
            out = dp.synth_blur(stack, kind="motion", length=length, angle=angle)
            for frame, blurred in zip(stack, out):
                ref = [ndimage.convolve(plane, kernel, mode="reflect") for plane in frame]
                assert np.array_equal(blurred, np.clip(ref, 0.0, 1.0))
            # a frame blurs as it does in any stack
            assert np.array_equal(dp.synth_blur(stack[-1:], kind="motion", length=length,
                                                angle=angle), out[-1:])


def test_blur_stack_validation():
    stack = np.random.default_rng(0).random((3, 3, 8, 8))
    with pytest.raises(SizeMismatch):
        dp.synth_blur(stack, sigma=[1.0, 2.0])
    with pytest.raises(SizeMismatch):
        dp.synth_blur(stack, sigma=1.0, noise=0.1, seed=[1, 2, 3, 4])
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(InvalidValue):
            dp.synth_blur(stack, sigma=[1.0, bad, 2.0])
    # above the larger side, a blur only flattens the frame; a huge one
    # would build a vast kernel
    assert dp.synth_blur(stack, sigma=8.0).shape == stack.shape
    for sigma in (8.5, 1e9):
        with pytest.raises(InvalidValue, match="larger side"):
            dp.synth_blur(stack, sigma=[1.0, 1.0, sigma])
        with pytest.raises(InvalidValue, match="larger side"):
            dp.synth_blur(stack[:1], sigma=sigma)
    with pytest.raises(InvalidValue):
        dp.synth_blur(stack, kind="motion", length=9)
    for shape in ((3, 8, 8), (2, 2, 8, 8)):
        with pytest.raises(InvalidValue):
            dp.synth_blur(np.zeros(shape))
    bad = stack.copy()
    bad[2, 0, 0, 0] = np.nan
    with pytest.raises(InvalidValue, match="finite"):
        dp.synth_blur(bad)


# input that numpy cannot read as a float64 array
NOT_FLOATS = [dp.Frame(np.zeros((3, 8, 8))), "abc", [[0.0, 1.0], [0.0]]]


@pytest.mark.parametrize("bad", NOT_FLOATS, ids=["frame", "string", "ragged"])
def test_blur_rejects_input_that_is_no_float_array(bad):
    for kind in ("gaussian", "motion"):
        with pytest.raises(InvalidValue, match="float array"):
            dp.synth_blur(bad, kind=kind)


@pytest.mark.parametrize("bad", NOT_FLOATS, ids=["frame", "string", "ragged"])
def test_horn_schunck_rejects_input_that_is_no_float_array(bad):
    with pytest.raises(InvalidValue, match="float array"):
        dp.horn_schunck(bad, np.zeros((8, 8)))
    with pytest.raises(InvalidValue, match="float array"):
        dp.horn_schunck(np.zeros((8, 8)), bad)


# ---------------------------------------------------------------------------
# optical flow


def bump(cx, cy, size=24):
    yy, xx = np.mgrid[0:size, 0:size]
    return 0.8 * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / 18.0)


def test_horn_schunck_rightward_shift_angle():
    f1, f2 = bump(10, 12), bump(12, 12)  # pure +x translation
    flow = dp.horn_schunck(f1, f2, lam=0.5, iters=200)
    mag = np.hypot(flow.u, flow.v)
    sel = mag > 0.3 * mag.max()
    angles = np.degrees(np.arctan2(flow.v[sel], flow.u[sel]))
    assert abs(np.median(angles)) < 15.0
    assert np.median(flow.u[sel]) > 0


def test_horn_schunck_energy_decreases():
    f1, f2 = bump(10, 12), bump(12, 13)
    e_few = dp.flow_energy(dp.horn_schunck(f1, f2, iters=5), f1, f2)
    e_many = dp.flow_energy(dp.horn_schunck(f1, f2, iters=200), f1, f2)
    e_zero = dp.flow_energy(dp.FlowField(np.zeros((24, 24)), np.zeros((24, 24))),
                            f1, f2)
    assert e_many < e_few < e_zero


def test_horn_schunck_swap_antisymmetry():
    f1, f2 = bump(10, 12), bump(12, 12)
    fwd = dp.horn_schunck(f1, f2, iters=150)
    bwd = dp.horn_schunck(f2, f1, iters=150)
    mag = np.hypot(fwd.u, fwd.v)
    sel = mag > 0.3 * mag.max()
    resid = np.abs(fwd.u[sel] + bwd.u[sel]).mean()
    # the gradients come from the first frame, so even the converged
    # flows are not exact opposites; 150 sweeps must leave the residual
    # of the converged pair (about 0.304 on this pair)
    fwd_u, fwd_v = reference_jacobi(f1, f2, iters=6000)
    bwd_u, _ = reference_jacobi(f2, f1, iters=6000)
    mag = np.hypot(fwd_u, fwd_v)
    sel = mag > 0.3 * mag.max()
    converged = np.abs(fwd_u[sel] + bwd_u[sel]).mean()
    assert abs(resid - converged) <= 0.01


@pytest.mark.parametrize("lam", [np.nan, np.inf, 0.0, -0.5, "a", True])
def test_flow_energy_rejects_bad_lam(lam):
    # lam=nan returned a NaN energy
    zeros = np.zeros((4, 4))
    with pytest.raises(InvalidValue, match="lam must be positive and finite"):
        dp.flow_energy(dp.FlowField(zeros, zeros), zeros, zeros, lam=lam)


def test_horn_schunck_validation():
    with pytest.raises(SizeMismatch):
        dp.horn_schunck(np.zeros((4, 4)), np.zeros((5, 5)))
    # lam="a" raised a bare TypeError and lam=True ran as 1.0
    for lam in (0.0, np.nan, np.inf, "a", True, None):
        with pytest.raises(InvalidValue, match="lam"):
            dp.horn_schunck(np.zeros((4, 4)), np.zeros((4, 4)), lam=lam)
    for iters in (0, 2.5, True):
        with pytest.raises(InvalidValue, match="iters"):
            dp.horn_schunck(np.zeros((4, 4)), np.zeros((4, 4)), iters=iters)
    with pytest.raises(InvalidValue):
        dp.horn_schunck(np.zeros(4), np.zeros(4))
    with pytest.raises(InvalidValue):
        dp.horn_schunck(np.zeros((1, 2, 4, 4)), np.zeros((1, 2, 4, 4)))


def neighbor_mean(x):
    """Mean of the four neighbours under edge replication by np.pad."""
    p = np.pad(x, 1, mode="edge")
    return (p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:]) / 4.0


def plane_terms(a, b, lam):
    Ix = np.zeros_like(a)
    Iy = np.zeros_like(a)
    Ix[:, :-1] = a[:, 1:] - a[:, :-1]
    Iy[:-1, :] = a[1:, :] - a[:-1, :]
    return Ix, Iy, b - a, lam ** 2 + Ix ** 2 + Iy ** 2


def reference_horn_schunck(a, b, lam=0.5, iters=100):
    """One frame pair at a time, red-black SOR with masked updates: each
    sweep updates the cells with (row+col) even, then the others, from the
    latest values. The unbatched iteration the library must reproduce bit
    for bit."""
    Ix, Iy, It, denom = plane_terms(a, b, lam)
    rows, cols = np.indices(a.shape)
    red = (rows + cols) % 2 == 0
    u = np.zeros_like(a)
    v = np.zeros_like(a)
    for _ in range(iters):
        for colour in (red, ~red):
            ubar = neighbor_mean(u)
            vbar = neighbor_mean(v)
            t = (Ix * ubar + Iy * vbar + It) / denom
            u = np.where(colour, u + dp._SOR_OMEGA * ((ubar - Ix * t) - u), u)
            v = np.where(colour, v + dp._SOR_OMEGA * ((vbar - Iy * t) - v), v)
    return u, v


def reference_jacobi(a, b, lam=0.5, iters=100):
    """The classic Horn-Schunck Jacobi iteration on one frame pair: every
    cell from its neighbours' values of the previous sweep."""
    Ix, Iy, It, denom = plane_terms(a, b, lam)
    u = np.zeros_like(a)
    v = np.zeros_like(a)
    for _ in range(iters):
        ubar = neighbor_mean(u)
        vbar = neighbor_mean(v)
        t = (Ix * ubar + Iy * vbar + It) / denom
        u = ubar - Ix * t
        v = vbar - Iy * t
    return u, v


def test_horn_schunck_plane_and_frame_match_reference():
    f1, f2 = bump(10, 12), bump(12, 13)
    u, v = reference_horn_schunck(f1, f2, lam=0.7, iters=40)
    for a, b in ((f1, f2), (dp.Frame(f1).pixels.mean(axis=0),
                            dp.Frame(f2).pixels.mean(axis=0))):
        flow = dp.horn_schunck(a, b, lam=0.7, iters=40)
        assert flow.u.shape == (24, 24)
        assert np.array_equal(flow.u, u) and np.array_equal(flow.v, v)


@pytest.mark.parametrize("n", [1, dp._FLOW_BLOCK, dp._FLOW_BLOCK + 1])
def test_horn_schunck_stack_matches_per_frame(n):
    rng = np.random.default_rng(n)
    a = rng.random((n, 9, 12))
    b = rng.random((n, 9, 12))
    flow = dp.horn_schunck(a, b, iters=25)
    assert flow.u.shape == flow.v.shape == (n, 9, 12)
    for i in range(n):
        single = dp.horn_schunck(a[i], b[i], iters=25)
        assert np.array_equal(flow.u[i], single.u)
        assert np.array_equal(flow.v[i], single.v)
        u, v = reference_horn_schunck(a[i], b[i], iters=25)
        assert np.array_equal(flow.u[i], u) and np.array_equal(flow.v[i], v)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("shape", [(1, 1), (2, 3), (1, 5), (17, 23)])
def test_horn_schunck_small_and_odd_planes_match_reference(shape):
    # the band's ghost and padding cells must neither leak into the flow
    # nor warn, down to a single pixel and one-row planes
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    a, b = rng.random(shape), rng.random(shape)
    for lam, iters in ((0.5, 1), (0.7, 13), (2.0, 60)):
        flow = dp.horn_schunck(a, b, lam=lam, iters=iters)
        u, v = reference_horn_schunck(a, b, lam=lam, iters=iters)
        assert np.array_equal(flow.u, u) and np.array_equal(flow.v, v)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("shape", [(3, 17, 23), (2, 32, 32), (3, 6, 5)])
def test_horn_schunck_stack_of_odd_planes_matches_reference(shape):
    # every plane of a block starts on a red cell, whatever the parity of
    # its height and width
    rng = np.random.default_rng(shape[1] * 100 + shape[2])
    a, b = rng.random(shape), rng.random(shape)
    flow = dp.horn_schunck(a, b, lam=0.7, iters=13)
    for i in range(len(a)):
        u, v = reference_horn_schunck(a[i], b[i], lam=0.7, iters=13)
        assert np.array_equal(flow.u[i], u) and np.array_equal(flow.v[i], v)


@pytest.mark.parametrize("shape", [(9, 12), (17, 23)])
def test_sor_reaches_the_jacobi_fixed_point(shape):
    rng = np.random.default_rng(shape[0])
    a, b = rng.random(shape), rng.random(shape)
    u, v = reference_jacobi(a, b, iters=4000)
    # the Jacobi iterate has converged: one more sweep leaves it in place
    u1, v1 = reference_jacobi(a, b, iters=4001)
    assert max(np.abs(u1 - u).max(), np.abs(v1 - v).max()) < 1e-14
    flow = dp.horn_schunck(a, b, iters=500)
    assert max(np.abs(flow.u - u).max(), np.abs(flow.v - v).max()) < 1e-12


def stacked(*args, **kwargs):
    """The (images, orientation | None) rows that
    `dp.synthetic_blocks(*args, **kwargs)` streams, stacked."""
    blocks = list(dp.synthetic_blocks(*args, **kwargs))
    images = np.concatenate([images for images, _ in blocks])
    if blocks[0][1] is None:
        return images, None
    return images, np.concatenate([orientation for _, orientation in blocks])


def correlated_pairs(classes=16, per_class=1, size=32, seed=0):
    """The gray planes synthetic_blocks flows under correlated motion."""
    images, _ = stacked(classes, per_class, size, "correlated", seed)
    first = images.mean(axis=1)
    angles = 2 * np.pi * np.repeat(np.arange(classes), per_class) / classes
    second = np.stack([dp._shift_plane(p, 2.0 * np.cos(t), 2.0 * np.sin(t))
                       for p, t in zip(first, angles)])
    return first, second


def test_dataset_sweeps_leave_no_more_energy_than_60_jacobi_sweeps():
    first, second = correlated_pairs()
    converged = dp.horn_schunck(first, second, iters=2000)
    sor = dp.horn_schunck(first, second, iters=dp._FLOW_SWEEPS)
    excess = {"sor": [], "jacobi": []}
    for i, (a, b) in enumerate(zip(first, second)):
        floor = dp.flow_energy(dp.FlowField(converged.u[i], converged.v[i]), a, b)
        flows = {"sor": dp.FlowField(sor.u[i], sor.v[i]),
                 "jacobi": dp.FlowField(*reference_jacobi(a, b, iters=60))}
        for name, flow in flows.items():
            excess[name].append(dp.flow_energy(flow, a, b) - floor)
    assert min(min(e) for e in excess.values()) > 0
    assert np.mean(excess["sor"]) <= np.mean(excess["jacobi"])


def test_flow_energy_of_a_stack_sums_its_pairs():
    # neighbours are taken within each plane, never across pairs
    a, b = np.random.default_rng(6).random((2, 3, 8, 9))
    flow = dp.horn_schunck(a, b, iters=20)
    pairs = sum(dp.flow_energy(dp.FlowField(flow.u[i], flow.v[i]), a[i], b[i])
                for i in range(3))
    assert dp.flow_energy(flow, a, b) == pytest.approx(pairs, rel=1e-12)


def test_flow_energy_is_stationary_at_the_converged_flow():
    # the converged flow solves the Horn-Schunck equations, so every
    # directional derivative of the objective vanishes there; the energy
    # is quadratic, so central differences are exact up to rounding
    rng = np.random.default_rng(4)
    a, b = rng.random((2, 10, 13))
    flow = dp.horn_schunck(a, b, lam=0.7, iters=500)
    for _ in range(5):
        du, dv = rng.normal(size=(2,) + a.shape)
        h = 1e-3
        plus = dp.flow_energy(dp.FlowField(flow.u + h * du, flow.v + h * dv), a, b, lam=0.7)
        minus = dp.flow_energy(dp.FlowField(flow.u - h * du, flow.v - h * dv), a, b, lam=0.7)
        assert abs(plus - minus) / (2 * h) < 1e-8


def test_orientation_map_quadrants():
    flow = dp.FlowField(np.array([[1.0, -1.0]]), np.array([[0.0, 0.0]]))
    om = dp.orientation_map(flow)
    assert om.pixels.shape == (1, 1, 2)
    assert abs(om.pixels[0, 0, 0] - 0.5) < 1e-9  # angle 0 -> 0.5
    assert om.pixels[0, 0, 1] in (0.0, 1.0)  # angle pi -> edge of range
    still = dp.orientation_map(dp.FlowField(np.zeros((2, 2)), np.zeros((2, 2))))
    assert np.all(still.pixels == 0.5)


def test_stacked_orientation_matches_per_field_map():
    rng = np.random.default_rng(4)
    u, v = rng.normal(size=(2, 6, 5, 7))
    u[0, :2] = 0.0
    v[0, :2] = 1e-7  # below the neutral-value threshold
    vals = dp._orientation(u, v)
    assert vals.shape == u.shape
    for i in range(len(u)):
        want = dp.orientation_map(dp.FlowField(u[i], v[i])).pixels[0]
        assert np.array_equal(vals[i], want)


# ---------------------------------------------------------------------------
# synthetic dataset


def reference_render_class_image(family, size, rng):
    """One visual family per class: polygons, stripes, blob fields and
    checkers, each with a family-specific color tint."""
    img = np.zeros((3, size, size))
    # smooth textured background
    noise = rng.normal(0.25, 0.05, size=(size, size))
    base = dp._smooth(noise)
    img[:] = base
    color = np.array(dp._hsv_to_rgb((family * 0.61803) % 1.0, 0.9, 1.0))

    yy, xx = np.mgrid[0:size, 0:size]
    cx = size / 2 + rng.uniform(-size / 8, size / 8)
    cy = size / 2 + rng.uniform(-size / 8, size / 8)
    kind = family % 4
    variant = family // 4
    if kind == 0:  # filled regular polygon
        sides = 3 + variant
        r = size * 0.3
        ang = np.arctan2(yy - cy, xx - cx) + rng.uniform(0, 2 * np.pi)
        rad = np.hypot(yy - cy, xx - cx)
        # polygon boundary radius as a function of angle
        half = np.pi / sides
        rb = r * np.cos(half) / np.cos(((ang + half) % (2 * half)) - half)
        mask = rad <= rb
    elif kind == 1:  # stripes of family-specific frequency
        freq = 2 + 2 * variant
        phase = rng.uniform(0, 2 * np.pi)
        mask = np.sin(2 * np.pi * freq * xx / size + phase) > 0.3
    elif kind == 2:  # blob field
        count = 1 + 2 * variant
        mask = np.zeros((size, size), dtype=bool)
        r = size * 0.12
        for _ in range(count):
            bx = rng.uniform(r, size - r)
            by = rng.uniform(r, size - r)
            mask |= np.hypot(yy - by, xx - bx) <= r
    else:  # checker
        cell = max(2, size // (4 + 2 * variant))
        mask = ((yy // cell + xx // cell) % 2).astype(bool)
    for c in range(3):
        img[c] = np.where(mask, 0.25 + 0.75 * color[c], img[c])
    img += rng.normal(0, 0.005, size=img.shape)
    return dp.Frame(img)


@pytest.mark.parametrize("size", [16, 17, 32])
@pytest.mark.parametrize("count", [1, 5])
@pytest.mark.parametrize("draw_angles", [False, True])
def test_render_family_matches_per_image_oracle(size, count, draw_angles):
    for family in range(16):
        seed = 1000 * size + 10 * count + family
        rng = np.random.default_rng(seed)
        pixels = np.empty((count, 3, size, size))
        angles = dp._render_family(family, pixels, rng, draw_angles=draw_angles)
        assert (angles is not None) == draw_angles
        ref = np.random.default_rng(seed)
        for i in range(count):
            assert np.array_equal(pixels[i], reference_render_class_image(family, size, ref).pixels)
            if draw_angles:
                assert angles[i] == ref.uniform(0, 2 * np.pi)
        # same draws in the same order: both generators end in one state
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("size", [16, 17, 32])
def test_stacked_smoothing_matches_ndimage_per_plane(size):
    stack = np.random.default_rng(size).normal(0.25, 0.05, size=(2, 3, size, size))
    out = dp._smooth(stack)
    assert out.shape == stack.shape
    for i in range(2):
        for j in range(3):
            assert np.array_equal(out[i, j], ndimage.gaussian_filter(stack[i, j], 1.0))


@pytest.mark.parametrize("size", [16, 17, 32, 64])
def test_render_smoothing_matches_ndimage(size):
    # scipy is the oracle here; the renderer itself does not import it
    rng = np.random.default_rng(size)
    for _ in range(20):
        noise = rng.normal(0.25, 0.05, size=(size, size))
        assert np.array_equal(dp._smooth(noise), ndimage.gaussian_filter(noise, 1.0))


def test_gen_dataset_shapes_and_labels():
    images, orientation = stacked(4, 3, 16, False, 0)
    assert images.shape == (12, 3, 16, 16)
    assert orientation is None
    # class c holds rows [3c, 3c + 3)
    replay_per_record(images, np.repeat(np.arange(4), 3), orientation, 4, 3, 16, 0, False)


def test_gen_dataset_motion_modes():
    _, orientation = stacked(4, 2, 16, "correlated", 0)
    assert orientation.shape == (8, 1, 16, 16)
    _, orientation_u = stacked(4, 2, 16, "uncorrelated", 0)
    assert orientation_u.shape == (8, 1, 16, 16)


def replay_per_record(images, labels, orientation, num_classes, per_class, size, seed,
                      motion):
    """Check dataset rows (images, labels, orientation | None) against the
    generator's draws, replayed one sample at a time."""
    rng = np.random.default_rng(seed)
    i = 0
    for c in range(num_classes):
        family = c % ((num_classes + 1) // 2) if motion == "correlated" else c
        for _ in range(per_class):
            frame = reference_render_class_image(family, size, rng)
            assert labels[i] == c
            assert np.array_equal(images[i], frame.pixels)
            i += 1
            if not motion:
                continue
            if motion == "correlated":
                angle = 2 * np.pi * c / num_classes
            else:
                angle = rng.uniform(0, 2 * np.pi)
            shift = (int(round(2.0 * np.sin(angle))), int(round(2.0 * np.cos(angle))))
            shifted = dp.Frame(np.roll(frame.pixels, shift, axis=(1, 2)))
            want = dp.orientation_map(dp.horn_schunck(
                frame.pixels.mean(axis=0), shifted.pixels.mean(axis=0), lam=0.5,
                iters=dp._FLOW_SWEEPS))
            assert np.array_equal(orientation[i - 1], want.pixels)
    assert i == len(images) == len(labels)


@pytest.mark.parametrize("motion", ["correlated", "uncorrelated"])
def test_gen_dataset_orientation_matches_per_record_flow(motion):
    num_classes, per_class, size, seed = 4, 5, 16, 3
    images, orientation = stacked(num_classes, per_class, size, motion, seed)
    replay_per_record(images, np.repeat(np.arange(num_classes), per_class), orientation,
                      num_classes, per_class, size, seed, motion)


@pytest.mark.parametrize("motion", [False, "correlated", "uncorrelated"])
def test_synthetic_blocks_cut_across_classes(motion):
    # 3 classes of 13 rows: the first block ends 6 rows into class 2
    num_classes, per_class, size, seed = 3, 13, 16, 2
    blocks = list(dp.synthetic_blocks(num_classes, per_class, size, motion, seed))
    assert [len(images) for images, _ in blocks] == [dp.FRAME_BLOCK, 39 - dp.FRAME_BLOCK]
    images = np.concatenate([block for block, _ in blocks])
    orientation = np.concatenate([o for _, o in blocks]) if motion else None
    assert all((o is None) == (not motion) for _, o in blocks)
    replay_per_record(images, np.repeat(np.arange(num_classes), per_class), orientation,
                      num_classes, per_class, size, seed, motion)


def test_synthetic_blocks_check_arguments_at_the_call():
    with pytest.raises(InvalidValue, match="per_class must be >= 1"):
        dp.synthetic_blocks(4, 0, 16)


@pytest.mark.parametrize("kwargs,message", [
    ({"num_classes": 4.0}, "num_classes must be an integer"),
    ({"num_classes": True}, "num_classes must be an integer"),
    ({"num_classes": 0}, "num_classes must be an integer"),
    ({"num_classes": 17}, "num_classes must be an integer"),
    ({"size": 32.0}, "size must be an integer"),
    ({"size": True}, "size must be an integer"),
    ({"size": 8}, "size must be an integer"),
    ({"seed": -1}, "seed must be an integer >= 0"),
    ({"seed": 1.5}, "seed must be an integer >= 0"),
    ({"seed": True}, "seed must be an integer >= 0"),
    ({"seed": None}, "seed must be an integer >= 0"),
])
def test_synthetic_data_argument_types_checked_at_the_call(kwargs, message, monkeypatch):
    def no_block(*args):
        raise AssertionError("a block was made")

    monkeypatch.setattr(dp, "_render_family", no_block)
    with pytest.raises(InvalidValue, match=message):
        dp.synthetic_blocks(**{"num_classes": 2, "per_class": 1, "size": 16, **kwargs})


def test_synthetic_data_takes_numpy_integers():
    a, _ = stacked(np.int64(2), np.int64(2), np.int64(16), seed=np.int64(3))
    b, _ = stacked(2, 2, 16, seed=3)
    assert np.array_equal(a, b)


def test_gen_dataset_deterministic():
    a, _ = stacked(3, 2, 16, seed=5)
    b, _ = stacked(3, 2, 16, seed=5)
    assert np.array_equal(a, b)


def test_gen_dataset_validation():
    with pytest.raises(InvalidValue):
        dp.synthetic_blocks(17, 1, 16)
    with pytest.raises(InvalidValue):
        dp.synthetic_blocks(4, 1, 8)
    with pytest.raises(InvalidValue):
        dp.synthetic_blocks(4, 1, 16, motion="sideways")
    # motion modes are False, "correlated" or "uncorrelated" only
    for alias in (True, None):
        with pytest.raises(InvalidValue, match="bad motion mode"):
            dp.synthetic_blocks(4, 1, 16, motion=alias)


@pytest.mark.parametrize("per_class", [0, -1, 2.5, True])
@pytest.mark.parametrize("motion", [False, "correlated", "uncorrelated"])
def test_gen_dataset_rejects_empty_classes(per_class, motion):
    with pytest.raises(InvalidValue, match="per_class must be >= 1"):
        dp.synthetic_blocks(4, per_class, 16, motion=motion)


# ---------------------------------------------------------------------------
# Netpbm I/O


def test_ppm_roundtrip(tmp_path):
    f = rand_frame(seed=6)
    path = tmp_path / "x.ppm"
    dp.write_ppm(f, path)
    back = dp.read_ppm(path)
    assert back.pixels.shape == f.pixels.shape
    assert np.max(np.abs(back.pixels - f.pixels)) <= 0.5 / 255 + 1e-12


def test_pgm_roundtrip(tmp_path):
    f = dp.Frame(RNG.random((1, 5, 7)))
    path = tmp_path / "x.pgm"
    dp.write_pgm(f, path)
    back = dp.read_pgm(path)
    assert back.pixels.shape == (1, 5, 7)
    assert np.max(np.abs(back.pixels - f.pixels)) <= 0.5 / 255 + 1e-12


NETPBM = {"ppm": (3, dp.write_ppm, dp.read_ppm), "pgm": (1, dp.write_pgm, dp.read_pgm)}
small_frames = st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2 ** 32 - 1))


@pytest.mark.parametrize("kind", sorted(NETPBM))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(small_frames)
def test_netpbm_roundtrip_property(tmp_path, kind, shape_seed):
    channels, write, read = NETPBM[kind]
    h, w, seed = shape_seed
    f = rand_frame(channels, h, w, seed)
    path = tmp_path / f"x.{kind}"
    write(f, path)
    back = read(path)
    assert back.pixels.shape == f.pixels.shape
    assert np.array_equal(back.pixels, np.round(f.pixels * 255) / 255)


@pytest.mark.parametrize("kind", sorted(NETPBM))
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(small_frames)
def test_netpbm_truncation_raises_typed_error(tmp_path, kind, shape_seed):
    channels, write, read = NETPBM[kind]
    h, w, seed = shape_seed
    full, cut = tmp_path / f"full.{kind}", tmp_path / f"cut.{kind}"
    write(rand_frame(channels, h, w, seed), full)
    data = full.read_bytes()
    for offset in range(len(data)):
        cut.write_bytes(data[:offset])
        with pytest.raises(NoclabError):
            read(cut)


@pytest.mark.parametrize("header", [b"P6\n2 2\n0\n", b"P6\n2 2\n256\n",
                                    b"P6\n0 2\n255\n", b"P6\n2 x\n255\n",
                                    b"P6\n-2 2\n255\n", b"P6\n99999999 99999999\n255\n"])
def test_netpbm_rejects_malformed_header(tmp_path, header):
    path = tmp_path / "bad.ppm"
    path.write_bytes(header + bytes(12))
    with pytest.raises(InvalidValue):
        dp.read_ppm(path)


def test_netpbm_validation(tmp_path):
    with pytest.raises(InvalidValue):
        dp.write_ppm(dp.Frame(np.zeros((1, 4, 4))), tmp_path / "bad.ppm")
    with pytest.raises(InvalidValue):
        dp.write_pgm(rand_frame(), tmp_path / "bad.pgm")
    p = tmp_path / "x.ppm"
    dp.write_ppm(rand_frame(), p)
    with pytest.raises(InvalidValue):
        dp.read_pgm(p)  # wrong magic
