"""Synthetic data generation and every preprocessing step that feeds the
classifier heads: DFT-based intensity specification, key-frame plus
k-means sampling, blur synthesis, dense optical flow and orientation
maps.

All frame pixels live in [0,1] (clamped after every op) and are stored
channel-major as float64.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import InvalidValue, SizeMismatch, is_count, is_real

# ---------------------------------------------------------------------------
# core containers


@dataclass
class Frame:
    pixels: np.ndarray  # (channels, h, w), values in [0,1]

    def __post_init__(self):
        p = np.asarray(self.pixels, dtype=np.float64)
        if p.ndim == 2:
            p = p[None]
        if p.ndim != 3 or p.shape[0] not in (1, 3):
            raise InvalidValue(f"frame must be (1|3, h, w), got {p.shape}")
        # clipping would pass NaN through to the features
        if not np.isfinite(p).all():
            raise InvalidValue("frame pixels must be finite")
        self.pixels = np.clip(p, 0.0, 1.0)

    @property
    def channels(self):
        return self.pixels.shape[0]

    @property
    def height(self):
        return self.pixels.shape[1]

    @property
    def width(self):
        return self.pixels.shape[2]


def _floats(value, name):
    try:
        return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        raise InvalidValue(f"{name} is no float array: {type(value).__name__}") from None


@dataclass
class VideoClip:
    frames: list  # of Frame, uniform geometry
    label: int = 0

    def __post_init__(self):
        if not self.frames:
            raise InvalidValue("empty clip")
        shape = self.frames[0].pixels.shape
        if any(f.pixels.shape != shape for f in self.frames):
            raise SizeMismatch("non-uniform frame geometry in clip")


@dataclass
class FlowField:
    u: np.ndarray  # (h, w), pixels/frame
    v: np.ndarray

    def __post_init__(self):
        if self.u.shape != self.v.shape:
            raise SizeMismatch("flow planes differ in shape")


@dataclass
class SampleRecord:
    image: Frame
    class_id: int


# ---------------------------------------------------------------------------
# DFT and spectral specification


def _dft_matrix(n, inverse=False):
    k = np.arange(n)
    sign = 2j if inverse else -2j
    return np.exp(sign * np.pi * np.outer(k, k) / n)


def dft2d(plane, inverse=False):
    """Separable 2-D DFT, X(k) = sum_n x(n) exp(-2*pi*i*k*n/N) per axis;
    the inverse applies the conjugate kernel and 1/(h*w)."""
    x = np.asarray(plane)
    if x.ndim != 2:
        raise SizeMismatch(f"need a plane (h, w), got shape {x.shape}")
    h, w = x.shape
    out = _dft_matrix(h, inverse) @ x @ _dft_matrix(w, inverse)
    if inverse:
        out = out / (h * w)
    return out


def spectral_specify(frame: Frame, base: Frame, band=8):
    """Replace the low-band spectral magnitudes of `frame` with those of
    `base`, keeping `frame`'s phases; per channel, then clamp.

    The band covers coefficients whose wrap-around frequency index is
    below `band` in both axes (a conjugate-symmetric set, so the
    inverse transform stays real).
    """
    if frame.pixels.shape != base.pixels.shape:
        raise SizeMismatch("frame/base geometry mismatch")
    if not is_count(band):
        raise InvalidValue(f"band must be >= 1 (an integer), got {band!r}")
    h, w = frame.height, frame.width
    fy = np.minimum(np.arange(h), h - np.arange(h))
    fx = np.minimum(np.arange(w), w - np.arange(w))
    mask = (fy[:, None] < band) & (fx[None, :] < band)
    out = np.empty_like(frame.pixels)
    for c in range(frame.channels):
        F = dft2d(frame.pixels[c])
        B = dft2d(base.pixels[c])
        mag = np.where(mask, np.abs(B), np.abs(F))
        phase = np.angle(F)
        out[c] = np.real(dft2d(mag * np.exp(1j * phase), inverse=True))
    return Frame(out)


# ---------------------------------------------------------------------------
# key frames + clustering


def keyframe_select(clip: VideoClip, featurizer, tau):
    """Greedy selection: keep frame i when its feature is farther than tau
    from the last kept frame's feature. Frame 0 is always kept."""
    if not 0 < tau < math.inf:
        raise InvalidValue(f"tau must be positive and finite, got {tau}")
    feats = [np.asarray(featurizer(f), dtype=np.float64).ravel() for f in clip.frames]
    selected = [0]
    last = feats[0]
    for i in range(1, len(feats)):
        if np.linalg.norm(feats[i] - last) > tau:
            selected.append(i)
            last = feats[i]
    return selected


def default_tau(clip: VideoClip, featurizer):
    """Half the median inter-frame feature distance of the clip."""
    feats = [np.asarray(featurizer(f)).ravel() for f in clip.frames]
    if len(feats) < 2:
        return 1.0
    d = [np.linalg.norm(feats[i + 1] - feats[i]) for i in range(len(feats) - 1)]
    med = float(np.median(d))
    return 0.5 * med if med > 0 else 1e-9


def kmeans(points, k, max_iters=100, seed=0):
    """Lloyd's algorithm with k-means++ seeding.

    Returns (centers, assignments, inertia trace). Inertia is recorded
    after every assignment step and is non-increasing. An empty cluster
    is repaired by grabbing the point farthest from its center.
    """
    X = np.asarray(points, dtype=np.float64)
    if X.ndim != 2:
        raise SizeMismatch(f"need points (n, dim), got shape {X.shape}")
    n = X.shape[0]
    if not is_count(k):
        raise InvalidValue(f"k must be >= 1 (an integer), got {k!r}")
    if k > len(np.unique(X, axis=0)):
        raise InvalidValue(f"k={k} exceeds distinct point count")
    if not is_count(max_iters):
        raise InvalidValue(f"max_iters must be >= 1 (an integer), got {max_iters!r}")
    rng = np.random.default_rng(seed)

    # k-means++ seeding
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = np.sum((X - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        probs = d2 / d2.sum() if d2.sum() > 0 else np.full(n, 1.0 / n)
        centers[j] = X[rng.choice(n, p=probs)]
        d2 = np.minimum(d2, np.sum((X - centers[j]) ** 2, axis=1))

    trace = []
    assign = np.zeros(n, dtype=np.int64)
    for _ in range(max_iters):
        dist = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_assign = dist.argmin(axis=1)
        # repair empty clusters with the globally farthest point
        for j in range(k):
            if not np.any(new_assign == j):
                worst = dist[np.arange(n), new_assign].argmax()
                new_assign[worst] = j
        inertia = float(((X - centers[new_assign]) ** 2).sum())
        trace.append(inertia)
        if np.array_equal(new_assign, assign) and len(trace) > 1:
            break
        assign = new_assign
        for j in range(k):
            centers[j] = X[assign == j].mean(axis=0)
    return centers, assign, trace


def sample_dataset(clips, featurizer, per_cluster=1, seed=0, tau=None):
    """De-homogenize clips: key-frame count fixes k, k-means groups all
    frames, cluster-center frames anchor the sample, and per_cluster
    frames are drawn per cluster."""
    if not clips:
        raise InvalidValue("no clips")
    if not is_count(per_cluster):
        raise InvalidValue(f"per_cluster must be >= 1 (an integer), got {per_cluster!r}")
    rng = np.random.default_rng(seed)
    records = []
    for clip in clips:
        t = default_tau(clip, featurizer) if tau is None else tau
        keys = keyframe_select(clip, featurizer, t)
        feats = np.array([np.asarray(featurizer(f)).ravel() for f in clip.frames])
        # cluster count = key-frame count, capped by the number of
        # distinct feature vectors (duplicates cannot anchor clusters)
        k = min(len(keys), len(np.unique(feats, axis=0)))
        centers, assign, _ = kmeans(feats, k, seed=seed)
        for j in range(k):
            members = np.flatnonzero(assign == j)
            d = np.linalg.norm(feats[members] - centers[j], axis=1)
            order = members[np.argsort(d)]
            picks = list(order[:1])  # center-nearest frame first
            rest = order[1:]
            if len(rest) and per_cluster > 1:
                extra = rng.choice(rest, size=min(per_cluster - 1, len(rest)),
                                   replace=False)
                picks.extend(int(i) for i in extra)
            for i in picks:
                records.append(SampleRecord(clip.frames[int(i)], clip.label))
    return records


# ---------------------------------------------------------------------------
# blur synthesis


def _gaussian_kernel(sigma):
    """Normalized 1-D taps of radius max(1, ceil(3 sigma)); the 2-D
    gaussian kernel is their outer product."""
    r = max(1, int(np.ceil(3 * sigma)))
    x = np.arange(-r, r + 1)
    # below sigma 7e-155 (x / sigma) ** 2 overflows, and exp(-inf) = 0 is exact
    with np.errstate(over="ignore"):
        k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def _motion_kernel(length, angle_deg):
    size = int(length)
    k = np.zeros((size, size))
    c = (size - 1) / 2.0
    theta = np.deg2rad(angle_deg)
    for t in np.linspace(-c, c, 4 * size):
        i = int(round(c - t * np.sin(theta)))
        j = int(round(c + t * np.cos(theta)))
        if 0 <= i < size and 0 <= j < size:
            k[i, j] = 1.0
    return k / k.sum()


# float64 values per dense blur block, counting each frame's pixels, its
# row-pass product and its two operators: 64 frames of the default
# 3x32x32. A block's operators and products are its own, so the memory
# they take grows neither with the stack nor with the frame size. One
# block of all 1600 default frames raised the peak RSS of a default
# blur_combo run from 181 to 208 MB, and blurring 400 3x128x128 frames
# peaked at 394 MB in blocks of 64 and at 355 MB in blocks of 4 (one
# BLAS thread).
_BLUR_BLOCK_VALUES = 1 << 19

# A frame is blurred by dense (h, h) and (w, w) operators, which cost
# O(larger side) per pixel, while its larger side is at most this many
# kernel widths (2r+1); above it, by _banded_blur, O(2r+1) per pixel.
# The banded passes were the faster above about 18 widths on 3x128x128
# frames, 37 on 3x256x256 and 47 on 3x512x512 (one BLAS thread), and
# every default 32x32 frame takes the dense products.
_DENSE_SPAN = 40


def _blur_block(c, h, w):
    """Frames per dense blur block for frames of shape (c, h, w)."""
    return max(1, _BLUR_BLOCK_VALUES // (2 * c * h * w + h * h + w * w))


def _per_frame(value, n, name):
    """`value` for each of `n` frames: a scalar (or None) applies to every
    frame, a sequence must hold one value per frame."""
    if value is None or np.ndim(value) == 0:
        return [value] * n
    values = list(value)
    if len(values) != n:
        raise SizeMismatch(f"{len(values)} values of {name} for {n} frames")
    return values


def _reflect(idx, n):
    """Index into an axis of length n after ndimage's "reflect" padding
    (d c b a | a b c d | d c b a), repeated for offsets beyond n."""
    m = np.mod(idx, 2 * n)
    return np.where(m < n, m, 2 * n - 1 - m)


def _blur_operators(kernels, n):
    """(len(kernels), n, n) matrices: operator i times a column of n
    pixels is that column blurred by the taps kernels[i] with "reflect"
    padding. Each frame's taps are zero-padded to the widest radius, and
    the operators are built by one fancy-index add per tap offset; rows
    are distinct within an offset, so no update is lost. Taps that the
    padding folds onto one pixel add up in tap order, and a zero tap
    leaves an entry as it is, so an operator does not depend on the
    other frames of the call."""
    r = max(len(k) for k in kernels) // 2
    taps = np.zeros((len(kernels), 2 * r + 1))
    for row, k in zip(taps, kernels):
        row[r - len(k) // 2:r + len(k) // 2 + 1] = k
    ops = np.zeros((len(kernels), n, n))
    rows = np.arange(n)
    for t in range(-r, r + 1):
        ops[:, rows, _reflect(rows + t, n)] += taps[:, t + r, None]
    return ops


def _banded_blur(planes, taps):
    """Each plane of (..., h, w) convolved with symmetric taps down the
    rows, then along the columns, with "reflect" padding (repeated for
    radii beyond the plane). Each output sums center * taps[r] plus
    (left_j + right_j) * taps[r - j], farthest j first, the order of
    ndimage's symmetric-kernel loop, so it is bit-identical to two
    ndimage.convolve1d passes."""
    r = len(taps) // 2
    out = planes
    for _ in range(2):  # axis -2, then axis -2 of the swapped planes
        n = out.shape[-2]
        padded = out[..., _reflect(np.arange(-r, n + r), n), :]
        out = padded[..., r:n + r, :] * taps[r]
        pair = np.empty_like(out)
        for j in range(r, 0, -1):
            np.add(padded[..., r - j:n + r - j, :], padded[..., r + j:n + r + j, :],
                   out=pair)
            pair *= taps[r - j]
            out += pair
        out = out.swapaxes(-1, -2)
    return out


def _gaussian_blur(stack, sigmas):
    """Gaussian blur of a stack (n, c, h, w), frame i at sigmas[i].

    A frame whose larger side is at most _DENSE_SPAN kernel widths is
    blurred with its run of such neighbours, a block at a time, by one
    batched product down the rows and one along the columns; any other
    frame by _banded_blur. The method and each frame's products
    depend on that frame alone, so its result does not depend on the
    rest of the stack."""
    # the products write through reshaped views of `out`, which are
    # views only of a C-ordered array; a Frame read from a PPM holds
    # transposed pixels
    stack = np.ascontiguousarray(stack)
    n, c, h, w = stack.shape
    out = np.empty(stack.shape)
    kernels = [_gaussian_kernel(s) for s in sigmas]
    dense = [max(h, w) <= _DENSE_SPAN * len(k) for k in kernels]
    step = _blur_block(c, h, w)
    s = 0
    while s < n:
        if not dense[s]:
            out[s] = _banded_blur(stack[s], kernels[s])
            s += 1
            continue
        e = s + 1
        while e < min(n, s + step) and dense[e]:
            e += 1
        block = slice(s, e)
        ops_h = _blur_operators(kernels[block], h)
        ops_w = ops_h if w == h else _blur_operators(kernels[block], w)
        down = np.matmul(ops_h[:, None], stack[block]).reshape(e - s, c * h, w)
        np.matmul(down, ops_w.transpose(0, 2, 1), out=out[block].reshape(e - s, c * h, w))
        s = e
    return out


# Frames per motion blur block: on 1600 default frames at length 9 (2-vCPU Xeon, one
# BLAS thread) blocks of 8 took 91-96 ms, of 4 100-129, of 16 96-104, of 64 203 ms.
_MOTION_BLOCK = 8


def _motion_blur(stack, kernel):
    """Each plane of (n, c, h, w) convolved with a square kernel, bit for bit
    as ndimage.convolve(stack, kernel[None, None], "reflect"): the sum, from
    zero in row-major order over the flipped kernel's nonzero taps, of tap *
    a shifted view of the reflect-padded planes (origin as in ndimage)."""
    n, c, h, w = stack.shape
    size = len(kernel)
    rows, cols = (_reflect(np.arange(m + size - 1) - (size - 1) // 2, m) for m in (h, w))
    flipped = kernel[::-1, ::-1]
    out = np.zeros(stack.shape)
    term = np.empty((min(n, _MOTION_BLOCK), c, h, w))
    for s in range(0, n, _MOTION_BLOCK):
        block = out[s:s + _MOTION_BLOCK]
        padded = stack[s:s + _MOTION_BLOCK][..., rows[:, None], cols]
        for a, b in zip(*np.nonzero(flipped)):
            block += np.multiply(padded[..., a:a + h, b:b + w], flipped[a, b],
                                 out=term[:len(block)])
    return out


def synth_blur(stack, kind="gaussian", sigma=2.0, length=9, angle=0.0,
               noise=0.0, seed=None):
    """Blur a stack (n, c, h, w) of frame pixels (a frame: `pixels[None]`)
    with a gaussian or a 1-px-wide motion-line kernel, reflect-padded.

    `sigma` and `seed` are scalars or one value per frame. The gaussian
    is separable. It runs as two batched matrix products, or on a frame
    wider than _DENSE_SPAN kernel widths as _banded_blur (see
    _gaussian_blur); it agrees with two ndimage.convolve1d passes to
    rounding, and a frame's result is the same in any stack. The motion
    blur sums shifted views of the reflect-padded frames, one per nonzero
    kernel tap, bit-identical to ndimage.convolve (see _motion_blur).

    `noise` adds i.i.d. post-blur pixel noise (re-capture noise), drawn
    for frame i from default_rng(seed[i]); it is what makes blur
    destructive rather than a reversible linear map. Returns the blurred
    stack clamped to [0,1]; every argument is checked before any kernel.
    """
    stack = _floats(stack, "blur input")
    if stack.ndim != 4 or stack.shape[1] not in (1, 3):
        raise InvalidValue(f"need a stack (n, 1|3, h, w), got {stack.shape}")
    if not np.isfinite(stack).all():
        raise InvalidValue("frame pixels must be finite")
    n, _, h, w = stack.shape
    if not (is_real(noise) and noise >= 0):
        raise InvalidValue(f"noise must be finite and >= 0, got {noise!r}")
    seeds = _per_frame(seed, n, "seed")
    for s in seeds:
        if not (s is None or is_count(s, least=0)):
            raise InvalidValue(f"seed must be an integer >= 0 or None, got {s!r}")
    if kind == "gaussian":
        sigmas = _floats(_per_frame(sigma, n, "sigma"), "sigma")
        for s in sigmas:
            if not (np.isfinite(s) and s > 0):
                raise InvalidValue(f"sigma must be finite and positive, got {s}")
            # a wider blur only flattens the frame, and a huge one would
            # build a vast kernel
            if s > max(h, w):
                raise InvalidValue(f"sigma {s} is above the frame's larger side {max(h, w)}")
        out = _gaussian_blur(stack, sigmas)
    elif kind == "motion":
        if not (is_count(length) and length <= max(h, w)):
            raise InvalidValue(f"motion length must be an integer in [1, {max(h, w)}], "
                               f"got {length!r}")
        if not is_real(angle):
            raise InvalidValue(f"motion angle must be finite, got {angle!r}")
        out = _motion_blur(stack, _motion_kernel(length, angle))
    else:
        raise InvalidValue(f"unknown blur kind {kind!r}")
    if noise > 0:
        for frame, frame_seed in zip(out, seeds):
            frame += np.random.default_rng(frame_seed).normal(0.0, noise, size=frame.shape)
    return np.clip(out, 0.0, 1.0, out=out)


# ---------------------------------------------------------------------------
# optical flow


# Frames per flow block. On 1600 default correlated pairs, flowed in 16
# calls of 100 at 15 sweeps (2-vCPU Xeon, one BLAS thread, medians of 5 in
# two rounds), blocks of 4 took 717-942 ms, of 8 504-569, of 16 476-559,
# of 32 592-727, of 64 610-658 and of 100 787-912 ms; blocks of 12 to 24
# were within the noise of 16.
_FLOW_BLOCK = 16

# The over-relaxation factor of the red-black sweep, and the sweeps the
# synthetic stream runs on each frame pair.
_SOR_OMEGA = 1.8
_FLOW_SWEEPS = 15


def _brightness_gradients(a, b):
    """Forward differences Ix, Iy (zero on the last column/row) and the
    temporal difference It of planes or stacks of planes."""
    Ix = np.zeros_like(a)
    Iy = np.zeros_like(a)
    Ix[..., :, :-1] = a[..., :, 1:] - a[..., :, :-1]
    Iy[..., :-1, :] = a[..., 1:, :] - a[..., :-1, :]
    return Ix, Iy, b - a


def _sor_block(a, b, lam, iters):
    """Horn-Schunck red-black SOR sweeps over a block (n, h, w) of frame
    pairs; returns the flow as one array (2, n, h, w) holding u and v."""
    Ix, Iy, It = _brightness_gradients(a, b)
    n, h, w = a.shape
    # u and v share one buffer: plane i is the interior of tile i, R rows
    # of pitch P with a one-pixel ghost border. Copying the edge rows, then
    # the full edge columns, into the border equals np.pad(mode="edge"):
    # the Neumann boundary that keeps the iteration consistent with the
    # interior-difference smoothness energy. P is odd (w+2 or w+3) and R
    # even (h+2 or h+3), so a cell's colour, (row+col) % 2, is the parity
    # of its flat index, and every plane starts on red.
    P, R = (w + 2) | 1, (h + 3) & ~1
    grid = np.zeros((2, n, R, P))
    # A half-sweep runs on every other cell of the flat band [P+1, N-P-1),
    # from its colour's first: the band starts at plane 0's first interior
    # pixel and ends after the last plane's last one, so a cell's
    # neighbours sit at -P, +P, -1 and +1 and stay inside the buffer. It
    # also holds ghost and padding cells; there Ix, Iy and It are 0 and the
    # denominator 1, so the update writes finite values that the next edge
    # copy overwrites or that no interior cell reads.
    N = n * R * P
    m = (N - 2 * P - 2) // 2  # cells of each colour in the band
    flat = grid.reshape(2, N)
    starts = (P + 1, P + 2)  # red, black

    def cells(x, start):
        return x[..., start:start + 2 * m:2]

    # Ix, Iy, It and the denominator in the layout, 0, 0, 0 and 1 around
    # the planes, as contiguous [red, black] cells of the band
    terms = np.zeros((4, n, R, P))
    terms[3] = 1.0
    for out, term in zip(terms[..., 1:h + 1, 1:w + 1],
                         (Ix, Iy, It, lam ** 2 + Ix ** 2 + Iy ** 2)):
        out[...] = term
    halves = []
    for start in starts:
        c = cells(terms.reshape(4, N), start).copy()
        halves.append(([cells(flat, start + d) for d in (-P, P, -1, 1, 0)], c[:2], c[2], c[3]))
    del terms, c
    bar = np.empty((2, m))
    prod = np.empty_like(bar)
    t = np.empty(m)
    for _ in range(iters):
        for (up, down, left, right, flow), grads, It_c, denom in halves:
            # the ghosts take the latest values of the other colour's half
            grid[..., 0, :] = grid[..., 1, :]
            grid[..., h + 1, :] = grid[..., h, :]
            grid[..., 0] = grid[..., 1]
            grid[..., w + 1] = grid[..., w]
            # every sum keeps the order of the per-plane expressions
            # ((up + down) + left + right) / 4, ((Ix*ubar + Iy*vbar) + It)
            # and u + omega * ((ubar - Ix*t) - u), so the flow is
            # bit-identical to one plane at a time; * 0.25 is the same IEEE
            # result as / 4
            np.add(up, down, out=bar)
            bar += left
            bar += right
            bar *= 0.25
            np.multiply(grads, bar, out=prod)
            np.add(prod[0], prod[1], out=t)
            t += It_c
            t /= denom
            np.multiply(grads, t, out=prod)
            bar -= prod
            bar -= flow
            bar *= _SOR_OMEGA
            flow += bar
    return grid[..., 1:h + 1, 1:w + 1]


def horn_schunck(f1, f2, lam=0.5, iters=100):
    """Classic dense optical flow, by red-black successive over-relaxation.

    f1, f2: gray planes (h, w), a frame's being `pixels.mean(axis=0)`, or
    stacks (n, h, w), pair i being (f1[i], f2[i]). Returns flow of the
    input's shape; a rightward image shift gives u > 0. Each of the `iters`
    sweeps updates the cells with (row+col) even, then the others, each
    from its neighbours' latest values: the Gauss-Seidel value of the
    Horn-Schunck equations, over-relaxed by omega = 1.8. A stack is swept in
    fixed blocks of frames; a pair's flow equals that of a call on it alone.
    """
    a, b = _floats(f1, "f1"), _floats(f2, "f2")
    if a.shape != b.shape:
        raise SizeMismatch("frame shapes differ")
    if a.ndim not in (2, 3):
        raise InvalidValue(f"need planes (h, w) or stacks (n, h, w), got {a.shape}")
    if not 0 < lam < math.inf:
        raise InvalidValue(f"lam must be positive and finite, got {lam}")
    if not is_count(iters):
        raise InvalidValue(f"iters must be an integer >= 1, got {iters!r}")
    stack_a, stack_b = (a, b) if a.ndim == 3 else (a[None], b[None])
    u, v = np.empty_like(stack_a), np.empty_like(stack_a)
    for s in range(0, len(stack_a), _FLOW_BLOCK):
        block = slice(s, s + _FLOW_BLOCK)
        u[block], v[block] = _sor_block(stack_a[block], stack_b[block], lam, iters)
    return FlowField(u=u.reshape(a.shape), v=v.reshape(a.shape))


def flow_energy(flow: FlowField, f1, f2, lam=0.5):
    """The Horn-Schunck objective: sum (Ix*u + Iy*v + It)^2 plus
    lam^2/4 times the squared differences of u and v between neighbours
    within a plane; of a stack, the sum over its pairs. The flow
    horn_schunck converges to is its stationary point."""
    Ix, Iy, It = _brightness_gradients(_floats(f1, "f1"), _floats(f2, "f2"))
    u, v = flow.u, flow.v
    smooth = sum((np.diff(f, axis=axis) ** 2).sum() for f in (u, v) for axis in (-2, -1))
    return float(((Ix * u + Iy * v + It) ** 2).sum() + lam ** 2 / 4 * smooth)


def _orientation(u, v):
    """Flow angle atan2(v,u) mapped from (-pi, pi] to [0,1], elementwise
    over planes or stacks; negligible magnitude maps to the neutral
    value 0.5."""
    mag = np.hypot(u, v)
    ang = np.arctan2(v, u)
    vals = 0.5 + ang / (2 * np.pi)
    return np.where(mag < 1e-6, 0.5, vals)


def orientation_map(flow: FlowField):
    """The orientation frame of one flow field (see _orientation)."""
    return Frame(_orientation(flow.u, flow.v)[None])


# ---------------------------------------------------------------------------
# synthetic dataset


def _hsv_to_rgb(h, s, v):
    i = int(h * 6) % 6
    f = h * 6 - int(h * 6)
    p, q, t = v * (1 - s), v * (1 - s * f), v * (1 - s * (1 - f))
    return [(v, t, p), (q, v, p), (p, v, t), (p, q, v), (t, p, v), (v, p, q)][i]


# Taps of ndimage.gaussian_filter at sigma 1: radius int(4 * sigma + 0.5).
_SMOOTH_TAPS = np.exp(-0.5 / 1.0 * np.arange(-4, 5) ** 2)
_SMOOTH_TAPS /= _SMOOTH_TAPS.sum()


def _smooth(planes):
    """Gaussian smoothing at sigma 1 of a plane or of each plane of a
    stack (..., h, w), bit-identical to ndimage.gaussian_filter(plane,
    1.0)."""
    return _banded_blur(planes, _SMOOTH_TAPS)


def _render_family(family, out, rng, draw_angles=False):
    """Fill `out` (count, 3, size, size) with one visual family: polygons,
    stripes, blob fields and checkers, each with a family-specific tint.

    Each image takes its random numbers from `rng` in turn: background
    noise, center, the family's draws, sensor noise and, with
    `draw_angles`, a motion angle in [0, 2*pi). The stack is then built
    with the same elementwise expressions an image at a time would use,
    and clamped to [0,1]. Returns the angles (None without `draw_angles`).
    """
    count, _, size, _ = out.shape
    kind = family % 4
    variant = family // 4
    blobs = 1 + 2 * variant if kind == 2 else 0
    r = size * (0.3 if kind == 0 else 0.12)
    noise = np.empty((count, size, size))
    sensor = np.empty((count, 3, size, size))
    cx, cy, turn = np.empty(count), np.empty(count), np.empty(count)
    bx, by = np.empty((count, blobs)), np.empty((count, blobs))
    angles = np.empty(count) if draw_angles else None
    for i in range(count):
        noise[i] = rng.normal(0.25, 0.05, size=(size, size))
        cx[i] = size / 2 + rng.uniform(-size / 8, size / 8)
        cy[i] = size / 2 + rng.uniform(-size / 8, size / 8)
        if kind in (0, 1):  # polygon rotation or stripe phase
            turn[i] = rng.uniform(0, 2 * np.pi)
        for j in range(blobs):
            bx[i, j] = rng.uniform(r, size - r)
            by[i, j] = rng.uniform(r, size - r)
        sensor[i] = rng.normal(0, 0.005, size=(3, size, size))
        if draw_angles:
            angles[i] = rng.uniform(0, 2 * np.pi)

    # smooth textured background
    base = _smooth(noise)
    color = np.array(_hsv_to_rgb((family * 0.61803) % 1.0, 0.9, 1.0))
    yy, xx = np.mgrid[0:size, 0:size]
    cx, cy, turn = cx[:, None, None], cy[:, None, None], turn[:, None, None]
    if kind == 0:  # filled regular polygon
        sides = 3 + variant
        ang = np.arctan2(yy - cy, xx - cx) + turn
        rad = np.hypot(yy - cy, xx - cx)
        # polygon boundary radius as a function of angle
        half = np.pi / sides
        rb = r * np.cos(half) / np.cos(((ang + half) % (2 * half)) - half)
        mask = rad <= rb
    elif kind == 1:  # stripes of family-specific frequency
        freq = 2 + 2 * variant
        mask = np.sin(2 * np.pi * freq * xx / size + turn) > 0.3
    elif kind == 2:  # blob field
        mask = np.zeros((count, size, size), dtype=bool)
        for j in range(blobs):
            mask |= np.hypot(yy - by[:, j, None, None], xx - bx[:, j, None, None]) <= r
    else:  # checker
        cell = max(2, size // (4 + 2 * variant))
        mask = ((yy // cell + xx // cell) % 2).astype(bool)[None]
    np.copyto(out, base[:, None])
    np.copyto(out, (0.25 + 0.75 * color)[:, None, None], where=mask[:, None])
    out += sensor
    np.clip(out, 0.0, 1.0, out=out)
    return angles


def _shift_plane(planes, dx, dy):
    """Integer wrap-around shift (dx rightward, dy downward) of a plane
    or of each plane of a stack."""
    return np.roll(planes, (int(round(dy)), int(round(dx))), axis=(-2, -1))


# Frames per block of the synthetic stream: 32 default 3x32x32 frames are
# 0.75 MB of pixels, and a block's render, flow, blur and backbone
# temporaries stay a few MB whatever the dataset's size.
FRAME_BLOCK = 32


def synthetic_blocks(num_classes=16, per_class=100, size=32, motion=False, seed=0):
    """The procedural image/video dataset as a stream: an iterator of
    `(images, orientation | None)` stacks, one per block of FRAME_BLOCK
    consecutive rows (the last block may be shorter). The arguments are
    checked at the call, before any block is made.

    motion=False: one still frame per sample, all visual families distinct.
    motion="correlated": classes share visual families in pairs and are
    distinguished by motion direction; each sample carries the
    flow-orientation map.
    motion="uncorrelated": distinct visuals, random motion direction.

    Row r holds class r // per_class. The rows are rendered in order from
    one generator seeded with `seed`, a block crossing a class boundary
    rendering each class's run of its rows in turn, so every pixel is the
    same in any block layout.
    """
    if not (is_count(num_classes) and num_classes <= 16):
        raise InvalidValue(f"num_classes must be an integer in [1,16], got {num_classes!r}")
    if not (is_count(size) and size >= 16):
        raise InvalidValue(f"size must be an integer >= 16, got {size!r}")
    if motion not in (False, "correlated", "uncorrelated"):
        raise InvalidValue(f"bad motion mode {motion!r}")
    if not is_count(per_class):
        raise InvalidValue(f"per_class must be >= 1 (an integer), got {per_class!r}")
    if not is_count(seed, least=0):
        raise InvalidValue(f"seed must be an integer >= 0, got {seed!r}")
    return _render_blocks(num_classes, per_class, size, motion, np.random.default_rng(seed))


def _render_blocks(num_classes, per_class, size, motion, rng):
    n = num_classes * per_class
    step = 2.0
    for start in range(0, n, FRAME_BLOCK):
        stop = min(start + FRAME_BLOCK, n)
        images = np.empty((stop - start, 3, size, size))
        orientation = np.empty((len(images), 1, size, size)) if motion else None
        for c in range(start // per_class, (stop - 1) // per_class + 1):
            rows = slice(max(start, c * per_class) - start, min(stop, (c + 1) * per_class) - start)
            family = c % ((num_classes + 1) // 2) if motion == "correlated" else c
            angles = _render_family(family, images[rows], rng, motion == "uncorrelated")
            if not motion:
                continue
            first = images[rows].mean(axis=1)
            if motion == "correlated":
                angle = 2 * np.pi * c / num_classes
                second = _shift_plane(first, step * np.cos(angle), step * np.sin(angle))
            else:
                second = np.stack([_shift_plane(p, step * np.cos(a), step * np.sin(a))
                                   for p, a in zip(first, angles)])
            flow = horn_schunck(first, second, lam=0.5, iters=_FLOW_SWEEPS)
            orientation[rows, 0] = _orientation(flow.u, flow.v)  # in [0,1] by construction
        yield images, orientation


# ---------------------------------------------------------------------------
# PPM / PGM I/O (binary, 8-bit)


def write_ppm(frame: Frame, path):
    if frame.channels != 3:
        raise InvalidValue("PPM needs a 3-channel frame")
    data = np.round(frame.pixels * 255).astype(np.uint8).transpose(1, 2, 0)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{frame.width} {frame.height}\n255\n".encode())
        fh.write(data.tobytes())


def write_pgm(frame: Frame, path):
    if frame.channels != 1:
        raise InvalidValue("PGM needs a single-channel frame")
    data = np.round(frame.pixels[0] * 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{frame.width} {frame.height}\n255\n".encode())
        fh.write(data.tobytes())


def _read_netpbm(path, magic):
    with open(path, "rb") as fh:
        tokens = []
        while len(tokens) < 4:
            line = fh.readline()
            if not line:
                raise InvalidValue(f"{path}: truncated header")
            body = line.split(b"#")[0]
            tokens.extend(body.split())
        if tokens[0] != magic:
            raise InvalidValue(f"{path}: expected {magic.decode()}")
        if not all(t.isdigit() for t in tokens[1:4]):
            raise InvalidValue(f"{path}: malformed header")
        w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
        if w < 1 or h < 1 or not 1 <= maxval <= 255:
            raise InvalidValue(f"{path}: need width, height >= 1 and maxval "
                               f"in [1, 255], got {w} {h} {maxval}")
        planes = 3 if magic == b"P6" else 1
        # checked before reading, so a bogus size allocates nothing
        if os.fstat(fh.fileno()).st_size - fh.tell() < w * h * planes:
            raise InvalidValue(f"{path}: truncated body")
        raw = fh.read(w * h * planes)
    arr = np.frombuffer(raw, dtype=np.uint8).astype(np.float64) / maxval
    if planes == 3:
        return Frame(arr.reshape(h, w, 3).transpose(2, 0, 1))
    return Frame(arr.reshape(1, h, w))


def read_ppm(path):
    return _read_netpbm(path, b"P6")


def read_pgm(path):
    return _read_netpbm(path, b"P5")
