"""Synthetic data generation and every preprocessing step that feeds the
classifier heads: DFT-based intensity specification, key-frame plus
k-means sampling, blur synthesis, dense optical flow and orientation
maps.

All frame pixels live in [0,1] (clamped after every op) and are stored
channel-major as float64.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidValue, SizeMismatch

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

    def gray(self):
        """Channel-mean luminance plane (h, w)."""
        return self.pixels.mean(axis=0)


@dataclass
class VideoClip:
    frames: list  # of Frame, uniform geometry
    fps: float = 30.0
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
    source: str = "normal"  # normal | blurred
    partition: int | None = None
    orientation: Frame | None = None  # flow-angle image for the second stream


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
    if band < 1:
        raise InvalidValue("band must be >= 1")
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
    if tau <= 0:
        raise InvalidValue("tau must be positive")
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
    n = X.shape[0]
    if k < 1:
        raise InvalidValue(f"k must be >= 1, got {k}")
    if k > len(np.unique(X, axis=0)):
        raise InvalidValue(f"k={k} exceeds distinct point count")
    if max_iters < 1:
        raise InvalidValue("max_iters must be >= 1")
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


def synth_blur(image: Frame, kind="gaussian", sigma=2.0, length=9, angle=0.0,
               noise=0.0, seed=None):
    """Blur a frame with a gaussian or a 1-px-wide motion-line kernel,
    reflect-padded. The gaussian is separable: one 1-D pass down the
    rows and one along the columns of every channel at once.

    `noise` adds i.i.d. post-blur pixel noise (re-capture noise); it is
    what makes blur destructive rather than a reversible linear map.
    """
    if not (np.isfinite(noise) and noise >= 0):
        raise InvalidValue(f"noise must be finite and >= 0, got {noise}")
    # imported here, not at module load, so that runs which never blur
    # never pay for scipy's import time and memory
    from scipy import ndimage

    if kind == "gaussian":
        if not (np.isfinite(sigma) and sigma > 0):
            raise InvalidValue(f"sigma must be finite and positive, got {sigma}")
        k = _gaussian_kernel(sigma)
        out = ndimage.convolve1d(image.pixels, k, axis=1, mode="reflect")
        out = ndimage.convolve1d(out, k, axis=2, mode="reflect")
    elif kind == "motion":
        if length < 1:
            raise InvalidValue("motion length must be >= 1")
        if not np.isfinite(angle):
            raise InvalidValue(f"motion angle must be finite, got {angle}")
        kernel = _motion_kernel(length, angle)
        out = np.stack([
            ndimage.convolve(image.pixels[c], kernel, mode="reflect")
            for c in range(image.channels)
        ])
    else:
        raise InvalidValue(f"unknown blur kind {kind!r}")
    if noise > 0:
        rng = np.random.default_rng(seed)
        out = out + rng.normal(0.0, noise, size=out.shape)
    return Frame(out)


# ---------------------------------------------------------------------------
# optical flow


# Frames per Jacobi block. A 16-frame block of 32x32 planes keeps the
# sweep's working set in cache; on a 2-vCPU Xeon with 4 MiB of L2, one
# block of 1600 such frames ran 2-2.5x slower.
_FLOW_BLOCK = 16


def _gray(f):
    return f.gray() if isinstance(f, Frame) else np.asarray(f, dtype=np.float64)


def _brightness_gradients(a, b):
    """Forward differences Ix, Iy (zero on the last column/row) and the
    temporal difference It of planes or stacks of planes."""
    Ix = np.zeros_like(a)
    Iy = np.zeros_like(a)
    Ix[..., :, :-1] = a[..., :, 1:] - a[..., :, :-1]
    Iy[..., :-1, :] = a[..., 1:, :] - a[..., :-1, :]
    return Ix, Iy, b - a


def _jacobi_block(a, b, lam, iters):
    """Horn-Schunck Jacobi sweeps over a block (n, h, w) of frame pairs;
    returns the flow as one array (2, n, h, w) holding u and v."""
    Ix, Iy, It = _brightness_gradients(a, b)
    n, h, w = a.shape
    # u and v share one buffer with a one-pixel ghost border. Copying the
    # edge rows, then the full edge columns, into the border equals
    # np.pad(mode="edge"): the Neumann boundary that keeps the iteration
    # consistent with the interior-difference smoothness energy.
    grid = np.zeros((2, n, h + 2, w + 2))
    # Every other op runs on the flat band [W+1, N-W-1) of that layout:
    # it starts at plane 0's first interior pixel and ends after the last
    # plane's last one, so a pixel's neighbours sit at -W, +W, -1 and +1
    # and stay inside the buffer. The band also holds ghost pixels; there
    # Ix, Iy and It are 0 and the denominator 1, so the update writes a
    # finite ubar/vbar that the next edge copy overwrites.
    W = w + 2
    N = n * (h + 2) * W
    lo, hi = W + 1, N - W - 1
    flat = grid.reshape(2, N)
    flow = flat[:, lo:hi]
    up, down = flat[:, lo - W:hi - W], flat[:, lo + W:hi + W]
    left, right = flat[:, lo - 1:hi - 1], flat[:, lo + 1:hi + 1]

    def banded(planes, ghost):
        out = np.full(planes.shape[:-2] + (h + 2, W), ghost)
        out[..., 1:-1, 1:-1] = planes
        return out.reshape(planes.shape[:-3] + (N,))[..., lo:hi]

    grads = banded(np.stack([Ix, Iy]), 0.0)
    It = banded(It, 0.0)
    denom = banded(lam ** 2 + Ix ** 2 + Iy ** 2, 1.0)
    bar = np.empty_like(flow)
    prod = np.empty_like(flow)
    t = np.empty_like(It)
    for _ in range(iters):
        grid[..., 0, :] = grid[..., 1, :]
        grid[..., -1, :] = grid[..., -2, :]
        grid[..., 0] = grid[..., 1]
        grid[..., -1] = grid[..., -2]
        # every sum keeps the order of the per-plane expressions
        # ((up + down) + left + right) / 4 and ((Ix*ubar + Iy*vbar) + It),
        # so the flow is bit-identical to one plane at a time; * 0.25 is
        # the same IEEE result as / 4
        np.add(up, down, out=bar)
        bar += left
        bar += right
        bar *= 0.25
        np.multiply(grads, bar, out=prod)
        np.add(prod[0], prod[1], out=t)
        t += It
        t /= denom
        np.multiply(grads, t, out=prod)
        np.subtract(bar, prod, out=flow)
    return grid[..., 1:-1, 1:-1]


def horn_schunck(f1, f2, lam=0.5, iters=100):
    """Classic dense optical flow via Jacobi iteration.

    f1, f2: gray planes (h, w), single-channel Frames, or stacks (n, h, w)
    of planes, frame pair i being (f1[i], f2[i]). Returns flow of the
    input's shape, such that a rightward image shift gives u > 0. A stack
    is swept in fixed blocks of frames; each pair's flow equals that of
    a call on the pair alone.
    """
    a = _gray(f1)
    b = _gray(f2)
    if a.shape != b.shape:
        raise SizeMismatch("frame shapes differ")
    if a.ndim not in (2, 3):
        raise InvalidValue(f"need planes (h, w) or stacks (n, h, w), got {a.shape}")
    if lam <= 0 or iters < 1:
        raise InvalidValue("need lam > 0 and iters >= 1")
    stack_a, stack_b = (a, b) if a.ndim == 3 else (a[None], b[None])
    u = np.empty_like(stack_a)
    v = np.empty_like(stack_a)
    for s in range(0, len(stack_a), _FLOW_BLOCK):
        block = slice(s, s + _FLOW_BLOCK)
        u[block], v[block] = _jacobi_block(stack_a[block], stack_b[block], lam, iters)
    return FlowField(u=u.reshape(a.shape), v=v.reshape(a.shape))


def flow_energy(flow: FlowField, f1, f2, lam=0.5):
    """Data + smoothness objective the Jacobi iteration descends."""
    Ix, Iy, It = _brightness_gradients(_gray(f1), _gray(f2))
    u, v = flow.u, flow.v
    data = ((Ix * u + Iy * v + It) ** 2).sum()
    gu = np.diff(u, axis=0) ** 2
    gu2 = np.diff(u, axis=1) ** 2
    gv = np.diff(v, axis=0) ** 2
    gv2 = np.diff(v, axis=1) ** 2
    return float(data + lam ** 2 * (gu.sum() + gu2.sum() + gv.sum() + gv2.sum()))


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
    1.0) for planes at least 4 wide: the taps run along axis -2, then
    axis -1, over edge-repeating mirror padding, and each output sums
    center * w[r] plus (left_j + right_j) * w[r - j], farthest j first,
    the order of ndimage's symmetric-kernel loop."""
    w = _SMOOTH_TAPS
    r = len(w) // 2
    out = planes
    for _ in range(2):  # axis -2, then axis -2 of the swapped planes
        n = out.shape[-2]
        padded = np.empty(out.shape[:-2] + (n + 2 * r, out.shape[-1]))
        padded[..., :r, :] = out[..., :r, :][..., ::-1, :]
        padded[..., r:n + r, :] = out
        padded[..., n + r:, :] = out[..., n - r:, :][..., ::-1, :]
        out = padded[..., r:n + r, :] * w[r]
        pair = np.empty_like(out)
        for j in range(r, 0, -1):
            np.add(padded[..., r - j:n + r - j, :], padded[..., r + j:n + r + j, :],
                   out=pair)
            pair *= w[r - j]
            out += pair
        out = out.swapaxes(-1, -2)
    return out


def _render_family(family, count, size, rng, draw_angles=False):
    """`count` images of one visual family: polygons, stripes, blob
    fields and checkers, each with a family-specific color tint.

    Each image takes its random numbers from `rng` in turn: background
    noise, center, the family's draws, sensor noise and, with
    `draw_angles`, a motion angle in [0, 2*pi). The stack is then built
    with the same elementwise expressions an image at a time would use.
    Returns the pixels (count, 3, size, size), clamped to [0,1], and the
    angles (None without `draw_angles`).
    """
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
    img = np.where(mask[:, None], (0.25 + 0.75 * color)[:, None, None], base[:, None])
    img += sensor
    return np.clip(img, 0.0, 1.0, out=img), angles


def _shift_plane(planes, dx, dy):
    """Integer wrap-around shift (dx rightward, dy downward) of a plane
    or of each plane of a stack."""
    return np.roll(planes, (int(round(dy)), int(round(dx))), axis=(-2, -1))


def gen_synthetic_dataset(num_classes=16, per_class=100, size=32, motion=False,
                          seed=0):
    """Procedural image/video dataset.

    motion=False: one still frame per record, all visual families distinct.
    motion="correlated": classes share visual families in pairs and are
    distinguished by motion direction; each record carries the
    flow-orientation frame.
    motion="uncorrelated": distinct visuals, random motion direction.

    Returns the list of records.
    """
    if not (1 <= num_classes <= 16):
        raise InvalidValue("num_classes must be in [1,16]")
    if size < 16:
        raise InvalidValue("size must be >= 16")
    if motion not in (False, "correlated", "uncorrelated"):
        raise InvalidValue(f"bad motion mode {motion!r}")
    if per_class < 1:
        raise InvalidValue(f"per_class must be >= 1, got {per_class}")
    rng = np.random.default_rng(seed)
    records = []
    if motion:
        # gray planes of each frame and of its shifted copy, flowed in one call
        first = np.empty((num_classes * per_class, size, size))
        second = np.empty_like(first)
    step = 2.0
    for c in range(num_classes):
        if motion == "correlated":
            family = c % max(1, (num_classes + 1) // 2)
        else:
            family = c
        pixels, angles = _render_family(family, per_class, size, rng,
                                        draw_angles=motion == "uncorrelated")
        records.extend(SampleRecord(Frame(p), c) for p in pixels)
        if not motion:
            continue
        rows = slice(c * per_class, (c + 1) * per_class)
        first[rows] = pixels.mean(axis=1)
        if motion == "correlated":
            angle = 2 * np.pi * c / num_classes
            second[rows] = _shift_plane(first[rows], step * np.cos(angle),
                                        step * np.sin(angle))
        else:
            for i, angle in enumerate(angles, rows.start):
                second[i] = _shift_plane(first[i], step * np.cos(angle),
                                         step * np.sin(angle))
    if motion:
        flow = horn_schunck(first, second, lam=0.5, iters=60)
        for rec, vals in zip(records, _orientation(flow.u, flow.v)):
            rec.orientation = Frame(vals[None])
    return records


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
