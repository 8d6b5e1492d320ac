"""Walk through the data pipeline: spectral specification, key-frame
plus k-means sampling, and blur synthesis.

Run: python3 demos/03_data_pipeline.py
"""

import numpy as np

from noclab import datapipe as dp

rng = np.random.default_rng(0)

# --- spectral specification -------------------------------------------------
# Replace an image's low-band spectral magnitudes with a reference's
# while keeping its own phases: structure stays, global tone follows
# the reference.
frame = dp.Frame(rng.random((3, 32, 32)))
base = dp.Frame(np.clip(rng.random((3, 32, 32)) * 0.3, 0, 1))
spec = dp.spectral_specify(frame, base, band=4)
print(f"frame mean {frame.pixels.mean():.3f} -> specified {spec.pixels.mean():.3f} "
      f"(reference {base.pixels.mean():.3f})")

# --- key frames + k-means sampling -----------------------------------------
# A clip that lingers on one scene produces many near-duplicate frames;
# sampling keeps one representative per cluster.
still = dp.Frame(rng.random((3, 16, 16)))
frames = [still] * 20
for i in range(5):  # five genuine scene changes
    frames.insert(4 * i + 2, dp.Frame(rng.random((3, 16, 16))))
clip = dp.VideoClip(frames, label=0)
feat = lambda f: f.pixels.ravel()
keys = dp.keyframe_select(clip, feat, tau=dp.default_tau(clip, feat))
records = dp.sample_dataset([clip], feat, per_cluster=1, seed=0)
print(f"clip of {len(frames)} frames -> {len(keys)} key frames -> "
      f"{len(records)} sampled records")

# --- blur synthesis ---------------------------------------------------------
sharp = dp.Frame(dp.gen_synthetic_dataset(4, 1, 32, seed=1).images[0])
# the blur takes a stack of frames; one frame is a one-frame stack
for kind in ("gaussian", "motion"):
    blurred = dp.synth_blur(sharp.pixels[None], kind=kind, sigma=2.0, length=9,
                            angle=30.0)[0]
    print(f"{kind} blur: pixel variance {sharp.pixels.var():.4f} -> "
          f"{blurred.var():.4f}")

# post-blur sensor noise makes the degradation non-invertible
noisy = dp.synth_blur(sharp.pixels[None], sigma=2.0, noise=0.02, seed=7)[0]
print(f"with re-capture noise: variance {noisy.var():.4f}")

# round-trip to disk as binary PPM
dp.write_ppm(sharp, "/tmp/demo_sharp.ppm")
back = dp.read_ppm("/tmp/demo_sharp.ppm")
print(f"PPM round-trip max error {np.abs(back.pixels - sharp.pixels).max():.5f} "
      "(8-bit quantization)")
