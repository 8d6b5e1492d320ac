"""Dense optical flow, orientation maps, and two-stream sum fusion.

When classes share their appearance but move differently, an RGB-only
head cannot tell them apart; adding a flow-orientation stream recovers
the motion signal.

Run: python3 demos/04_flow_and_fusion.py
"""

import numpy as np

from noclab import datapipe as dp
from noclab import harness, nets

# --- Horn-Schunck on a known translation ------------------------------------
yy, xx = np.mgrid[0:24, 0:24]
f1 = 0.8 * np.exp(-((xx - 10) ** 2 + (yy - 12) ** 2) / 18.0)
f2 = 0.8 * np.exp(-((xx - 12) ** 2 + (yy - 12) ** 2) / 18.0)  # +2 px in x
flow = dp.horn_schunck(f1, f2, lam=0.5, iters=200)
mag = np.hypot(flow.u, flow.v)
sel = mag > 0.3 * mag.max()
angle = np.degrees(np.median(np.arctan2(flow.v[sel], flow.u[sel])))
print(f"recovered flow direction {angle:.1f} deg (truth 0 deg, rightward)")
orient = dp.orientation_map(flow)
print(f"orientation map range [{orient.pixels.min():.2f}, "
      f"{orient.pixels.max():.2f}] (0.5 = rightward)")

# --- two-stream fusion on motion-correlated classes -------------------------
cfg = harness.parse_config(None, {
    "experiment": "fusion", "dataset.motion": "correlated",
    "dataset.classes": 6, "dataset.per_class": 30,
    "regime.name": "2LR", "regime.iterations": 150, "seed": 0,
    "output_dir": "/tmp/demo_fusion",
})
print("running the fusion experiment (classes share looks, differ in motion)…")
art = harness.run_experiment(cfg)
for method, regime, split, acc, fa in sorted(art.metrics_rows):
    if split == "net":
        print(f"  {method:22s} accuracy {acc:5.1f}%")

# the fusion the experiment runs: standardized backbone features of the
# two streams, the orientation stream scaled down before the sum
size = int(cfg["dataset.size"])
channels = int(cfg["backbone.channels"])
bi = nets.build_backbone((3, size, size), channels, seed=1)
bo = nets.build_backbone((3, size, size), channels, seed=2)
images, orientation = next(dp.synthetic_blocks(6, 30, size, "correlated", 0))
f_rgb = harness.extract_features(bi, images[:3])
f_orient = harness.extract_features(bo, np.repeat(orientation[:3], 3, axis=1))
scale = cfg["fusion.orientation_scale"]
fused = nets.fuse_sum(f_rgb, f_orient, scale)
head = nets.build_noc(nets.NocArch("C1F3", fused.shape[1:], 6, 1 / 32), seed=0)
logits = nets.infer(head, fused)
print(f"fuse_sum (orientation scale {scale}) logits shape: {logits.shape}")
