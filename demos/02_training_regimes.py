"""Train one classifier head under the three learning regimes and
compare their loss traces.

1LR: SGD with a learning rate decaying linearly 0.01 -> 0.005.
2LR: RMSProp at a fixed rate.
3LR: per-partition covariance-preconditioned training; the partition
     clones are trained independently and their parameters averaged.

Run: python3 demos/02_training_regimes.py
"""

import numpy as np

from noclab import harness, nets

cfg = harness.parse_config(None, {
    "dataset.classes": 6, "dataset.per_class": 30, "dataset.size": 16,
    "regime.iterations": 120, "seed": 0,
})

feats, labels, tr, te = harness.split_features(cfg, {"N"})
print(f"dataset: {len(labels)} samples, features {feats['N'].shape[1:]}, "
      f"head {cfg['arch.arch_id']} "
      f"(fc width {nets.NocArch.scaled_fc_width(cfg['arch.width_scale'])})")

heads = harness.train_heads(cfg, feats, labels, tr,
                            [("N", cfg["arch.arch_id"], r) for r in ("1LR", "2LR", "3LR")])
for (_, _, regime), (head, rows) in heads.items():
    losses = [l for *_, l in rows]
    _, logits = harness.head_outputs(head, feats["N"][te])
    acc = harness.accuracy(logits, labels[te])
    print(f"{regime}: first-10 loss {np.mean(losses[:10]):.3f} -> "
          f"last-10 loss {np.mean(losses[-10:]):.3f}, test accuracy {acc:.1f}%")

# The 3LR trace holds one contiguous block per partition, its steps
# restarting at 0; each partition's clone starts from the same
# initialization and the final model is the mean. (1LR and 2LR chain one
# model through the partitions and number steps on across them.)
_, rows = heads["N", cfg["arch.arch_id"], "3LR"]
parts = sorted({p for _, p, _, _ in rows})
print(f"3LR trained {len(parts)} partition clones "
      f"({len(rows) // len(parts)} steps each) before averaging")
