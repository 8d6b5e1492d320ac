"""The blur study and feature-space evaluation (SVM, PCA, t-SNE).

The four data/net/SVM combos answer: what happens when a model trained
on sharp data meets blurred data (B-N-N), and does training on blurred
data fix it (B-B-B) without hurting sharp data (N-B-B)?

Run: python3 demos/05_blur_study_and_embeddings.py
"""

import numpy as np

from noclab import evaluate as ev
from noclab import harness

cfg = harness.parse_config(None, {
    "experiment": "blur_combo", "combo": "all",
    "dataset.classes": 8, "dataset.per_class": 40,
    "regime.name": "1LR", "regime.iterations": 80, "seed": 0,
    "output_dir": "/tmp/demo_blur",
})
# one run scores all four combos; combos sharing a net variant share its head
art = harness.run_experiment(cfg)
svm_acc = {m: a for m, r, s, a, f in art.metrics_rows if s == "svm"}
print("combo  (data - net - SVM)   SVM accuracy")
for combo in ("N-N-N", "B-N-N", "B-B-B", "N-B-B"):
    print(f"  {combo:26s} {svm_acc[combo]:5.1f}%")
print("expected shape: B-N-N drops well below N-N-N; B-B-B recovers; "
      "N-B-B stays close to N-N-N")

# --- feature-space evaluation ----------------------------------------------
cfg = harness.parse_config(None, {
    "dataset.classes": 6, "dataset.per_class": 40, "seed": 0,
    "regime.name": "2LR", "regime.iterations": 120,
})
feats, labels, tr, te = harness.split_features(cfg, {"N"})
key = ("N", cfg["arch.arch_id"], "2LR")
head, _ = harness.train_heads(cfg, feats, labels, tr, [key])[key]
pen = harness.head_embedding(head, feats["N"][te])

svm = ev.svm_train(harness.head_embedding(head, feats["N"][tr]), labels[tr], epochs=10, seed=0)
pred = ev.svm_predict(svm, pen)
metrics = ev.compute_metrics(pred, labels[te], background_class=5, num_classes=6)
print(f"\nSVM on penultimate features: accuracy {metrics.accuracy:.1f}%, "
      f"false alarms {metrics.false_alarms}")

coords, comps, _ = ev.pca_project(pen, 2, seed=0)
spread = coords.std(axis=0)
print(f"PCA embedding spread: {spread[0]:.3f} x {spread[1]:.3f}")

Y, kl = ev.tsne_embed(pen, perplexity=8.0, iters=250, seed=0)
print(f"t-SNE KL: {kl[0]:.3f} -> {kl[-1]:.3f} "
      f"(non-increasing after early exaggeration)")
