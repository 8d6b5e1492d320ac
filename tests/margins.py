"""Margins of acceptance criteria 6, 7 and 8, per seed, as JSON.

    PYTHONPATH=src python tests/margins.py [--criterion N ...] [--out margins.json]

The criteria in test_acceptance.py pass or fail; this script runs the
same configs and reports how far each seed's result is from its
threshold, so that a change which moves floats can show what it did to
the results. A margin is positive when the seed meets its threshold.
`--criterion N` (repeatable) runs only criterion N, so that a change can
re-run just the criteria it touches. pytest does not collect this file.

- criterion 6: 2LR + 0.05 - 3LR, on the mean loss of the last 500 steps
- criterion 7: (N-N-N - 10) - B-N-N, B-B-B - (B-N-N + 5) and
  15 - |N-B-B - N-N-N|, on SVM accuracy (%)
- criterion 8: gap - 5 (correlated motion) and 3 - |gap| (uncorrelated),
  gap being the rgb_plus_orientation - rgb_only net accuracy (%)
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile

import numpy as np

from noclab import harness

SEEDS3 = (0, 1, 2)


def criterion_6(seed, _):
    cfg = harness.parse_config(None, {"seed": seed, "regime.iterations": 1000})
    feats, labels, tr, _ = harness.split_features(cfg, {"N"})
    heads = harness.train_heads(cfg, feats, labels, tr,
                                [("N", cfg["arch.arch_id"], r) for r in ("2LR", "3LR")])
    finals = {regime: float(np.mean([loss for *_, loss in rows][-500:]))
              for (_, _, regime), (_, rows) in heads.items()}
    return {"loss_2LR": finals["2LR"], "loss_3LR": finals["3LR"],
            "margins": {"3LR <= 2LR + 0.05": finals["2LR"] + 0.05 - finals["3LR"]}}


def criterion_7(seed, out_dir):
    cfg = harness.parse_config(None, {
        "experiment": "blur_combo", "combo": "all", "seed": seed,
        "dataset.classes": 8, "dataset.per_class": 40,
        "regime.name": "1LR", "regime.iterations": 80,
        "output_dir": f"{out_dir}/b{seed}",
    })
    acc = {m: a for m, _, s, a, _ in harness.run_experiment(cfg).metrics_rows
           if s == "svm"}
    return {"svm_accuracy": acc, "margins": {
        "B-N-N <= N-N-N - 10": acc["N-N-N"] - 10 - acc["B-N-N"],
        "B-B-B >= B-N-N + 5": acc["B-B-B"] - acc["B-N-N"] - 5,
        "|N-B-B - N-N-N| <= 15": 15 - abs(acc["N-B-B"] - acc["N-N-N"]),
    }}


def criterion_8(seed, out_dir):
    result = {}
    for motion in ("correlated", "uncorrelated"):
        cfg = harness.parse_config(None, {
            "experiment": "fusion", "seed": seed, "dataset.motion": motion,
            "dataset.classes": 8, "dataset.per_class": 60,
            "regime.name": "2LR", "regime.iterations": 200,
            "output_dir": f"{out_dir}/f{motion}{seed}",
        })
        acc = {m: a for m, _, s, a, _ in harness.run_experiment(cfg).metrics_rows
               if s == "net"}
        gap = acc["rgb_plus_orientation"] - acc["rgb_only"]
        result[motion] = {"gap": gap,
                          "margin": gap - 5 if motion == "correlated" else 3 - abs(gap)}
    return result


CRITERIA = {6: criterion_6, 7: criterion_7, 8: criterion_8}


def margins(criteria=tuple(CRITERIA)):
    report = {}
    with tempfile.TemporaryDirectory() as out_dir:
        for n in criteria:
            report[f"criterion_{n}"] = {f"seed_{seed}": CRITERIA[n](seed, out_dir)
                                        for seed in SEEDS3}
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--criterion", type=int, action="append", choices=sorted(CRITERIA),
                        help="run only this criterion (repeatable; default: all)")
    parser.add_argument("--out", help="also write the JSON to this file")
    args = parser.parse_args(argv)
    criteria = sorted(set(args.criterion)) if args.criterion else tuple(CRITERIA)
    text = json.dumps(margins(criteria), indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
