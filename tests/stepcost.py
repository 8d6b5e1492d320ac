"""Median cost of one step of the per-step loops, in microseconds, as JSON.

    PYTHONPATH=src python tests/stepcost.py [--repeats N] [--out stepcost.json]

At the default grid's shapes, on one BLAS thread (the script sets the
thread variables before numpy loads):

- `update_us`: one training step's update for each regime and head
  (C0F3, C1F3, M1) on 16x4x4 backbone features: the gather of the
  gradients into one flat vector and the regime's rule over it, as
  `optim.train_epoch` runs them;
- `loss_and_grads_us`: `nets.loss_and_grads` on a prepared batch of 32;
- `svm_step_us`: one lock-step `evaluate.svm_train` step (16 classes,
  dim 128, n 1280) at 1 and 3 fits, timed as the difference between
  5-epoch and 1-epoch fits divided by the 4n steps between them;
- `flow_sweep_us`: one red-black sweep of `datapipe.horn_schunck` over a
  block of `datapipe._FLOW_BLOCK` frame pairs of 32x32, timed as the
  difference between a 16-sweep and a 1-sweep call divided by 15.

Each figure is the median of `--repeats` timed blocks. It reports
costs and checks nothing; pytest does not collect this file.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from noclab import datapipe, evaluate, harness, nets, optim  # noqa: E402


def median_us(fn, repeats, calls):
    """Median over `repeats` blocks of the mean time of `calls` calls."""
    fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - start) / calls)
    return 1e6 * statistics.median(times)


def head_costs(cfg, repeats):
    channels, size = cfg["backbone.channels"], cfg["dataset.size"]
    feat_shape = nets.infer(nets.build_backbone((3, size, size), channels, seed=0),
                            np.zeros((1, 3, size, size))).shape[1:]
    rng = np.random.default_rng(0)
    X = np.abs(rng.normal(size=(cfg["regime.batch_size"],) + feat_shape))
    labels = rng.integers(0, cfg["dataset.classes"], size=len(X))
    hyper = cfg.hyper()
    update, loss = {}, {}
    for arch_id in nets.ARCH_IDS:
        model = nets.build_noc(harness._head_arch(cfg, feat_shape, arch_id), seed=0)
        batch = nets.prepare_batch(model, X, labels)
        loss[arch_id] = median_us(
            lambda: nets.loss_and_grads(model, model.params, batch), repeats, 20)
        _, grads = nets.loss_and_grads(model, model.params, batch)
        for regime in optim.REGIMES:
            theta, params = optim._flatten(model.params)
            step = optim._flat_step(regime, hyper, theta, list(params))
            update[f"{arch_id}/{regime}"] = median_us(
                lambda: step(grads, hyper.alpha), repeats, 50)
    return update, loss


def svm_step_costs(cfg, repeats):
    per_class = cfg["dataset.per_class"]
    n = cfg["dataset.classes"] * (per_class - harness._test_count(per_class))
    dim = nets.NocArch.scaled_fc_width(cfg["arch.width_scale"])
    labels = np.arange(n) % cfg["dataset.classes"]
    rng = np.random.default_rng(1)
    costs = {}
    for fits in (1, 3):
        X = evaluate.l2_normalize_rows(rng.normal(size=(fits * n, dim)))
        stack = X.reshape(fits, n, dim)
        epochs = {e: median_us(lambda e=e: evaluate.svm_train(stack, labels, epochs=e),
                               repeats, 1) for e in (1, 5)}
        costs[f"fits_{fits}"] = (epochs[5] - epochs[1]) / (4 * n)
    return costs


def flow_sweep_cost(cfg, repeats, sweeps=16):
    size = cfg["dataset.size"]
    a, b = np.random.default_rng(2).random((2, datapipe._FLOW_BLOCK, size, size))
    calls = {k: median_us(lambda k=k: datapipe.horn_schunck(a, b, iters=k), repeats, 5)
             for k in (1, sweeps)}
    return (calls[sweeps] - calls[1]) / (sweeps - 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--out", help="also write the JSON to this file")
    args = parser.parse_args(argv)
    cfg = harness.parse_config(None, {})
    update, loss = head_costs(cfg, args.repeats)
    report = {"update_us": update, "loss_and_grads_us": loss,
              "svm_step_us": svm_step_costs(cfg, args.repeats),
              "flow_sweep_us": flow_sweep_cost(cfg, args.repeats),
              "numpy": np.__version__}
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
