"""Median cost of one step of the per-step loops, in microseconds, as JSON.

    PYTHONPATH=src python tests/stepcost.py [--repeats N] [--out stepcost.json]

At the default grid's shapes, on one BLAS thread (the script sets the
thread variables before numpy loads):

- `update_us`: one training step's update for each regime and head
  (C0F3, C1F3, M1) on 16x4x4 backbone features: the gather of the
  gradients into one flat vector and the regime's `optim.Rule.step`
  over it, as `optim.train_epoch` runs them;
- `loss_and_grads_us`: `nets.loss_and_grads` on a prepared batch of 32;
- `svm_step_us`: one lock-step `evaluate.svm_train` step (16 classes,
  dim 128, n 1280) at 1 and 3 fits, timed as the difference between
  5-epoch and 1-epoch fits divided by the 4n steps between them;
- `flow_sweep_us`: one red-black sweep of `datapipe.horn_schunck` over a
  block of `datapipe._FLOW_BLOCK` frame pairs of 32x32, timed as the
  difference between a 16-sweep and a 1-sweep call divided by 15;
- `im2col_us`: `autodiff._im2col` of a 3x3, pad-1 conv, by batch shape:
  a head's training batch (32,16,4,4) and inference batch (128,16,4,4),
  and the backbone's three layers on 8 frames (8,3,32,32), (8,4,16,16)
  and (8,8,8,8). The first two and the last take the gather, the other
  two the slice copies (`autodiff._GATHER_BELOW_OW`);
- `reference_us`: the benchmark's fixed piece of host work,
  `perfbench/worker.py`'s `reference_s`, so that figures from runs on
  hosts or host speed levels that differ can be compared as ratios to it.

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

from noclab import autodiff, datapipe, evaluate, harness, nets, optim  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
from worker import reference_s  # noqa: E402


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
    hyper = harness.hyper(cfg)
    update, loss = {}, {}
    for arch_id in nets.ARCH_IDS:
        model = nets.build_noc(nets.NocArch(arch_id, feat_shape, cfg["dataset.classes"],
                                            cfg["arch.width_scale"]), seed=0)
        batch = nets.prepare_batch(model, X, labels)
        loss[arch_id] = median_us(
            lambda: nets.loss_and_grads(model, model.params, batch), repeats, 20)
        _, grads = nets.loss_and_grads(model, model.params, batch)
        for regime in optim.REGIMES:
            theta, params = optim._flatten(model.params)
            rule, grad = optim.Rule(regime, hyper, theta), np.empty_like(theta)

            def step():
                np.concatenate([grads[n] for n in params], axis=None, out=grad)
                rule.step(grad, hyper.alpha)
            update[f"{arch_id}/{regime}"] = median_us(step, repeats, 50)
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


IM2COL_SHAPES = ((32, 16, 4, 4), (128, 16, 4, 4), (8, 3, 32, 32), (8, 4, 16, 16),
                 (8, 8, 8, 8))


def im2col_costs(repeats):
    rng = np.random.default_rng(3)
    costs = {}
    for shape in IM2COL_SHAPES:
        x = rng.normal(size=shape)
        costs["x".join(map(str, shape))] = median_us(
            lambda: autodiff._im2col(x, 3, 3, 1, 1), repeats, 50)
    return costs


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
              "im2col_us": im2col_costs(args.repeats),
              "reference_us": median_us(reference_s, args.repeats, 1),
              "numpy": np.__version__}
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
