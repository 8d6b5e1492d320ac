"""Acceptance suite.

Each test exercises one numbered acceptance criterion end to end and
prints a single PASS line (visible with `pytest -s`); a failed assert
means the criterion does not hold.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from noclab import autodiff as ad
from noclab import datapipe as dp
from noclab import evaluate as ev
from noclab import harness, nets, optim

SEEDS3 = (0, 1, 2)


def _majority(flags):
    return sum(bool(f) for f in flags) >= (len(flags) // 2 + 1)


# ---------------------------------------------------------------------------
# 1. gradient correctness, every op + full head losses, 20 seeds


def test_criterion_1_gradient_correctness():
    tol = 1e-4
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)

        def t(shape, positive=False):
            base = rng.uniform(0.5, 1.5, shape) if positive else rng.normal(size=shape)
            return ad.Tensor(base)

        w = ad.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        kern = ad.Tensor(rng.normal(size=(2, 1, 3, 3)), requires_grad=True)
        bias = ad.Tensor(rng.normal(size=2), requires_grad=True)
        dv = ad.Tensor(rng.uniform(1.0, 2.0, (3, 3)))
        labels = rng.integers(0, 3, size=3)
        pool_in = ad.Tensor(rng.permutation(36).astype(float).reshape(1, 1, 6, 6))
        conv_in = t((1, 1, 5, 5))
        checks = [
            ad.grad_check(lambda x: ad.tensor_sum(ad.matmul(x, w)), t((2, 4))),
            ad.grad_check(lambda x: ad.tensor_sum(
                ad.conv2d(x, kern, bias, stride=2, pad=1)), t((1, 1, 5, 5))),
            ad.grad_check(lambda x: ad.tensor_sum(
                ad.conv2d(conv_in, x, bias, 1, 0)), t((2, 1, 3, 3))),
            ad.grad_check(lambda x: ad.tensor_sum(ad.maxpool2d(x, 2, 2)), pool_in),
            ad.grad_check(lambda x: ad.tensor_sum(ad.mul(ad.relu(x), x)), t((3, 4))),
            ad.grad_check(lambda x: ad.tensor_sum(ad.add(x, bias)), t((3, 2))),
            ad.grad_check(lambda x: ad.tensor_sum(ad.sub(x, ad.scale(x, 0.5))), t((5,))),
            ad.grad_check(lambda x: ad.tensor_sum(ad.sqrt(x)), t((3, 3), True)),
            ad.grad_check(lambda x: ad.tensor_sum(ad.div(x, dv)), t((3, 3))),
            ad.grad_check(lambda x: ad.tensor_sum(
                ad.mul(ad.reshape(x, (6,)), ad.reshape(x, (6,)))), t((2, 3))),
            ad.grad_check(lambda x: ad.softmax_cross_entropy(x, labels), t((3, 3))),
        ]
        # full head losses, gradient wrt the input batch
        y = rng.integers(0, 3, size=2)
        for arch_id in nets.ARCH_IDS:
            model = nets.build_noc(
                nets.NocArch(arch_id, (1, 6, 6), 3, 1 / 512), seed=seed)
            checks.append(ad.grad_check(
                lambda x: ad.softmax_cross_entropy(nets.forward(model, x), y),
                t((2, 1, 6, 6))))
        worst = max(worst, max(checks))
    assert worst < tol, f"max relative gradient error {worst:.3e}"
    print(f"\n[criterion 1] gradient correctness (worst {worst:.2e} < 1e-4): PASS")


# ---------------------------------------------------------------------------
# 2. optimizer oracle equivalence over 50 scripted steps


def test_criterion_2_optimizer_oracles():
    alpha, beta, gamma, eps = 0.01, 0.9, 0.9, 1e-8
    rng = np.random.default_rng(0)
    script = rng.normal(size=50)

    th_s = th_r = th_c = 0.3
    psi = mu = c2 = 0.0
    theta_s = np.array([0.3])
    theta_r = np.array([0.3])
    theta_c = np.array([0.3])
    hyper = optim.Hyper(beta=beta, gamma=gamma, epsilon=eps)
    rule_s = optim.Rule("1LR", hyper, theta_s)
    rule_r = optim.Rule("2LR", hyper, theta_r)
    rule_c = optim.Rule("3LR", hyper, theta_c)
    for g in script:
        rule_s.step(np.array([g]), alpha)
        th_s -= alpha * g
        rule_r.step(np.array([g]), alpha)
        psi = beta * psi + (1 - beta) * g * g
        th_r -= alpha * g / (np.sqrt(psi) + eps)
        rule_c.step(np.array([g]), alpha)
        c2 = gamma * c2 + gamma * (1 - gamma) * (g - mu) ** 2
        mu = gamma * mu + (1 - gamma) * g
        th_c -= alpha * g / (np.sqrt(c2) + eps)
        assert abs(theta_s[0] - th_s) < 1e-12
        assert abs(theta_r[0] - th_r) < 1e-12
        assert abs(theta_c[0] - th_c) < 1e-12
    print("\n[criterion 2] optimizer oracle equivalence to 1e-12: PASS")


# ---------------------------------------------------------------------------
# 3. schedule endpoints


def test_criterion_3_schedule_endpoints():
    s = optim.Schedule(0.01, 0.005, 137)
    assert optim.schedule_alpha(s, 0) == 0.01
    assert optim.schedule_alpha(s, 137) == 0.005
    print("\n[criterion 3] schedule endpoints 0.01 / 0.005 exact: PASS")


# ---------------------------------------------------------------------------
# 4. Jensen's inequality for the parameter average


def test_criterion_4_averaging_jensen():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        arch = nets.NocArch("C0F3", (1, 6, 6), 3, 1 / 512)
        init = nets.build_noc(arch, seed=seed)
        X = rng.normal(size=(30, 1, 6, 6))
        y = rng.integers(0, 3, size=30)
        clones = []
        hyper = optim.Hyper(iterations=10, batch_size=10)
        for j in range(3):
            idx = np.arange(j, 30, 3)
            batches = optim.make_batches(X[idx], y[idx], 10, seed=seed + j)
            clone = init.clone()
            optim.train_epoch(clone, batches, "3LR", hyper)
            clones.append(clone)
        avg = optim.average_params(clones)
        anchors = {k: rng.normal(size=v.shape)
                   for k, v in init.params.items()}

        def f(model):  # convex quadratic surrogate
            return sum(float(((model.params[k] - anchors[k]) ** 2).sum())
                       for k in anchors)

        lhs = f(avg)
        rhs = np.mean([f(c) for c in clones])
        assert lhs <= rhs + 1e-12, f"Jensen violated: {lhs} > {rhs}"
    print("\n[criterion 4] parameter averaging satisfies Jensen (10 seeds): PASS")


# ---------------------------------------------------------------------------
# 5. saddle escape


def test_criterion_5_saddle_escape():
    def escape_steps(kind, seed, alpha=0.01, max_steps=50000):
        rng = np.random.default_rng(seed)
        theta = np.array([1.0, 1e-3])
        rule = optim.Rule("1LR" if kind == "sgd" else "3LR", optim.Hyper(), theta)
        for t in range(1, max_steps + 1):
            g = np.array([2 * theta[0], -2 * theta[1]]) + rng.normal(0, 0.1, 2)
            rule.step(g, alpha)
            if abs(theta[1]) >= 1.0:
                return t
        return max_steps

    med_sgd = np.median([escape_steps("sgd", s) for s in range(20)])
    med_cov = np.median([escape_steps("cov", s) for s in range(20)])
    assert med_cov <= med_sgd, (med_cov, med_sgd)
    print(f"\n[criterion 5] saddle escape median covprecond {med_cov:.0f} "
          f"<= sgd {med_sgd:.0f}: PASS")


# ---------------------------------------------------------------------------
# 6. loss convergence ordering on the default synthetic set


def test_criterion_6_loss_ordering():
    flags = []
    report = []
    for seed in SEEDS3:
        cfg = harness.parse_config(None, {"seed": seed,
                                          "regime.iterations": 1000})
        feats, labels, tr, _ = harness.split_features(cfg, {"N"})
        heads = harness.train_heads(cfg, feats, labels, tr,
                                    [("N", cfg["arch.arch_id"], r) for r in ("2LR", "3LR")])
        finals = {regime: float(np.mean([l for *_, l in rows][-500:]))
                  for (_, _, regime), (_, rows) in heads.items()}
        flags.append(finals["3LR"] <= finals["2LR"] + 0.05)
        report.append(f"seed {seed}: 3LR {finals['3LR']:.4f} vs "
                      f"2LR {finals['2LR']:.4f}")
    assert _majority(flags), report
    print("\n[criterion 6] final-500-step loss 3LR <= 2LR + 0.05 "
          f"({sum(flags)}/3 seeds): PASS")


# ---------------------------------------------------------------------------
# 7. blur study direction


def test_criterion_7_blur_combos(tmp_path):
    flags = []
    report = []
    for seed in SEEDS3:
        cfg = harness.parse_config(None, {
            "experiment": "blur_combo", "combo": "all", "seed": seed,
            "dataset.classes": 8, "dataset.per_class": 40,
            "regime.name": "1LR", "regime.iterations": 80,
            "output_dir": str(tmp_path / f"b{seed}"),
        })
        art = harness.run_experiment(cfg)
        acc = {m: a for m, r, s, a, f in art.metrics_rows if s == "svm"}
        ok = (acc["B-N-N"] <= acc["N-N-N"] - 10
              and acc["B-B-B"] >= acc["B-N-N"] + 5
              and abs(acc["N-B-B"] - acc["N-N-N"]) <= 15)
        flags.append(ok)
        report.append(f"seed {seed}: {acc}")
    assert _majority(flags), report
    print(f"\n[criterion 7] blur combo direction ({sum(flags)}/3 seeds): PASS")


# ---------------------------------------------------------------------------
# 8. fusion benefit


def test_criterion_8_fusion(tmp_path):
    results = {}
    for motion in ("correlated", "uncorrelated"):
        flags = []
        for seed in SEEDS3:
            cfg = harness.parse_config(None, {
                "experiment": "fusion", "seed": seed,
                "dataset.motion": motion,
                "dataset.classes": 8, "dataset.per_class": 60,
                "regime.name": "2LR", "regime.iterations": 200,
                "output_dir": str(tmp_path / f"f{motion}{seed}"),
            })
            art = harness.run_experiment(cfg)
            acc = {m: a for m, r, s, a, f in art.metrics_rows if s == "net"}
            gap = acc["rgb_plus_orientation"] - acc["rgb_only"]
            flags.append(gap >= 5 if motion == "correlated" else abs(gap) <= 3)
        results[motion] = flags
        assert _majority(flags), (motion, flags)
    print("\n[criterion 8] fusion benefit "
          f"(correlated {sum(results['correlated'])}/3, "
          f"uncorrelated {sum(results['uncorrelated'])}/3): PASS")


# ---------------------------------------------------------------------------
# 9. sampling de-homogenization


def test_criterion_9_dehomogenization():
    rng = np.random.default_rng(0)
    base = dp.Frame(rng.random((3, 16, 16)))
    distinct_at = set(rng.choice(np.arange(1, 100), 10, replace=False))
    frames = [dp.Frame(rng.random((3, 16, 16))) if i in distinct_at else base
              for i in range(100)]
    clip = dp.VideoClip(frames, label=0)
    recs = dp.sample_dataset([clip], lambda f: f.pixels.ravel(), seed=0)
    dup = sum(np.array_equal(r.image.pixels, base.pixels) for r in recs)
    frac = dup / len(recs)
    assert frac <= 0.2, frac
    print(f"\n[criterion 9] near-duplicate fraction 0.90 -> {frac:.2f} "
          "(<= 0.20): PASS")


# ---------------------------------------------------------------------------
# 10. numeric spot checks


def test_criterion_10_numeric_properties():
    rng = np.random.default_rng(0)
    # DFT round-trip and Parseval
    x = rng.random((12, 10))
    X = dp.dft2d(x)
    assert np.max(np.abs(dp.dft2d(X, inverse=True) - x)) < 1e-9
    assert abs((np.abs(X) ** 2).sum() / x.size - (x ** 2).sum()) < 1e-6
    # spectral specification DC match
    f1 = dp.Frame(rng.random((1, 16, 16)))
    f2 = dp.Frame(rng.random((1, 16, 16)))
    out = dp.spectral_specify(f1, f2, band=1)
    assert abs(out.pixels.mean() - f2.pixels.mean()) < 1e-3
    # Horn-Schunck translation angle
    yy, xx = np.mgrid[0:24, 0:24]
    b1 = 0.8 * np.exp(-((xx - 10) ** 2 + (yy - 12) ** 2) / 18.0)
    b2 = 0.8 * np.exp(-((xx - 12) ** 2 + (yy - 12) ** 2) / 18.0)
    flow = dp.horn_schunck(b1, b2, iters=200)
    mag = np.hypot(flow.u, flow.v)
    sel = mag > 0.3 * mag.max()
    med = np.median(np.degrees(np.arctan2(flow.v[sel], flow.u[sel])))
    assert abs(med) < 15.0
    # kmeans inertia monotone
    pts = np.concatenate([rng.normal(0, 0.1, (25, 2)), rng.normal(4, 0.1, (25, 2))])
    _, _, trace = dp.kmeans(pts, 2, seed=0)
    assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))
    # t-SNE KL non-increasing after exaggeration
    blob = np.concatenate([rng.normal(0, 0.2, (20, 3)), rng.normal(5, 0.2, (20, 3))])
    _, kl = ev.tsne_embed(blob, perplexity=8.0, iters=250, seed=0)
    post = kl[100:]
    assert all(b <= a + 1e-12 for a, b in zip(post, post[1:]))
    # SVM on separable blobs
    Xb = np.concatenate([rng.normal(0, 0.2, (20, 2)), rng.normal(5, 0.2, (20, 2))])
    yb = np.repeat([0, 1], 20)
    model = ev.svm_train(Xb, yb, epochs=15, seed=0)
    assert (ev.svm_predict(model, Xb) == yb).all()
    print("\n[criterion 10] DFT/specification/flow/kmeans/t-SNE/SVM spot "
          "checks: PASS")


# ---------------------------------------------------------------------------
# 11. determinism


def _run_twice(tmp_path, tag, overrides):
    digests = []
    for rep in ("a", "b"):
        out = str(tmp_path / f"{tag}_{rep}")
        cfg = harness.parse_config(None, dict(overrides, output_dir=out))
        art = harness.run_experiment(cfg)
        blob = {}
        for name in sorted(os.listdir(out)):
            # config.txt echoes output_dir, which legitimately differs
            if name.endswith((".csv", ".txt")) and name != "config.txt":
                blob[name] = Path(out, name).read_bytes()
        digests.append(blob)
    assert digests[0].keys() == digests[1].keys()
    for name in digests[0]:
        assert digests[0][name] == digests[1][name], f"{tag}/{name} differs"


def test_criterion_11_determinism(tmp_path):
    small = {"dataset.classes": 3, "dataset.per_class": 8, "dataset.size": 16,
             "regime.iterations": 6, "svm.epochs": 3, "seed": 4}
    _run_twice(tmp_path, "sweep", dict(small, experiment="regime_sweep"))
    _run_twice(tmp_path, "blur", dict(small, experiment="blur_combo",
                                      combo="B-B-B"))
    _run_twice(tmp_path, "fusion", dict(small, experiment="fusion",
                                        **{"dataset.motion": "correlated",
                                           "regime.name": "1LR"}))
    print("\n[criterion 11] repeated runs emit byte-identical CSVs: PASS")
