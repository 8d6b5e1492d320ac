"""Declarative experiment runner.

Runs the experiment grid on procedurally generated data: architecture
sweep, learning-regime sweep, the four blur data/net/SVM combos, and
RGB vs RGB+orientation fusion. Every run is a pure function of
(config, seed) and emits deterministic CSV artifacts.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import datapipe as dp
from . import evaluate as ev
from . import nets, optim
from .errors import ConfigError

EXPERIMENTS = ("arch_sweep", "regime_sweep", "blur_combo", "fusion")
COMBOS = ("N-N-N", "N-B-B", "B-N-N", "B-B-B")

DEFAULTS = {
    "experiment": "regime_sweep",
    "seed": 0,
    "output_dir": "runs/out",
    "dataset.classes": 16,
    "dataset.per_class": 100,
    "dataset.size": 32,
    "dataset.motion": "none",  # none | correlated | uncorrelated
    "arch.arch_id": "C1F3",
    "arch.width_scale": 1.0 / 32.0,
    "backbone.channels": 16,
    "regime.name": "3LR",
    "regime.alpha": 0.001,
    "regime.alpha_start": 0.01,
    "regime.alpha_end": 0.005,
    "regime.beta": 0.9,
    "regime.gamma": 0.9,
    "regime.epsilon": 1e-8,
    "regime.iterations": 150,
    "regime.batch_size": 32,
    "regime.partitions": 3,
    "regime.standard_ewma": False,
    "blur.kind": "gaussian",
    "blur.sigma_min": 0.2,   # per-image sigma range for the blur combos;
    "blur.sigma_max": 3.0,   # set min == max to force a fixed sigma
    "blur.length": 9,
    "blur.angle": 0.0,
    "blur.noise": 0.02,      # post-blur sensor noise std
    "combo": "all",  # one of COMBOS, or all four
    "fusion.orientation_scale": 0.3,  # orientation-stream weight in sum fusion
    "svm.c_reg": 1.0,
    "svm.epochs": 10,
}

_ENUMS = {
    "experiment": EXPERIMENTS,
    "dataset.motion": ("none", "correlated", "uncorrelated"),
    "arch.arch_id": nets.ARCH_IDS,
    "regime.name": optim.REGIMES,
    "blur.kind": ("gaussian", "motion"),
    "combo": COMBOS + ("all",),
}

_OPEN_UNIT = ("regime.beta", "regime.gamma")  # must lie in (0,1)
_AT_LEAST = {  # key -> smallest allowed value
    "regime.batch_size": 1, "regime.iterations": 1, "regime.partitions": 1,
    "svm.epochs": 1, "backbone.channels": 1, "blur.length": 1,
    "dataset.size": 16,  # the data generator and the backbone need 16x16 frames
    "seed": 0, "blur.noise": 0, "fusion.orientation_scale": 0,
}
_POSITIVE = ("blur.sigma_min", "blur.sigma_max", "svm.c_reg", "regime.alpha",
             "regime.alpha_start", "regime.alpha_end", "regime.epsilon")


@dataclass
class ExperimentConfig:
    values: dict = field(default_factory=lambda: dict(DEFAULTS))

    def __getitem__(self, key):
        return self.values[key]

    @property
    def seed(self):
        return int(self.values["seed"])

    def hyper(self):
        v = self.values
        return optim.Hyper(
            alpha=float(v["regime.alpha"]),
            alpha_start=float(v["regime.alpha_start"]),
            alpha_end=float(v["regime.alpha_end"]),
            beta=float(v["regime.beta"]),
            gamma=float(v["regime.gamma"]),
            epsilon=float(v["regime.epsilon"]),
            iterations=int(v["regime.iterations"]),
            batch_size=int(v["regime.batch_size"]),
            standard_ewma=bool(v["regime.standard_ewma"]),
        )


def _coerce(key, raw, lineno=None):
    where = f" (line {lineno})" if lineno is not None else ""
    default = DEFAULTS[key]
    if isinstance(default, bool):
        if str(raw).lower() in ("true", "1", "yes"):
            return True
        if str(raw).lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key}: expected boolean, got {raw!r}{where}")
    if isinstance(default, int):
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected int, got {raw!r}{where}") from None
    if isinstance(default, float):
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected number, got {raw!r}{where}") from None
    return str(raw)


def _validate(key, value, lineno=None):
    where = f" (line {lineno})" if lineno is not None else ""
    if isinstance(DEFAULTS[key], float) and not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {value}{where}")
    if key in _ENUMS and value not in _ENUMS[key]:
        raise ConfigError(f"{key}: {value!r} not one of {_ENUMS[key]}{where}")
    if key in _OPEN_UNIT and not (0 < value < 1):
        raise ConfigError(f"{key}: {value} outside (0, 1){where}")
    if key in _AT_LEAST and value < _AT_LEAST[key]:
        raise ConfigError(f"{key} must be >= {_AT_LEAST[key]}{where}")
    if key == "dataset.classes" and not (2 <= value <= 16):
        raise ConfigError(f"dataset.classes must be in [2, 16]{where}")
    if key == "arch.width_scale" and not (0 < value <= 1):
        raise ConfigError(f"arch.width_scale outside (0, 1]{where}")
    if key in _POSITIVE and value <= 0:
        raise ConfigError(f"{key} must be > 0{where}")
    return value


def parse_config(path=None, overrides=None):
    """Load a flat `key = value` config file; `#` starts a comment.
    Overrides (a dict) beat file values; unknown keys are rejected."""
    cfg = ExperimentConfig()
    lines = {}  # key -> file line that set it, unless an override beat it
    if path is not None:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                body = line.split("#", 1)[0].strip()
                if not body:
                    continue
                if "=" not in body:
                    raise ConfigError(f"line {lineno}: expected key = value")
                key, _, raw = body.partition("=")
                key = key.strip()
                raw = raw.strip()
                if key not in DEFAULTS:
                    raise ConfigError(f"unknown key {key!r} (line {lineno})")
                cfg.values[key] = _validate(key, _coerce(key, raw, lineno), lineno)
                lines[key] = lineno
    for key, raw in (overrides or {}).items():
        if key not in DEFAULTS:
            raise ConfigError(f"unknown override key {key!r}")
        value = _coerce(key, raw) if isinstance(raw, str) else raw
        cfg.values[key] = _validate(key, value)
        lines.pop(key, None)
    _check_cross_keys(cfg, lines)
    return cfg


def _check_cross_keys(cfg, lines):
    """Checks that span several keys, made once every key is read; an
    error names the file lines of the keys involved."""

    def where(*keys):
        found = sorted(lines[k] for k in keys if k in lines)
        return f" (line {', '.join(map(str, found))})" if found else ""

    if cfg["blur.sigma_min"] > cfg["blur.sigma_max"]:
        raise ConfigError("blur.sigma_max below blur.sigma_min"
                          + where("blur.sigma_min", "blur.sigma_max"))
    if cfg["regime.alpha_start"] < cfg["regime.alpha_end"]:
        raise ConfigError("regime.alpha_end above regime.alpha_start"
                          + where("regime.alpha_start", "regime.alpha_end"))
    per_class = cfg["dataset.per_class"]
    n_train = cfg["dataset.classes"] * max(0, per_class - _test_count(per_class))
    if n_train < cfg["regime.partitions"]:
        raise ConfigError(
            f"training split of {n_train} samples is smaller than "
            f"regime.partitions = {cfg['regime.partitions']}"
            + where("dataset.classes", "dataset.per_class", "regime.partitions"))
    width = nets.NocArch.scaled_fc_width(cfg["arch.width_scale"])
    if width < cfg["dataset.classes"]:
        raise ConfigError(
            f"scaled fc width {width} is below "
            f"dataset.classes = {cfg['dataset.classes']}"
            + where("arch.width_scale", "dataset.classes"))


# ---------------------------------------------------------------------------
# dataset plumbing


def _motion_mode(cfg):
    m = cfg["dataset.motion"]
    return False if m == "none" else m


def build_dataset(cfg):
    return dp.gen_synthetic_dataset(
        num_classes=int(cfg["dataset.classes"]),
        per_class=int(cfg["dataset.per_class"]),
        size=int(cfg["dataset.size"]),
        motion=_motion_mode(cfg),
        seed=cfg.seed,
    )


TEST_FRAC = 0.2  # share of each class held out for testing


def _test_count(class_size, test_frac=TEST_FRAC):
    """Test samples a class of `class_size` gives to the stratified split."""
    return max(1, int(round(class_size * test_frac)))


def stratified_split(labels, test_frac=TEST_FRAC, seed=0):
    """Disjoint stratified train/test index split."""
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    train, test = [], []
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(len(idx))]
        cut = _test_count(len(idx), test_frac)
        test.extend(idx[:cut])
        train.extend(idx[cut:])
    train = sorted(int(i) for i in train)
    test = sorted(int(i) for i in test)
    return train, test


def extract_features(backbone, frames, batch=64):
    """Frozen-backbone feature maps, stacked (n, c, h, w).

    Each sample is standardized (zero mean, unit std) so the heads see
    patterns rather than global contrast or blur-induced scale shifts.
    """
    out = []
    X = np.stack([f.pixels for f in frames])
    for i in range(0, len(X), batch):
        out.append(nets.forward(backbone, ad.Tensor(X[i:i + batch])).data)
    feats = np.concatenate(out)
    mean = feats.mean(axis=(1, 2, 3), keepdims=True)
    std = feats.std(axis=(1, 2, 3), keepdims=True)
    return (feats - mean) / np.maximum(std, 1e-8)


def _head_arch(cfg, input_shape, arch_id=None):
    return nets.NocArch(
        arch_id=arch_id or cfg["arch.arch_id"],
        input_shape=tuple(input_shape),
        num_classes=int(cfg["dataset.classes"]),
        width_scale=float(cfg["arch.width_scale"]),
    )


def train_head(cfg, arch, X, labels, regime, loss_rows):
    """Train one head on precomputed features under a named regime."""
    return optim.train(nets.build_noc(arch, seed=cfg.seed), X, labels, regime,
                       cfg.hyper(), int(cfg["regime.partitions"]), seed=cfg.seed,
                       loss_trace=loss_rows)


def head_accuracy(head, X, labels):
    logits = nets.forward(head, ad.Tensor(X)).data
    return 100.0 * float((logits.argmax(axis=1) == np.asarray(labels)).mean())


def head_penultimate(head, X, batch=256):
    out = []
    for i in range(0, len(X), batch):
        out.append(nets.penultimate_features(head, ad.Tensor(X[i:i + batch])).data)
    return np.concatenate(out)


def pca_embedding(head, X, labels, sources, seed):
    """L2-normalized penultimate features of X through `head`, and the
    CSV rows of their 2-D PCA projection."""
    pen = ev.l2_normalize_rows(head_penultimate(head, X))
    coords, _, _ = ev.pca_project(pen, 2, seed=seed)
    return pen, embedding_csv_rows(coords, labels, sources)


# ---------------------------------------------------------------------------
# artifacts

METRICS_HEADER = ("method", "regime", "split", "accuracy", "false_alarms")
LOSS_HEADER = ("step", "partition", "alpha", "loss")
EMBEDDING_HEADER = ("x", "y", "class_id", "source")


def loss_csv_rows(loss_rows):
    """CSV rows of a loss trace of (step, partition, alpha, loss) tuples."""
    return [(step, part, "" if alpha is None else f"{alpha:.10g}", f"{loss:.10g}")
            for step, part, alpha, loss in loss_rows]


def embedding_csv_rows(coords, labels, sources):
    """CSV rows of a 2-D embedding: one (x, y, class_id, source) per point."""
    return [(f"{x:.6f}", f"{y:.6f}", int(cls), src)
            for (x, y), cls, src in zip(coords, labels, sources)]


def emit_csv(rows, header, path):
    """Write rows (iterables of str-able values) as LF-terminated CSV."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


@dataclass
class RunArtifact:
    output_dir: str
    metrics_rows: list  # (method, regime, split, accuracy, false_alarms)
    files: dict = field(default_factory=dict)  # label -> path

    def path(self, name):
        return os.path.join(self.output_dir, name)

    def emit(self, name, rows, header):
        """Write a CSV into the output dir and list it in the manifest."""
        emit_csv(rows, header, self.path(name))
        self.files[name] = self.path(name)


def emit_table(artifact):
    """Aligned text table of the collected metrics, one row per
    (method, regime), accuracy to one decimal."""
    rows = sorted(artifact.metrics_rows)
    cells = [METRICS_HEADER] + [
        (m, r, s, f"{a:.1f}", str(fa)) for m, r, s, a, fa in rows
    ]
    widths = [max(len(row[i]) for row in cells) for i in range(len(METRICS_HEADER))]
    lines = []
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _echo_config(cfg, artifact):
    path = artifact.path("config.txt")
    with open(path, "w") as fh:
        for key in sorted(cfg.values):
            fh.write(f"{key} = {cfg.values[key]}\n")
    artifact.files["config.txt"] = path


# ---------------------------------------------------------------------------
# experiment drivers


def run_experiment(cfg: ExperimentConfig) -> RunArtifact:
    experiment = _validate("experiment", cfg["experiment"])
    _check_cross_keys(cfg, {})
    # checked here, not in parse_config: `grid` parses its base config
    # before it sets each fusion run's motion, and only experiments read
    # `experiment`
    if experiment == "fusion" and cfg["dataset.motion"] == "none":
        raise ConfigError("fusion experiment needs dataset.motion set")
    out_dir = cfg["output_dir"]
    os.makedirs(out_dir, exist_ok=True)
    artifact = RunArtifact(output_dir=out_dir, metrics_rows=[])
    _echo_config(cfg, artifact)

    if experiment == "fusion":
        _run_fusion(cfg, artifact)
    elif experiment == "blur_combo":
        _run_blur_combo(cfg, artifact)
    elif experiment == "arch_sweep":
        _run_sweep(cfg, artifact, archs=list(nets.ARCH_IDS),
                   regimes=[cfg["regime.name"]])
    elif experiment == "regime_sweep":
        _run_sweep(cfg, artifact, archs=[cfg["arch.arch_id"]],
                   regimes=list(optim.REGIMES))

    artifact.emit("metrics.csv", [(m, r, s, f"{a:.1f}", fa) for m, r, s, a, fa
                                  in sorted(artifact.metrics_rows)], METRICS_HEADER)
    with open(artifact.path("table.txt"), "w") as fh:
        fh.write(emit_table(artifact))
    artifact.files["table.txt"] = artifact.path("table.txt")
    emit_csv([(name, os.path.relpath(artifact.files[name], out_dir))
              for name in sorted(artifact.files)],
             ("name", "path"), artifact.path("manifest.csv"))
    return artifact


def _split(cfg, records):
    labels = np.array([r.class_id for r in records])
    train_idx, test_idx = stratified_split(labels, TEST_FRAC, cfg.seed)
    return labels, train_idx, test_idx


def _backbone(cfg, seed_offset=1):
    size = int(cfg["dataset.size"])
    return nets.build_backbone((3, size, size), int(cfg["backbone.channels"]),
                               seed=cfg.seed + seed_offset)


def _prepare_features(cfg, records):
    """Backbone features of the records' images, their labels and the split."""
    labels, train_idx, test_idx = _split(cfg, records)
    feats = extract_features(_backbone(cfg), [r.image for r in records])
    return feats, labels, train_idx, test_idx


def _evaluate_head(cfg, artifact, regime, X, labels, tr, te, scored, arch_id=None):
    """Train one head under `regime` and one SVM on its penultimate
    features, both on the training split of X, then score them on the
    test split of each (method, tag, X_eval) in `scored`.

    Each scored entry writes loss_<tag>.csv, confusion_<tag>.csv and
    model_<tag>.noc and adds the `net` and `svm` metric rows of
    `method`. Returns the trained head.
    """
    loss_rows = []
    arch = _head_arch(cfg, X.shape[1:], arch_id=arch_id)
    head = train_head(cfg, arch, X[tr], labels[tr], regime, loss_rows)
    loss_csv = loss_csv_rows(loss_rows)
    ftr = ev.l2_normalize_rows(head_penultimate(head, X[tr]))
    svm = ev.svm_train(ftr, labels[tr], c_reg=float(cfg["svm.c_reg"]),
                       epochs=int(cfg["svm.epochs"]), seed=cfg.seed)
    k = int(cfg["dataset.classes"])
    for method, tag, X_eval in scored:
        artifact.emit(f"loss_{tag}.csv", loss_csv, LOSS_HEADER)
        fte = ev.l2_normalize_rows(head_penultimate(head, X_eval[te]))
        pred = ev.svm_predict(svm, fte)
        metrics = ev.compute_metrics(pred, labels[te], background_class=k - 1,
                                     num_classes=k)
        artifact.metrics_rows.append((method, regime, "net",
                                      head_accuracy(head, X_eval[te], labels[te]), 0))
        artifact.metrics_rows.append((method, regime, "svm", metrics.accuracy,
                                      metrics.false_alarms))
        confusion = metrics.confusion
        artifact.emit(f"confusion_{tag}.csv",
                      ([r, *(int(x) for x in row)] for r, row in enumerate(confusion)),
                      ["truth\\pred", *(str(c) for c in range(len(confusion)))])
        mname = f"model_{tag}.noc"
        nets.save_model(head, artifact.path(mname))
        artifact.files[mname] = artifact.path(mname)
    return head


def _run_sweep(cfg, artifact, archs, regimes):
    records = build_dataset(cfg)
    feats, labels, tr, te = _prepare_features(cfg, records)
    for arch_id in archs:
        for regime in regimes:
            head = _evaluate_head(cfg, artifact, regime, feats, labels, tr, te,
                                  [(arch_id, f"{arch_id}_{regime}", feats)],
                                  arch_id=arch_id)
    # embedding of test features through the last trained head
    sources = [records[i].source for i in te]
    _, rows = pca_embedding(head, feats[te], labels[te], sources, cfg.seed)
    artifact.emit("embedding.csv", rows, EMBEDDING_HEADER)


def _blur_frames(cfg, frames):
    """Blurred variant of a frame list.

    Each frame draws its own blur strength from [sigma_min, sigma_max]
    and gains a little post-blur sensor noise, so a net trained on the
    variant sees a span from near-sharp to heavily smoothed.
    """
    rng = np.random.default_rng(cfg.seed + 17)
    lo = float(cfg["blur.sigma_min"])
    hi = float(cfg["blur.sigma_max"])
    noise = float(cfg["blur.noise"])
    out = []
    for f in frames:
        sigma = rng.uniform(lo, hi) if hi > lo else lo
        out.append(dp.synth_blur(f, kind=cfg["blur.kind"], sigma=sigma,
                                 length=int(cfg["blur.length"]),
                                 angle=float(cfg["blur.angle"]),
                                 noise=noise, seed=int(rng.integers(1 << 31))))
    return out


def _run_blur_combo(cfg, artifact):
    """The requested combos over one dataset. A combo reads data-net-SVM
    variant, N sharp or B blurred; the SVM always uses the net's
    variant, so combos that share a net variant share its head and SVM."""
    combos = COMBOS if cfg["combo"] == "all" else (cfg["combo"],)
    records = build_dataset(cfg)
    labels, tr, te = _split(cfg, records)
    frames = {"N": [r.image for r in records]}
    used = sorted({v for combo in combos for v in combo.split("-")})
    if "B" in used:
        frames["B"] = _blur_frames(cfg, frames["N"])
    backbone = _backbone(cfg)
    feats = {v: extract_features(backbone, frames[v]) for v in used}
    by_net = {}
    for combo in combos:
        data_v, net_v, _ = combo.split("-")
        by_net.setdefault(net_v, []).append((combo, combo, feats[data_v]))
    for net_v, scored in by_net.items():
        _evaluate_head(cfg, artifact, cfg["regime.name"], feats[net_v], labels,
                       tr, te, scored)


def _run_fusion(cfg, artifact):
    records = build_dataset(cfg)
    labels, tr, te = _split(cfg, records)
    f_rgb = extract_features(_backbone(cfg, 1), [r.image for r in records])
    # orientation maps are single-channel; replicate to the 3-channel input
    orient = [dp.Frame(np.repeat(r.orientation.pixels, 3, axis=0)) for r in records]
    f_fused = nets.fuse_sum(f_rgb, extract_features(_backbone(cfg, 2), orient),
                            float(cfg["fusion.orientation_scale"]))
    for method, feats in (("rgb_only", f_rgb), ("rgb_plus_orientation", f_fused)):
        _evaluate_head(cfg, artifact, cfg["regime.name"], feats, labels, tr, te,
                       [(method, method, feats)])
