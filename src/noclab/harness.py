"""Declarative experiment runner.

Runs the experiment grid on procedurally generated data: architecture
sweep, learning-regime sweep, the four blur data/net/SVM combos, and
RGB vs RGB+orientation fusion. Every run is a pure function of
(config, seed) and emits deterministic CSV artifacts.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from . import datapipe as dp
from . import evaluate as ev
from . import nets, optim
from .errors import ConfigError, InvalidValue, SizeMismatch

EXPERIMENTS = ("arch_sweep", "regime_sweep", "blur_combo", "fusion")
COMBOS = ("N-N-N", "N-B-B", "B-N-N", "B-B-B")


def _one_of(choices):
    return lambda key, v: None if v in choices else f"{key}: {v!r} not one of {choices}"


def _at_least(low):
    return lambda key, v: None if v >= low else f"{key} must be >= {low}"


def _positive(key, v):
    return None if v > 0 else f"{key} must be > 0"


def _open_unit(key, v):
    return None if 0 < v < 1 else f"{key}: {v} outside (0, 1)"


# key -> (default, check). A value has its default's type (an int stands
# for a float) and a float must be finite; the check, if any, returns the
# error text of a bad value or None.
SCHEMA = {
    "experiment": ("regime_sweep", _one_of(EXPERIMENTS)),
    "seed": (0, _at_least(0)),
    "output_dir": ("runs/out", lambda key, v: None if v else f"{key} must not be empty"),
    "dataset.classes": (16, lambda key, v: None if 2 <= v <= 16
                        else f"{key} must be in [2, 16]"),
    "dataset.per_class": (100, None),
    # the data generator and the backbone need 16x16 frames
    "dataset.size": (32, _at_least(16)),
    "dataset.motion": ("none", _one_of(("none", "correlated", "uncorrelated"))),
    "arch.arch_id": ("C1F3", _one_of(nets.ARCH_IDS)),
    "arch.width_scale": (1.0 / 32.0, lambda key, v: None if 0 < v <= 1
                         else f"{key} outside (0, 1]"),
    "backbone.channels": (16, _at_least(1)),
    "regime.name": ("3LR", _one_of(optim.REGIMES)),
    "regime.alpha": (optim.Hyper.alpha, _positive),
    "regime.alpha_start": (optim.Hyper.alpha_start, _positive),
    "regime.alpha_end": (optim.Hyper.alpha_end, _positive),
    "regime.beta": (optim.Hyper.beta, _open_unit),
    "regime.gamma": (optim.Hyper.gamma, _open_unit),
    "regime.epsilon": (optim.Hyper.epsilon, _positive),
    "regime.iterations": (optim.Hyper.iterations, _at_least(1)),
    "regime.batch_size": (optim.Hyper.batch_size, _at_least(1)),
    "regime.partitions": (3, _at_least(1)),
    "regime.standard_ewma": (optim.Hyper.standard_ewma, None),
    "blur.kind": ("gaussian", _one_of(("gaussian", "motion"))),
    "blur.sigma_min": (0.2, _positive),  # per-image sigma range for the blur combos;
    "blur.sigma_max": (3.0, _positive),  # set min == max to force a fixed sigma
    "blur.length": (9, _at_least(1)),
    "blur.angle": (0.0, None),
    "blur.noise": (0.02, _at_least(0)),  # post-blur sensor noise std
    "combo": ("all", _one_of(COMBOS + ("all",))),  # one of COMBOS, or all four
    # orientation-stream weight in sum fusion
    "fusion.orientation_scale": (0.3, _at_least(0)),
    "svm.c_reg": (1.0, _positive),
    "svm.epochs": (10, _at_least(1)),
}
DEFAULTS = {key: default for key, (default, _) in SCHEMA.items()}


def hyper(cfg):
    """The config's `regime.*` keys as an `optim.Hyper`."""
    return optim.Hyper(**{f.name: cfg[f"regime.{f.name}"] for f in fields(optim.Hyper)})


def _check_type(key, value):
    """Reject a value that does not have its default's type; an int
    stands for a float, but a bool is no int."""
    default = DEFAULTS[key]
    kinds = (int, float) if isinstance(default, float) else type(default)
    if (not isinstance(value, kinds)
            or isinstance(value, bool) != isinstance(default, bool)):
        raise ConfigError(f"{key}: expected {type(default).__name__}, got {value!r}")


def _coerce(key, raw, lineno=None):
    """The value of `key` as the type of its default. A string is parsed;
    any other value must already have that type (see `_check_type`)."""
    where = f" (line {lineno})" if lineno is not None else ""
    default = DEFAULTS[key]
    if not isinstance(raw, str):
        _check_type(key, raw)
        return type(default)(raw)
    if isinstance(default, bool):
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
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
    return raw


def _validate(key, value, lineno=None):
    default, check = SCHEMA[key]
    if isinstance(default, float) and not math.isfinite(value):
        error = f"{key} must be finite, got {value}"
    else:
        error = check and check(key, value)
    if error:
        raise ConfigError(error + (f" (line {lineno})" if lineno is not None else ""))
    return value


def parse_config(path=None, overrides=None):
    """Load a flat `key = value` config file; `#` starts a comment.
    Overrides (a dict) beat file values; unknown keys are rejected. A
    config is a dict of every SCHEMA key to its value."""
    cfg = dict(DEFAULTS)
    lines = {}  # key -> file line that set it, unless an override beat it
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise ConfigError(f"cannot read config {path}: {reason}") from None
        for lineno, line in enumerate(text.split("\n"), start=1):
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
            if key in lines:
                raise ConfigError(f"{key} set twice (line {lines[key]}, {lineno})")
            cfg[key] = _validate(key, _coerce(key, raw, lineno), lineno)
            lines[key] = lineno
    for key, raw in (overrides or {}).items():
        if key not in DEFAULTS:
            raise ConfigError(f"unknown override key {key!r}")
        cfg[key] = _validate(key, _coerce(key, raw))
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
    # a blur wider than the frame only flattens it, and a huge one fails
    # (or tries a vast allocation) deep inside the kernel builders
    for key in ("blur.sigma_max", "blur.length"):
        if cfg[key] > cfg["dataset.size"]:
            raise ConfigError(f"{key} {cfg[key]} is above "
                              f"dataset.size = {cfg['dataset.size']}"
                              + where(key, "dataset.size"))
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


def check_config(cfg):
    """Every check a run makes before it builds data: each key alone, as
    the dict may have been edited by hand since parse_config, the
    cross-key checks, and the checks that read `experiment`. Those last
    are not in parse_config: `grid` parses its base config before
    `grid_configs` sets each run's experiment and each fusion run's
    motion."""
    for key in SCHEMA:
        if key not in cfg:
            raise ConfigError(f"missing key {key!r}")
    for key, value in cfg.items():
        if key not in SCHEMA:
            raise ConfigError(f"unknown key {key!r}")
        _check_type(key, value)
        _validate(key, value)
    _check_cross_keys(cfg, {})
    if cfg["experiment"] == "fusion" and cfg["dataset.motion"] == "none":
        raise ConfigError("fusion experiment needs dataset.motion set")
    if cfg["experiment"].endswith("_sweep"):
        check_embeddable(cfg, cfg["experiment"])


def grid_configs(cfg, experiments):
    """The config of each of `grid`'s `experiments`, in order: `cfg` with
    the experiment set and its output in <output_dir>/<experiment>.
    Fusion, whose orientation stream needs motion, gets correlated
    motion unless `cfg` sets one. Each is checked before any is
    returned, so a bad one stops the grid before it makes data."""
    subcfgs = []
    for exp in experiments:
        if experiments.count(exp) > 1:
            raise ConfigError(f"experiment {exp!r} listed twice in --experiments")
        motion = cfg["dataset.motion"]
        if exp == "fusion" and motion == "none":
            motion = "correlated"
        subcfgs.append({**cfg, "experiment": exp, "dataset.motion": motion,
                        "output_dir": os.path.join(cfg["output_dir"], exp)})
        check_config(subcfgs[-1])
    return subcfgs


def check_embeddable(cfg, what):
    """Raise ConfigError unless the test split has the 3 samples that
    `pca_csv_rows`' 2-D projection needs."""
    n_test = cfg["dataset.classes"] * _test_count(cfg["dataset.per_class"])
    if n_test < 3:
        raise ConfigError(
            f"{what} embeds a test split of {n_test} samples (dataset.classes = "
            f"{cfg['dataset.classes']}, dataset.per_class = {cfg['dataset.per_class']}); "
            "its 2-D embedding needs at least 3")


# ---------------------------------------------------------------------------
# dataset plumbing


def dataset_blocks(cfg):
    """The config's dataset, the one data source of every verb, as
    `datapipe.synthetic_blocks` streams it a block of rows at a time."""
    motion = cfg["dataset.motion"]
    return dp.synthetic_blocks(cfg["dataset.classes"], cfg["dataset.per_class"],
                               cfg["dataset.size"], False if motion == "none" else motion,
                               cfg["seed"])


TEST_FRAC = 0.2  # share of each class held out for testing


def _test_count(class_size):
    """Test samples a class of `class_size` gives to the stratified split."""
    return max(1, int(round(class_size * TEST_FRAC)))


def stratified_split(labels, seed=0):
    """Disjoint stratified train/test index split, TEST_FRAC of each class
    to the test side."""
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    train, test = [], []
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(len(idx))]
        cut = _test_count(len(idx))
        test.extend(idx[:cut])
        train.extend(idx[cut:])
    train = sorted(int(i) for i in train)
    test = sorted(int(i) for i in test)
    return train, test


# Rows per head pass outside training: 128 rows of C1F3's conv columns
# are 2.4 MB, where the 1280 default training rows took 23.6 MB in one pass.
HEAD_BATCH = 128


def _infer_rows(model, X, batch=HEAD_BATCH, start=None, stop=None):
    """`nets.infer(model, X, stop, start)` run `batch` rows at a time into
    one array, with the same bits. A pass never takes one row of a longer
    X: numpy multiplies a single row as a matrix-vector product, whose sums
    may round otherwise, so a 1-row remainder joins the batch before it."""
    X = np.asarray(X, dtype=np.float64)
    cuts = list(range(0, max(len(X) - 1, 1), batch)) + [len(X)]
    # the first pass, made even of no rows, gives the output's row shape
    first = nets.infer(model, X[:cuts[1]], stop=stop, start=start)
    out = np.empty((len(X),) + first.shape[1:])
    out[:cuts[1]] = first
    for a, b in zip(cuts[1:], cuts[2:]):
        out[a:b] = nets.infer(model, X[a:b], stop=stop, start=start)
    return out


def extract_features(backbone, pixels, batch=8):
    """Frozen-backbone feature maps (n, c', h', w') of a stack of frame
    pixels (n, c, h, w).

    The backbone runs `batch` frames at a time (`_infer_rows`): every
    sample's convolutions are its own gemms, so the features do not depend
    on `batch`, and 8 frames ran as fast as 16 (17.03 against 16.88 ms on
    160 default frames) with half the im2col columns. Each sample is
    standardized (zero mean, unit std) so the heads see patterns rather
    than global contrast or blur-induced scale shifts.
    """
    feats = _infer_rows(backbone, pixels, batch)
    mean = feats.mean(axis=(1, 2, 3), keepdims=True)
    std = feats.std(axis=(1, 2, 3), keepdims=True)
    feats -= mean
    feats /= np.maximum(std, 1e-8)
    return feats


def train_heads(cfg, feats, labels, tr, keys):
    """The head stage of every run: for each distinct (net, arch_id,
    regime) of `keys`, in order, a head of `arch_id` trained under
    `regime` on the training rows `tr` of feature variant `net`.

    Heads of one architecture start from one initial head,
    `nets.build_noc(arch, seed=cfg["seed"])`, which training leaves
    unchanged. Returns {key: (head, loss rows (step, partition, alpha,
    loss))}."""
    inits = {}  # arch -> its initial head
    heads = {}
    for net, arch_id, regime in keys:
        if (net, arch_id, regime) in heads:
            continue
        X = feats[net]
        arch = nets.NocArch(arch_id, X.shape[1:], cfg["dataset.classes"],
                            cfg["arch.width_scale"])
        if arch not in inits:
            inits[arch] = nets.build_noc(arch, seed=cfg["seed"])
        loss_rows = []
        head = optim.train(inits[arch], X[tr], labels[tr], regime, hyper(cfg),
                           cfg["regime.partitions"], seed=cfg["seed"], loss_trace=loss_rows)
        heads[net, arch_id, regime] = head, loss_rows
    return heads


def head_outputs(head, X):
    """`head_embedding(head, X)` and X's logits through `head`, from one
    pass of X through the head: the logits are the head's last layer on
    the penultimate rows, in the same batches, so both have the bits of
    their own passes."""
    pen = _infer_rows(head, X, stop=-1)
    return ev.l2_normalize_rows(pen), _infer_rows(head, pen, start=-1)


def accuracy(logits, labels):
    """Percentage of rows whose largest logit is at their label."""
    if len(logits) == 0:
        raise InvalidValue("accuracy of no samples")
    if len(logits) != len(labels):
        raise SizeMismatch(f"{len(logits)} rows of logits vs {len(labels)} labels")
    return 100.0 * float((logits.argmax(axis=1) == np.asarray(labels)).mean())


def head_embedding(head, X):
    """The features the SVM and the embeddings read: X's penultimate
    features through `head`, L2-normalized per row."""
    return ev.l2_normalize_rows(_infer_rows(head, X, stop=-1))


def pca_csv_rows(embedding, labels, seed):
    """The CSV rows of the 2-D PCA projection of `head_embedding` rows."""
    coords, _, _ = ev.pca_project(embedding, 2, seed=seed)
    return embedding_csv_rows(coords, labels)


# ---------------------------------------------------------------------------
# artifacts

METRICS_HEADER = ("method", "regime", "split", "accuracy", "false_alarms")
LOSS_HEADER = ("step", "partition", "alpha", "loss")
EMBEDDING_HEADER = ("x", "y", "class_id", "source")


def loss_csv_rows(loss_rows):
    """CSV rows of a loss trace of (step, partition, alpha, loss) tuples."""
    return [(step, part, "" if alpha is None else f"{alpha:.10g}", f"{loss:.10g}")
            for step, part, alpha, loss in loss_rows]


def embedding_csv_rows(coords, labels):
    """CSV rows of a 2-D embedding: one (x, y, class_id, "normal") per point."""
    return [(f"{x:.6f}", f"{y:.6f}", int(cls), "normal")
            for (x, y), cls in zip(coords, labels)]


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
    cells = [METRICS_HEADER] + [(m, r, s, f"{a:.1f}", str(fa))
                                for m, r, s, a, fa in sorted(artifact.metrics_rows)]
    widths = [max(len(row[i]) for row in cells) for i in range(len(METRICS_HEADER))]
    return "".join("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n"
                   for row in cells)


def check_output_dir(path):
    """Raise ConfigError if `path` cannot be made a directory: it, or its
    nearest existing ancestor, is no directory or cannot be written.
    Creates nothing."""
    probe = os.path.abspath(path)
    while not os.path.lexists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise ConfigError(f"cannot create output_dir {path}: {probe} is not a directory")
    if probe != os.path.abspath(path) and not os.access(probe, os.W_OK | os.X_OK):
        raise ConfigError(f"cannot create output_dir {path}: {probe} is not writable")


def make_output_dir(path):
    """Create `path` and its parents if missing, or raise ConfigError."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output_dir {path}: "
                          f"{exc.strerror or exc}") from None


def _echo_config(cfg, artifact):
    path = artifact.path("config.txt")
    with open(path, "w") as fh:
        for key in sorted(cfg):
            fh.write(f"{key} = {cfg[key]}\n")
    artifact.files["config.txt"] = path


# ---------------------------------------------------------------------------
# the experiment plan
#
# Every experiment is a table of scored rows (method, tag, net, data,
# arch_id, regime): a head of `arch_id` trains under `regime` on the
# training split of feature variant `net`, its SVM fits there on the
# head's embedding, and both are scored on the test split of variant
# `data`. The variants are N (the sharp images), B (their `_blur_frames`
# copy) and F (N fused with the orientation maps' features). Rows with
# the same (net, arch_id, regime) share one head and one SVM.


def _plan(cfg):
    """The experiment's scored rows, in the order their heads train."""
    experiment = cfg["experiment"]
    arch_id, regime = cfg["arch.arch_id"], cfg["regime.name"]
    if experiment == "blur_combo":
        combos = COMBOS if cfg["combo"] == "all" else (cfg["combo"],)
        # a combo reads data-net-SVM variant, and the SVM always reads
        # the net's variant
        return [(combo, combo, net, data, arch_id, regime)
                for combo in combos for data, net, _ in [combo.split("-")]]
    if experiment == "fusion":
        return [(method, method, v, v, arch_id, regime)
                for method, v in (("rgb_only", "N"), ("rgb_plus_orientation", "F"))]
    archs = nets.ARCH_IDS if experiment == "arch_sweep" else (arch_id,)
    regimes = optim.REGIMES if experiment == "regime_sweep" else (regime,)
    return [(a, f"{a}_{r}", "N", "N", a, r) for a in archs for r in regimes]


def run_experiment(cfg) -> RunArtifact:
    """Run the experiment's plan (`_plan`) over one dataset and write
    its artifacts into cfg["output_dir"]."""
    check_config(cfg)
    out_dir = cfg["output_dir"]
    make_output_dir(out_dir)
    artifact = RunArtifact(output_dir=out_dir, metrics_rows=[])
    _echo_config(cfg, artifact)

    plan = _plan(cfg)
    variants = {v for _, _, net, data, _, _ in plan for v in (net, data)}
    feats, labels, tr, te = split_features(cfg, variants)

    # train every head, then fit all their SVMs in one stacked call, and
    # only then write: a head that fails to train leaves no artifact
    heads = train_heads(cfg, feats, labels, tr,
                        [(net, arch_id, regime) for _, _, net, _, arch_id, regime in plan])
    ftr = np.stack([head_embedding(head, feats[net][tr])
                    for (net, _, _), (head, _) in heads.items()])
    svms = dict(zip(heads, ev.svm_train(ftr, labels[tr], c_reg=cfg["svm.c_reg"],
                                        epochs=cfg["svm.epochs"], seed=cfg["seed"])))
    # one pass of each row's head over its test split gives the embedding
    # its SVM (and a sweep's PCA) reads and the logits of its net accuracy
    tested = [head_outputs(heads[net, arch_id, regime][0], feats[data][te])
              for _, _, net, data, arch_id, regime in plan]
    if cfg["experiment"].endswith("_sweep"):
        # first, so that an embedding that fails leaves no artifact
        artifact.emit("embedding.csv", pca_csv_rows(tested[-1][0], labels[te], cfg["seed"]),
                      EMBEDDING_HEADER)
    k = cfg["dataset.classes"]
    for (method, tag, net, _, arch_id, regime), (embedding, logits) in zip(plan, tested):
        head, loss_rows = heads[net, arch_id, regime]
        artifact.emit(f"loss_{tag}.csv", loss_csv_rows(loss_rows), LOSS_HEADER)
        pred = ev.svm_predict(svms[net, arch_id, regime], embedding)
        metrics = ev.compute_metrics(pred, labels[te], background_class=k - 1,
                                     num_classes=k)
        artifact.metrics_rows.append((method, regime, "net",
                                      accuracy(logits, labels[te]), 0))
        artifact.metrics_rows.append((method, regime, "svm", metrics.accuracy,
                                      metrics.false_alarms))
        confusion = metrics.confusion
        artifact.emit(f"confusion_{tag}.csv",
                      ([r, *(int(x) for x in row)] for r, row in enumerate(confusion)),
                      ["truth\\pred", *(str(c) for c in range(len(confusion)))])
        mname = f"model_{tag}.noc"
        nets.save_model(head, artifact.path(mname))
        artifact.files[mname] = artifact.path(mname)
    artifact.emit("metrics.csv", [(m, r, s, f"{a:.1f}", fa) for m, r, s, a, fa
                                  in sorted(artifact.metrics_rows)], METRICS_HEADER)
    with open(artifact.path("table.txt"), "w") as fh:
        fh.write(emit_table(artifact))
    artifact.files["table.txt"] = artifact.path("table.txt")
    emit_csv([(name, os.path.relpath(artifact.files[name], out_dir))
              for name in sorted(artifact.files)],
             ("name", "path"), artifact.path("manifest.csv"))
    return artifact


def split_features(cfg, variants):
    """The data stage of every run: `_features` of the streamed dataset by
    variant name, the labels, and the stratified train and test indices."""
    # class c holds per_class rows in turn
    labels = np.repeat(np.arange(cfg["dataset.classes"]), cfg["dataset.per_class"])
    tr, te = stratified_split(labels, cfg["seed"])
    return _features(cfg, len(labels), dataset_blocks(cfg), variants), labels, tr, te


def _backbone(cfg, seed_offset=1):
    size = cfg["dataset.size"]
    return nets.build_backbone((3, size, size), cfg["backbone.channels"],
                               seed=cfg["seed"] + seed_offset)


def _features(cfg, n, blocks, variants):
    """Backbone features of each feature variant in `variants`, by name,
    for the `n` frames that `blocks` yields as (images, orientation | None)
    stacks a block of rows at a time.

    Each block is featurized as it comes and written into the variants'
    preallocated rows, so no whole-set pixel, blurred or orientation stack
    exists: B blurs the block (`_blur_frames`, drawing frame after frame
    from one generator), N sends its images through the backbone, and F
    adds the orientation maps' features from a second backbone to N's.
    Sharp frames go through the backbone only if N or F is wanted.
    """
    backbone = _backbone(cfg)
    if "F" in variants:
        orientation_backbone = _backbone(cfg, 2)
    blur_rng = np.random.default_rng(cfg["seed"] + 17)
    feats = {}
    start = 0
    for images, orientation in blocks:
        block = {}
        if "B" in variants:
            block["B"] = extract_features(backbone, _blur_frames(cfg, images, blur_rng))
        if variants & {"N", "F"}:
            block["N"] = extract_features(backbone, images)
        if "F" in variants:
            # orientation maps are single-channel; the backbone reads them
            # through a 3-channel view, because a replicated copy made each
            # fusion run fault in fresh pages (1900 more minor faults at 160
            # samples) and run slower
            orientation = np.broadcast_to(orientation,
                                          (len(orientation), 3) + orientation.shape[2:])
            block["F"] = nets.fuse_sum(block["N"],
                                       extract_features(orientation_backbone, orientation),
                                       cfg["fusion.orientation_scale"])
        for v in variants:
            if v not in feats:
                feats[v] = np.empty((n,) + block[v].shape[1:])
            feats[v][start:start + len(images)] = block[v]
        start += len(images)
    return feats


def _blur_frames(cfg, pixels, rng):
    """Blurred copy of a stack of frame pixels (n, c, h, w).

    Each frame draws its own blur strength from [sigma_min, sigma_max]
    and the seed of a little post-blur sensor noise, frame after frame
    from `rng`, so a net trained on the variant sees a span from
    near-sharp to heavily smoothed; successive stacks blurred with one
    `rng` draw as one stack would. A frame's blur depends on its own
    draws alone, so the stack is blurred in one synth_blur call.
    """
    lo = cfg["blur.sigma_min"]
    hi = cfg["blur.sigma_max"]
    sigmas, seeds = [], []
    for _ in range(len(pixels)):
        sigmas.append(rng.uniform(lo, hi) if hi > lo else lo)
        seeds.append(int(rng.integers(1 << 31)))
    return dp.synth_blur(pixels, kind=cfg["blur.kind"], sigma=sigmas,
                         length=cfg["blur.length"], angle=cfg["blur.angle"],
                         noise=cfg["blur.noise"], seed=seeds)
