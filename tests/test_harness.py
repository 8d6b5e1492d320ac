"""Unit tests for config parsing, splits, artifact emission and the
experiment drivers (smoke-scale runs)."""

import os
from pathlib import Path

import numpy as np
import pytest

from noclab import harness, optim
from noclab.errors import ConfigError, InvalidValue, SizeMismatch

SMALL = {
    "dataset.classes": 3,
    "dataset.per_class": 8,
    "dataset.size": 16,
    "regime.iterations": 6,
    "svm.epochs": 3,
}


def small_cfg(tmp_path, **extra):
    over = dict(SMALL)
    over.update(extra)
    over["output_dir"] = str(tmp_path / "out")
    return harness.parse_config(None, over)


# ---------------------------------------------------------------------------
# config parsing


def test_defaults_complete():
    cfg = harness.parse_config()
    assert cfg["experiment"] == "regime_sweep"
    assert cfg["regime.name"] == "3LR"
    assert cfg.hyper().alpha_start == 0.01


def test_config_regime_defaults_are_optim_defaults():
    # the regime keys of SCHEMA read their defaults from optim.Hyper, which
    # had drifted from them (100 iterations against the config's 150)
    assert harness.parse_config().hyper() == optim.Hyper()


def test_parse_config_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        "# comment line\n"
        "experiment = arch_sweep\n"
        "dataset.classes = 5   # trailing comment\n"
        "regime.gamma = 0.8\n"
        "regime.standard_ewma = true\n"
        "\n")
    cfg = harness.parse_config(str(p))
    assert cfg["experiment"] == "arch_sweep"
    assert cfg["dataset.classes"] == 5
    assert cfg["regime.gamma"] == 0.8
    assert cfg["regime.standard_ewma"] is True


@pytest.mark.parametrize("line,fragment", [
    ("bogus.key = 1", "unknown key"),
    ("dataset.classes = soon", "expected int"),
    ("regime.gamma = 1.5", "outside (0, 1)"),
    ("experiment = tuning", "not one of"),
    ("just a line", "expected key = value"),
    ("regime.standard_ewma = maybe", "expected boolean"),
    ("blur.sigma = -1", "unknown key"),
    ("blur.noise = -0.1", "must be >= 0"),
    ("fusion.orientation_scale = -1", "must be >= 0"),
    ("regime.partitions = 0", "must be >= 1"),
    ("regime.iterations = 0", "must be >= 1"),
    ("regime.iterations = -3", "must be >= 1"),
    ("svm.epochs = 0", "svm.epochs must be >= 1"),
    ("svm.epochs = -1", "svm.epochs must be >= 1"),
    ("backbone.channels = 0", "backbone.channels must be >= 1"),
    ("backbone.channels = -3", "backbone.channels must be >= 1"),
    ("blur.length = 0", "blur.length must be >= 1"),
    ("dataset.size = 8", "dataset.size must be >= 16"),
    ("dataset.size = 15", "dataset.size must be >= 16"),
    ("dataset.classes = 1", "dataset.classes must be in [2, 16]"),
    ("dataset.classes = 17", "dataset.classes must be in [2, 16]"),
    ("seed = -1", "seed must be >= 0"),
    ("dataset.per_class = 1", "training split of 0 samples is smaller than"),
    ("regime.alpha_start = 0.001", "regime.alpha_end above regime.alpha_start"),
    ("regime.alpha_end = 0.02", "regime.alpha_end above regime.alpha_start"),
    ("arch.width_scale = 0.001", "scaled fc width 4 is below dataset.classes"),
    ("blur.sigma_max = 1e300", "blur.sigma_max 1e+300 is above dataset.size = 32"),
    ("blur.sigma_max = 32.5", "blur.sigma_max 32.5 is above dataset.size = 32"),
    ("blur.length = 100000", "blur.length 100000 is above dataset.size = 32"),
    ("blur.length = 33", "blur.length 33 is above dataset.size = 32"),
    ("svm.c_reg = nan", "svm.c_reg must be finite"),
    ("svm.c_reg = 0", "svm.c_reg must be > 0"),
    ("blur.sigma_min = nan", "blur.sigma_min must be finite"),
    ("blur.angle = inf", "blur.angle must be finite"),
    ("blur.noise = nan", "blur.noise must be finite"),
    ("fusion.orientation_scale = -inf", "must be finite"),
    ("regime.alpha = -1", "regime.alpha must be > 0"),
    ("regime.alpha = nan", "regime.alpha must be finite"),
    ("regime.alpha_start = inf", "regime.alpha_start must be finite"),
    ("regime.alpha_end = 0", "regime.alpha_end must be > 0"),
    ("regime.epsilon = nan", "regime.epsilon must be finite"),
    ("regime.epsilon = -1e-8", "regime.epsilon must be > 0"),
    ("regime.beta = nan", "regime.beta must be finite"),
    ("seed = 1\nseed = 2", "seed set twice (line 1, 2)"),
    ("output_dir =", "output_dir must not be empty"),
])
def test_parse_config_rejects(tmp_path, line, fragment):
    p = tmp_path / "bad.cfg"
    p.write_text(line + "\n")
    with pytest.raises(ConfigError) as err:
        harness.parse_config(str(p))
    assert fragment in str(err.value)
    assert "line 1" in str(err.value)


def test_parse_config_override_beats_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("seed = 3\n")
    cfg = harness.parse_config(str(p), {"seed": "9"})
    assert cfg.seed == 9
    with pytest.raises(ConfigError):
        harness.parse_config(None, {"no.such": 1})
    # the sigma range is checked once every key is read, file or override
    p.write_text("blur.sigma_min = 2.5\n")
    assert harness.parse_config(str(p))["blur.sigma_min"] == 2.5
    with pytest.raises(ConfigError, match="blur.sigma_max below blur.sigma_min"):
        harness.parse_config(str(p), {"blur.sigma_max": "2"})


def test_every_default_passes_its_check():
    # parse_config validates only the keys a file or override sets
    for key, default in harness.DEFAULTS.items():
        assert harness._validate(key, default) == default


DEFAULT_CONFIG_TXT = """\
arch.arch_id = C1F3
arch.width_scale = 0.03125
backbone.channels = 16
blur.angle = 0.0
blur.kind = gaussian
blur.length = 9
blur.noise = 0.02
blur.sigma_max = 3.0
blur.sigma_min = 0.2
combo = all
dataset.classes = 16
dataset.motion = none
dataset.per_class = 100
dataset.size = 32
experiment = regime_sweep
fusion.orientation_scale = 0.3
output_dir = runs/out
regime.alpha = 0.001
regime.alpha_end = 0.005
regime.alpha_start = 0.01
regime.batch_size = 32
regime.beta = 0.9
regime.epsilon = 1e-08
regime.gamma = 0.9
regime.iterations = 150
regime.name = 3LR
regime.partitions = 3
regime.standard_ewma = False
seed = 0
svm.c_reg = 1.0
svm.epochs = 10
"""


def test_default_config_echo(tmp_path):
    cfg = harness.parse_config()
    artifact = harness.RunArtifact(output_dir=str(tmp_path), metrics_rows=[])
    harness._echo_config(cfg, artifact)
    assert (tmp_path / "config.txt").read_text() == DEFAULT_CONFIG_TXT
    assert repr(cfg.hyper()) == (
        "Hyper(alpha=0.001, alpha_start=0.01, alpha_end=0.005, beta=0.9, "
        "gamma=0.9, epsilon=1e-08, iterations=150, batch_size=32, "
        "standard_ewma=False)")


@pytest.mark.parametrize("key,value,fragment", [
    ("regime.iterations", 2.5, "regime.iterations: expected int, got 2.5"),
    ("dataset.per_class", 10.7, "dataset.per_class: expected int, got 10.7"),
    ("seed", True, "seed: expected int, got True"),
    ("regime.alpha", None, "regime.alpha: expected float, got None"),
])
def test_parse_config_rejects_mistyped_override(key, value, fragment):
    with pytest.raises(ConfigError) as err:
        harness.parse_config(None, {key: value})
    assert fragment in str(err.value)


def test_parse_config_typed_overrides():
    cfg = harness.parse_config(None, {"regime.alpha": 1, "seed": 3,
                                      "regime.standard_ewma": True,
                                      "regime.name": "2LR"})
    assert type(cfg["regime.alpha"]) is float and cfg["regime.alpha"] == 1.0
    assert cfg.seed == 3 and cfg["regime.standard_ewma"] is True
    assert cfg["regime.name"] == "2LR"


# ---------------------------------------------------------------------------
# splits and features


def test_stratified_split_disjoint_and_stratified():
    labels = np.repeat(np.arange(4), 10)
    tr, te = harness.stratified_split(labels, seed=0)
    assert not set(tr) & set(te)
    assert len(tr) + len(te) == 40
    for c in range(4):
        assert sum(labels[i] == c for i in te) == 2


def test_extract_features_standardized(tmp_path):
    from noclab import nets
    frames = np.stack([np.random.default_rng(i).random((3, 16, 16)) for i in range(4)])
    bb = nets.build_backbone((3, 16, 16), 8, seed=0)
    feats = harness.extract_features(bb, frames)
    assert feats.shape[0] == 4
    assert np.allclose(feats.mean(axis=(1, 2, 3)), 0.0, atol=1e-9)
    assert np.allclose(feats.std(axis=(1, 2, 3)), 1.0, atol=1e-6)


def test_extract_features_of_no_frames():
    from noclab import nets
    bb = nets.build_backbone((3, 16, 16), 8, seed=0)
    assert harness.extract_features(bb, np.zeros((0, 3, 16, 16))).shape == (0, 8, 2, 2)


@pytest.mark.parametrize("arch_id", ["C0F3", "C1F3", "M1"])
@pytest.mark.parametrize("tail", [0, 1, 2])
def test_head_passes_in_batches_equal_one_pass(arch_id, tail):
    from noclab import evaluate as ev
    from noclab import nets
    arch = nets.NocArch(arch_id, (16, 4, 4), 16, 1 / 32)
    head = nets.build_noc(arch, seed=4)
    X = np.random.default_rng(tail).normal(size=(2 * harness.HEAD_BATCH + tail, 16, 4, 4))
    for stop in (None, -1):
        assert np.array_equal(harness._infer_rows(head, X, stop=stop),
                              nets.infer(head, X, stop=stop))
    assert np.array_equal(harness.head_embedding(head, X),
                          ev.l2_normalize_rows(nets.infer(head, X, stop=-1)))
    labels = np.arange(len(X)) % 16
    embedding, logits = harness.head_outputs(head, X)
    assert harness.accuracy(logits, labels) == 100.0 * float(
        (nets.infer(head, X).argmax(axis=1) == labels).mean())
    assert np.array_equal(embedding, harness.head_embedding(head, X))
    assert np.array_equal(logits, nets.infer(head, X))
    # the backbone's passes of extract_features
    backbone = nets.build_backbone((3, 16, 16), 8, seed=4)
    frames = np.random.default_rng(tail).random((2 * 8 + tail, 3, 16, 16))
    assert np.array_equal(harness._infer_rows(backbone, frames, 8),
                          nets.infer(backbone, frames))


def test_extract_features_independent_of_block_size():
    from noclab import nets
    frames = np.random.default_rng(9).random((23, 3, 16, 16))
    bb = nets.build_backbone((3, 16, 16), 8, seed=3)
    feats = harness.extract_features(bb, frames)
    for batch in (1, 7, 16, 64):
        assert np.array_equal(harness.extract_features(bb, frames, batch=batch), feats)


# ---------------------------------------------------------------------------
# table / csv emission


def test_emit_table_sorted_one_decimal(tmp_path):
    art = harness.RunArtifact(str(tmp_path), [
        ("b", "1LR", "net", 50.0, 0),
        ("a", "2LR", "svm", 33.3333, 4),
    ])
    text = harness.emit_table(art)
    lines = text.splitlines()
    assert lines[0].split() == ["method", "regime", "split", "accuracy",
                                "false_alarms"]
    assert lines[1].startswith("a")
    assert "33.3" in lines[1] and "50.0" in lines[2]


def test_emit_csv(tmp_path):
    path = tmp_path / "t.csv"
    harness.emit_csv([(1, "x"), (2, "y")], ("n", "s"), str(path))
    assert path.read_text() == "n,s\n1,x\n2,y\n"


# ---------------------------------------------------------------------------
# experiment drivers (smoke scale)


def test_regime_sweep_artifacts(tmp_path):
    cfg = small_cfg(tmp_path, **{"experiment": "regime_sweep"})
    art = harness.run_experiment(cfg)
    base = art.output_dir
    for name in ("metrics.csv", "table.txt", "config.txt", "manifest.csv",
                 "loss_C1F3_1LR.csv", "confusion_C1F3_3LR.csv",
                 "model_C1F3_2LR.noc", "embedding.csv"):
        assert os.path.exists(os.path.join(base, name)), name
    rows = open(os.path.join(base, "metrics.csv")).read().splitlines()
    assert rows[0] == "method,regime,split,accuracy,false_alarms"
    assert len(rows) == 1 + 6  # three regimes x (net, svm)


def test_arch_sweep_covers_all_heads(tmp_path):
    cfg = small_cfg(tmp_path, **{"experiment": "arch_sweep",
                                 "regime.name": "1LR"})
    art = harness.run_experiment(cfg)
    methods = {m for m, *_ in art.metrics_rows}
    assert methods == {"C0F3", "C1F3", "M1"}


def test_svm_fit_independent_of_stack_companions(tmp_path, monkeypatch):
    """C1F3 under 3LR is the last of regime_sweep's three stacked SVM fits
    and the middle one of arch_sweep's; neither its SVM nor its files may
    differ."""
    fits = []
    svm_train = harness.ev.svm_train

    def recording_svm_train(*args, **kwargs):
        fits.append(svm_train(*args, **kwargs))
        return fits[-1]

    monkeypatch.setattr(harness.ev, "svm_train", recording_svm_train)
    sweeps = [harness.run_experiment(small_cfg(tmp_path / exp, experiment=exp,
                                               **{"regime.name": "3LR"}))
              for exp in ("regime_sweep", "arch_sweep")]
    assert [len(stack) for stack in fits] == [3, 3]  # one stacked call each
    regime_svm, arch_svm = fits[0][2], fits[1][1]
    assert np.array_equal(regime_svm.weights, arch_svm.weights)
    assert np.array_equal(regime_svm.biases, arch_svm.biases)
    for name in ("loss_C1F3_3LR.csv", "confusion_C1F3_3LR.csv", "model_C1F3_3LR.noc"):
        regime_file, arch_file = (Path(art.path(name)).read_bytes() for art in sweeps)
        assert regime_file == arch_file, name


def test_blur_combo_run(tmp_path):
    cfg = small_cfg(tmp_path, **{"experiment": "blur_combo", "combo": "B-N-N",
                                 "regime.name": "1LR"})
    art = harness.run_experiment(cfg)
    combos = {m for m, *_ in art.metrics_rows}
    assert combos == {"B-N-N"}
    assert os.path.exists(art.path("loss_B-N-N.csv"))


@pytest.mark.parametrize("kind", ["gaussian", "motion"])
def test_blur_frames_draws_each_frame_in_turn(tmp_path, kind):
    """Stacks blurred in turn with one generator equal a synth_blur call per
    frame, with sigma and noise seed drawn frame after frame from it."""
    from noclab import datapipe as dp
    cfg = small_cfg(tmp_path, **{"blur.kind": kind, "blur.length": 5})
    (pixels, _), = dp.synthetic_blocks(3, 8, 16, seed=cfg.seed)
    rng = np.random.default_rng(cfg.seed + 17)
    out = np.concatenate([harness._blur_frames(cfg, pixels[a:b], rng)
                          for a, b in ((0, 1), (1, 11), (11, len(pixels)))])
    ref = np.random.default_rng(cfg.seed + 17)
    for frame, blurred in zip(pixels, out):
        sigma = ref.uniform(cfg["blur.sigma_min"], cfg["blur.sigma_max"])
        one = dp.synth_blur(frame[None], kind=kind, sigma=sigma, length=5,
                            angle=cfg["blur.angle"], noise=cfg["blur.noise"],
                            seed=int(ref.integers(1 << 31)))
        assert np.array_equal(one[0], blurred)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_blur_combo_all_matches_single_runs(tmp_path):
    """One run of all four combos gives each combo the artifacts and metric
    rows of that combo run on its own."""
    whole = harness.run_experiment(small_cfg(tmp_path / "all", experiment="blur_combo"))
    assert {m for m, *_ in whole.metrics_rows} == set(harness.COMBOS)
    for combo in harness.COMBOS:
        single = harness.run_experiment(small_cfg(tmp_path / combo,
                                                  experiment="blur_combo",
                                                  combo=combo))
        assert single.metrics_rows == [r for r in whole.metrics_rows if r[0] == combo]
        for name in (f"loss_{combo}.csv", f"confusion_{combo}.csv",
                     f"model_{combo}.noc"):
            with open(single.path(name), "rb") as a, open(whole.path(name), "rb") as b:
                assert a.read() == b.read(), name


@pytest.mark.parametrize("overrides,blurred,image_backbone,orientation_backbone", [
    ({"experiment": "blur_combo", "combo": "B-B-B"}, 1, 1, 0),  # no sharp features
    ({"experiment": "blur_combo", "combo": "N-N-N"}, 0, 1, 0),
    ({"experiment": "blur_combo"}, 1, 2, 0),
    ({"experiment": "fusion", "dataset.motion": "correlated"}, 0, 1, 1),
    ({"experiment": "regime_sweep"}, 0, 1, 0),
    ({"experiment": "arch_sweep"}, 0, 1, 0),
], ids=["B-B-B", "N-N-N", "all", "fusion", "regime_sweep", "arch_sweep"])
def test_plan_featurizes_only_the_variants_it_reads(tmp_path, monkeypatch, overrides, blurred,
                                                    image_backbone, orientation_backbone):
    """Frames blurred, and frames through the image and the orientation
    backbone, in units of the dataset's n frames."""
    cfg = small_cfg(tmp_path, **{"regime.name": "1LR", **overrides})
    image_weights = harness._backbone(cfg).params["conv0.w"]
    frames = {"blurred": 0, "image_backbone": 0, "orientation_backbone": 0}
    blur_frames, extract_features = harness._blur_frames, harness.extract_features

    def counting_blur(cfg, pixels, rng):
        frames["blurred"] += len(pixels)
        return blur_frames(cfg, pixels, rng)

    def counting_features(backbone, pixels, **kwargs):
        image = np.array_equal(backbone.params["conv0.w"], image_weights)
        frames["image_backbone" if image else "orientation_backbone"] += len(pixels)
        return extract_features(backbone, pixels, **kwargs)

    monkeypatch.setattr(harness, "_blur_frames", counting_blur)
    monkeypatch.setattr(harness, "extract_features", counting_features)
    harness.run_experiment(cfg)
    n = cfg["dataset.classes"] * cfg["dataset.per_class"]
    assert frames == {"blurred": blurred * n, "image_backbone": image_backbone * n,
                      "orientation_backbone": orientation_backbone * n}


@pytest.mark.parametrize("overrides,builds,heads", [
    ({"experiment": "regime_sweep"}, 1, 3),
    ({"experiment": "fusion", "dataset.motion": "correlated"}, 1, 2),
    ({"experiment": "blur_combo"}, 1, 2),
    ({"experiment": "arch_sweep"}, 3, 3),
], ids=["regime_sweep", "fusion", "blur_combo", "arch_sweep"])
def test_run_does_head_work_once(tmp_path, monkeypatch, overrides, builds, heads):
    """One initial head is built per architecture, and each trained head
    takes its training split once (for its SVM) and each test split it
    is scored on once (embedding and logits from the same pass)."""
    from noclab import nets
    cfg = small_cfg(tmp_path, **overrides)
    build_noc, infer = nets.build_noc, nets.infer
    built, rows = [], {}  # initial heads built; head -> input rows passed through it

    def counting_build(arch, seed):
        built.append(arch)
        return build_noc(arch, seed)

    def counting_infer(model, X, *args, **kwargs):
        if model.arch_id != "backbone" and not kwargs.get("start"):
            rows[id(model)] = rows.get(id(model), 0) + len(X)
        return infer(model, X, *args, **kwargs)

    monkeypatch.setattr(nets, "build_noc", counting_build)
    monkeypatch.setattr(nets, "infer", counting_infer)
    art = harness.run_experiment(cfg)
    assert len(built) == builds
    n_test = cfg["dataset.classes"] * harness._test_count(cfg["dataset.per_class"])
    n_train = cfg["dataset.classes"] * cfg["dataset.per_class"] - n_test
    rows_scored = len(art.metrics_rows) // 2
    assert len(rows) == heads
    assert sum(rows.values()) == heads * n_train + rows_scored * n_test


@pytest.mark.parametrize("arch_id", ["C0F3", "C1F3", "M1"])
def test_head_passes_of_no_rows(arch_id):
    from noclab import nets
    arch = nets.NocArch(arch_id, (16, 4, 4), 16, 1 / 32)
    head = nets.build_noc(arch, seed=4)
    X = np.zeros((0, 16, 4, 4))
    assert harness._infer_rows(head, X).shape == (0, 16)
    assert harness._infer_rows(head, X, stop=-1).shape == (0, arch.fc_width)
    assert harness.head_embedding(head, X).shape == (0, arch.fc_width)
    embedding, logits = harness.head_outputs(head, X)
    assert embedding.shape == (0, arch.fc_width) and logits.shape == (0, 16)
    with pytest.raises(InvalidValue, match="no samples"):
        harness.accuracy(logits, np.zeros(0, dtype=int))


@pytest.mark.parametrize("n_labels", [3, 5])
def test_accuracy_rejects_labels_of_another_length(n_labels):
    # 3 labels for 4 rows raised a bare ValueError from the comparison
    with pytest.raises(SizeMismatch, match="4 rows of logits vs"):
        harness.accuracy(np.zeros((4, 2)), np.zeros(n_labels, dtype=int))


@pytest.mark.parametrize("variant", ["N", "B"])
def test_feature_stage_memory_does_not_grow_with_the_dataset(tmp_path, variant):
    """The feature stage streams the frames in fixed blocks: above the
    feature stacks it returns, its peak allocation is the same at 80 and
    at 320 frames per class."""
    import tracemalloc

    def over_outputs(per_class):
        cfg = small_cfg(tmp_path, **{"dataset.classes": 2, "dataset.per_class": per_class,
                                     "experiment": "blur_combo",
                                     "combo": f"{variant}-{variant}-{variant}"})
        n = 2 * per_class
        tracemalloc.start()
        try:
            feats = harness._features(cfg, n, harness.dataset_blocks(cfg), {variant})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - feats[variant].nbytes

    over_outputs(80)  # the first run also allocates numpy's lasting caches
    small, large = over_outputs(80), over_outputs(320)
    # at 320 a whole-set 3x16x16 image stack would be 2.9 MB larger; both
    # sizes fill every block with runs of the same classes, so the peaks
    # differ by a few Python objects
    assert large <= small + 16 * 1024, (small, large)


def test_run_experiment_rejects_unusable_output_dir(tmp_path, monkeypatch):
    def no_data(cfg):
        raise AssertionError("data built")

    monkeypatch.setattr(harness, "dataset_blocks", no_data)
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg = small_cfg(tmp_path)
    cfg.values["output_dir"] = str(blocker / "out")
    with pytest.raises(ConfigError, match=r"^cannot create output_dir .*/file/out: "
                                          r"Not a directory$"):
        harness.run_experiment(cfg)


def test_fusion_requires_motion(tmp_path):
    cfg = small_cfg(tmp_path, **{"experiment": "fusion"})
    with pytest.raises(ConfigError, match="fusion experiment needs dataset.motion"):
        harness.run_experiment(cfg)
    assert not (tmp_path / "out").exists()


def test_run_experiment_checks_every_key(tmp_path):
    # each value is set after parse_config, so not yet checked
    for key, value, message in [
        ("svm.epochs", 0, r"^svm.epochs must be >= 1$"),
        ("regime.itrations", 5, r"^unknown key 'regime.itrations'$"),
        ("seed", "3", r"^seed: expected int, got '3'$"),
        ("regime.alpha", "0.1", r"^regime.alpha: expected float, got '0.1'$"),
        ("regime.standard_ewma", 1, r"^regime.standard_ewma: expected bool, got 1$"),
        ("dataset.size", 32.0, r"^dataset.size: expected int, got 32.0$"),
        ("combo", None, r"^combo: expected str, got None$"),
    ]:
        cfg = small_cfg(tmp_path)
        cfg.values[key] = value
        with pytest.raises(ConfigError, match=message):
            harness.run_experiment(cfg)
        assert not (tmp_path / "out").exists()


def test_fusion_run(tmp_path):
    cfg = small_cfg(tmp_path, **{"experiment": "fusion",
                                 "dataset.motion": "correlated",
                                 "regime.name": "1LR",
                                 "dataset.per_class": 6})
    art = harness.run_experiment(cfg)
    methods = {m for m, *_ in art.metrics_rows}
    assert methods == {"rgb_only", "rgb_plus_orientation"}
    manifest = open(art.path("manifest.csv")).read().splitlines()
    for method in methods:
        name = f"model_{method}.noc"
        assert os.path.exists(art.path(name))
        assert f"{name},{name}" in manifest


def test_loss_csv_schema(tmp_path):
    cfg = small_cfg(tmp_path, **{"experiment": "regime_sweep"})
    art = harness.run_experiment(cfg)
    lines = open(art.path("loss_C1F3_1LR.csv")).read().splitlines()
    assert lines[0] == "step,partition,alpha,loss"
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[2]) == 0.01
    assert float(first[3]) > 0
