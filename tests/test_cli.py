"""CLI verb tests (gen / train / eval / grid / plotdata)."""

import contextlib
import csv
import hashlib
import importlib.util
import io
import math
import os
import struct
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from noclab import cli, harness, nets, optim
from noclab import datapipe as dp
from noclab.errors import ConfigError

SMALL = [
    "--set", "dataset.classes=3",
    "--set", "dataset.per_class=8",
    "--set", "dataset.size=16",
    "--set", "regime.iterations=5",
    "--set", "svm.epochs=2",
]


def run(args):
    return cli.main(args)


def test_gen_writes_images_and_manifest(tmp_path, capsys):
    out = str(tmp_path / "gen")
    assert run(["gen", "--output-dir", out, "--seed", "1"] + SMALL) == 0
    names = os.listdir(out)
    assert "manifest.csv" in names
    ppms = [n for n in names if n.endswith(".ppm")]
    assert len(ppms) == 24
    header = open(os.path.join(out, "manifest.csv")).readline().strip()
    assert header == "path,class_id,source,partition"


def test_gen_emits_orientation_maps_with_motion(tmp_path):
    out = str(tmp_path / "genm")
    assert run(["gen", "--output-dir", out, "--set", "dataset.motion=correlated",
                "--set", "dataset.per_class=2"] + SMALL[:6]) == 0
    assert any(n.endswith(".pgm") for n in os.listdir(out))


def test_gen_files_equal_the_dataset_rows(tmp_path):
    out = str(tmp_path / "genm")
    overrides = {"dataset.classes": 3, "dataset.per_class": 3, "dataset.size": 16,
                 "dataset.motion": "correlated"}
    assert run(["gen", "--output-dir", out]
               + [a for k, v in overrides.items() for a in ("--set", f"{k}={v}")]) == 0
    data = harness.build_dataset(harness.parse_config(None, overrides))
    assert len(data) == 9
    lines = open(os.path.join(out, "manifest.csv")).read().splitlines()
    assert lines == ["path,class_id,source,partition"] + [
        f"img_{i:05d}.ppm,{c},normal," for i, c in enumerate(data.labels)]
    for i in range(len(data)):
        image = dp.read_ppm(os.path.join(out, f"img_{i:05d}.ppm"))
        orient = dp.read_pgm(os.path.join(out, f"orient_{i:05d}.pgm"))
        assert np.array_equal(image.pixels, np.round(255 * data.images[i]) / 255)
        assert np.array_equal(orient.pixels, np.round(255 * data.orientation[i]) / 255)
    assert len(os.listdir(out)) == 1 + 2 * len(data)


def test_train_writes_model_and_loss(tmp_path, capsys):
    out = str(tmp_path / "tr")
    assert run(["train", "--output-dir", out, "--set", "regime.name=1LR"]
               + SMALL) == 0
    names = os.listdir(out)
    assert "loss.csv" in names
    assert any(n.endswith(".noc") for n in names)
    assert "test accuracy" in capsys.readouterr().out


def test_eval_prints_table(tmp_path, capsys):
    out = str(tmp_path / "ev")
    assert run(["eval", "--output-dir", out,
                "--set", "experiment=regime_sweep"] + SMALL) == 0
    text = capsys.readouterr().out
    assert "method" in text and "accuracy" in text


def test_plotdata_emits_embeddings(tmp_path):
    out = str(tmp_path / "pd")
    assert run(["plotdata", "--output-dir", out, "--set", "regime.name=1LR"]
               + SMALL + ["--set", "dataset.per_class=30"]) == 0
    for name in ("pca.csv", "tsne.csv"):
        lines = open(os.path.join(out, name)).read().splitlines()
        assert lines[0] == "x,y,class_id,source"
        assert len(lines) > 1


def test_plotdata_pca_equals_regime_sweep_embedding(tmp_path):
    # plotdata's head is regime.name's (3LR by default), the last head
    # regime_sweep trains
    small = ["--seed", "3", "--set", "dataset.classes=4",
             "--set", "dataset.per_class=10", "--set", "regime.iterations=5"]
    pd, grid = str(tmp_path / "pd"), str(tmp_path / "grid")
    assert run(["plotdata", "--output-dir", pd] + small) == 0
    assert run(["grid", "--output-dir", grid,
                "--experiments", "regime_sweep"] + small) == 0
    pca = open(os.path.join(pd, "pca.csv"), "rb").read()
    assert pca == open(os.path.join(grid, "regime_sweep", "embedding.csv"), "rb").read()
    assert pca.count(b"\n") == 1 + 4 * 2  # header + 2 test samples per class


def test_grid_runs_selected_experiments(tmp_path):
    out = str(tmp_path / "grid")
    assert run(["grid", "--output-dir", out,
                "--experiments", "arch_sweep",
                "--set", "regime.name=1LR"] + SMALL) == 0
    assert os.path.exists(os.path.join(out, "arch_sweep", "metrics.csv"))


@pytest.mark.parametrize("experiments", ["regime_swep", "regime_sweep,regime_swep"])
def test_grid_rejects_unknown_experiment(tmp_path, capsys, experiments):
    out = str(tmp_path / "grid")
    assert run(["grid", "--output-dir", out, "--experiments", experiments]
               + SMALL[:6]) == 1
    assert "error: experiment: 'regime_swep' not one of" in capsys.readouterr().err
    assert not os.path.exists(out)


def no_data(cfg):
    raise AssertionError("data built")


@pytest.mark.parametrize("verb", ["gen", "train", "eval", "grid", "plotdata"])
@pytest.mark.parametrize("below", [False, True])
def test_unusable_output_dir_fails_before_any_data(tmp_path, capsys, monkeypatch,
                                                    verb, below):
    # the output dir is a regular file, or a path below one
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = str(blocker / "out" if below else blocker)
    monkeypatch.setattr(harness, "build_dataset", no_data)
    assert run([verb, "--output-dir", out] + SMALL) == 1
    assert capsys.readouterr().err == (f"error: cannot create output_dir {out}: "
                                       f"{blocker} is not a directory\n")


def test_grid_rejects_duplicate_experiments(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(harness, "build_dataset", no_data)
    out = str(tmp_path / "grid")
    assert run(["grid", "--output-dir", out, "--experiments",
                "arch_sweep,fusion,fusion"] + SMALL) == 1
    assert capsys.readouterr().err == ("error: experiment 'fusion' listed twice "
                                       "in --experiments\n")
    assert not os.path.exists(out)


def test_run_experiment_rejects_unknown_experiment(tmp_path):
    cfg = harness.parse_config(None, {"output_dir": str(tmp_path / "run")})
    cfg.values["experiment"] = "regime_swep"
    with pytest.raises(ConfigError):
        harness.run_experiment(cfg)
    assert not os.path.exists(cfg["output_dir"])


def test_config_file_plus_override(tmp_path, capsys):
    p = tmp_path / "c.cfg"
    p.write_text("dataset.classes = 3\ndataset.per_class = 8\n"
                 "dataset.size = 16\nregime.iterations = 5\nsvm.epochs = 2\n")
    out = str(tmp_path / "cf")
    assert run(["eval", "--config", str(p), "--output-dir", out,
                "--set", "experiment=blur_combo", "--set", "combo=N-N-N",
                "--set", "regime.name=1LR"]) == 0


def test_bad_config_returns_error_code(tmp_path, capsys):
    assert run(["eval", "--set", "experiment=party"]) == 1
    assert "error:" in capsys.readouterr().err
    assert run(["eval", "--set", "nonsense"]) == 1
    out = str(tmp_path / "tr")
    assert run(["train", "--output-dir", out, "--set", "regime.name=1LR",
                "--set", "regime.partitions=0"] + SMALL) == 1
    assert "regime.partitions must be >= 1" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("setting,experiment", [
    ("svm.c_reg=nan", "regime_sweep"),
    ("blur.sigma_min=nan", "blur_combo"),
    ("regime.alpha=-1", "regime_sweep"),
])
def test_non_finite_or_non_positive_config_returns_error_code(
        tmp_path, capsys, setting, experiment):
    out = str(tmp_path / "grid")
    code = run(["grid", "--experiments", experiment, "--output-dir", out,
                "--set", setting] + SMALL)
    assert code == 1
    assert f"error: {setting.split('=')[0]} must be" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("args,message", [
    (["grid", "--experiments", "regime_sweep", "--set", "regime.alpha_start=0.001",
      "--set", "regime.alpha_end=0.01"], "regime.alpha_end above regime.alpha_start"),
    (["eval", "--set", "experiment=fusion"], "fusion experiment needs dataset.motion set"),
    (["grid", "--experiments", "blur_combo", "--set", "blur.sigma_min=1e300",
      "--set", "blur.sigma_max=1e300"], "blur.sigma_max 1e+300 is above dataset.size = 16"),
    (["grid", "--experiments", "blur_combo", "--set", "blur.kind=motion",
      "--set", "blur.length=100000"], "blur.length 100000 is above dataset.size = 16"),
])
def test_cross_key_config_error_before_any_output(tmp_path, capsys, args, message):
    out = str(tmp_path / "out")
    assert run(args + ["--output-dir", out] + SMALL) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not os.path.exists(out)


TWO_TEST_SAMPLES = ["--set", "dataset.classes=2", "--set", "dataset.per_class=5",
                    "--set", "dataset.size=16", "--set", "regime.iterations=5",
                    "--set", "regime.partitions=2", "--set", "svm.epochs=1"]


@pytest.mark.parametrize("verb,what", [
    (["grid", "--experiments", "arch_sweep"], "arch_sweep"),
    (["grid", "--experiments", "fusion,regime_sweep"], "regime_sweep"),
    (["plotdata"], "plotdata"),
])
def test_unembeddable_test_split_fails_before_any_data(
        tmp_path, capsys, monkeypatch, verb, what):
    # a sweep and plotdata embed the test split in 2-D, which needs 3
    # samples; 2 classes of 5 leave 2, and the grid stops before any of
    # its experiments runs
    built = []
    monkeypatch.setattr(harness, "build_dataset", built.append)
    out = str(tmp_path / "out")
    assert run(verb + ["--output-dir", out] + TWO_TEST_SAMPLES) == 1
    assert built == []
    assert capsys.readouterr().err == (
        f"error: {what} embeds a test split of 2 samples (dataset.classes = 2, "
        "dataset.per_class = 5); its 2-D embedding needs at least 3\n")
    assert not os.path.exists(out)


def test_fusion_grid_on_an_unembeddable_test_split_runs(tmp_path):
    # fusion embeds nothing, so the same base config is fine for it
    out = str(tmp_path / "out")
    assert run(["grid", "--experiments", "fusion", "--output-dir", out]
               + TWO_TEST_SAMPLES) == 0
    assert os.path.exists(os.path.join(out, "fusion", "metrics.csv"))


@pytest.mark.parametrize("kind,reason", [
    ("missing", "No such file or directory"),
    ("directory", "Is a directory"),
    ("latin-1", "'utf-8' codec can't decode byte 0xe9"),
])
def test_unreadable_config_file_exits_cleanly(tmp_path, capsys, kind, reason):
    path = tmp_path / "run.cfg"
    if kind == "directory":
        path.mkdir()
    elif kind == "latin-1":
        path.write_bytes("# café\nseed = 1\n".encode("latin-1"))
    out = str(tmp_path / "out")
    assert run(["eval", "--config", str(path), "--output-dir", out] + SMALL) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: cannot read config {path}: {reason}")
    assert not os.path.exists(out)


@pytest.mark.parametrize("experiment,setting,message", [
    # fused features overflow to inf before any head trains
    ("fusion", "fusion.orientation_scale=1e308", "fused features non-finite"),
    # the first head (1LR) trains; the second (2LR) diverges
    ("regime_sweep", "regime.alpha=1e200", "2LR diverged"),
    # the SVM's step size 1/(c_reg*t) overflows its weights
    ("regime_sweep", "svm.c_reg=1e-300", "SVM weights non-finite"),
    # the fused features are finite, but their embedding's row norms are not
    ("fusion", "fusion.orientation_scale=1e300", "row norms non-finite"),
])
def test_failed_experiment_writes_no_artifacts(tmp_path, capsys, recwarn,
                                               experiment, setting, message):
    out = str(tmp_path / "grid")
    assert run(["grid", "--experiments", experiment, "--output-dir", out,
                "--set", setting] + SMALL) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]
    written = os.listdir(os.path.join(out, experiment))
    assert written == ["config.txt"]
    assert len(recwarn) == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_divergence_returns_error_code(tmp_path, capsys):
    out = str(tmp_path / "div")
    code = run(["train", "--output-dir", out, "--set", "regime.name=1LR",
                "--set", "regime.alpha_start=1e8"] + SMALL[:6])
    assert code == 1
    err = capsys.readouterr().err
    assert "1LR diverged" in err and "partition" in err
    assert not os.path.exists(out)


def test_seed_changes_data(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    run(["gen", "--output-dir", a, "--seed", "1"] + SMALL)
    run(["gen", "--output-dir", b, "--seed", "2"] + SMALL)
    fa = open(os.path.join(a, "img_00000.ppm"), "rb").read()
    fb = open(os.path.join(b, "img_00000.ppm"), "rb").read()
    assert fa != fb


def run_python_process(argv, **env_vars):
    """Run the interpreter with `argv` in a fresh process on this
    checkout's sources."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable] + argv, env=env,
                          capture_output=True, text=True, timeout=600)


def run_cli_process(args, **env_vars):
    """Run the CLI in a fresh interpreter on this checkout's sources."""
    return run_python_process(["-m", "noclab.cli"] + args, **env_vars)


def test_bad_integer_config_exits_cleanly(tmp_path):
    # backbone.channels=0 used to end in a bare ValueError traceback
    out = str(tmp_path / "grid")
    proc = run_cli_process(["grid", "--experiments", "blur_combo", "--output-dir", out,
                            "--set", "backbone.channels=0"])
    assert proc.returncode == 1
    assert proc.stderr == "error: backbone.channels must be >= 1\n"
    assert not os.path.exists(out)


def _digests(root):
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            if name != "config.txt":
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def test_grid_identical_under_one_and_two_blas_threads(tmp_path):
    digests = {}
    for threads in ("1", "2"):
        out = str(tmp_path / f"threads{threads}")
        run_cli_process(["grid", "--output-dir", out, "--seed", "3"] + SMALL,
                        OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                        MKL_NUM_THREADS=threads).check_returncode()
        digests[threads] = _digests(out)
    names = set(digests["1"])
    assert any(n.endswith(".csv") for n in names)
    assert any(n.endswith(".noc") for n in names)
    assert {n.split(os.sep)[0] for n in names} == set(harness.EXPERIMENTS)
    assert digests["1"] == digests["2"]


# Prints the scipy modules loaded after importing noclab and parsing a
# config, then those loaded after running the CLI on sys.argv[1:].
SCIPY_PROBE = (
    "import sys\n"
    "from noclab import cli, harness\n"
    "scipy = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
    "harness.parse_config(None, {})\n"
    "print('scipy:', scipy())\n"
    "assert cli.main(sys.argv[1:]) == 0\n"
    "print('scipy:', scipy())\n"
)


@pytest.mark.parametrize("experiments", [
    ["--experiments", "regime_sweep,fusion"],
    # the motion blur sums shifted views of the padded frames
    ["--experiments", "blur_combo", "--set", "combo=B-B-B", "--set", "blur.kind=motion"],
    # the gaussian blur is numpy matrix products
    ["--experiments", "blur_combo", "--set", "combo=B-B-B"],
])
def test_noclab_never_imports_scipy(tmp_path, experiments):
    proc = run_python_process(["-c", SCIPY_PROBE, "grid", "--output-dir",
                               str(tmp_path / "grid")] + experiments + SMALL)
    proc.check_returncode()
    at_import, after_run = (line for line in proc.stdout.splitlines()
                            if line.startswith("scipy: "))
    assert at_import == after_run == "scipy: []"


def _digests_module():
    path = os.path.join(os.path.dirname(__file__), "digests.py")
    spec = importlib.util.spec_from_file_location("digests", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digests_pass_the_seed_override_through():
    digests = _digests_module().digests
    small = [item for item in SMALL if item != "--set"]
    default = digests(small)
    assert digests(small + ["seed=0"]) == default
    moved = digests(small + ["seed=1"])
    assert moved.keys() == default.keys()
    assert moved != default


# ---------------------------------------------------------------------------
# every config the schema accepts runs clean or fails loudly


def _float_edges(*bounds):
    """1e-300, 1e300, and each bound of a float key's check with the
    floats next to it on both sides."""
    values = {1e-300, 1e300}
    for bound in bounds:
        values |= {bound, float(np.nextafter(bound, -math.inf)),
                   float(np.nextafter(bound, math.inf))}
    return st.sampled_from(sorted(values))


def _int_edges(*bounds, huge=True):
    """Each bound of an int key's check and the ints next to it, and an
    int of 1e300 unless the key sizes the run (`huge=False`): there such
    a value passes the schema but makes a run of any size."""
    values = {v for bound in bounds for v in (bound - 1, bound, bound + 1)}
    return st.sampled_from(sorted(values | ({int(1e300)} if huge else set())))


def _choices(*choices):
    return st.sampled_from(choices + ("bogus",))


# the edges of each key's own check and of the cross-key checks at TINY's
# dataset.size = 16 and dataset.classes = 3; `experiment` is drawn on its
# own and `output_dir` is the test's. arch.width_scale leaves out its
# upper bound 1, which sizes the run: heads with 4096-wide fc layers
SCHEMA_EDGES = {
    "seed": _int_edges(0),
    "dataset.classes": _int_edges(2, 16),
    "dataset.per_class": _int_edges(1, huge=False),
    "dataset.size": _int_edges(16, huge=False),
    "dataset.motion": _choices("none", "correlated", "uncorrelated"),
    "arch.arch_id": _choices(*nets.ARCH_IDS),
    "arch.width_scale": _float_edges(0.0, 3 / 4096),  # 3 = the fc width's lower bound
    "backbone.channels": _int_edges(1, huge=False),
    "regime.name": _choices(*optim.REGIMES),
    "regime.alpha": _float_edges(0.0),
    "regime.alpha_start": _float_edges(0.0),
    "regime.alpha_end": _float_edges(0.0),
    "regime.beta": _float_edges(0.0, 1.0),
    "regime.gamma": _float_edges(0.0, 1.0),
    "regime.epsilon": _float_edges(0.0),
    "regime.iterations": _int_edges(1, huge=False),
    "regime.batch_size": _int_edges(1),
    "regime.partitions": _int_edges(1),
    "regime.standard_ewma": st.booleans(),
    "blur.kind": _choices("gaussian", "motion"),
    "blur.sigma_min": _float_edges(0.0, 16.0),
    "blur.sigma_max": _float_edges(0.0, 16.0),
    "blur.length": _int_edges(1, 16),
    "blur.angle": _float_edges(0.0),
    "blur.noise": _float_edges(0.0),
    "combo": _choices(*harness.COMBOS, "all"),
    "fusion.orientation_scale": _float_edges(0.0),
    "svm.c_reg": _float_edges(0.0),
    "svm.epochs": _int_edges(1, huge=False),
}
TINY = {"dataset.classes": 3, "dataset.per_class": 5, "dataset.size": 16,
        "regime.iterations": 2, "svm.epochs": 1}


def _setting(value):
    if isinstance(value, bool):
        return str(value).lower()
    return repr(value) if isinstance(value, float) else str(value)


def _saved_params(path, cfg):
    """The parameters of a saved head, loaded into a head of the arch
    and input shape its file names."""
    with open(path, "rb") as fh:
        fh.read(len(nets.MAGIC))
        arch_id = fh.read(fh.read(1)[0]).decode()
        ndims, *dims = struct.unpack("<BIII", fh.read(13))
    arch = nets.NocArch(arch_id, tuple(dims[:ndims]), cfg["dataset.classes"],
                        cfg["arch.width_scale"])
    return nets.load_params(path, nets.build_noc(arch, seed=0)).params


def test_schema_edges_cover_every_key():
    assert set(SCHEMA_EDGES) | {"experiment", "output_dir"} == set(harness.SCHEMA)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(experiment=st.sampled_from(harness.EXPERIMENTS),
       drawn=st.lists(st.sampled_from(sorted(SCHEMA_EDGES)), unique=True, min_size=1,
                      max_size=4).flatmap(
           lambda keys: st.fixed_dictionaries({k: SCHEMA_EDGES[k] for k in keys})))
# the step size 1/(c_reg*t) overflowed the SVM's weights
@example(experiment="regime_sweep", drawn={"svm.c_reg": 1e-300})
# finite fused features whose embedding's row norms overflowed
@example(experiment="fusion", drawn={"fusion.orientation_scale": 1e300})
# the gaussian taps overflowed (x / sigma) ** 2 with a RuntimeWarning
@example(experiment="blur_combo", drawn={"blur.sigma_min": 5e-324, "blur.sigma_max": 5e-324})
# one step at a huge rate left finite parameters that overflow the heads'
# activations with a RuntimeWarning
@example(experiment="arch_sweep", drawn={"regime.alpha": 1e300, "regime.iterations": 1})
# a test split of 2 samples, too small for the sweeps' 2-D embedding,
# failed only after the models and CSVs were written
@example(experiment="arch_sweep", drawn={"dataset.classes": 2})
def test_schema_configs_run_clean_or_fail_loudly(experiment, drawn):
    """A config of schema-typed values at the edges of their checks
    either exits 0 with every CSV value and head parameter finite, or
    exits 1 with one error line and nothing written but config.txt."""
    overrides = {**TINY, **drawn}
    argv = ["--experiments", experiment]
    for key, value in overrides.items():
        argv += ["--set", f"{key}={_setting(value)}"]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "grid")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["grid", "--output-dir", out] + argv)
        written = [os.path.join(d, name) for d, _, names in os.walk(out) for name in names]
        if code == 1:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
            assert {os.path.basename(path) for path in written} <= {"config.txt"}
            return
        assert code == 0
        cfg = harness.parse_config(None, {k: _setting(v) for k, v in overrides.items()})
        for path in written:
            if path.endswith(".csv"):
                with open(path, newline="") as fh:
                    for cell in (c for row in csv.reader(fh) for c in row):
                        with contextlib.suppress(ValueError):
                            assert math.isfinite(float(cell)), (path, cell)
            elif path.endswith(".noc"):
                for name, param in _saved_params(path, cfg).items():
                    assert np.isfinite(param).all(), (path, name)
