"""CLI verb tests (gen / train / eval / grid / plotdata)."""

import hashlib
import os
import subprocess
import sys

import pytest

from noclab import cli, harness
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
])
def test_cross_key_config_error_before_any_output(tmp_path, capsys, args, message):
    out = str(tmp_path / "out")
    assert run(args + ["--output-dir", out] + SMALL) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not os.path.exists(out)


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


def run_cli_process(args, **env_vars):
    """Run the CLI in a fresh interpreter on this checkout's sources."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-m", "noclab.cli"] + args, env=env,
                          capture_output=True, text=True, timeout=600)


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
