"""Smoke test of the benchmark on all workloads at a tiny config.

    python3 -m pytest -q perfbench/smoke.py

Kept out of the default test collection because it runs the benchmark
(about half a minute). It checks that every metric BENCHMARK.json names
is emitted with its unit, that work counts repeat exactly across two
traced runs, that flow and blur run only on their own workloads, that
result.json records the environment and the CSV digests, and that the
benchmark refuses to run without the noclab sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
TINY = ("dataset.classes=3", "dataset.per_class=8", "dataset.size=16",
        "regime.iterations=6", "svm.epochs=3")


def bench(workload, trace, run_py=HERE / "run.py"):
    cmd = [sys.executable, str(run_py), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace)]
    for item in TINY:
        cmd += ["--set", item]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170)


def result_of(workload, trace):
    out = bench(workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, out.stderr
    assert result["attempted"] >= 1
    return result


@pytest.fixture(scope="module")
def results():
    return {w: {"untraced": result_of(w, 0),
                "traced": [result_of(w, 1), result_of(w, 1)]}
            for w in WORKLOADS}


def units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_every_metric_is_emitted_with_its_unit(results):
    end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for workload, r in results.items():
        assert units(r["untraced"]) == end_to_end, workload
        for traced in r["traced"]:
            assert units(traced) == per_layer, workload


def test_counts_repeat_across_traced_runs(results):
    counts = [m["name"] for m in BENCHMARK["per_layer"] if m["unit"] == "count"]
    for workload, r in results.items():
        first, second = ({n: t["metrics"][n]["value"] for n in counts}
                         for t in r["traced"])
        assert first == second, workload
        assert first["trace.spans"] > 0


def test_flow_and_blur_run_only_on_their_workloads(results):
    for workload, r in results.items():
        m = r["traced"][0]["metrics"]
        assert (m["datapipe.flow_calls"]["value"] > 0) == (workload == "fusion")
        assert (m["datapipe.blur_calls"]["value"] > 0) == (workload == "blur_combo")


def test_result_file_records_environment_and_digests(results):
    for workload in WORKLOADS:
        path = HERE.parent / ".perfbench_runs" / f"{workload}-seed3-trace0" / "result.json"
        result = json.loads(path.read_text())
        assert {"python", "numpy", "scipy", "blas", "thread_env",
                "cpu_count"} <= set(result["env"])
        assert result["env"]["thread_env"]["OPENBLAS_NUM_THREADS"] == "1"
        assert {"git_commit", "source_sha256", "seed", "workload_argv"} <= set(result)
        assert result["seed"] == 3 and "--seed" in result["workload_argv"]
        for run in result["runs"]:
            assert "metrics.csv" in run["digests"]
            assert any(n.startswith("loss_") for n in run["digests"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench(WORKLOADS[0], 0, run_py=tmp_path / HERE.name / "run.py")
    assert out.returncode != 0
    assert not out.stdout.strip()
