"""Measured process of the benchmark: runs one noclab experiment back to back.

Started by run.py with single-threaded BLAS/OpenMP and `src` on the
path; it is not meant to be run by hand. Its one argument is a JSON
spec file (see run.py). It runs `noclab.cli.main(["grid", ...])` until
the spec's seconds have passed, checks each run's outputs, and writes a
result JSON file. Without tracing, a first warm-up run (lazy imports,
allocator and file caches) is left out of the timings; with tracing on
it alternates untraced and traced runs, so that an untraced run warms
up each traced one, and writes all spans once, at the end.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import sys
import traceback
from collections import Counter
from statistics import median
from time import perf_counter, process_time

import numpy as np
import scipy

import noclab
from noclab import cli
from tracing import COUNTS, Tracer, layer_metrics

METRICS_HEADER = ["method", "regime", "split", "accuracy", "false_alarms"]


class CheckFailed(Exception):
    """An experiment's outputs are missing or malformed."""


def _finite(text, what):
    try:
        value = float(text)
    except ValueError:
        raise CheckFailed(f"{what}: {text!r} is not a number") from None
    if not math.isfinite(value):
        raise CheckFailed(f"{what}: {text} is not finite")
    return value


def check_outputs(exp_dir, expected_rows):
    """Check one experiment's artifacts; return CSV digests and mean accuracies.

    metrics.csv must parse with `expected_rows` rows of finite accuracies
    in [0, 100], every loss CSV must hold finite numbers, and every file
    the manifest lists must exist.
    """
    manifest = os.path.join(exp_dir, "manifest.csv")
    if not os.path.isfile(manifest):
        raise CheckFailed("manifest.csv missing")
    with open(manifest, newline="") as fh:
        listed = list(csv.DictReader(fh))
    for row in listed:
        if not os.path.isfile(os.path.join(exp_dir, row["path"])):
            raise CheckFailed(f"manifest lists missing file {row['path']}")
    names = sorted(row["name"] for row in listed)
    if "metrics.csv" not in names:
        raise CheckFailed("manifest does not list metrics.csv")

    with open(os.path.join(exp_dir, "metrics.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != METRICS_HEADER:
        raise CheckFailed(f"metrics.csv header {rows[:1]}")
    body = rows[1:]
    if len(body) != expected_rows or any(len(r) != len(METRICS_HEADER) for r in body):
        raise CheckFailed(f"metrics.csv has {len(body)} rows, expected {expected_rows}")
    acc = {"net": [], "svm": []}
    for method, regime, split, accuracy, _ in body:
        value = _finite(accuracy, f"accuracy of {method}/{regime}/{split}")
        if not 0.0 <= value <= 100.0 or split not in acc:
            raise CheckFailed(f"metrics.csv row {method},{regime},{split},{accuracy}")
        acc[split].append(value)
    if not acc["net"] or not acc["svm"]:
        raise CheckFailed("metrics.csv lacks net or svm rows")

    losses = [n for n in names if n.startswith("loss_") and n.endswith(".csv")]
    if not losses:
        raise CheckFailed("no loss CSV written")
    for name in losses:
        with open(os.path.join(exp_dir, name), newline="") as fh:
            for row in csv.DictReader(fh):
                _finite(row["loss"], f"{name} loss at step {row['step']}")
                if row["alpha"]:
                    _finite(row["alpha"], f"{name} alpha at step {row['step']}")

    digests = {}
    for name in names:
        if name.endswith(".csv") and name != "manifest.csv":
            with open(os.path.join(exp_dir, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return {"digests": digests,
            "net_acc_mean": sum(acc["net"]) / len(acc["net"]),
            "svm_acc_mean": sum(acc["svm"]) / len(acc["svm"])}


_REF_RNG = np.random.default_rng(0)
_REF_SMALL = _REF_RNG.random((32, 32))
_REF_MATRIX = _REF_RNG.random((64, 64))


def reference_s():
    """Seconds the host takes right now for a fixed piece of work of the
    kind noclab does: an interpreted loop, numpy calls on small arrays
    and small matrix products. An untraced run's `reference_s` is the
    mean of this time just before and just after it."""
    t0 = perf_counter()
    total = 0
    for i in range(50_000):
        total += i * i
    x = _REF_SMALL
    for _ in range(300):
        x = np.pad(x, 1, mode="edge")[1:-1, 1:-1] * 0.5 + 0.25
    for _ in range(100):
        _REF_MATRIX @ _REF_MATRIX
    return perf_counter() - t0


def grid_dir(spec):
    return os.path.join(spec["out_dir"], "grid")


def run_once(spec, rep, tracer, warmup=False):
    out = grid_dir(spec)
    shutil.rmtree(out, ignore_errors=True)
    argv = spec["argv"] + ["--output-dir", out]
    error = None
    if tracer is not None:
        tracer.install(rep)
    c0, t0 = process_time(), perf_counter()
    try:
        code = cli.main(argv)
        if code != 0:
            error = f"noclab exited with code {code}"
    except Exception:  # a failed run is counted, and the loop goes on
        error = traceback.format_exc()
    finally:
        wall, cpu = perf_counter() - t0, process_time() - c0
        if tracer is not None:
            tracer.uninstall()
    record = {"rep": rep, "traced": tracer is not None, "warmup": warmup, "wall_s": wall,
              "cpu_s": cpu, "error": error}
    if error is None:
        try:
            record.update(check_outputs(os.path.join(out, spec["experiment"]),
                                        spec["rows"]))
        except (CheckFailed, OSError, KeyError, csv.Error) as exc:
            record["error"] = f"output check: {exc}"
    if tracer is not None:
        record["layers"] = layer_metrics(tracer.spans, rep)
    return record


def _fail_minority(group, key, message):
    if group:
        common, _ = Counter(map(key, group)).most_common(1)[0]
        for r in group:
            if key(r) != common:
                r["error"] = message


def mark_disagreements(runs):
    """Fail runs whose CSV digests or work counts differ from the majority
    of the other runs: the same code and seed must give the same output,
    traced or not."""
    ok = [r for r in runs if r["error"] is None]
    _fail_minority(ok, lambda r: json.dumps(r["digests"], sort_keys=True),
                   "result CSV digests differ from the other runs of this seed")
    traced = [r for r in runs if r["traced"] and r["error"] is None]
    _fail_minority(traced, lambda r: tuple(r["layers"][n] for n in COUNTS),
                   "layer work counts differ from the other traced runs")


def blas_info():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def environment(spec):
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "thread_env": {k: os.environ.get(k) for k in spec["thread_env"]},
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "noclab_path": os.path.dirname(noclab.__file__),
    }


def main():
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    if os.path.realpath(os.path.dirname(noclab.__file__)) != os.path.realpath(spec["package_dir"]):
        sys.exit(f"noclab imported from {noclab.__file__}, expected {spec['package_dir']}")
    tracer = Tracer(noclab) if spec["trace"] else None
    runs = [] if tracer is not None else [run_once(spec, 0, None, warmup=True)]
    origin = perf_counter()
    deadline = origin + spec["seconds"]
    before = reference_s()
    while True:
        runs.append(run_once(spec, len(runs), None))
        if tracer is None:
            after = reference_s()
            runs[-1]["reference_s"] = (before + after) / 2
            before = after
        else:
            runs.append(run_once(spec, len(runs), tracer))
        if perf_counter() >= deadline:
            break
    mark_disagreements(runs)
    result = {"env": environment(spec),
              "workload_argv": spec["argv"] + ["--output-dir", grid_dir(spec)],
              "runs": runs,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        tracer.write_spans(spec["spans_path"], origin)
        untraced = [r["wall_s"] for r in runs if not r["traced"]]
        traced = [r["wall_s"] for r in runs if r["traced"]]
        result["trace_overhead_s"] = median(traced) - median(untraced)
    with open(spec["result_path"], "w") as fh:
        json.dump(result, fh, indent=1)


if __name__ == "__main__":
    main()
