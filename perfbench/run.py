"""noclab benchmark: one experiment workload, run back to back.

    python3 perfbench/run.py --workload fusion --seed 0 --seconds 27 --trace 0

Run from anywhere; paths are taken from this file's location. The
benchmark times a fresh interpreter importing noclab and parsing the
config (`setup_s`), then starts one child process (worker.py) with
single-threaded BLAS/OpenMP, which calls
`noclab.cli.main(["grid", "--experiments", <exp>, "--seed", <seed>, ...])`
again and again until --seconds have passed (closed loop, one client).
With --trace 0 the experiment runs at a tenth of the default data and
training length (SCALE_TENTH), so that a run repeats it dozens of times
and `wall_s` is the median repeat; with --trace 1 it runs at the
defaults, alternating untraced and traced runs, and the per-layer
metrics come from the traced ones. Every run's outputs are checked. The
last line of stdout is one JSON object with the end-to-end (--trace 0)
or per-layer (--trace 1) metrics. Everything a run writes goes to
.perfbench_runs/ under the repository root.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from tracing import LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "noclab"
RUNS_DIR = ROOT / ".perfbench_runs"

# name -> (grid arguments after "grid", rows metrics.csv must have)
WORKLOADS = {
    "regime_sweep": (["--experiments", "regime_sweep"], 6),
    "blur_combo": (["--experiments", "blur_combo", "--set", "combo=B-B-B"], 2),
    "fusion": (["--experiments", "fusion"], 4),
}

# Config overrides of the timed (--trace 0) runs: a tenth of the records
# and of the head-training steps, so every layer's work shrinks about
# tenfold and one experiment takes 0.5-2 s instead of 6-18 s. The host's
# CPU speed drifts by up to 40% over tens of seconds: the median of a few
# long repeats follows that drift, the median of dozens of short ones
# averages over it.
SCALE_TENTH = ("dataset.per_class=10", "regime.iterations=15")

# Two BLAS threads on the 2-core box made fusion swing between 12 s and 18 s.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "wall_s": "s",
    "wall_ref": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# setup_s is the median of this many spawns, half before the worker runs
# and half after it, so that it spans the run's drift in host speed.
SETUP_REPEATS = 8
TIME_LIMIT_S = 170.0
# Prints the system-wide monotonic time once noclab is imported and the
# config parsed, so that interpreter shutdown and the parent's wait for
# the exit stay out of setup_s.
SETUP_CODE = (
    "import sys, time\n"
    "from noclab import cli, harness\n"
    "harness.parse_config(None, dict(a.split('=', 1) for a in sys.argv[1:]))\n"
    "print(time.clock_gettime(time.CLOCK_MONOTONIC))\n"
)


def child_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return env


def overrides(argv):
    """The config keys a grid argv sets, as `key=value` strings."""
    out = []
    for flag, value in zip(argv, argv[1:]):
        if flag == "--set":
            out.append(value)
        elif flag == "--seed":
            out.append(f"seed={value}")
        elif flag == "--experiments":
            out.append(f"experiment={value}")
    return out


def measure_setup(argv, env, repeats):
    """Seconds from spawning a fresh interpreter until it has imported
    noclab and parsed the workload's config, for `repeats` spawns after
    one untimed spawn that fills the file cache."""
    cmd = [sys.executable, "-c", SETUP_CODE, *overrides(argv)]
    times = []
    for i in range(repeats + 1):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        out = subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60,
                             capture_output=True, text=True)
        if i:
            times.append(float(out.stdout) - start)
    return times


def git_commit():
    """HEAD of the repository, read from .git without leaving the tree."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def timed_runs(result):
    """The untraced runs after the warm-up; only those that succeeded,
    unless none did."""
    runs = [r for r in result["runs"] if not r["traced"] and not r["warmup"]]
    return [r for r in runs if r["error"] is None] or runs


def end_to_end(result, setup_s):
    runs = timed_runs(result)
    return {
        "wall_s": median(r["wall_s"] for r in runs),
        "wall_ref": median(r["wall_s"] / r["reference_s"] for r in runs),
        "setup_s": setup_s,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(result):
    traced = [r for r in result["runs"] if r["traced"]]
    ok = [r for r in traced if r["error"] is None] or traced
    out = {}
    for name, unit in LAYER_UNITS.items():
        if name == "trace.overhead_s":
            out[name] = result["trace_overhead_s"]
        elif unit == "count":
            out[name] = ok[0]["layers"][name]
        else:
            out[name] = median(r["layers"][name] for r in ok)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="extra noclab config override, for small smoke configs")
    args = parser.parse_args(argv)
    if not (PACKAGE / "cli.py").is_file():
        print(f"perfbench: no noclab sources at {PACKAGE}", file=sys.stderr)
        return 2
    started = time.perf_counter()

    grid_args, rows = WORKLOADS[args.workload]
    grid = ["grid", *grid_args, "--seed", str(args.seed)]
    for item in () if args.trace else SCALE_TENTH:
        grid += ["--set", item]
    for item in args.set:
        grid += ["--set", item]
    run_dir = RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = child_env()

    setup_times = [] if args.trace else measure_setup(grid, env, SETUP_REPEATS // 2)
    spec = {
        "argv": grid, "experiment": grid_args[1], "rows": rows,
        "seconds": args.seconds, "trace": bool(args.trace),
        "out_dir": str(run_dir), "package_dir": str(PACKAGE),
        "thread_env": sorted(THREAD_ENV),
        "result_path": str(run_dir / "result.json"),
        "spans_path": str(run_dir / "spans.jsonl"),
    }
    (run_dir / "spec.json").write_text(json.dumps(spec, indent=1))
    log = run_dir / "worker.log"
    with open(log, "w") as fh:
        worker = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(run_dir / "spec.json")],
            env=env, cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT,
            timeout=TIME_LIMIT_S - (time.perf_counter() - started))
    if worker.returncode != 0:
        sys.stderr.write(log.read_text()[-4000:])
        print(f"perfbench: worker exited with code {worker.returncode}", file=sys.stderr)
        return 1
    result = json.loads((run_dir / "result.json").read_text())
    if not args.trace:
        setup_times += measure_setup(grid, env, SETUP_REPEATS - len(setup_times))
    setup_s = median(setup_times) if setup_times else None

    if args.trace:
        values, units = per_layer(result), LAYER_UNITS
    else:
        values, units = end_to_end(result, setup_s), END_TO_END_UNITS
    runs = result["runs"]
    failed = [r for r in runs if r["error"] is not None]
    result.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=args.trace, git_commit=git_commit(),
        source_sha256=source_digest(), setup_times_s=setup_times, metrics=values)
    (run_dir / "result.json").write_text(json.dumps(result, indent=1))

    for r in failed:
        print(f"run {r['rep']} failed: {r['error'].strip().splitlines()[-1]}",
              file=sys.stderr)
    walls = sorted(r["wall_s"] for r in timed_runs(result))
    print(f"perfbench {args.workload} seed={args.seed} failed={len(failed)}/{len(runs)} "
          f"threads={THREAD_ENV} result={run_dir / 'result.json'}")
    print(f"  untraced wall_s over {len(walls)} timed runs: min {walls[0]:.4g}, "
          f"median {median(walls):.4g}, max {walls[-1]:.4g}")
    for split in ("net", "svm"):
        accs = sorted({r[f"{split}_acc_mean"] for r in runs if r["error"] is None})
        print(f"  {split} accuracy (mean over metrics.csv rows): {accs} %")
    for name, value in values.items():
        print(f"  {name:32s} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
