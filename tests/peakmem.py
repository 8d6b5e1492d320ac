"""Peak resident memory of each default experiment, of the default grid and
of the default train, plotdata and gen verbs, as JSON.

    PYTHONPATH=src python tests/peakmem.py

Runs `noclab grid --seed 0` on each experiment alone, then on all four,
then `noclab train`, `noclab plotdata` and `noclab gen` with `--seed 0`,
each in a fresh interpreter with one BLAS thread and its output in a
temporary directory, and prints {"<experiment>" | "grid" | "<verb>": MB}:
the child's own `ru_maxrss` (interpreter and imports included) when the
run ends. It reports figures and checks nothing; pytest does not
collect this file.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

from noclab.harness import EXPERIMENTS

# the child prints its own peak once the verb has run
CHILD = (
    "import resource, sys\n"
    "from noclab import cli\n"
    "if cli.main(sys.argv[1:]) != 0:\n"
    "    sys.exit('noclab ' + sys.argv[1] + ' failed')\n"
    "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)\n"
)
VERBS = ("train", "plotdata", "gen")


def peak_mb(verb, *args):
    """Own-process peak RSS, in MB, of one `noclab <verb> --seed 0 <args>`
    in a fresh interpreter."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as out_dir:
        argv = [verb, "--seed", "0", "--output-dir", out_dir, *args]
        done = subprocess.run([sys.executable, "-c", CHILD, *argv], env=env, check=True,
                              stdout=subprocess.PIPE, text=True)
    return round(float(done.stdout.splitlines()[-1]), 1)


def main():
    report = {exp: peak_mb("grid", "--experiments", exp) for exp in EXPERIMENTS}
    report["grid"] = peak_mb("grid")
    report.update({verb: peak_mb(verb) for verb in VERBS})
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
