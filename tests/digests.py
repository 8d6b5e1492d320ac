"""sha256 of every file `noclab grid`, `noclab train`, `noclab plotdata`
and `noclab gen` write, as JSON.

    PYTHONPATH=src python tests/digests.py [--set KEY=VALUE ...] [> digests.json]

Runs the four verbs into a temporary directory with the same `--set`
overrides passed through (the seed too: `--set seed=3`), and prints one
entry per output file, sorted: "<experiment>/<file>" for the grid's
files, "<verb>/<file>" for the other three.
`config.txt` is left out: it records the output directory. A refactor
that should not move the results prints the same JSON before and
after; run both sides with the same BLAS thread setting (for example
OPENBLAS_NUM_THREADS=1). pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
import tempfile

from noclab import cli

VERBS = ("grid", "train", "plotdata", "gen")


def digests(overrides=()):
    report = {}
    with tempfile.TemporaryDirectory() as tmp:
        for verb in VERBS:
            out_dir = os.path.join(tmp, verb)
            argv = [verb, "--output-dir", out_dir]
            for item in overrides:
                argv += ["--set", item]
            with contextlib.redirect_stdout(sys.stderr):
                if cli.main(argv) != 0:
                    raise SystemExit(f"noclab {verb} failed")
            # the grid's files are keyed by experiment, the others' by verb
            top = out_dir if verb == "grid" else tmp
            for root, _, files in os.walk(out_dir):
                for name in files:
                    if name == "config.txt":
                        continue
                    path = os.path.join(root, name)
                    with open(path, "rb") as fh:
                        digest = hashlib.sha256(fh.read()).hexdigest()
                    report[os.path.relpath(path, top)] = digest
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="config override passed to each verb (repeatable)")
    args = parser.parse_args(argv)
    print(json.dumps(digests(args.set), indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
