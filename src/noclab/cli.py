"""Command-line entry points: gen, train, eval, grid, plotdata.

Every verb accepts --config (flat key = value file) and --seed, plus
--set key=value overrides.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import datapipe as dp
from . import evaluate as ev
from . import harness, nets
from .errors import ConfigError, NoclabError


def _load_config(args):
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, val = item.partition("=")
        overrides[key.strip()] = val.strip()
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.output_dir is not None:
        overrides["output_dir"] = args.output_dir
    return harness.parse_config(args.config, overrides)


def cmd_gen(args):
    cfg = _load_config(args)
    out = cfg["output_dir"]
    os.makedirs(out, exist_ok=True)
    records = harness.build_dataset(cfg)
    rows = []
    for i, rec in enumerate(records):
        name = f"img_{i:05d}.ppm"
        dp.write_ppm(rec.image, os.path.join(out, name))
        if rec.orientation is not None:
            oname = f"orient_{i:05d}.pgm"
            dp.write_pgm(rec.orientation, os.path.join(out, oname))
        part = "" if rec.partition is None else rec.partition
        rows.append((name, rec.class_id, rec.source, part))
    harness.emit_csv(rows, ("path", "class_id", "source", "partition"),
                     os.path.join(out, "manifest.csv"))
    print(f"wrote {len(records)} samples to {out}")


def cmd_train(args):
    cfg = _load_config(args)
    feats, labels, tr, te = harness._prepare_features(cfg, harness.build_dataset(cfg))
    arch = harness._head_arch(cfg, feats.shape[1:])
    loss_rows = []
    head = harness.train_head(cfg, arch, feats[tr], labels[tr],
                              cfg["regime.name"], loss_rows)
    out = cfg["output_dir"]
    os.makedirs(out, exist_ok=True)
    mpath = os.path.join(out, f"model_{arch.arch_id}_{cfg['regime.name']}.noc")
    nets.save_model(head, mpath)
    harness.emit_csv(harness.loss_csv_rows(loss_rows), harness.LOSS_HEADER,
                     os.path.join(out, "loss.csv"))
    acc = harness.head_accuracy(head, feats[te], labels[te])
    print(f"trained {arch.arch_id} with {cfg['regime.name']}; "
          f"test accuracy {acc:.1f}; model at {mpath}")


def cmd_eval(args):
    cfg = _load_config(args)
    artifact = harness.run_experiment(cfg)
    with open(artifact.path("table.txt")) as fh:
        print(fh.read(), end="")


def cmd_grid(args):
    cfg = _load_config(args)
    base_out = cfg["output_dir"]
    experiments = (args.experiments.split(",") if args.experiments
                   else list(harness.EXPERIMENTS))
    # validate every sub-config, the experiment name included, before any
    # experiment makes data or a directory
    subcfgs = []
    for exp in experiments:
        sub = dict(cfg.values)
        sub["experiment"] = exp
        sub["output_dir"] = os.path.join(base_out, exp)
        if exp == "fusion" and sub["dataset.motion"] == "none":
            sub["dataset.motion"] = "correlated"
        subcfgs.append(harness.parse_config(None, sub))
    for exp, subcfg in zip(experiments, subcfgs):
        artifact = harness.run_experiment(subcfg)
        print(f"[{exp}] artifacts in {artifact.output_dir}")


def cmd_plotdata(args):
    """Emit embedding CSVs (PCA and exact t-SNE) for the test features."""
    cfg = _load_config(args)
    out = cfg["output_dir"]
    os.makedirs(out, exist_ok=True)
    records = harness.build_dataset(cfg)
    feats, labels, tr, te = harness._prepare_features(cfg, records)
    arch = harness._head_arch(cfg, feats.shape[1:])
    head = harness.train_head(cfg, arch, feats[tr], labels[tr],
                              cfg["regime.name"], [])
    pen = ev.l2_normalize_rows(harness.head_penultimate(head, feats[te]))
    sources = [records[i].source for i in te]
    coords, _, _ = ev.pca_project(pen, 2, seed=cfg.seed)
    harness.emit_csv(harness.embedding_csv_rows(coords, labels[te], sources),
                     harness.EMBEDDING_HEADER, os.path.join(out, "pca.csv"))
    n = len(pen)
    cap = min(n, 500)
    if cap < 16:  # smallest test split with a feasible perplexity (>= 5)
        print(f"wrote {out}/pca.csv; skipped t-SNE ({cap} points < 16)")
        return
    perp = min(30.0, (cap - 1) / 3)
    tsne_coords, _ = ev.tsne_embed(pen[:cap], perplexity=perp, iters=300,
                                   seed=cfg.seed)
    harness.emit_csv(
        harness.embedding_csv_rows(tsne_coords, labels[te][:cap], sources[:cap]),
        harness.EMBEDDING_HEADER, os.path.join(out, "tsne.csv"))
    print(f"wrote {out}/pca.csv and {out}/tsne.csv")


def main(argv=None):
    parser = argparse.ArgumentParser(prog="noclab")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, fn in (("gen", cmd_gen), ("train", cmd_train), ("eval", cmd_eval),
                     ("grid", cmd_grid), ("plotdata", cmd_plotdata)):
        p = sub.add_parser(verb)
        p.add_argument("--config", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--output-dir", default=None)
        p.add_argument("--set", action="append", metavar="KEY=VALUE")
        if verb == "grid":
            p.add_argument("--experiments", default=None,
                           help="comma list, default all four")
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    try:
        args.fn(args)
    except NoclabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
