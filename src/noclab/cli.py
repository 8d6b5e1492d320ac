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
    cfg = harness.parse_config(args.config, overrides)
    # every verb fails on an unusable output_dir before it builds data
    harness.check_output_dir(cfg["output_dir"])
    return cfg


def cmd_gen(args):
    cfg = _load_config(args)
    out = cfg["output_dir"]
    harness.make_output_dir(out)
    rows = []
    for images, orientation in harness.dataset_blocks(cfg):
        for k, pixels in enumerate(images):
            i = len(rows)
            name = f"img_{i:05d}.ppm"
            dp.write_ppm(dp.Frame(pixels), os.path.join(out, name))
            if orientation is not None:
                dp.write_pgm(dp.Frame(orientation[k]),
                             os.path.join(out, f"orient_{i:05d}.pgm"))
            # generated samples are all "normal" and in no partition
            rows.append((name, i // cfg["dataset.per_class"], "normal", ""))
    harness.emit_csv(rows, ("path", "class_id", "source", "partition"),
                     os.path.join(out, "manifest.csv"))
    print(f"wrote {len(rows)} samples to {out}")


def _train_head(cfg):
    """arch.arch_id's head trained under regime.name on the training split
    of the sharp features, its loss rows, its `head_outputs` on the test
    split and the test labels."""
    feats, labels, tr, te = harness.split_features(cfg, {"N"})
    key = ("N", cfg["arch.arch_id"], cfg["regime.name"])
    head, loss_rows = harness.train_heads(cfg, feats, labels, tr, [key])[key]
    return head, loss_rows, harness.head_outputs(head, feats["N"][te]), labels[te]


def cmd_train(args):
    cfg = _load_config(args)
    head, loss_rows, (_, logits), y_test = _train_head(cfg)
    out = cfg["output_dir"]
    harness.make_output_dir(out)
    mpath = os.path.join(out, f"model_{cfg['arch.arch_id']}_{cfg['regime.name']}.noc")
    nets.save_model(head, mpath)
    harness.emit_csv(harness.loss_csv_rows(loss_rows), harness.LOSS_HEADER,
                     os.path.join(out, "loss.csv"))
    print(f"trained {cfg['arch.arch_id']} with {cfg['regime.name']}; "
          f"test accuracy {harness.accuracy(logits, y_test):.1f}; model at {mpath}")


def cmd_eval(args):
    cfg = _load_config(args)
    artifact = harness.run_experiment(cfg)
    with open(artifact.path("table.txt")) as fh:
        print(fh.read(), end="")


def cmd_grid(args):
    cfg = _load_config(args)
    experiments = (args.experiments.split(",") if args.experiments
                   else harness.EXPERIMENTS)
    for subcfg in harness.grid_configs(cfg, experiments):
        artifact = harness.run_experiment(subcfg)
        print(f"[{subcfg['experiment']}] artifacts in {artifact.output_dir}")


def cmd_plotdata(args):
    """Emit embedding CSVs (PCA and exact t-SNE) for the test features."""
    cfg = _load_config(args)
    harness.check_embeddable(cfg, "plotdata")
    out = cfg["output_dir"]
    harness.make_output_dir(out)
    _, _, (pen, _), y_test = _train_head(cfg)
    harness.emit_csv(harness.pca_csv_rows(pen, y_test, cfg["seed"]), harness.EMBEDDING_HEADER,
                     os.path.join(out, "pca.csv"))
    cap = min(len(pen), 500)
    if cap < 16:  # smallest test split with a feasible perplexity (>= 5)
        print(f"wrote {out}/pca.csv; skipped t-SNE ({cap} points < 16)")
        return
    perp = min(30.0, (cap - 1) / 3)
    # the test rows run class by class: an even stride over all of them
    # embeds every class (and, under the cap, every row)
    rows = [i * len(pen) // cap for i in range(cap)]
    tsne_coords, _ = ev.tsne_embed(pen[rows], perplexity=perp, iters=300,
                                   seed=cfg["seed"])
    harness.emit_csv(
        harness.embedding_csv_rows(tsne_coords, y_test[rows]),
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
