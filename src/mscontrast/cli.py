"""Command line entry points."""

import argparse
import json
import logging
import sys

from . import training
from .config import load_config


def _parse_shapes(text: str):
    shapes = []
    for part in text.split(","):
        dims = part.strip().lower().split("x")
        if len(dims) != 3:
            raise ValueError(f"shape {part!r} is not BxHxW")
        shapes.append(tuple(int(v) for v in dims))
    return shapes


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mscontrast",
                                description="multi-scale contrastive segmentation toolkit")
    p.add_argument("-v", "--verbose", action="store_true", help="show warnings and progress")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train from a YAML config")
    t.add_argument("config")
    t.add_argument("--resume", metavar="CKPT", help="checkpoint to resume from")

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    e.add_argument("ckpt")
    e.add_argument("config")

    x = sub.add_parser("export-embeddings", help="write balanced projected embeddings as CSV")
    x.add_argument("ckpt")
    x.add_argument("config")
    x.add_argument("--scale", type=int, required=True)
    x.add_argument("--per-class", type=int, required=True)
    x.add_argument("--out", default="embeddings.csv")

    b = sub.add_parser("benchmark", help="dense vs sampled loss cost")
    b.add_argument("--shapes", default="2x16x16,2x32x32,2x64x64,2x128x128",
                   help="comma-separated BxHxW feature shapes")
    b.add_argument("--a-max", type=int, default=2048)

    g = sub.add_parser("gradcheck", help="finite-difference check of every loss term")
    g.add_argument("--instances", type=int, default=5)
    g.add_argument("--seed", type=int, default=0)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.ERROR,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return _dispatch(args)
    except (ValueError, RuntimeError, OSError) as e:
        json.dump({"error": type(e).__name__, "message": str(e)}, sys.stderr)
        sys.stderr.write("\n")
        return 1


def _dispatch(args) -> int:
    if args.command == "train":
        cfg = load_config(args.config)
        _, records, ckpt = training.train(cfg, resume_from=args.resume)
        final_eval = next((r["eval"] for r in reversed(records) if "eval" in r), None)
        print(json.dumps({"checkpoint": ckpt, "steps": cfg.steps, "final_eval": final_eval}))
        return 0

    if args.command == "eval":
        report = training.evaluate_checkpoint(args.ckpt, load_config(args.config))
        print(json.dumps(report, sort_keys=True))
        return 0

    if args.command == "export-embeddings":
        rows = training.export_embeddings(args.ckpt, load_config(args.config),
                                          scale=args.scale, n_per_class=args.per_class,
                                          out_path=args.out)
        print(json.dumps({"rows": rows, "path": args.out}))
        return 0

    if args.command == "benchmark":
        results = training.benchmark_sampling(_parse_shapes(args.shapes), a_max=args.a_max)
        for row in results:
            print(json.dumps(row, sort_keys=True))
        return 0

    if args.command == "gradcheck":
        results = training.gradient_suite(n_instances=args.instances, seed=args.seed)
        failed = 0
        for r in results:
            status = "ok" if r["pass"] else "FAIL"
            print(f"{status} {r['loss']:<12s} instance {r['instance']}: "
                  f"max rel err {r['max_rel_err']:.3g}")
            failed += not r["pass"]
        print(f"{len(results) - failed}/{len(results)} checks passed")
        return 0 if failed == 0 else 1

    raise ValueError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
