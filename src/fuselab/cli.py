"""Command line entry point.

Subcommands: gen-data, train, eval, ablate, gradcheck, sweep. Exit codes:
0 on success, 1 on configuration and usage errors, 2 on runtime or numeric
failures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields, replace

from . import checkpoint as ckpt_io
from . import data as data_mod
from . import harness
from .autodiff import AutodiffError
from .config import ConfigError, ExperimentConfig, load_config_file, parse_value
from .data import SchemaError
from .gradcheck import gradcheck_cases, run_gradchecks


class _Parser(argparse.ArgumentParser):
    """An unknown flag or a bad flag value is a configuration error: exit 1,
    not argparse's 2. Subcommand parsers inherit this class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value config file; flags override it")
    for f in fields(ExperimentConfig):
        flag = "--" + f.name.replace("_", "-")
        p.add_argument(flag, dest=f.name, default=None,
                       help=f"override config field {f.name}")


def _build_config(args) -> ExperimentConfig:
    cfg = load_config_file(args.config) if args.config else ExperimentConfig()
    overrides = {}
    for f in fields(ExperimentConfig):
        raw = getattr(args, f.name, None)
        if raw is not None:
            try:
                overrides[f.name] = parse_value(f.name, raw)
            except ConfigError as exc:
                raise ConfigError(f"--{f.name.replace('_', '-')}: {exc}") from None
    cfg = replace(cfg, **overrides)
    cfg.validate()
    return cfg


def _check_range(args, *names) -> None:
    """Reject a negative or non-finite value of each named flag, naming it."""
    for name in names:
        value = getattr(args, name)
        if not (math.isfinite(value) and value >= 0):
            raise ConfigError(f"--{name.replace('_', '-')} must be finite and >= 0, got {value}")


def _parse_grid(flag: str, text: str, probability: bool = False) -> list[float]:
    """The numbers of a comma-separated grid flag. An empty grid or item, an
    item that is not a number and, for a probability grid, a value outside
    [0, 1] raise a ConfigError that names the flag."""
    grid = []
    for item in text.split(","):
        try:
            grid.append(float(item))
        except ValueError:
            raise ConfigError(f"{flag}: {item!r} is not a number") from None
        if probability and not 0.0 <= grid[-1] <= 1.0:
            raise ConfigError(f"word-drop probability must lie in [0, 1], got {grid[-1]} in {flag}")
    return grid


def cmd_gen_data(args) -> int:
    _check_range(args, "seed", "noise")
    # the translation generator's flags; one left unset keeps its default
    given = {name: value for name, value in (("vocab_size", args.vocab_size),
                                             ("ambiguity_rate", args.ambiguity_rate))
             if value is not None}
    if args.kind == "interaction":
        if given:
            flag = "--" + next(iter(given)).replace("_", "-")
            raise ConfigError(f"{flag} applies only to --kind translation")
        samples = data_mod.gen_interaction_dataset(args.n, args.seed,
                                                   noise=args.noise)
    else:
        samples = data_mod.gen_toy_translation(
            args.n, args.seed, noise=args.noise,
            topic_skew=0.6,     # the skew the criteria and the benchmark draw with
            **given)
    splits = dict(zip(("train", "val", "test"), data_mod.split_dataset(samples)))
    for name, part in splits.items():
        if not part:
            raise ConfigError(f"--n {args.n} leaves the {name} split empty; "
                              "gen-data needs --n >= 10")
    out = args.out or os.environ.get("FUSELAB_OUT", ".")
    os.makedirs(out, exist_ok=True)
    for name, part in splits.items():
        path = os.path.join(out, f"{args.prefix}{name}.tsv")
        data_mod.write_dataset(path, part)
        print(f"wrote {len(part)} samples to {path}")
    return 0


def _train_and_write(cfg: ExperimentConfig) -> harness.RunRecord:
    """Train one configuration; write checkpoint.bin, metrics.csv and
    summary.json into its output directory."""
    ckpt, record = harness.train(cfg)
    out = cfg.output_root
    os.makedirs(out, exist_ok=True)
    ckpt_path = os.path.join(out, "checkpoint.bin")
    ckpt_io.save_checkpoint(ckpt_path, ckpt)
    record.write_csv(os.path.join(out, "metrics.csv"))
    record.write_summary(os.path.join(out, "summary.json"))
    print(f"checkpoint: {ckpt_path}")
    return record


def cmd_train(args) -> int:
    record = _train_and_write(_build_config(args))
    print(f"best val metric {record.summary['best_val_metric']:.4f} "
          f"at epoch {record.summary['best_epoch']}")
    return 0


def cmd_eval(args) -> int:
    _check_range(args, "drop_seed")
    metrics = harness.evaluate_checkpoint(args.checkpoint, args.dataset,
                                          word_drop_p=args.word_drop_p,
                                          drop_seed=args.drop_seed)
    print(json.dumps(metrics, indent=2, sort_keys=True))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(metrics, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def cmd_ablate(args) -> int:
    grid = None if args.p_grid is None else _parse_grid("--p-grid", args.p_grid, probability=True)
    model, cfg, info = harness.model_from_checkpoint(
        ckpt_io.load_checkpoint(args.checkpoint))
    samples = harness.read_dataset_for(args.dataset, cfg, info)
    rows = harness.ablate(model, info, samples, p_grid=grid)
    out = args.out or os.path.join(cfg.output_root, "ablation.csv")
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    harness.write_ablation_csv(out, rows)
    for p, b1, b2, b3, b4 in rows:
        print(f"p={p:.2f} bleu1={b1:.2f} bleu2={b2:.2f} bleu3={b3:.2f} bleu4={b4:.2f}")
    print(f"wrote {out}")
    return 0


def cmd_gradcheck(args) -> int:
    if args.repeats < 1:
        raise ConfigError(f"--repeats must be >= 1, got {args.repeats}")
    worst, failed = run_gradchecks(args.repeats, args.seed)
    if failed:
        for line in failed:
            print("FAIL", line)
        return 2
    print(f"gradcheck passed: {args.repeats * len(gradcheck_cases())} cases, "
          f"worst relative error {worst:.3e}")
    return 0


def cmd_sweep(args) -> int:
    grid1 = _parse_grid("--lambda1-grid", args.lambda1_grid)
    grid2 = _parse_grid("--lambda2-grid", args.lambda2_grid)
    cfg = _build_config(args)
    root = cfg.output_root
    grid = [replace(cfg, lambda1=l1, lambda2=l2,
                    out_dir=os.path.join(root, f"l1_{l1}_l2_{l2}"))
            for l1 in grid1 for l2 in grid2]
    for point in grid:          # the whole grid is checked before any run
        point.validate()
    results = []
    for point in grid:
        record = _train_and_write(point)
        results.append((point.lambda1, point.lambda2, record.summary["best_val_metric"]))
        print(f"lambda1={point.lambda1} lambda2={point.lambda2} "
              f"best_val={record.summary['best_val_metric']:.4f}")
    sweep_csv = os.path.join(root, "sweep.csv")
    with open(sweep_csv, "w", encoding="utf-8") as fh:
        fh.write("lambda1,lambda2,best_val_metric\n")
        for l1, l2, v in results:
            fh.write(f"{l1!r},{l2!r},{v!r}\n")
    print(f"wrote {sweep_csv}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fuselab",
        description="Adaptive multimodal fusion experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset split")
    p.add_argument("--kind", choices=("interaction", "translation"),
                   required=True)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.3)
    p.add_argument("--vocab-size", type=int, default=None,
                   help="translation only; default 24")
    p.add_argument("--ambiguity-rate", type=float, default=None,
                   help="translation only; default 0.0")
    p.add_argument("--out", default=None)
    p.add_argument("--prefix", default="")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train one configuration")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--word-drop-p", type=float, default=0.0)
    p.add_argument("--drop-seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="word-drop BLEU curve for a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--p-grid", default=None,
                   help="comma-separated probabilities, default 0.0..0.9")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeats", type=int, default=5)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("sweep", help="grid sweep over lambda1/lambda2")
    _add_config_flags(p)
    p.add_argument("--lambda1-grid", default="0.5,1.0,2.0")
    p.add_argument("--lambda2-grid", default="1.0")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, SchemaError, FileNotFoundError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (harness.TrainingDiverged, ckpt_io.CheckpointError, AutodiffError,
            FloatingPointError, OverflowError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
