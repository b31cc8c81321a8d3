"""Command-line entry point: synth, split, train, eval, gradcheck, lemmacheck.

Exit codes: 0 success, 1 runtime failure (one-line reason on stderr),
2 usage errors. Flags override config-file fields. Every command echoes
its effective configuration into its output directory.
"""
from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import data as dat
from . import losses, trainer
from .config import from_dict, to_dict
from .diffcore import Tensor, grad_check
from .model import ModelConfig, build_model


def _positive_int(text: str) -> int:
    """A count for a check tool: a check over zero items would pass vacuously."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _names(text: str) -> tuple[str, ...]:
    """A comma-separated list of names; empty items are dropped."""
    return tuple(name for name in text.split(",") if name)


def _percent(text: str) -> float:
    """A percentage, parsed to the fraction it sets."""
    return float(text) / 100.0


def _given(args, names) -> dict:
    """The flags among `names` that were given; a flag left out keeps its default."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="crfas", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True)

    # each flag's dest is its SynthConfig field; flags left out keep the field's default
    p = sub.add_parser("synth", help="generate the synthetic live/spoof dataset")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--subjects", type=int)
    p.add_argument("--sessions", type=int)
    p.add_argument("--attacks", type=_names, help="comma-separated attack types")
    p.add_argument("--per-cell", type=int)
    p.add_argument("--side", type=int)
    p.add_argument("--datasets", type=_names, help="comma-separated dataset ids")
    p.add_argument("--seed", type=int)
    p.add_argument("--noise", dest="noise_std", type=float)
    p.add_argument("--overlay", dest="overlay_amp", type=float)

    # past the three required flags, each flag's dest is the protocol parameter it sets
    p = sub.add_parser("split", help="partition a manifest with one of the 5 protocols")
    p.add_argument("--manifest", required=True, type=Path)
    p.add_argument("--protocol", required=True, type=int)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--labeled-pct", dest="label_fraction", type=_percent, help="protocols 1 and 4")
    p.add_argument("--extra-mode", choices=["none", "live_only_p", "live_spoof_p"], help="protocol 2")
    p.add_argument("--extra-pct", dest="extra_fraction", type=_percent, help="protocol 2")
    p.add_argument("--unlabeled-dataset", help="protocol 3")
    p.add_argument("--test-dataset", help="protocols 3 and 4")
    p.add_argument("--unlabeled-attack", help="protocol 5")
    p.add_argument("--test-attack", help="protocol 5")

    p = sub.add_parser("train", help="train on a split directory")
    p.add_argument("--split-dir", required=True, type=Path, help="directory written by the split command")
    p.add_argument("--data-root", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--config", type=Path, help="JSON train config; flags below override its fields")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--supervised-only", action="store_true", help="ignore the unlabeled list")
    p.add_argument("--dump-views", action="store_true",
                   help="write both views of every row of the first training batch as images")

    p = sub.add_parser("eval", help="score a test manifest from a checkpoint")
    p.add_argument("--checkpoint", required=True, type=Path)
    p.add_argument("--test", required=True, type=Path)
    p.add_argument("--data-root", required=True, type=Path)
    p.add_argument("--dev", type=Path)
    p.add_argument("--threshold", type=float)
    p.add_argument("--out", required=True, type=Path)

    # no abbreviations, so that `--h` is rejected rather than read as `--help`
    p = sub.add_parser("gradcheck", help="finite differences vs reverse-mode on the full loss", allow_abbrev=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--coords", type=_positive_int, default=24, help="random coordinates checked per parameter")

    p = sub.add_parser("lemmacheck", help="verify the dense-similarity product decomposition")
    p.add_argument("--trials", type=_positive_int, default=200)
    p.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_synth(args) -> int:
    cfg = dat.SynthConfig(**_given(args, (field.name for field in dataclasses.fields(dat.SynthConfig))))
    records = dat.generate_synthetic(cfg, args.out)
    (args.out / "synth_config.json").write_text(json.dumps(to_dict(cfg), indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(records)} images under {args.out}")
    return 0


def _cmd_split(args) -> int:
    records = dat.read_manifest(args.manifest)
    params = _given(args, (name for name in vars(args) if name not in ("verb", "manifest", "protocol", "out")))
    result = dat.split(records, dat.SplitSpec(protocol=args.protocol, params=params))
    provenance = {"protocol": args.protocol, "params": json.dumps(params, sort_keys=True)}
    paths = dat.write_split(result, args.out, provenance)
    (args.out / "split_config.json").write_text(
        json.dumps({"protocol": args.protocol, "params": params}, indent=2, sort_keys=True) + "\n"
    )
    for key, records_ in result.lists().items():
        print(f"{key}: {len(records_)} records -> {paths[key]}")
    return 0


def _cmd_train(args) -> int:
    if args.config is not None:
        config = from_dict(trainer.TrainConfig, json.loads(args.config.read_text()))
    else:
        config = trainer.TrainConfig()
    config = dataclasses.replace(config, **_given(args, ("epochs", "batch_size", "seed", "alpha")))
    config.validate()
    split_result = dat.read_split(args.split_dir)
    if args.supervised_only:
        split_result.unlabeled_train = []
    model = build_model(config.model, config.seed)
    batches = trainer.training_batches(split_result, config, args.data_root, model.dtype)
    if args.dump_views:
        args.out.mkdir(parents=True, exist_ok=True)
        x1, x2, _ = first = next(batches)
        for tag, views in (("view1", x1), ("view2", x2)):
            for index, view in enumerate(views.data):
                pixels = np.clip(np.round(view * 255), 0, 255).astype(np.uint8)
                dat.write_image(args.out / f"debug_{tag}_{index:03d}.fimg", pixels)
        batches = itertools.chain([first], batches)
    final = trainer.fit(model, split_result, config, args.out, args.data_root, batches)
    print(f"final checkpoint: {final}")
    return 0


def _cmd_eval(args) -> int:
    test_records = dat.read_manifest(args.test)
    dev_records = dat.read_manifest(args.dev) if args.dev is not None else None
    summary = trainer.evaluate(
        args.checkpoint, test_records, args.data_root,
        dev_records=dev_records, threshold=args.threshold, out_dir=args.out,
    )
    (args.out / "eval_config.json").write_text(
        json.dumps(
            {
                "checkpoint": str(args.checkpoint),
                "test": str(args.test),
                "dev": str(args.dev) if args.dev is not None else None,
                "threshold": args.threshold,
            },
            indent=2, sort_keys=True,
        ) + "\n"
    )
    for key, value in summary.items():
        print(f"{key}={value:.6g}")
    return 0


def _cmd_gradcheck(args) -> int:
    # small f64 model and batch keep the finite-difference sweep quick
    config = ModelConfig(input_size=16, backbone_channels=(4, 6, 6), feature_side=2, embed_dim=6)
    model = build_model(config, args.seed, "f64")
    rng = np.random.default_rng(args.seed)
    x1 = Tensor(rng.random((2, 16, 16, 3)))
    x2 = Tensor(rng.random((2, 16, 16, 3)))

    def loss_fn():
        views = model.forward_views(x1, x2)
        _, total = losses.loss_overall(views, np.array([0, 1]), alpha=0.1)
        return total

    report = grad_check(loss_fn, dict(model.named_params()), max_coords_per_param=args.coords, seed=args.seed)
    for line in report.format_lines():
        print(line)
    return 0 if report.passed else 1


def _cmd_lemmacheck(args) -> int:
    rng = np.random.default_rng(args.seed)
    sides = [1, 4, 16, 64]
    dims = [2, 8, 64]
    worst = 0.0
    for trial in range(args.trials):
        s2 = sides[trial % len(sides)]
        d = dims[(trial // len(sides)) % len(dims)]
        h = rng.normal(size=(s2, d))
        f = rng.normal(size=(s2, d))
        terms = losses.lemma_terms(h, f)
        worst = max(worst, abs(terms.lhs - terms.rhs) / max(1.0, abs(terms.lhs)))
    verdict = "PASS" if worst < 1e-6 else "FAIL"
    print(f"{verdict}: {args.trials} trials, max relative deviation {worst:.3e}")
    return 0 if worst < 1e-6 else 1


_COMMANDS = {
    "synth": _cmd_synth,
    "split": _cmd_split,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
    "lemmacheck": _cmd_lemmacheck,
}


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.verb](args)
    except Exception as e:  # noqa: BLE001 - single top-level reporting point
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())
