"""Command-line surface: generate data, train, evaluate, QC, OOD, compare.

    edue gen-data --preset desk --n 200 --out d/
    edue train    --data d/ --preset desk --out m/
    edue eval     --model m/ --data d/ --out report.json
    edue qc       --model m/ --data d/ --out qc.json --dice-threshold 0.7
    edue ood      --model m/ --data d/ --out ood.json --kind gauss_noise --level 0.3
    edue compare  --train-data d/ --test-data t/ --out cmp.json --seeds 1,2,3
    edue inspect  d/img_0000.edt

Exit codes: 0 success, 1 usage error, 2 data or validation error or
running out of memory.  All diagnostics go to stderr; machine-readable
output goes to files (every report is written as strict, sorted-key
JSON plus a CSV a plotting tool can consume directly).  Reports are
byte-identical across reruns with the same inputs and seed.

Seed precedence: --seed, then EDUE_SEED, then the config's seed (ood: the
checkpoint config's), set as the run config's; compare's come from --seeds.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .config import (ConfigError, MAX_IMAGES, MAX_INPUT_SIDE, PRESET_NAMES, RunConfig,
                     load_config, preset)
from .container import ContainerError, DataError, entry_table, write_json
from .harness import (
    ARMS,
    evaluate_arm,
    ood_experiment,
    quality_control,
    run_comparison,
    to_train_items,
    train_arm,
)
from .metrics import MIN_VARIANCE_IMAGES
from .raters import DISTORTION_KINDS, generate_dataset
from .storage import (
    load_checkpoint_dir,
    load_dataset,
    save_checkpoint_dir,
    save_dataset,
    write_csv,
)

__all__ = ["main", "build_parser"]

ARM_CHOICES = tuple(name.replace("_", "-") for name in ARMS)


def _resolve_config(args: argparse.Namespace, arms=()) -> RunConfig:
    """The --config file or --preset, refused naming its source if one of
    arms cannot train with it: an arm that forces beta to 0 needs alpha > 0.
    A command with a --seed flag gets its resolved seed as the config's."""
    config = (load_config(args.config) if args.config is not None
              else preset(args.preset or "desk"))
    for name in arms:
        try:
            ARMS[name].loss_weights(config)
        except ValueError:
            raise ConfigError(f"{_config_source(args, config)}: key 'alpha' must be > 0 "
                              f"for arm {name!r}, which forces beta to 0") from None
    return replace(config, seed=_resolve_seed(args, config.seed)) if "seed" in args else config


def _resolve_seed(args: argparse.Namespace, config_seed: int) -> int:
    """The --seed flag, else EDUE_SEED, else the (validated) config seed."""
    if args.seed is not None:
        source, raw = "--seed", args.seed
    elif "EDUE_SEED" in os.environ:
        source, raw = "EDUE_SEED", os.environ["EDUE_SEED"]
    else:
        return config_seed
    try:
        seed = int(raw)
    except ValueError:
        seed = -1
    if seed < 0:
        raise ConfigError(f"{source} must be a non-negative integer, got {raw!r}")
    return seed


def _note(message: str) -> None:
    print(message, file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(args: argparse.Namespace) -> int:
    _check_out(args.out, directory=True)
    config = _resolve_config(args)
    n = args.n if args.n is not None else config.n_train
    if not 1 <= n <= MAX_IMAGES:
        raise ConfigError(f"--n must be in [1, {MAX_IMAGES}], got {n}")
    samples = generate_dataset(config.scene_params(), n, np.random.default_rng(config.seed))
    save_dataset(args.out, samples, config)
    _note(f"wrote {n} images to {args.out}")
    return 0


def _load_data(data_dir: str, config: RunConfig, source) -> tuple[list, dict]:
    """The dataset's samples and manifest; one whose images the network
    cannot take is refused before any work, naming the dataset and the
    config key of source that differs."""
    samples, manifest = load_dataset(data_dir)
    want = (config.in_channels, *config.input_size)
    for sample in samples:
        shape = np.shape(sample.image)
        if shape != want:
            key, value = (("in_channels", config.in_channels) if shape[:-2] != want[:1]
                          else ("input_size", list(config.input_size)))
            raise DataError(f"dataset {data_dir} has images of shape {shape}, but "
                            f"key {key!r} in {source} is {value}; the network "
                            f"takes (channels, height, width) = {want}")
    return samples, manifest


def _config_source(args: argparse.Namespace, config: RunConfig) -> str:
    return args.config if args.config is not None else f"preset {config.preset!r}"


def cmd_train(args: argparse.Namespace) -> int:
    _check_out(args.out, directory=True)
    arm = args.arm.replace("-", "_")
    config = _resolve_config(args, [arm])
    samples, manifest = _load_data(args.data, config, _config_source(args, config))
    structures = list(manifest["structures"])
    k = args.structure
    if not 0 <= k < len(structures):
        raise DataError(f"structure index {k} out of range; dataset has {structures}")
    items = to_train_items(samples, structure=k)
    models, traces = train_arm(arm, config, items)
    save_checkpoint_dir(args.out, arm, models, traces, config, k, structures[k])
    last = traces[-1][-1]
    _note(f"trained {arm} ({len(models)} model(s), {config.epochs} epochs); "
          f"final mean loss {last.mean_total:.4f}; checkpoint in {args.out}")
    return 0


def _finite(flag: str, value: float) -> float:
    if not math.isfinite(value):
        raise ConfigError(f"{flag} must be a finite number, got {value}")
    return value


def _load_predictor(args: argparse.Namespace, uncertainty: bool):
    """(models, train_meta, samples, prediction keywords) for a checkpoint
    and a dataset; the keywords are the head_skip and batch_size of the
    stored config.  uncertainty=True refuses arms that predict one map."""
    models, meta, config = load_checkpoint_dir(args.model)
    arm = ARMS[meta["arm"]]
    if uncertainty and not arm.uncertainty:
        raise DataError(f"{args.command} needs uncertainty, but arm {meta['arm']!r} "
                        f"predicts one map and has no uncertainty")
    k = meta["structure"]
    meta_path = Path(args.model) / "train_meta.json"
    samples, manifest = _load_data(args.data, config, meta_path)
    structures = list(manifest["structures"])
    if k >= len(structures) or structures[k] != meta["structure_name"]:
        raise DataError(f"{meta_path}: checkpoint was trained on "
                        f"structure {k}, {meta['structure_name']!r}, but dataset "
                        f"{args.data} has structures {structures}")
    return models, meta, samples, {"head_skip": arm.skipped_heads(config),
                                   "batch_size": config.batch_size}


def _evaluate(args: argparse.Namespace, uncertainty: bool):
    """The one scoring call behind eval and qc: the report key naming the
    predictor (train_meta, which holds its arm and structure), and the
    MetricReport."""
    models, meta, samples, predict = _load_predictor(args, uncertainty)
    report = evaluate_arm(models, samples, structure=meta["structure"], **predict)
    return {"train_meta": meta}, report


def _check_out(out: str, directory: bool = False) -> None:
    """Refuse, before any work, an --out of the wrong kind: a report path
    that is a directory or whose directory is missing, or a dataset or
    checkpoint directory that is a file."""
    path = Path(out)
    if directory and path.exists() and not path.is_dir():
        raise ConfigError(f"--out {out} is a file, not a directory")
    if not directory and path.is_dir():
        raise ConfigError(f"--out {out} is a directory, not a report file")
    if not directory and not path.parent.is_dir():
        raise ConfigError(f"--out directory {path.parent} does not exist or is not a directory")


def _write_report(out: str, doc: dict, header: list, rows: list) -> Path:
    """The JSON report at out, and its CSV beside it."""
    out = Path(out)
    write_json(out, doc)
    write_csv(out.with_suffix(".csv"), header, rows)
    return out


def cmd_eval(args: argparse.Namespace) -> int:
    _check_out(args.out)
    doc, report = _evaluate(args, uncertainty=False)
    columns = list(report.per_image[0])  # id, mask metrics, then any variance metrics
    out = _write_report(args.out, {**doc, "per_image": report.per_image,
                                   "dataset": report.dataset},
                        columns, [[rec[c] for c in columns] for rec in report.per_image])
    _note(f"evaluated {len(report.per_image)} images; report in {out}")
    return 0


def cmd_qc(args: argparse.Namespace) -> int:
    _check_out(args.out)
    threshold = _finite("--dice-threshold", args.dice_threshold)
    if not 0.0 < threshold <= 1.0:  # soft Dice lies in [0, 1]
        raise ConfigError(f"--dice-threshold must be in (0, 1], got {threshold}")
    doc, report = _evaluate(args, uncertainty=True)
    curve = quality_control([rec["soft_dice"] for rec in report.per_image],
                            [rec["sv_model"] for rec in report.per_image], threshold)
    out = _write_report(args.out, {**doc, "dice_threshold": threshold, **asdict(curve)},
                        ["quantile", "remaining_fraction", "ideal_fraction"],
                        list(zip(curve.quantiles, curve.remaining_fraction,
                                 curve.ideal_fraction)))
    _note(f"d_auc {curve.d_auc:.4f} at dice threshold {threshold}; "
          f"report in {out}")
    return 0


def _parse_fractions(raw: str) -> tuple[float, ...]:
    try:
        fractions = tuple(float(s) for s in raw.split(",") if s.strip())
    except ValueError:
        raise ConfigError(f"--fractions must be comma-separated numbers, "
                          f"got {raw!r}") from None
    if not fractions:
        raise ConfigError("--fractions must name at least one fraction")
    for f in fractions:
        if not 0.0 <= f <= 1.0:  # refuses NaN too
            raise ConfigError(f"--fractions must lie in [0, 1], got {f}")
    return fractions


def cmd_ood(args: argparse.Namespace) -> int:
    _check_out(args.out)
    level = _finite("--level", args.level)
    if level < 0:
        raise ConfigError(f"--level must be >= 0, got {level}")
    if args.kind == "blur" and level > MAX_INPUT_SIDE:
        raise ConfigError(f"--level is a blur radius in pixels and must be at "
                          f"most {MAX_INPUT_SIDE}, got {level}")
    fractions = _parse_fractions(args.fractions)
    models, meta, samples, predict = _load_predictor(args, uncertainty=True)
    seed = _resolve_seed(args, meta["config"]["seed"])
    report = ood_experiment(models, samples, args.kind, level,
                            rng=np.random.default_rng(seed),
                            fractions=fractions, **predict)
    stats = ["min", "q1", "median", "q3", "max", "mean"]
    out = _write_report(args.out, {"seed": seed, "train_meta": meta, **asdict(report)},
                        ["fraction", "n_distorted"] + stats,
                        [[row["fraction"], row["n_distorted"]]
                         + [row["summary"][s] for s in stats]
                         for row in report.per_fraction])
    _note(f"ood report over fractions {args.fractions} in {out}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    _check_out(args.out)
    config = _resolve_config(args, [name for name, arm in ARMS.items() if arm.uncertainty])
    try:
        seeds = tuple(int(s) for s in args.seeds.split(",") if s.strip())
    except ValueError:
        seeds = ()
    if not seeds or min(seeds) < 0 or len(set(seeds)) < len(seeds):
        raise ConfigError(f"--seeds must be comma-separated distinct non-negative "
                          f"integers, got {args.seeds!r}")
    source = _config_source(args, config)
    train_samples, train_manifest = _load_data(args.train_data, config, source)
    test_samples, test_manifest = _load_data(args.test_data, config, source)
    where = f"compare trains on {args.train_data} and scores on {args.test_data}"
    if train_manifest["structures"] != test_manifest["structures"]:
        raise DataError(f"{where}, whose structures differ: {train_manifest['structures']} "
                        f"and {test_manifest['structures']}")
    if len(test_samples) < MIN_VARIANCE_IMAGES:
        raise DataError(f"{where}, which has {len(test_samples)} images; the variance "
                        f"metrics need at least {MIN_VARIANCE_IMAGES}")
    report = run_comparison(train_samples, test_samples, config, seeds=seeds)
    # seeds, not the config's seed, trained every arm
    report["config"] = {k: v for k, v in config.as_dict().items() if k != "seed"}
    rows = [[arm, metric, stats["mean"], stats["std"]]
            for arm in sorted(report["arms"])
            for metric, stats in sorted(report["arms"][arm]["summary"].items())]
    out = _write_report(args.out, report, ["arm", "metric", "mean", "std"], rows)
    _note(f"compared {sorted(report['arms'])} over seeds {list(seeds)}; "
          f"report in {out}")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    rows = entry_table(args.path)
    total = sum(nbytes for _, _, nbytes in rows)
    print(f"{args.path}: {len(rows)} entries, {total} payload bytes")
    for name, shape, nbytes in rows:
        dims = "x".join(str(d) for d in shape) if shape else "scalar"
        print(f"  {name}  {dims}  {nbytes} bytes")
    return 0


# ---------------------------------------------------------------------------
# parser and entry point


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--preset", choices=PRESET_NAMES,
                       help="named configuration preset (default: desk)")
    group.add_argument("--config", help="path to a RunConfig JSON file")


def _add_predictor_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--model", required=True, help="checkpoint directory")
    sub.add_argument("--data", required=True, help="dataset directory")
    sub.add_argument("--out", required=True, help="report JSON path (a CSV of "
                     "its rows lands next to it)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edue",
        description="Disagreement-guided uncertainty estimation for "
                    "segmentation: data generation, training, and evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic multi-rater "
                                        "dataset directory")
    _add_config_flags(p)
    p.add_argument("--seed", type=int, help="overrides EDUE_SEED and the config seed")
    p.add_argument("--n", type=int, help="number of images (default: the "
                   "config's n_train)")
    p.add_argument("--out", required=True, help="dataset directory to write")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train one arm on a dataset directory")
    _add_config_flags(p)
    p.add_argument("--seed", type=int, help="overrides EDUE_SEED and the config seed")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="checkpoint directory to write")
    p.add_argument("--arm", choices=ARM_CHOICES, default="edue")
    p.add_argument("--structure", type=int, default=0,
                   help="structure index to train on (default 0)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    _add_predictor_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("qc", help="quality-control curve from a checkpoint")
    _add_predictor_flags(p)
    p.add_argument("--dice-threshold", type=float, default=0.7,
                   help="dice below this marks a segmentation poor")
    p.set_defaults(func=cmd_qc)

    p = sub.add_parser("ood", help="agreement distributions under distortion")
    _add_predictor_flags(p)
    p.add_argument("--kind", choices=DISTORTION_KINDS, default="gauss_noise")
    p.add_argument("--level", type=float, default=0.3)
    p.add_argument("--fractions", default="0,0.5,1",
                   help="comma-separated distorted fractions")
    p.add_argument("--seed", type=int, help="overrides EDUE_SEED and the "
                   "checkpoint config's seed")
    p.set_defaults(func=cmd_ood)

    p = sub.add_parser("compare", help="train and evaluate all arms over seeds")
    _add_config_flags(p)
    p.add_argument("--train-data", required=True)
    p.add_argument("--test-data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", default="1,2,3",
                   help="comma-separated training seeds")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("inspect", help="print a tensor container's entry table")
    p.add_argument("path", help="container file")
    p.set_defaults(func=cmd_inspect)
    return parser


def _fail(prefix: str, exc: BaseException) -> int:
    print(f"{prefix}: {exc}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; our contract reserves 2 for
        # data errors and reports usage errors as 1.
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ConfigError as exc:
        return _fail("config error", exc)
    except ContainerError as exc:
        return _fail("container error", exc)
    except FileNotFoundError as exc:
        return _fail("missing file", exc)
    except FloatingPointError as exc:
        return _fail("training error", exc)
    except MemoryError as exc:
        return _fail("out of memory", exc)
    except (ValueError, OSError) as exc:
        return _fail("data error", exc)


if __name__ == "__main__":
    raise SystemExit(main())
