"""Dataset directories, checkpoint directories, and report files.

A dataset directory holds one tensor container per image (the image,
every structure's rater masks, and the clean reference mask) plus a
manifest.json: the scene params, structures, seed and preset of the run
config that generated it, n_images, and one {file, delta_used, n_raters}
entry per image.  Loading checks every ``masks/<structure>`` entry once:
two or more binary masks (the rater contract, ``disagreement.rater_masks``),
each the size of the image, and the same rater count for every
structure; each ``true/<structure>`` must be the size of the image too.
Entries no structure names, such as an old ``heatmap/*``, are ignored.  A checkpoint directory holds weights.edt
(or one member_i/weights.edt per ensemble member), a loss-trace CSV
(``member`` plus the ``EpochStats`` fields), and a train_meta.json whose
arm and config, the seed included, rebuild every member: eval needs no
flags beyond the two paths.

This module alone writes each of those files.  All writes are atomic
(write to a temporary file, then rename), and all JSON goes through
``container.write_json`` (strict, sorted keys, trailing newline), so a
rerun with the same seed reproduces every file byte for byte.
"""

from __future__ import annotations

import os
from dataclasses import asdict, astuple, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import ConfigError, RunConfig, from_dict
from .container import (DataError, atomic_write_text, json_value, load_container,
                        read_json_object, save_container, write_json)
from .disagreement import EpochStats, rater_masks
from .harness import ARMS
from .model import Model, load_checkpoint, save_checkpoint
from .raters import RaterSample

__all__ = [
    "write_csv",
    "save_dataset",
    "load_dataset",
    "save_checkpoint_dir",
    "load_checkpoint_dir",
    "model_dirs",
]

DATASET_FORMAT = "edue-dataset-v1"


def _cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: str | os.PathLike, header: Sequence[str],
              rows: Sequence[Sequence]) -> None:
    """Plain comma-separated values; floats via repr for exact round trips."""
    lines = [",".join(header)]
    lines += [",".join(_cell(v) for v in row) for row in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# dataset directories


def save_dataset(directory: str | os.PathLike, samples: Sequence[RaterSample],
                 config: RunConfig) -> None:
    """One container per image plus a manifest from the config that made them."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    images = []
    for i, sample in enumerate(samples):
        filename = f"img_{i:04d}.edt"
        entries = {"image": np.asarray(sample.image)}
        for k, name in enumerate(sample.structure_names):
            entries[f"masks/{name}"] = np.asarray(sample.masks[k], dtype=np.float64)
            entries[f"true/{name}"] = np.asarray(sample.true_mask[k])
        save_container(directory / filename, entries)
        images.append({"file": filename, "delta_used": sample.delta_used,
                       "n_raters": int(sample.masks.shape[1])})
    params = config.scene_params()
    write_json(directory / "manifest.json", {
        "params": asdict(params), "structures": list(params.structure_names()),
        "seed": config.seed, "preset": config.preset,
        "format": DATASET_FORMAT, "images": images, "n_images": len(samples)})


def load_dataset(directory: str | os.PathLike) -> tuple[list[RaterSample], dict]:
    """Rebuild samples from a dataset directory, validating its layout."""
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    manifest = read_json_object(manifest_path)
    if manifest.get("format") != DATASET_FORMAT:
        raise DataError(f"{manifest_path}: key 'format' must be "
                        f"{DATASET_FORMAT!r}, got {manifest.get('format')!r}")
    structures = manifest.get("structures")
    if (not isinstance(structures, list) or not structures
            or not all(isinstance(name, str) for name in structures)):
        raise DataError(f"{manifest_path}: key 'structures' must be a non-empty "
                        f"list of names, got {structures!r}")
    structures = tuple(structures)
    images = manifest.get("images", [])
    if not isinstance(images, list) or not all(isinstance(e, dict) for e in images):
        raise DataError(f"{manifest_path}: key 'images' must be a list of objects")
    if len(images) != manifest.get("n_images"):
        raise DataError(f"{manifest_path}: key 'n_images' disagrees with "
                        f"its images list")
    samples = []
    where = f"{manifest_path}: an images entry"
    for entry in images:
        path = directory / json_value(entry.get("file"), str, where, "file")
        delta = json_value(entry.get("delta_used"), float, where, "delta_used")
        if not path.is_file():
            raise DataError(f"dataset file missing: {path}")
        tensors = load_container(path)
        for key in ["image"] + [f"{kind}/{name}" for name in structures
                                for kind in ("masks", "true")]:
            if key not in tensors:
                raise DataError(f"{path} has no {key!r} entry")
        if not np.isfinite(tensors["image"]).all():
            raise DataError(f"{path}: entry 'image' has non-finite values")
        size = tensors["image"].shape[-2:]
        first = f"masks/{structures[0]}"
        for name in structures:
            key = f"masks/{name}"
            try:
                masks = rater_masks(tensors[key])
                if masks.shape[1:] != size:
                    raise ValueError(f"masks {masks.shape[1:]} differ from image {size}")
                if len(masks) != len(tensors[first]):
                    raise ValueError(f"{len(masks)} raters differ from the "
                                     f"{len(tensors[first])} of {first!r}")
                key = f"true/{name}"
                if tensors[key].shape != size:
                    raise ValueError(f"shape {tensors[key].shape} differs from image {size}")
            except ValueError as exc:
                raise DataError(f"{path}: entry {key!r}: {exc}") from None
        samples.append(RaterSample(
            image=tensors["image"],
            masks=np.stack([tensors[f"masks/{name}"] for name in structures]),
            true_mask=np.stack([tensors[f"true/{name}"] for name in structures]),
            delta_used=delta, structure_names=structures))
    return samples, manifest


# ---------------------------------------------------------------------------
# checkpoint directories


def model_dirs(directory: Path, n_models: int) -> list[Path]:
    """A lone model lives in the checkpoint directory itself; ensemble
    members get one member_i/ subdirectory each."""
    if n_models == 1:
        return [directory]
    return [directory / f"member_{i}" for i in range(n_models)]


def save_checkpoint_dir(directory: str | os.PathLike, arm: str,
                        models: Sequence[Model],
                        traces: Sequence[Sequence[EpochStats]],
                        config: RunConfig, structure: int, structure_name: str) -> None:
    """Weights, loss trace, and a train_meta.json whose config is the run's."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rows: list[tuple] = []
    for i, (model_dir, model, trace) in enumerate(
            zip(model_dirs(directory, len(models)), models, traces)):
        save_checkpoint(model_dir, model)
        rows += [(i, *astuple(stats)) for stats in trace]
    write_csv(directory / "loss.csv",
              ["member", *(f.name for f in fields(EpochStats))], rows)
    write_json(directory / "train_meta.json", {
        "arm": arm, "n_members": len(models), "config": config.as_dict(),
        "structure": structure, "structure_name": structure_name})


def load_checkpoint_dir(directory: str | os.PathLike
                        ) -> tuple[list[Model], dict, RunConfig]:
    """Returns (models, train_meta dict, run config); one model unless an
    ensemble.  Every train_meta.json key is required, and so is every
    config key: the arm and config rebuild each member's shape, kind and
    seed, and n_members must be the arm's member count.  An older layout's
    model.json and head_skip key are ignored; its seed must be the config's."""
    directory = Path(directory)
    meta_path = directory / "train_meta.json"
    meta = read_json_object(meta_path)
    where = f"{meta_path}:"
    if not isinstance(meta.get("arm"), str) or meta["arm"] not in ARMS:
        raise DataError(f"{where} key 'arm' must be one of {sorted(ARMS)}, "
                        f"got {meta.get('arm')!r}")
    raw = json_value(meta.get("config"), dict, where, "config")
    missing = sorted({f.name for f in fields(RunConfig)} - set(raw))
    if missing:
        raise DataError(f"{where} config key {missing[0]!r} is missing")
    try:
        config = from_dict(raw, f"{meta_path}: config")
    except ConfigError as exc:
        raise DataError(str(exc)) from None
    if meta.get("seed", config.seed) != config.seed:  # an older checkpoint trained with it
        raise DataError(f"{where} key 'seed' {meta['seed']!r} differs from config key 'seed' "
                        f"{config.seed}; move key 'seed', which trained the members, into config")
    json_value(meta.get("structure"), int, where, "structure", minimum=0)
    json_value(meta.get("structure_name"), str, where, "structure_name")
    arm = ARMS[meta["arm"]]
    seeds = arm.member_seeds(config)
    if json_value(meta.get("n_members"), int, where, "n_members") != len(seeds):
        raise DataError(f"{where} key 'n_members' must be {len(seeds)} for arm "
                        f"{meta['arm']!r}, got {meta['n_members']}")
    models = [load_checkpoint(d, replace(config.model_config(), seed=s), arm.kind, meta_path)
              for d, s in zip(model_dirs(directory, len(seeds)), seeds)]
    return models, meta, config
