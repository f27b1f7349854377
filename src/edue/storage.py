"""Dataset directories, checkpoint directories, and report files.

A dataset directory holds one tensor container per image (the image,
every structure's rater masks, and the clean reference mask) plus a
manifest.json: the caller's keys, n_images, and one {file, delta_used,
n_raters} entry per image.  Loading checks every ``masks/<structure>``
entry once: two or more binary masks (the rater contract,
``disagreement.rater_masks``), each the size of the image, and the same
rater count for every structure; each ``true/<structure>`` must be the
size of the image too.  Entries no structure names, such as an old
``heatmap/*``, are ignored.  A checkpoint directory holds the weights
container(s), a loss-trace CSV (``member`` plus the ``EpochStats``
fields), and a train_meta.json that makes it self-describing: eval
needs no flags beyond the two paths.

This module alone writes each of those files.  All writes are atomic
(write to a temporary file, then rename), and all JSON goes through
``container.write_json`` (strict, sorted keys, trailing newline), so a
rerun with the same seed reproduces every file byte for byte.
"""

from __future__ import annotations

import os
from dataclasses import astuple, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import RunConfig
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


def _image_entries(sample: RaterSample) -> dict[str, np.ndarray]:
    entries = {"image": np.asarray(sample.image)}
    for k, name in enumerate(sample.structure_names):
        entries[f"masks/{name}"] = np.asarray(sample.masks[k], dtype=np.float64)
        entries[f"true/{name}"] = np.asarray(sample.true_mask[k])
    return entries


def save_dataset(directory: str | os.PathLike, samples: Sequence[RaterSample],
                 manifest: dict) -> None:
    """One container per image plus a manifest built on the caller's keys."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    images = []
    for i, sample in enumerate(samples):
        filename = f"img_{i:04d}.edt"
        save_container(directory / filename, _image_entries(sample))
        images.append({"file": filename, "delta_used": sample.delta_used,
                       "n_raters": int(sample.masks.shape[1])})
    write_json(directory / "manifest.json", {**manifest, "format": DATASET_FORMAT,
                                             "images": images, "n_images": len(samples)})


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
                        config: RunConfig, seed: int, structure: int,
                        structure_name: str) -> None:
    """Weights plus loss trace plus a self-describing train_meta.json."""
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
        "arm": arm, "n_members": len(models), "config": config.as_dict(), "seed": seed,
        "structure": structure, "structure_name": structure_name,
        "head_skip": ARMS[arm].skipped_heads(config)})


def load_checkpoint_dir(directory: str | os.PathLike) -> tuple[list[Model], dict]:
    """Returns (models, train_meta dict); one model unless an ensemble.
    Checks every train_meta.json key eval, qc and ood read, each required;
    head_skip must leave 2 maps, or 1 for an arm without uncertainty."""
    directory = Path(directory)
    meta_path = directory / "train_meta.json"
    meta = read_json_object(meta_path)
    where = f"{meta_path}:"
    if not isinstance(meta.get("arm"), str) or meta["arm"] not in ARMS:
        raise DataError(f"{where} key 'arm' must be one of {sorted(ARMS)}, "
                        f"got {meta.get('arm')!r}")
    n_models = json_value(meta.get("n_members"), int, where, "n_members", minimum=1)
    config = json_value(meta.get("config"), dict, where, "config")
    json_value(config.get("batch_size"), int, f"{where} config", "batch_size", minimum=1)
    for key in ("structure", "head_skip", "seed"):
        json_value(meta.get(key), int, where, key, minimum=0)
    json_value(meta.get("structure_name"), str, where, "structure_name")
    models = [load_checkpoint(d) for d in model_dirs(directory, n_models)]
    head_skip = meta["head_skip"]
    need = 2 if ARMS[meta["arm"]].uncertainty else 1
    n_maps = sum(max(m.n_heads - head_skip, 0) for m in models)
    if n_maps < need:
        raise DataError(f"{where} key 'head_skip' {head_skip} leaves {n_maps} "
                        f"map(s); arm {meta['arm']!r} needs at least {need}")
    return models, meta
