"""Output checks for the benchmark's CLI operations.

Every check returns a list of problems; an empty list means the output is
right.  Range checks apply to every operation.  The reference pass also
compares outputs for a fixed seed against ``reference.json``: rater masks
must match exactly, and losses and reports within tolerances wide enough
for float32 summation-order changes but far tighter than a wrong gradient
or a wrong metric would move them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


def _in_range(problems: list, what: str, value, lo: float, hi: float) -> None:
    if not _finite(value) or not lo <= value <= hi:
        problems.append(f"{what} = {value!r} outside [{lo}, {hi}]")


def masks_digest(samples) -> str:
    h = hashlib.sha256()
    for s in samples:
        h.update(np.ascontiguousarray(s.masks, dtype="<f4").tobytes())
    return h.hexdigest()


def check_dataset(load_dataset, path, n: int, image_shape: tuple,
                  n_structures: int, n_raters: int) -> tuple[list, str | None]:
    """Reload through the program's own loader; returns (problems, digest)."""
    problems: list[str] = []
    samples, manifest = load_dataset(path)
    if len(samples) != n:
        return [f"{path}: {len(samples)} images, expected {n}"], None
    for i, s in enumerate(samples):
        if s.image.shape != image_shape:
            problems.append(f"{path} image {i}: shape {s.image.shape}, expected {image_shape}")
        if not np.all(np.isfinite(s.image)) or s.image.min() < 0 or s.image.max() > 1:
            problems.append(f"{path} image {i}: values outside [0, 1]")
        want = (n_structures, n_raters) + image_shape[1:]
        if s.masks.shape != want:
            problems.append(f"{path} image {i}: masks {s.masks.shape}, expected {want}")
        elif not np.isin(s.masks, (0.0, 1.0)).all():
            problems.append(f"{path} image {i}: rater masks are not binary")
        elif (s.masks.sum(axis=(2, 3)) == 0).any():
            problems.append(f"{path} image {i}: an empty rater mask")
    if len(manifest.get("structures", ())) != n_structures:
        problems.append(f"{path}: manifest lists {manifest.get('structures')}")
    return problems, masks_digest(samples)


def final_losses(ckpt: Path, members: int, epochs: int) -> tuple[list, list]:
    """Checks loss.csv and train_meta.json; returns (problems, final losses)."""
    problems: list[str] = []
    with open(ckpt / "loss.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != members * epochs:
        return [f"{ckpt}/loss.csv: {len(rows)} rows, expected {members * epochs}"], []
    finals = []
    for row in rows:
        for key in ("mean_total", "mean_bce", "mean_rmse"):
            value = float(row[key])
            if not math.isfinite(value) or value < 0:
                problems.append(f"{ckpt}/loss.csv: {key} = {value}")
        if int(row["epoch"]) == epochs - 1:
            finals.append(float(row["mean_total"]))
    meta = json.loads((ckpt / "train_meta.json").read_text())
    if meta.get("n_members") != members:
        problems.append(f"{ckpt}: n_members {meta.get('n_members')}, expected {members}")
    return problems, finals


def check_eval(path: Path, n: int) -> list:
    problems: list[str] = []
    doc = json.loads(path.read_text())
    rows = doc.get("per_image", [])
    if len(rows) != n:
        return [f"{path}: {len(rows)} per-image rows, expected {n}"]
    for i, row in enumerate(rows):
        _in_range(problems, f"{path} image {i} soft_dice", row["soft_dice"], 0.0, 1.0)
        _in_range(problems, f"{path} image {i} nll", row["nll"], 0.0, 17.0)
        _in_range(problems, f"{path} image {i} sv_model", row["sv_model"], 0.0, math.inf)
        _in_range(problems, f"{path} image {i} sv_gt", row["sv_gt"], 0.0, math.inf)
        _in_range(problems, f"{path} image {i} ncc", row["ncc"], -1.0 - 1e-9, 1.0 + 1e-9)
    ds = doc.get("dataset", {})
    _in_range(problems, f"{path} sr", ds.get("sr"), -1.0 - 1e-9, 1.0 + 1e-9)
    _in_range(problems, f"{path} dc", ds.get("dc"), 0.0, 1.0 + 1e-9)
    _in_range(problems, f"{path} mean_dice", ds.get("mean_dice"), 0.0, 1.0)
    if not path.with_suffix(".csv").is_file():
        problems.append(f"{path}: no CSV sibling")
    return problems


def check_qc(path: Path) -> list:
    problems: list[str] = []
    doc = json.loads(path.read_text())
    _in_range(problems, f"{path} d_auc", doc.get("d_auc"), -1.0, 1.0)
    quantiles = doc.get("quantiles", [])
    if len(quantiles) != 21:
        problems.append(f"{path}: {len(quantiles)} quantiles, expected 21")
    for key in ("remaining_fraction", "ideal_fraction"):
        values = doc.get(key, [])
        if len(values) != len(quantiles):
            problems.append(f"{path}: {key} has {len(values)} points")
        for v in values:
            _in_range(problems, f"{path} {key}", v, 0.0, 1.0)
    return problems


def check_ood(path: Path, n: int, fractions: tuple) -> list:
    problems: list[str] = []
    doc = json.loads(path.read_text())
    rows = doc.get("per_fraction", [])
    if len(rows) != len(fractions):
        return [f"{path}: {len(rows)} fractions, expected {len(fractions)}"]
    for row, f in zip(rows, fractions):
        if row["n_distorted"] != math.ceil(f * n):
            problems.append(f"{path}: fraction {f} distorted {row['n_distorted']} images")
        if len(row["scores"]) != n:
            problems.append(f"{path}: fraction {f} has {len(row['scores'])} scores")
        for v in row["scores"]:
            _in_range(problems, f"{path} fraction {f} agreement", v, 0.0, 1.0)
        s = row["summary"]
        if not s["min"] <= s["median"] <= s["max"]:
            problems.append(f"{path}: fraction {f} summary out of order")
    return problems


# ---------------------------------------------------------------------------
# fixed-seed reference comparison


def eval_digest(path: Path) -> dict:
    doc = json.loads(path.read_text())
    return {key: [row[key] for row in doc["per_image"]]
            for key in ("soft_dice", "nll", "sv_model", "ncc")}


def qc_digest(path: Path) -> float:
    return json.loads(path.read_text())["d_auc"]


def ood_digest(path: Path) -> list:
    return [row["summary"]["mean"] for row in json.loads(path.read_text())["per_fraction"]]


def compare(what: str, got, want, tol: dict) -> list:
    """Element-wise |got - want| <= abs + rel * |want|, over nested lists
    and dicts of them; tol may hold a separate tolerance per dict key."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{what}: keys differ from reference"]
        return [p for key in sorted(want)
                for p in compare(f"{what}.{key}", got[key], want[key], tol.get(key, tol))]
    got_flat = np.asarray(got, dtype=np.float64).ravel()
    want_flat = np.asarray(want, dtype=np.float64).ravel()
    if got_flat.shape != want_flat.shape:
        return [f"{what}: {got_flat.size} values, reference has {want_flat.size}"]
    limit = tol.get("abs", 0.0) + tol.get("rel", 0.0) * np.abs(want_flat)
    bad = ~(np.abs(got_flat - want_flat) <= limit)
    if bad.any():
        i = int(np.argmax(bad))
        return [f"{what}: {got_flat[i]!r} differs from reference {want_flat[i]!r} "
                f"beyond tolerance {tol}"]
    return []
