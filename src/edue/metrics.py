"""Evaluation metrics: rank and distance correlations, NCC, NLL, soft Dice.

Image-level uncertainty quality is judged by correlating the sum of the
model's variance heatmap with the sum of the rater-variance heatmap
across a test set (Spearman and distance correlation); pixel-level
alignment by normalized cross-correlation between the two heatmaps; and
calibration by the negative log-likelihood of the binarized majority
label under the predicted probabilities.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .disagreement import binarize_majority, gt_heatmap, soft_majority
from .model import aggregate_heads

__all__ = [
    "spearman",
    "distance_correlation",
    "ncc",
    "nll",
    "soft_dice",
    "image_level_correlation",
    "MetricReport",
    "evaluate_predictions",
]

NLL_CLAMP = 1e-7
DICE_SMOOTHING = 1e-6


def _as_vector(values, name: str, min_len: int) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64).reshape(-1)
    if v.size < min_len:
        raise ValueError(f"{name} needs at least {min_len} values, got {v.size}")
    return v


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their positions."""
    order = np.argsort(v, kind="stable")
    ranks = np.empty(v.size, dtype=np.float64)
    i = 0
    while i < v.size:
        j = i
        while j + 1 < v.size and v[order[j + 1]] == v[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman(x, y) -> float:
    """Rank correlation; raises on constant input rather than guessing 0."""
    xv = _as_vector(x, "spearman input", 3)
    yv = _as_vector(y, "spearman input", 3)
    if xv.size != yv.size:
        raise ValueError(f"length mismatch: {xv.size} vs {yv.size}")
    rx = _average_ranks(xv)
    ry = _average_ranks(yv)
    sx = rx.std()
    sy = ry.std()
    if sx == 0.0 or sy == 0.0:
        raise ValueError("undefined correlation: constant input")
    cov = float(np.mean((rx - rx.mean()) * (ry - ry.mean())))
    return cov / (sx * sy)


def distance_correlation(x, y) -> float:
    """Classical biased distance correlation in [0, 1]; 0 on degenerate input."""
    xv = _as_vector(x, "distance_correlation input", 4)
    yv = _as_vector(y, "distance_correlation input", 4)
    if xv.size != yv.size:
        raise ValueError(f"length mismatch: {xv.size} vs {yv.size}")

    def double_centered(v: np.ndarray) -> np.ndarray:
        d = np.abs(v[:, None] - v[None, :])
        return d - d.mean(axis=1, keepdims=True) - d.mean(axis=0, keepdims=True) + d.mean()

    a = double_centered(xv)
    b = double_centered(yv)
    dcov2 = float((a * b).mean())
    dvar_x = float(np.sqrt((a * a).mean()))
    dvar_y = float(np.sqrt((b * b).mean()))
    if dvar_x == 0.0 or dvar_y == 0.0:
        return 0.0
    return float(np.sqrt(max(dcov2, 0.0) / (dvar_x * dvar_y)))


def ncc(a, b) -> float:
    """Mean product of the standardized heatmaps; 0 (with a warning) when
    either map is constant and carries no pixel-level signal."""
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    if av.shape != bv.shape:
        raise ValueError(f"shape mismatch: {av.shape} vs {bv.shape}")
    sa = av.std()
    sb = bv.std()
    if sa == 0.0 or sb == 0.0:
        warnings.warn("zero-variance heatmap in ncc; returning 0", RuntimeWarning)
        return 0.0
    return float(np.mean(((av - av.mean()) / sa) * ((bv - bv.mean()) / sb)))


def nll(pred, target) -> float:
    """Mean negative log-likelihood of a binary target under pred."""
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    if p.shape != t.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {t.shape}")
    if p.min() < 0.0 or p.max() > 1.0:
        raise ValueError("pred must lie in [0, 1]")
    if not np.isin(t, (0.0, 1.0)).all():
        raise ValueError("target must be binary")
    p = np.clip(p, NLL_CLAMP, 1.0 - NLL_CLAMP)
    return float(np.mean(-(t * np.log(p) + (1.0 - t) * np.log(1.0 - p))))


def soft_dice(pred, target) -> float:
    """Overlap of probabilities against a soft label, smoothed at 1e-6."""
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    if p.shape != t.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {t.shape}")
    s = DICE_SMOOTHING
    return float((2.0 * (p * t).sum() + s) / (p.sum() + t.sum() + s))


def image_level_correlation(sv_model, sv_gt) -> dict:
    """Spearman and distance correlation of per-image variance sums."""
    return {
        "sr": spearman(sv_model, sv_gt),
        "dc": distance_correlation(sv_model, sv_gt),
    }


@dataclass(frozen=True)
class MetricReport:
    per_image: list[dict]
    dataset: dict


def evaluate_predictions(maps: np.ndarray, rater_masks: Sequence[np.ndarray],
                         variance: bool = True) -> MetricReport:
    """Per-image metrics plus the dataset-level summary.

    ``maps[i]`` holds image i's maps (a row of ``prob_maps``' output) and
    ``rater_masks[i]`` its (Y >= 2, H, W) stack.  This is the one place
    maps become a mask and a heatmap: with variance, their mean and
    variance (``aggregate_heads``); without it, the first map alone.
    The reference for Dice is the soft majority vote; for NLL it is that
    vote binarized at 0.5.  With variance, NCC and the variance sums are
    scored against the rater variance heatmap, and the dataset summary
    gains their correlations.
    """
    if len(maps) != len(rater_masks):
        raise ValueError(f"{len(maps)} map sets but {len(rater_masks)} rater stacks")
    n_min = 4 if variance else 1  # the correlations need four images
    if len(maps) < n_min:
        raise ValueError(f"need at least {n_min} images, got {len(maps)}")
    per_image = []
    for i, (image_maps, masks) in enumerate(zip(maps, rater_masks)):
        if variance:
            pred, heat = aggregate_heads(image_maps)
        else:
            pred = np.asarray(image_maps[0], dtype=np.float64)
        soft = soft_majority(masks)
        row = {
            "id": f"img{i:04d}",
            "soft_dice": soft_dice(pred, soft),
            "nll": nll(pred, binarize_majority(soft)),
        }
        if variance:
            gt_heat = gt_heatmap(masks)
            row.update(sv_model=float(heat.sum()), sv_gt=float(gt_heat.sum()),
                       ncc=ncc(heat, gt_heat))
        per_image.append(row)
    dataset = {
        "mean_dice": float(np.mean([r["soft_dice"] for r in per_image])),
        "mean_nll": float(np.mean([r["nll"] for r in per_image])),
    }
    if variance:
        dataset.update(image_level_correlation([r["sv_model"] for r in per_image],
                                               [r["sv_gt"] for r in per_image]),
                       mean_ncc=float(np.mean([r["ncc"] for r in per_image])))
    return MetricReport(per_image=per_image, dataset=dataset)
