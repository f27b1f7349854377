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

from .disagreement import binarize_majority, rater_masks as checked_stack
from .model import aggregate_heads

__all__ = [
    "spearman",
    "distance_correlation",
    "ncc",
    "nll",
    "soft_dice",
    "MetricReport",
    "evaluate_predictions",
]

NLL_CLAMP = 1e-7
DICE_SMOOTHING = 1e-6
# pixels per map times images that evaluate_predictions scores at once: 64
# desk images, one 256 x 256 image; bounds its float64 temporaries
_BLOCK_PIXELS = 64 * 32 * 32
MIN_VARIANCE_IMAGES = 4  # images the correlations of variance sums need


def _as_vectors(x, y, name: str, min_len: int) -> tuple[np.ndarray, np.ndarray]:
    """x and y flattened to float64 vectors of one length, at least min_len."""
    xv, yv = (np.asarray(v, dtype=np.float64).reshape(-1) for v in (x, y))
    for v in (xv, yv):
        if v.size < min_len:
            raise ValueError(f"{name} needs at least {min_len} values, got {v.size}")
    if xv.size != yv.size:
        raise ValueError(f"length mismatch: {xv.size} vs {yv.size}")
    return xv, yv


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their positions."""
    order = np.argsort(v, kind="stable")
    s = v[order]
    # tie groups are runs of equal sorted values, positions i..j
    i = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
    j = np.append(i[1:], v.size) - 1
    ranks = np.empty(v.size, dtype=np.float64)
    ranks[order] = np.repeat((i + j) / 2.0 + 1.0, j - i + 1)
    return ranks


def spearman(x, y) -> float:
    """Rank correlation; raises on constant input rather than guessing 0."""
    xv, yv = _as_vectors(x, y, "spearman input", 3)
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
    xv, yv = _as_vectors(x, y, "distance_correlation input", MIN_VARIANCE_IMAGES)

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


def _ncc_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ncc of each image pair in two float64 blocks of equal shape."""
    axes = tuple(range(1, a.ndim))
    sa, sb = (v.std(axis=axes, keepdims=True) for v in (a, b))
    flat = ((sa == 0.0) | (sb == 0.0)).reshape(-1)
    for _ in range(int(flat.sum())):
        warnings.warn("zero-variance heatmap in ncc; returning 0", RuntimeWarning)
    sa[flat] = sb[flat] = 1.0  # those rows are set to 0 below, not divided by 0
    out = np.mean(((a - a.mean(axis=axes, keepdims=True)) / sa)
                  * ((b - b.mean(axis=axes, keepdims=True)) / sb), axis=axes)
    out[flat] = 0.0
    return out


def _out_of_range(p: np.ndarray) -> np.ndarray:
    """Per image of a block: does pred leave [0, 1]?"""
    axes = tuple(range(1, p.ndim))
    return (p.min(axis=axes) < 0.0) | (p.max(axis=axes) > 1.0)


def _nll_rows(p: np.ndarray, t: np.ndarray) -> np.ndarray:
    p = np.clip(p, NLL_CLAMP, 1.0 - NLL_CLAMP)
    return np.mean(-(t * np.log(p) + (1.0 - t) * np.log(1.0 - p)), axis=tuple(range(1, p.ndim)))


def _dice_rows(p: np.ndarray, t: np.ndarray) -> np.ndarray:
    axes, s = tuple(range(1, p.ndim)), DICE_SMOOTHING
    return (2.0 * (p * t).sum(axis=axes) + s) / (p.sum(axis=axes) + t.sum(axis=axes) + s)


def _pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Two same-shape float64 arrays, each as a block of one image."""
    av, bv = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if av.shape != bv.shape:
        raise ValueError(f"shape mismatch: {av.shape} vs {bv.shape}")
    return av[None], bv[None]


def ncc(a, b) -> float:
    """Mean product of the standardized heatmaps; 0 (with a warning) when
    either map is constant and carries no pixel-level signal."""
    return float(_ncc_rows(*_pair(a, b))[0])


def nll(pred, target) -> float:
    """Mean negative log-likelihood of a binary target under pred."""
    p, t = _pair(pred, target)
    if _out_of_range(p)[0]:
        raise ValueError("pred must lie in [0, 1]")
    if not np.isin(t, (0.0, 1.0)).all():
        raise ValueError("target must be binary")
    return float(_nll_rows(p, t)[0])


def soft_dice(pred, target) -> float:
    """Overlap of probabilities against a soft label, smoothed at 1e-6."""
    return float(_dice_rows(*_pair(pred, target))[0])


@dataclass(frozen=True)
class MetricReport:
    per_image: list[dict]
    dataset: dict


def evaluate_predictions(maps: np.ndarray, rater_masks: Sequence[np.ndarray]) -> MetricReport:
    """Per-image metrics plus the dataset-level summary.

    ``maps[i]`` holds image i's maps (a row of ``prob_maps``' output) and
    ``rater_masks[i]`` its (Y >= 2, H, W) stack.  This is the one place
    maps become a mask and a heatmap, and the map count sets how: two or
    more maps are scored by their mean and variance (``aggregate_heads``),
    one map alone.  The reference for Dice is the soft majority vote; for
    NLL it is that vote binarized at 0.5.  With variance, NCC and the
    variance sums are scored against the rater variance heatmap, and the
    dataset summary gains the sums' Spearman and distance correlations.
    """
    if len(maps) != len(rater_masks):
        raise ValueError(f"{len(maps)} map sets but {len(rater_masks)} rater stacks")
    variance = maps.shape[1] >= 2
    n_min = MIN_VARIANCE_IMAGES if variance else 1
    if len(maps) < n_min:
        raise ValueError(f"need at least {n_min} images, got {len(maps)}")
    per_image = []
    step = max(1, _BLOCK_PIXELS // np.asarray(maps[0][0]).size)
    for b0 in range(0, len(maps), step):
        block, masks = maps[b0:b0 + step], rater_masks[b0:b0 + step]
        if variance:
            pred, heat = aggregate_heads(np.swapaxes(block, 0, 1))
        else:
            pred = np.asarray(block[:, 0], dtype=np.float64)
        stacks = []
        for m, bad in zip(masks, _out_of_range(pred)):  # each image's checks in turn
            stacks.append(checked_stack(m))
            if stacks[-1].shape[1:] != pred.shape[1:]:
                raise ValueError(f"shape mismatch: {pred.shape[1:]} vs {stacks[-1].shape[1:]}")
            if bad:
                raise ValueError("pred must lie in [0, 1]")
        soft = np.stack([m.mean(axis=0) for m in stacks])
        cols = {"soft_dice": _dice_rows(pred, soft),
                "nll": _nll_rows(pred, binarize_majority(soft))}
        if variance:
            gt_heat = np.stack([m.var(axis=0) for m in stacks])
            cols.update(sv_model=heat.sum(axis=(1, 2)), sv_gt=gt_heat.sum(axis=(1, 2)),
                        ncc=_ncc_rows(heat, gt_heat))
        for j in range(len(block)):
            row = {k: float(v[j]) for k, v in cols.items()}
            per_image.append({"id": f"img{b0 + j:04d}", **row})
    dataset = {
        "mean_dice": float(np.mean([r["soft_dice"] for r in per_image])),
        "mean_nll": float(np.mean([r["nll"] for r in per_image])),
    }
    if variance:
        sv_model, sv_gt = ([r[k] for r in per_image] for k in ("sv_model", "sv_gt"))
        dataset.update(sr=spearman(sv_model, sv_gt), dc=distance_correlation(sv_model, sv_gt),
                       mean_ncc=float(np.mean([r["ncc"] for r in per_image])))
    return MetricReport(per_image=per_image, dataset=dataset)
