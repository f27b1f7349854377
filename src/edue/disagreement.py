"""Disagreement-guided training: heatmap targets, label sampling, the loss.

The training signal has two parts.  Each head gets a binary cross-entropy
term against its own target mask: every head but the last is assigned one
randomly drawn rater annotation (with replacement, redrawn each epoch),
and the last head is trained against the soft majority vote.  On top of
that, the per-pixel variance across the head probabilities (the model's
uncertainty heatmap) is pulled toward the per-pixel variance across the
rater masks by an RMSE penalty:

    loss = alpha * sum_i BCE(head_i, target_i) + beta * RMSE(Hhat, H)

Baselines reuse the same loop through the ``sampler`` hook: majority
labels on every head with beta=0 give the label-ensemble arm, and a fixed
single rater gives the one-annotator arm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .model import Model, forward

__all__ = [
    "RMSE_EPS",
    "LossWeights",
    "HeadTargets",
    "TrainItem",
    "EpochStats",
    "gt_heatmap",
    "model_heatmap",
    "rmse_loss",
    "soft_majority",
    "binarize_majority",
    "sample_labels",
    "majority_labels",
    "single_rater_labels",
    "total_loss",
    "train",
]

# Inside the root of the RMSE term, so the gradient stays finite when the
# two heatmaps coincide; identical heatmaps yield sqrt(eps) = 1e-6.
RMSE_EPS = 1e-12


@dataclass(frozen=True)
class LossWeights:
    alpha: float
    beta: float

    def validate(self) -> None:
        if self.alpha < 0 or self.beta < 0:
            raise ValueError(f"loss weights must be >= 0, got alpha={self.alpha}, beta={self.beta}")
        if self.alpha == 0 and self.beta == 0:
            raise ValueError("alpha and beta cannot both be zero")


@dataclass
class HeadTargets:
    """One target map per head plus the rater draws behind them (audit)."""
    targets: list[np.ndarray]
    rater_indices: list[int]


@dataclass(frozen=True)
class TrainItem:
    """One training image with its stack of rater masks (Y, H, W)."""
    image: np.ndarray
    masks: np.ndarray


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    mean_total: float
    mean_bce: float
    mean_rmse: float


def _as_mask_stack(masks, min_raters: int = 1) -> np.ndarray:
    m = np.asarray(masks, dtype=np.float64)
    if m.ndim != 3:
        raise ValueError(f"expected a (raters, H, W) mask stack, got shape {m.shape}")
    if m.shape[0] < min_raters:
        raise ValueError(f"need at least {min_raters} rater masks, got {m.shape[0]}")
    if not np.isin(m, (0.0, 1.0)).all():
        raise ValueError("rater masks must be binary")
    return m


def gt_heatmap(masks) -> np.ndarray:
    """Per-pixel population variance across the rater masks.

    Needs two or more raters; a single annotation carries no
    disagreement signal.
    """
    m = _as_mask_stack(masks, min_raters=2)
    return m.var(axis=0)


def model_heatmap(heads: Sequence[Tensor]) -> Tensor:
    """Differentiable per-pixel variance across the head probability maps."""
    if len(heads) < 2:
        raise ValueError(f"model_heatmap needs >= 2 heads, got {len(heads)}")
    return ad.variance_along_first_axis(ad.stack_first(heads))


def rmse_loss(h_model: Tensor, h_gt: Tensor) -> Tensor:
    """sqrt(mean((Hhat - H)^2) + eps), eps keeping the root differentiable."""
    return ad.sqrt(ad.mean_all(ad.square(ad.sub(h_model, h_gt))), shift=RMSE_EPS)


def soft_majority(masks) -> np.ndarray:
    """Per-pixel mean of the rater masks, in [0, 1]."""
    return _as_mask_stack(masks).mean(axis=0)


def binarize_majority(soft: np.ndarray) -> np.ndarray:
    """Threshold a soft vote at 0.5; an exact tie rounds up to foreground."""
    return (np.asarray(soft) >= 0.5).astype(np.float64)


def sample_labels(rng: np.random.Generator, masks, n_heads: int) -> HeadTargets:
    """Draw one rater per non-last head (uniform, with replacement); the
    last head always gets the soft majority vote."""
    m = _as_mask_stack(masks)
    if n_heads < 1:
        raise ValueError(f"n_heads must be >= 1, got {n_heads}")
    idx = [int(i) for i in rng.integers(0, m.shape[0], size=n_heads - 1)]
    targets = [m[i].copy() for i in idx]
    targets.append(soft_majority(m))
    return HeadTargets(targets=targets, rater_indices=idx)


def majority_labels(rng: np.random.Generator, masks, n_heads: int) -> HeadTargets:
    """Every head gets the soft majority vote (label-ensemble baseline)."""
    vote = soft_majority(masks)
    return HeadTargets(targets=[vote.copy() for _ in range(n_heads)], rater_indices=[])


def single_rater_labels(rater: int = 0) -> Callable:
    """Sampler where every head trains on one fixed rater's annotation."""
    def sampler(rng: np.random.Generator, masks, n_heads: int) -> HeadTargets:
        m = _as_mask_stack(masks)
        r = min(rater, m.shape[0] - 1)
        return HeadTargets(targets=[m[r].copy() for _ in range(n_heads)],
                           rater_indices=[r] * n_heads)
    return sampler


def total_loss(heads: Sequence[Tensor], head_targets: Sequence[np.ndarray],
               h_gt: np.ndarray | None, weights: LossWeights,
               rmse_rows: Sequence[int] | None = None) -> tuple[Tensor, dict]:
    """Combined loss for one batch; returns the scalar and its parts.

    head_targets[i] must match head i's output shape (batch, 1, H, W).
    h_gt holds the rater-variance heatmaps for the batch rows listed in
    rmse_rows (None meaning all rows); pass h_gt=None to skip the
    disagreement term, as for rows with a single rater.
    """
    weights.validate()
    if len(head_targets) != len(heads):
        raise ValueError(f"got {len(head_targets)} targets for {len(heads)} heads")
    bce_sum = None
    bce_per_head = []
    for pr, target in zip(heads, head_targets):
        term = ad.bce_loss(pr, Tensor(target))
        bce_per_head.append(float(term.data))
        bce_sum = term if bce_sum is None else ad.add(bce_sum, term)

    rmse = None
    if weights.beta > 0 and h_gt is not None:
        hm = model_heatmap(heads)
        sel = hm if rmse_rows is None else ad.select_rows(hm, rmse_rows)
        rmse = rmse_loss(sel, Tensor(h_gt))

    loss = ad.scale(bce_sum, weights.alpha)
    if rmse is not None:
        loss = ad.add(loss, ad.scale(rmse, weights.beta))
    parts = {
        "bce_per_head": bce_per_head,
        "bce_sum": float(bce_sum.data),
        "rmse": float(rmse.data) if rmse is not None else 0.0,
        "total": float(loss.data),
    }
    if not np.isfinite(parts["total"]):
        raise FloatingPointError(f"non-finite training loss (parts: {parts})")
    return loss, parts


def train(model: Model, items: Sequence[TrainItem], *, epochs: int, batch_size: int,
          lr: float, weights: LossWeights, rng: np.random.Generator,
          sampler: Callable = sample_labels) -> tuple[Model, list[EpochStats]]:
    """Mini-batch Adam training; labels are resampled every epoch.

    Images with a single rater contribute only their BCE terms.  A
    non-finite loss aborts with the epoch and batch index.  Returns the
    (mutated in place) model and the per-epoch mean loss trace.
    """
    items = list(items)
    if not items:
        raise ValueError("train: empty dataset")
    if epochs < 1 or batch_size < 1:
        raise ValueError(f"epochs and batch_size must be >= 1, got {epochs}, {batch_size}")
    weights.validate()
    n_heads = model.n_heads
    if weights.beta > 0 and n_heads < 2:
        raise ValueError("beta > 0 needs >= 2 heads to form a variance heatmap")

    dtype = ad.default_dtype()
    images = [np.asarray(it.image, dtype=dtype) for it in items]
    mask_stacks = [np.asarray(it.masks) for it in items]
    # Rater variance is fixed per image, so compute it once up front.
    heatmaps = [gt_heatmap(m)[None] if m.shape[0] >= 2 else None for m in mask_stacks]

    opt = ad.Adam(model.params, lr=lr)
    trace: list[EpochStats] = []
    for epoch in range(epochs):
        per_image = [sampler(rng, m, n_heads) for m in mask_stacks]
        order = rng.permutation(len(items))
        sums = {"total": 0.0, "bce": 0.0, "rmse": 0.0}
        n_batches = 0
        for start in range(0, len(items), batch_size):
            rows = order[start:start + batch_size]
            x = Tensor(np.stack([images[r] for r in rows]))
            head_targets = [
                np.stack([per_image[r].targets[i][None] for r in rows])
                for i in range(n_heads)
            ]
            sel = [k for k, r in enumerate(rows) if heatmaps[r] is not None]
            h_gt = np.stack([heatmaps[r] for r in rows if heatmaps[r] is not None]) if sel else None
            rmse_rows = None if len(sel) == len(rows) else sel
            try:
                with Tape() as tape:
                    outs = forward(model, x)
                    loss, parts = total_loss(outs, head_targets, h_gt, weights,
                                             rmse_rows=rmse_rows)
                    tape.backward(loss)
                opt.step()
            except FloatingPointError as exc:
                raise FloatingPointError(
                    f"training aborted at epoch {epoch}, batch {n_batches}: {exc}") from exc
            opt.zero_grad()
            sums["total"] += parts["total"]
            sums["bce"] += parts["bce_sum"]
            sums["rmse"] += parts["rmse"]
            n_batches += 1
        trace.append(EpochStats(epoch, sums["total"] / n_batches,
                                sums["bce"] / n_batches, sums["rmse"] / n_batches))
    return model, trace
