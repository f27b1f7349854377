"""Disagreement-guided training: heatmap targets, label sampling, the loss.

The training signal has two parts.  Each head gets a binary cross-entropy
term against its own target mask: every head but the last is assigned one
randomly drawn rater annotation (with replacement, redrawn each epoch),
and the last head is trained against the soft majority vote.  On top of
that, the per-pixel variance across the head probabilities (the model's
uncertainty heatmap) is pulled toward the per-pixel variance across the
rater masks by an RMSE penalty:

    loss = alpha * sum_i BCE(head_i, target_i) + beta * RMSE(Hhat, H)

The rater contract: an image's annotations are a (Y, H, W) stack of
Y >= 2 binary masks (one annotation carries no disagreement signal),
checked by ``rater_masks`` where a dataset is loaded.  ``train`` builds
each image's ``label_stack`` (the Y masks, then their soft vote) once; a
sampler ``(rng, Y, n_heads) -> indices`` then picks one per head, each
epoch, where index Y is the vote.

Baselines reuse the same loop through the ``sampler`` hook: majority
labels on every head with beta=0 give the label-ensemble arm, and rater
0 on every head gives the one-annotator arm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .container import check_minimums
from .model import Model, forward

__all__ = [
    "RMSE_EPS",
    "LossWeights",
    "TrainItem",
    "EpochStats",
    "rater_masks",
    "label_stack",
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

    def __post_init__(self) -> None:
        check_minimums(self, {"alpha": 0, "beta": 0})
        if self.alpha == 0 and self.beta == 0:
            raise ValueError("'alpha' and 'beta' cannot both be zero")


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


def rater_masks(masks) -> np.ndarray:
    """The rater contract: a (Y, H, W) stack of Y >= 2 binary masks, as
    float64.  Raises ValueError otherwise."""
    m = np.asarray(masks, dtype=np.float64)
    if m.ndim != 3:
        raise ValueError(f"expected a (raters, H, W) mask stack, got shape {m.shape}")
    if m.shape[0] < 2:
        raise ValueError(f"need at least 2 rater masks, got {m.shape[0]}")
    if not ((m == 0.0) | (m == 1.0)).all():  # np.isin costs 4x as much here
        raise ValueError("rater masks must be binary")
    return m


def label_stack(masks) -> np.ndarray:
    """(Y + 1, H, W): the Y rater masks, then their soft majority vote.
    Sampler index Y picks the vote."""
    m = rater_masks(masks)
    return np.concatenate([m, m.mean(axis=0)[None]])


def gt_heatmap(masks) -> np.ndarray:
    """Per-pixel population variance across the rater masks."""
    return rater_masks(masks).var(axis=0)


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
    return rater_masks(masks).mean(axis=0)


def binarize_majority(soft: np.ndarray) -> np.ndarray:
    """Threshold a soft vote at 0.5; an exact tie rounds up to foreground."""
    return (np.asarray(soft) >= 0.5).astype(np.float64)


def sample_labels(rng: np.random.Generator, n_raters: int, n_heads: int) -> list[int]:
    """Draw one rater per non-last head (uniform, with replacement); the
    last head always gets the soft majority vote."""
    return [int(i) for i in rng.integers(0, n_raters, size=n_heads - 1)] + [n_raters]


def majority_labels(rng: np.random.Generator, n_raters: int, n_heads: int) -> list[int]:
    """Every head gets the soft majority vote (label-ensemble baseline)."""
    return [n_raters] * n_heads


def single_rater_labels(rng: np.random.Generator, n_raters: int, n_heads: int) -> list[int]:
    """Every head trains on rater 0's annotation (one-annotator baseline)."""
    return [0] * n_heads


def total_loss(heads: Sequence[Tensor], head_targets: Sequence[np.ndarray],
               h_gt: np.ndarray | None, weights: LossWeights) -> tuple[Tensor, dict]:
    """Combined loss for one batch; returns the scalar and its parts.

    head_targets[i] must match head i's output shape (batch, 1, H, W).
    h_gt holds the batch's rater-variance heatmaps; it is read only when
    beta > 0.
    """
    if len(head_targets) != len(heads):
        raise ValueError(f"got {len(head_targets)} targets for {len(heads)} heads")
    bce_sum = None
    bce_per_head = []
    for pr, target in zip(heads, head_targets):
        term = ad.bce_loss(pr, Tensor(target))
        bce_per_head.append(float(term.data))
        bce_sum = term if bce_sum is None else ad.add(bce_sum, term)

    rmse = rmse_loss(model_heatmap(heads), Tensor(h_gt)) if weights.beta > 0 else None

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

    Every item must meet the rater contract (see ``rater_masks``).  Its
    label stack, and its rater heatmap when beta > 0 (the RMSE term alone
    reads it), are built once, in the tensor dtype.  Each step's backward
    spends its tape, freeing the step's saved arrays before Adam runs.  A
    non-finite loss aborts with the epoch and batch index.  Returns the
    (mutated in place) model and the per-epoch mean loss trace.
    """
    items = list(items)
    if not items:
        raise ValueError("train: empty dataset")
    if epochs < 1 or batch_size < 1:
        raise ValueError(f"epochs and batch_size must be >= 1, got {epochs}, {batch_size}")
    n_heads = model.n_heads

    dtype = ad.default_dtype()
    images = [np.asarray(it.image, dtype=dtype) for it in items]
    # Labels and rater variance are fixed per image, so build them once.
    labels = [label_stack(it.masks).astype(dtype) for it in items]
    heatmaps = [gt_heatmap(it.masks)[None].astype(dtype) for it in items] if weights.beta > 0 else []

    opt = ad.Adam(model.params, lr=lr)
    trace: list[EpochStats] = []
    for epoch in range(epochs):
        # Draw in index order, then permute: the rng stream is independent
        # of the batch order.
        picks = [sampler(rng, len(stack) - 1, n_heads) for stack in labels]
        order = rng.permutation(len(items))
        sums = {"total": 0.0, "bce": 0.0, "rmse": 0.0}
        n_batches = 0
        for start in range(0, len(items), batch_size):
            rows = order[start:start + batch_size]
            x = Tensor(np.stack([images[r] for r in rows]))
            head_targets = [np.stack([labels[r][picks[r][i]][None] for r in rows])
                            for i in range(n_heads)]
            h_gt = np.stack([heatmaps[r] for r in rows]) if heatmaps else None
            try:
                with Tape() as tape:
                    outs = forward(model, x)
                    loss, parts = total_loss(outs, head_targets, h_gt, weights)
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
