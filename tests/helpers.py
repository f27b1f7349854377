"""Test-only helpers shared by several test modules."""

import zlib

import numpy as np

from edue.raters import binary_dice


def weights_hash(model) -> int:
    """CRC-32 over a model's parameter bytes, in sorted name order."""
    acc = 0
    for name in sorted(model.params):
        acc = zlib.crc32(model.params[name].data.tobytes(), acc)
    return acc


def n_params(model) -> int:
    """The number of scalars a built model holds, counted from its arrays."""
    return sum(p.data.size for p in model.params.values())


def rater_agreement(masks: np.ndarray) -> dict:
    """Mean pairwise Dice across raters, plus the full pair matrix."""
    masks = np.asarray(masks)
    y = masks.shape[0]
    if y < 2:
        raise ValueError(f"rater_agreement needs >= 2 masks, got {y}")
    per_pair = np.ones((y, y))
    scores = []
    for i in range(y):
        for j in range(i + 1, y):
            d = binary_dice(masks[i], masks[j])
            per_pair[i, j] = per_pair[j, i] = d
            scores.append(d)
    return {"mean_pairwise_dice": float(np.mean(scores)), "per_pair": per_pair}
