"""Procedural multi-annotator segmentation data with a disagreement knob.

Each sample is a soft-edged elliptical blob (optionally a nested pair,
an outer disc with an inner cup) rendered onto a noisy background.  Rater
masks are thresholded signed distances perturbed per rater by a constant
bias and a smooth band-limited noise field, both scaled by the sample's
disagreement level delta.  Edge softness in the image also grows with
delta, so the visual ambiguity of a sample carries information about how
much its raters disagree; without that cue, predicting disagreement from
the image alone would be impossible.

A distortion bank (noise, blur, intensity and channel shifts) provides
the out-of-distribution inputs for robustness experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .container import check_minimums

__all__ = [
    "SceneParams",
    "RaterSample",
    "DegenerateSceneError",
    "generate_sample",
    "generate_dataset",
    "distort",
    "DISTORTION_KINDS",
    "binary_dice",
]

DISTORTION_KINDS = ("gauss_noise", "blur", "intensity_shift", "channel_shift")

MIN_BLOB_AREA = 9
MAX_REGENERATIONS = 10


class DegenerateSceneError(ValueError):
    """The scene parameters keep producing blobs too small to annotate."""


@dataclass(frozen=True)
class SceneParams:
    input_size: tuple[int, int]
    n_raters: int
    delta_low: float
    delta_high: float
    ambiguity_mix: float
    texture_noise: float
    structure: str
    in_channels: int

    def __post_init__(self) -> None:
        h, w = self.input_size
        if h < 16 or w < 16:
            raise ValueError(f"'input_size' must be at least 16x16, got {self.input_size}")
        if not 2 <= self.n_raters <= 16:
            raise ValueError(f"'n_raters' must be in [2, 16], got {self.n_raters}")
        if not 0.0 <= self.delta_low <= self.delta_high:
            raise ValueError(f"need 0 <= 'delta_low' <= 'delta_high', got "
                             f"{self.delta_low} and {self.delta_high}")
        if 4 * self.delta_high >= min(h, w):
            raise ValueError(f"'delta_high' {self.delta_high} must be under a quarter of "
                             f"'input_size' {self.input_size}")
        if not 0.0 <= self.ambiguity_mix <= 1.0:
            raise ValueError(f"'ambiguity_mix' must be in [0, 1], got {self.ambiguity_mix}")
        check_minimums(self, {"texture_noise": 0})
        if self.structure not in ("single_blob", "nested"):
            raise ValueError(f"'structure' must be 'single_blob' or 'nested', got {self.structure!r}")
        check_minimums(self, {"in_channels": 1})

    def structure_names(self) -> tuple[str, ...]:
        return ("blob",) if self.structure == "single_blob" else ("disc", "cup")


@dataclass(frozen=True)
class RaterSample:
    """One image with its rater masks, (structures, raters, H, W)."""
    image: np.ndarray
    masks: np.ndarray
    true_mask: np.ndarray
    delta_used: float
    structure_names: tuple[str, ...]


def _band_limited_field(rng: np.random.Generator, shape: tuple[int, int],
                        cell: int = 8) -> np.ndarray:
    """Smooth unit-std noise: bilinear interpolation of a coarse grid."""
    h, w = shape
    coarse = rng.normal(size=(h // cell + 2, w // cell + 2))
    ys = np.arange(h) / cell
    xs = np.arange(w) / cell
    fy = (ys - ys.astype(int))[:, None]
    fx = (xs - xs.astype(int))[None, :]
    # Pixel (i, j) of e is coarse[i // cell, j // cell], so shifting a slice
    # by cell rows or columns reads the next coarse corner.
    e = np.repeat(np.repeat(coarse, cell, axis=0), cell, axis=1)
    # field.std() sums in memory order, so field stays the fresh C-ordered
    # result of this one expression; an F-ordered field moves it by an ulp.
    field = (e[:h, :w] * (1 - fy) * (1 - fx)
             + e[cell:cell + h, :w] * fy * (1 - fx)
             + e[:h, cell:cell + w] * (1 - fy) * fx
             + e[cell:cell + h, cell:cell + w] * fy * fx)
    return field / max(field.std(), 1e-9)


def _largest_component(mask: np.ndarray) -> np.ndarray:
    """Largest 4-connected foreground component of a boolean mask.

    One union-find pass over row runs.  Every root is the first run of its
    component in raster order, so argmax's first maximum gives an area tie
    to the component whose first pixel comes first in raster order.
    """
    h, w = mask.shape
    padded = np.zeros((h, w + 1), dtype=bool)  # the False column ends each row's runs
    padded[:, :w] = mask
    edges = np.flatnonzero(np.diff(padded.ravel(), prepend=False))
    starts, ends = edges[0::2], edges[1::2]
    if starts.size == 0:
        return np.zeros((h, w), dtype=bool)
    rows = starts // (w + 1)
    first = np.searchsorted(rows, np.arange(h + 1)).tolist()
    lo, hi = (starts - rows * (w + 1)).tolist(), (ends - rows * (w + 1)).tolist()
    parent = list(range(len(lo)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for r in range(h - 1):
        a, b = first[r], first[r + 1]
        while a < first[r + 1] and b < first[r + 2]:
            if lo[a] < hi[b] and lo[b] < hi[a]:
                ra, rb = find(a), find(b)
                parent[max(ra, rb)] = min(ra, rb)
            if hi[a] < hi[b]:
                a += 1
            else:
                b += 1
    roots = np.array([find(i) for i in range(len(parent))])
    keep = roots == int(np.argmax(np.bincount(roots, weights=ends - starts)))
    fill = np.zeros(padded.size, dtype=np.int8)  # +1 and -1 at run bounds; cumsum paints
    fill[starts[keep]] = 1
    fill[ends[keep]] = -1
    return np.cumsum(fill, dtype=np.int8).astype(bool).reshape(h, w + 1)[:, :w]


def _wobbled_distance(rng: np.random.Generator, coords: tuple[np.ndarray, np.ndarray],
                      center: tuple[float, float], radius: float) -> np.ndarray:
    """Signed distance to a radially wobbled circle (negative inside).

    coords holds the 1-D float row and column coordinates of the grid.
    """
    ys, xs = coords
    cy, cx = center
    dy = (ys - cy)[:, None]
    dx = (xs - cx)[None, :]
    rho = np.hypot(dy, dx)
    theta = np.arctan2(dy, dx)
    factor = np.ones_like(rho)
    for k in (2, 3, 4):
        amp = rng.normal(0.0, 0.05)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        factor += amp * np.cos(k * theta + phase)
    return rho - radius * np.clip(factor, 0.7, 1.3)


def _rater_masks(rng: np.random.Generator, dist: np.ndarray, delta: float,
                 n_raters: int) -> np.ndarray | None:
    masks = np.zeros((n_raters,) + dist.shape)
    for j in range(n_raters):
        bias = rng.normal(0.0, delta / 2.0) if delta > 0 else 0.0
        field = _band_limited_field(rng, dist.shape) * delta if delta > 0 else 0.0
        raw = (dist + bias + field) < 0.0
        if raw.sum() < MIN_BLOB_AREA:
            return None
        masks[j] = _largest_component(raw)
        if masks[j].sum() < MIN_BLOB_AREA:
            return None
    return masks


def _render(dist: np.ndarray, softness: float) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(np.clip(dist / softness, -50.0, 50.0)))


def _try_generate(params: SceneParams, rng: np.random.Generator) -> RaterSample | None:
    h, w = params.input_size
    delta = params.delta_high if rng.uniform() < params.ambiguity_mix else params.delta_low
    coords = (np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64))
    center = (rng.uniform(0.35 * h, 0.65 * h), rng.uniform(0.35 * w, 0.65 * w))
    radius = rng.uniform(0.18, 0.28) * min(h, w)

    dists = [_wobbled_distance(rng, coords, center, radius)]
    if params.structure == "nested":
        ratio = rng.uniform(0.45, 0.65)
        dists.append(_wobbled_distance(rng, coords, center, radius * ratio))

    true_masks = np.stack([(d < 0.0).astype(np.float64) for d in dists])
    if params.structure == "nested":
        true_masks[1] *= true_masks[0]
    if any(m.sum() < MIN_BLOB_AREA for m in true_masks):
        return None

    all_masks = []
    for d in dists:
        m = _rater_masks(rng, d, delta, params.n_raters)
        if m is None:
            return None
        all_masks.append(m)
    masks = np.stack(all_masks)
    if params.structure == "nested":
        masks[1] *= masks[0]  # a cup annotation never leaves its disc
        if any(masks[1, j].sum() < MIN_BLOB_AREA for j in range(params.n_raters)):
            return None

    # Softer edges on high-disagreement samples: the visible cue.
    softness = 0.3 + 0.6 * delta
    if params.structure == "nested":
        intensity = 0.55 * _render(dists[0], softness) + 0.45 * _render(dists[1], softness)
    else:
        intensity = _render(dists[0], softness)
    gains = np.linspace(1.0, 0.7, params.in_channels)[:, None, None]
    image = intensity[None] * gains
    if params.texture_noise > 0:
        image = image + rng.normal(0.0, params.texture_noise, image.shape)
    image = np.clip(image, 0.0, 1.0)

    return RaterSample(image=image, masks=masks,
                       true_mask=true_masks, delta_used=float(delta),
                       structure_names=params.structure_names())


def generate_sample(params: SceneParams, rng: np.random.Generator) -> RaterSample:
    """One image plus rater masks; retries internally on degenerate blobs."""
    for _ in range(MAX_REGENERATIONS):
        sample = _try_generate(params, rng)
        if sample is not None:
            return sample
    raise DegenerateSceneError(
        f"degenerate blob (area < {MIN_BLOB_AREA} px) persisted through "
        f"{MAX_REGENERATIONS} regenerations; input_size {list(params.input_size)} "
        f"is too small for structure {params.structure!r}")


def generate_dataset(params: SceneParams, n_images: int,
                     rng: np.random.Generator) -> list[RaterSample]:
    """n_images independent samples, drawn in turn from rng alone;
    storage.save_dataset writes them with the manifest."""
    if n_images < 1:
        raise ValueError(f"n_images must be >= 1, got {n_images}")
    return [generate_sample(params, rng) for _ in range(n_images)]


def _box_blur(image: np.ndarray, radius: int) -> np.ndarray:
    if radius <= 0:
        return image.copy()
    out = image.astype(np.float64)
    size = 2 * radius + 1
    for axis in (-2, -1):
        pad_width = [(0, 0)] * out.ndim
        pad_width[axis] = (radius, radius)
        padded = np.pad(out, pad_width, mode="reflect")
        acc = np.zeros_like(out)
        for offset in range(size):
            sl = [slice(None)] * out.ndim
            sl[axis] = slice(offset, offset + out.shape[axis])
            acc += padded[tuple(sl)]
        out = acc / size
    return out


def distort(image: np.ndarray, kind: str, level: float,
            rng: np.random.Generator) -> np.ndarray:
    """Out-of-distribution corruption of a (C, H, W) image in [0, 1].

    level 0 is the identity for every kind.  channel_shift mixes each
    channel toward its neighbor (a hue-rotation analogue); on one-channel
    images it degrades to a contrast gain.
    """
    if kind not in DISTORTION_KINDS:
        raise ValueError(f"unknown distortion kind {kind!r}; choose from {DISTORTION_KINDS}")
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    image = np.asarray(image, dtype=np.float64)
    if level == 0:
        return image.copy()
    if kind == "gauss_noise":
        return np.clip(image + rng.normal(0.0, level, image.shape), 0.0, 1.0)
    if kind == "blur":
        return _box_blur(image, int(round(level)))
    if kind == "intensity_shift":
        return np.clip(image + level, 0.0, 1.0)
    c = image.shape[0]
    if c == 1:
        return np.clip(image * (1.0 + level), 0.0, 1.0)
    t = min(level, 1.0)
    return np.clip((1.0 - t) * image + t * np.roll(image, -1, axis=0), 0.0, 1.0)


def binary_dice(a: np.ndarray, b: np.ndarray) -> float:
    """Dice overlap of two binary masks; two empty masks count as 1."""
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    total = int(a.sum()) + int(b.sum())
    if total == 0:
        return 1.0
    return 2.0 * int((a & b).sum()) / total

