"""Encoder-decoder segmentation network with a head after every decoder level.

One forward pass yields every head's full-resolution probability map.  The
encoder is ``n_e`` blocks of conv / channel-norm / relu followed by a
stride-2 conv; the decoder mirrors it with blocks of nearest upsampling,
skip concatenation, and conv / norm / relu.  Each head is a 1x1 conv on its
decoder level, nearest-upsampled to input resolution before the sigmoid, so
head variance is defined per input pixel.

One layer spec, ``_param_shapes``, serves both network kinds: init,
checkpoint loading and the parameter count read it.  The forward pass
reads only its head table, ``_heads``: which decoder levels carry a head,
and so how deep to decode.  The multi-head model has a head on each of
its ``n_e - 1`` decoder levels; the head count is derived, not
configured.  The ensemble member (``build_single_head_model``), the
one-output U-Net the deep-ensemble baseline trains copies of, decodes the
same trunk one level further, to full resolution, with one head there.

``ModelConfig`` has no defaults: runs build it from
``RunConfig.model_config``, and a checkpoint's loader rebuilds it from the
config its ``train_meta.json`` records (see ``edue.storage``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .container import DataError, check_minimums, load_container, save_container

__all__ = [
    "ModelConfig",
    "Model",
    "build_model",
    "build_single_head_model",
    "forward",
    "prob_maps",
    "aggregate_heads",
    "parameter_count",
    "save_checkpoint",
    "load_checkpoint",
]


@dataclass(frozen=True)
class ModelConfig:
    n_e: int
    in_channels: int
    base_channels: int
    channel_growth: int
    input_size: tuple[int, int]
    seed: int

    def __post_init__(self) -> None:
        check_minimums(self, {"n_e": 2, "in_channels": 1, "base_channels": 1, "channel_growth": 1})
        # shifts rather than h % (1 << n_e), which builds a huge int for a huge n_e
        if any(s >> self.n_e << self.n_e != s for s in self.input_size):
            raise ValueError(f"'input_size' must be divisible by 2^{self.n_e}, "
                             f"got {self.input_size}")

    def encoder_channels(self) -> list[int]:
        return [self.base_channels * self.channel_growth ** i for i in range(self.n_e)]


class Model:
    """Parameter store plus forward pass; weights mutate only in training.

    ``trunk_passes`` counts images through the trunk (a batch of b adds
    b), backing the one-pass-per-image contract tests.
    """

    def __init__(self, config: ModelConfig, kind: str, params: dict[str, Tensor]):
        self.config = config
        self.kind = kind  # "multi_head" | "single_head_full"
        self.params = params
        self.trunk_passes = 0

    @property
    def n_heads(self) -> int:
        return len(_heads(self.config, self.kind))


def _heads(config: ModelConfig, kind: str) -> dict[int, str]:
    """Decoder level -> head name; the decoder runs up to the last head."""
    if kind == "multi_head":
        return {j: f"head{j}" for j in range(config.n_e - 1)}
    return {config.n_e - 1: "head0"}


def _param_shapes(config: ModelConfig, kind: str) -> dict[str, tuple[int, ...]]:
    """Every parameter's shape, in creation order (the order init draws)."""
    enc = config.encoder_channels()
    shapes: dict[str, tuple[int, ...]] = {}

    def conv(name: str, cin: int, cout: int, k: int) -> None:
        shapes[f"{name}.w"] = (cout, cin, k, k)
        shapes[f"{name}.b"] = (cout,)

    def norm(name: str, c: int) -> None:
        shapes[f"{name}.gain"] = (c,)
        shapes[f"{name}.shift"] = (c,)

    cin = config.in_channels
    for i, cout in enumerate(enc):
        conv(f"enc{i}.conv", cin, cout, 3)
        norm(f"enc{i}.norm", cout)
        conv(f"enc{i}.down", cout, cout, 3)
        cin = cout

    heads = _heads(config, kind)
    dec = []  # output channels per decoder level
    for j in range(max(heads) + 1):
        dec.append(enc[max(config.n_e - 2 - j, 0)])
        conv(f"dec{j}.conv", cin + enc[config.n_e - 1 - j], dec[j], 3)
        norm(f"dec{j}.norm", dec[j])
        cin = dec[j]
    for j, name in heads.items():
        conv(f"{name}.out", dec[j], 1, 1)
    return shapes


def _init_params(config: ModelConfig, kind: str) -> dict[str, Tensor]:
    """He-normal conv kernels, unit norm gains, zeros elsewhere."""
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    params: dict[str, Tensor] = {}
    for name, shape in _param_shapes(config, kind).items():
        if name.endswith(".w"):
            data = rng.normal(0.0, np.sqrt(2.0 / math.prod(shape[1:])), size=shape)
        elif name.endswith(".gain"):
            data = np.ones(shape)
        else:
            data = np.zeros(shape)
        params[name] = Tensor(data, requires_grad=True, name=name)
    return params


def build_model(config: ModelConfig) -> Model:
    """Multi-head model; deterministic weights given config.seed."""
    return Model(config, "multi_head", _init_params(config, "multi_head"))


def build_single_head_model(config: ModelConfig) -> Model:
    """Full-resolution single-head U-Net on the same encoder trunk."""
    return Model(config, "single_head_full", _init_params(config, "single_head_full"))


def _block(model: Model, name: str, x: Tensor, stride: int = 1, padding: int = 1) -> Tensor:
    p = model.params
    return ad.conv2d(x, p[f"{name}.w"], p[f"{name}.b"], stride=stride, padding=padding)


def _conv_norm_relu(model: Model, name: str, x: Tensor) -> Tensor:
    p = model.params
    return ad.relu(ad.channel_norm(_block(model, f"{name}.conv", x),
                                   p[f"{name}.norm.gain"], p[f"{name}.norm.shift"]))


def forward(model: Model, x: Tensor) -> list[Tensor]:
    """One trunk pass; every head map comes back at input resolution."""
    cfg = model.config
    b, c, h, w = x.data.shape
    if (c, h, w) != (cfg.in_channels, *cfg.input_size):
        raise ad.ShapeError(f"forward: input shape {x.data.shape} does not match "
                            f"config (*, {cfg.in_channels}, {cfg.input_size[0]}, {cfg.input_size[1]})")
    model.trunk_passes += b

    skips: list[Tensor] = []
    cur = x
    for i in range(cfg.n_e):
        skips.append(_conv_norm_relu(model, f"enc{i}", cur))
        cur = _block(model, f"enc{i}.down", skips[i], stride=2)

    heads = _heads(cfg, model.kind)
    probs: list[Tensor] = []
    for j in range(max(heads) + 1):
        up = ad.upsample_nearest(cur, 2)
        cur = _conv_norm_relu(model, f"dec{j}",
                              ad.concat_channels([up, skips[cfg.n_e - 1 - j]]))
        if j in heads:
            logits = _block(model, f"{heads[j]}.out", cur, padding=0)
            factor = 1 << (cfg.n_e - 1 - j)
            if factor > 1:
                logits = ad.upsample_nearest(logits, factor)
            probs.append(ad.sigmoid(logits))
    return probs


def prob_maps(models: Sequence[Model], images: np.ndarray, head_skip: int = 0,
              *, batch_size: int) -> np.ndarray:
    """Probability maps (N, n_maps, H, W) for an (N, C, H, W) image set.

    batch_size is required: each model runs once per chunk of at most
    batch_size images, so every image makes one trunk pass per model.
    Each model contributes every head after its first head_skip
    (coarsest) ones: a multi-head model gives its kept heads, a deep
    ensemble one map per member.
    """
    images = np.asarray(images)
    if images.ndim != 4 or len(images) == 0:
        raise ad.ShapeError(f"prob_maps: need a non-empty (N, C, H, W) image "
                            f"set, got shape {images.shape}")
    if batch_size < 1:
        raise ValueError(f"prob_maps: batch_size must be >= 1, got {batch_size}")
    chunks = []
    # no tape records here, so the conv2d column matrices of every chunk
    # and model share the workspace's one buffer, dropped on return
    with ad.Workspace():
        for start in range(0, len(images), batch_size):
            x = Tensor(images[start:start + batch_size])
            maps = [p.data[:, 0] for m in models for p in forward(m, x)[head_skip:]]
            if not maps:
                raise ValueError(f"prob_maps: no maps; the model list is empty or "
                                 f"head_skip {head_skip} skips every head")
            chunks.append(np.stack(maps, axis=1))
    return np.concatenate(chunks)


def aggregate_heads(probs) -> tuple[np.ndarray, np.ndarray]:
    """Mean map and per-pixel population variance heatmap.

    Accumulates in float64 so identical maps give an exactly zero
    heatmap even when the inputs are float32.
    """
    stacked = np.asarray(probs, dtype=np.float64)
    if len(stacked) < 2:
        raise ValueError(f"aggregate_heads: need >= 2 maps, got {len(stacked)}")
    return stacked.mean(axis=0), stacked.var(axis=0)


def parameter_count(config: ModelConfig, kind: str) -> int:
    """Closed-form parameter count for a config, without building it."""
    return sum(math.prod(shape) for shape in _param_shapes(config, kind).values())


def save_checkpoint(directory: str | Path, model: Model) -> None:
    """Write weights.edt; the caller records the config and kind that
    rebuild it."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_container(directory / "weights.edt",
                   {name: p.data for name, p in model.params.items()})


def load_checkpoint(directory: str | Path, config: ModelConfig, kind: str,
                    source: str | Path) -> Model:
    """A model straight from weights.edt, checked against the layer spec of
    config and kind, which come from source (named in every refusal)."""
    shapes = _param_shapes(config, kind)
    weights_path = Path(directory) / "weights.edt"
    weights = load_container(weights_path)
    odd = sorted(set(shapes) ^ set(weights))
    if odd:
        name = odd[0]
        problem = (f"is missing, but the config in {source} needs it" if name in shapes
                   else f"is not a parameter of the config in {source}")
        raise DataError(f"{weights_path}: entry {name!r} {problem}")
    for name, arr in weights.items():
        if arr.shape != shapes[name]:
            raise DataError(f"{weights_path}: entry {name!r} has shape {arr.shape}, "
                            f"but the config in {source} gives {shapes[name]}")
        if not np.isfinite(arr).all():  # relu would hide a NaN weight's channel
            raise DataError(f"{weights_path}: entry {name!r} has non-finite values")
    return Model(config, kind, {name: Tensor(weights[name], requires_grad=True, name=name)
                                for name in shapes})
