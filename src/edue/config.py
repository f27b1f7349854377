"""Run configuration: one flat JSON document per run, checked when it is built.

A RunConfig bundles everything a run needs: model shape, loss weights,
scene parameters for the generator, and the training schedule.  It is
the only place that declares defaults; the model, scene and loss
configs share its field names and are built from it by name, so their
refusals name its keys.  Three presets cover the supported regimes:
"desk" (small, minutes on one core) and two full-scale presets
("riga-like", "hecktor-like") sized for fundus- and tumor-style runs.

A config file is a JSON object with an optional "preset" key plus any
overrides.  Unknown keys are rejected rather than ignored: a typo in a
config must fail loudly, not silently fall back to a default.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, fields

from .container import check_minimums, read_json_object, typed_fields, write_json
from .disagreement import LossWeights
from .model import ModelConfig
from .raters import SceneParams

__all__ = [
    "ConfigError",
    "RunConfig",
    "PRESET_NAMES",
    "preset",
    "from_dict",
    "load_config",
    "save_config",
]


class ConfigError(ValueError):
    """Invalid, unknown, or ill-typed configuration content."""


# Upper bounds, so a config too big to run fails here, naming its key,
# not deep inside numpy.
MAX_INPUT_SIDE = 4096  # one float32 map channel at 4096 x 4096 is 64 MiB
MAX_CHANNELS = 4096  # a 4096-channel 3x3 conv kernel alone is 604 MB
MAX_IMAGES = 100_000  # gen-data holds every scene in memory before writing


@dataclass(frozen=True)
class RunConfig:
    preset: str = "desk"
    seed: int = 0
    # model shape
    n_e: int = 4  # encoder levels; the multi-head net has n_e - 1 heads
    in_channels: int = 1
    base_channels: int = 8
    channel_growth: int = 2
    input_size: tuple[int, int] = (32, 32)
    # loss; desk beta calibrated empirically on the synthetic generator,
    # the full-scale presets carry their own per-dataset values
    alpha: float = 1.0
    beta: float = 10.0
    # scene generator
    n_raters: int = 4
    delta_low: float = 0.5
    delta_high: float = 3.0
    ambiguity_mix: float = 0.5
    texture_noise: float = 0.05
    structure: str = "single_blob"
    # schedule
    epochs: int = 30
    batch_size: int = 8
    lr: float = 1e-3
    de_members: int = 3
    head_skip: int = 0
    n_train: int = 200  # dataset size when gen-data has no --n

    def _build(self, cls):
        return cls(**{f.name: getattr(self, f.name) for f in fields(cls)})

    def model_config(self) -> ModelConfig:
        return self._build(ModelConfig)

    def scene_params(self) -> SceneParams:
        return self._build(SceneParams)

    def __post_init__(self) -> None:
        if self.preset not in PRESET_NAMES:
            raise ConfigError(f"'preset' must be one of {sorted(PRESET_NAMES)}, "
                              f"got {self.preset!r}")
        if not 1 <= self.n_train <= MAX_IMAGES:
            raise ConfigError(f"'n_train' must be in [1, {MAX_IMAGES}], got {self.n_train}")
        check_minimums(self, {"seed": 0}, ConfigError)
        try:  # each of these checks itself when it is built
            self.model_config()
            self.scene_params()
            LossWeights(alpha=self.alpha, beta=self.beta)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if max(self.input_size) > MAX_INPUT_SIDE:
            raise ConfigError(f"'input_size' sides must be at most {MAX_INPUT_SIDE}, "
                              f"got {list(self.input_size)}")
        # sides of 16 to 4096 divisible by 2^n_e keep n_e <= 12 here
        widest = self.base_channels * self.channel_growth ** (self.n_e - 1)
        if widest > MAX_CHANNELS:
            raise ConfigError(f"'base_channels' * 'channel_growth' ** ('n_e' - 1), the "
                              f"widest layer, must be at most {MAX_CHANNELS}, got {widest}")
        check_minimums(self, {"epochs": 1, "batch_size": 1}, ConfigError)
        if self.lr <= 0:
            raise ConfigError(f"'lr' must be positive, got {self.lr}")
        check_minimums(self, {"de_members": 2, "head_skip": 0}, ConfigError)
        if self.head_skip > self.n_e - 3:  # the multi-head net has n_e - 1 heads
            raise ConfigError(f"'head_skip' {self.head_skip} must leave at least 2 of "
                              f"the {self.n_e - 1} heads (at most {self.n_e - 3})")

    def as_dict(self) -> dict:
        doc = asdict(self)
        doc["input_size"] = list(self.input_size)
        return doc


# The full-scale presets pin the full-run constants (epochs, batch
# size, learning rate, beta, ensemble size, head skip) on top of the
# six-level architecture; n_train is a stand-in for generator
# runs at that scale.
_PRESETS: dict[str, dict] = {
    "desk": {},
    "riga-like": dict(
        n_e=6, in_channels=3, input_size=(256, 256),
        beta=5.0, n_raters=6, structure="nested",
        epochs=200, batch_size=16, lr=5e-5, de_members=5, head_skip=3,
        n_train=600,
    ),
    "hecktor-like": dict(
        n_e=6, in_channels=2, input_size=(128, 128),
        beta=2.5, n_raters=3, structure="single_blob",
        epochs=120, batch_size=32, lr=5e-5, de_members=5, head_skip=3,
        n_train=400,
    ),
}
PRESET_NAMES = tuple(_PRESETS)

def preset(name: str) -> RunConfig:
    """The named preset with no overrides."""
    return from_dict({"preset": name})


def from_dict(doc: dict, where: str = "config") -> RunConfig:
    """Build a RunConfig, which checks itself, from a JSON-shaped dict.

    Values start from the named preset (default "desk"); every other
    key overrides one field.  Unknown keys and wrongly typed, non-finite or
    out-of-range values are errors that name where the document came from.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(doc).__name__}")
    known = {f.name for f in fields(RunConfig)}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ConfigError(f"{where}: unknown config keys: {', '.join(map(repr, unknown))}")
    overrides = typed_fields(doc, RunConfig, where, ConfigError)
    # a preset name that is not in the table adds nothing; RunConfig refuses it
    try:
        return RunConfig(**{**_PRESETS.get(overrides.get("preset", "desk"), {}),
                            **overrides})
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def load_config(path: str | os.PathLike) -> RunConfig:
    return from_dict(read_json_object(path, ConfigError), where=f"{path}: config")


def save_config(path: str | os.PathLike, config: RunConfig) -> None:
    """Write the config as sorted-key JSON, atomically."""
    write_json(path, config.as_dict())
