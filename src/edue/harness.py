"""Experiment drivers: the arm table, quality control, OOD, comparisons.

Every arm is one row of ``ARMS``.  The disagreement-guided model and the
label-ensemble baseline are the same multi-head network trained with
different objectives (the baseline sets beta = 0 and trains every head on
the majority vote).  The deep ensemble trains independent
full-resolution single-head networks and takes the variance across
members.  A fourth arm, a single-head network fit to one fixed rater, is
the calibration control: it predicts one map, so it is scored on its
mask alone.

Every predictor is a list of models, and one path serves them all:
``prob_maps`` gives every image's kept head (or member) maps, predicting
the whole set in chunks of the run's batch size, and
``metrics.evaluate_predictions`` reduces and scores them.

Downstream tasks consume per-image scalars: quality control ranks
images by summed variance and reports how fast poor segmentations are
flushed out; the OOD experiment tracks how inter-head (or inter-member)
agreement drops when inputs are distorted; it predicts each clean image
once, regrouping images only into chunks of the size they would have had.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .config import RunConfig
from .disagreement import (
    EpochStats,
    LossWeights,
    TrainItem,
    majority_labels,
    sample_labels,
    single_rater_labels,
    train,
)
from .metrics import MetricReport, evaluate_predictions
from .model import (
    Model,
    ModelConfig,
    build_model,
    build_single_head_model,
    parameter_count,
    prob_maps,
)
from .raters import RaterSample, binary_dice, distort

__all__ = [
    "Arm",
    "ARMS",
    "QcCurve",
    "OodReport",
    "to_train_items",
    "train_arm",
    "evaluate_arm",
    "quality_control",
    "agreement_score",
    "ood_experiment",
    "run_comparison",
]


@dataclass(frozen=True)
class Arm:
    """How one arm is built, trained, stored and scored.

    ``predictor`` is what it trains: one ``"multi_head"`` model, an
    ``"ensemble"`` of ``de_members`` single-head models (seeded
    ``config.seed + 1000 * (i + 1)``) or one ``"single_head"`` model.  Its network
    ``kind``, ``build``, ``member_seeds``, ``skipped_heads`` (only a
    multi-head model skips heads) and ``uncertainty`` (two or more maps;
    only such arms support qc, ood and compare) follow from it, for
    training and the checkpoint loader alike.  ``labels`` returns the label
    sampler; ``disagreement`` keeps beta, else ``loss_weights`` zeroes it.
    """
    predictor: str  # "multi_head" | "ensemble" | "single_head"
    labels: Callable[[], Callable]
    disagreement: bool = False

    @property
    def kind(self) -> str:
        return "multi_head" if self.predictor == "multi_head" else "single_head_full"

    @property
    def build(self) -> Callable[[ModelConfig], Model]:
        return build_model if self.kind == "multi_head" else build_single_head_model

    @property
    def uncertainty(self) -> bool:
        return self.predictor != "single_head"

    def member_seeds(self, config: RunConfig) -> list[int]:
        return ([config.seed + 1000 * (i + 1) for i in range(config.de_members)]
                if self.predictor == "ensemble" else [config.seed])

    def loss_weights(self, config: RunConfig) -> LossWeights:
        return LossWeights(config.alpha, config.beta if self.disagreement else 0.0)

    def skipped_heads(self, config: RunConfig) -> int:
        return config.head_skip if self.predictor == "multi_head" else 0


# Samplers are looked up when an arm trains, not when the table is built,
# so wrappers installed on the module-level names (perfbench's tracer)
# see every call.
ARMS: dict[str, Arm] = {
    "edue": Arm("multi_head", lambda: sample_labels, disagreement=True),
    "le": Arm("multi_head", lambda: majority_labels),
    "de": Arm("ensemble", lambda: majority_labels),
    "single_rater": Arm("single_head", lambda: single_rater_labels),
}


def to_train_items(samples: Sequence[RaterSample], structure: int = 0) -> list[TrainItem]:
    """Project one structure's rater masks out of generator samples."""
    return [TrainItem(image=s.image, masks=s.masks[structure]) for s in samples]


def train_arm(name: str, config: RunConfig, items: Sequence[TrainItem]
              ) -> tuple[list[Model], list[list[EpochStats]]]:
    """Train one arm's models (one, or one per ensemble member, each seeded
    by Arm.member_seeds) on the config's model shape and schedule, and
    return them with their per-epoch loss traces."""
    arm = ARMS[name]
    weights = arm.loss_weights(config)
    models, traces = [], []
    for model_seed in arm.member_seeds(config):
        model, trace = train(arm.build(replace(config.model_config(), seed=model_seed)), items,
                             epochs=config.epochs, batch_size=config.batch_size,
                             lr=config.lr, weights=weights,
                             rng=np.random.default_rng(model_seed), sampler=arm.labels())
        models.append(model)
        traces.append(trace)
    return models, traces


def evaluate_arm(models: Sequence[Model], samples: Sequence[RaterSample],
                 structure: int = 0, head_skip: int = 0, *,
                 batch_size: int) -> MetricReport:
    """Score a predictor's maps with evaluate_predictions, which takes its
    mode from their count.  Images go through the models batch_size at a
    time (see prob_maps)."""
    maps = prob_maps(models, np.stack([s.image for s in samples]), head_skip,
                     batch_size=batch_size)
    return evaluate_predictions(maps, [s.masks[structure] for s in samples])


# ---------------------------------------------------------------------------
# quality control


@dataclass(frozen=True)
class QcCurve:
    quantiles: list[float]
    remaining_fraction: list[float]
    ideal_fraction: list[float]
    d_auc: float


def _remaining_poor_curve(sv: np.ndarray, poor: np.ndarray,
                          quantiles: np.ndarray) -> list[float]:
    curve = []
    for q in quantiles:
        cutoff = np.quantile(sv, 1.0 - q)
        retained = sv <= cutoff
        curve.append(float(poor[retained].mean()))
    return curve


def _trapezoid(y: np.ndarray, x: np.ndarray) -> float:
    """Trapezoidal integral of y over x."""
    return float(np.sum(np.diff(x) * (y[1:] + y[:-1]) / 2.0))


def quality_control(dice_scores, sv_scores, dice_threshold: float,
                    quantile_grid=None) -> QcCurve:
    """Remaining-poor-fraction curve when flagging the most-uncertain
    fraction q of images, against the oracle that flags poor ones first.

    At each quantile q, images whose summed variance exceeds the
    (1 - q)-quantile are flagged and removed; the curve reports the poor
    fraction among what remains.  d_auc is the trapezoidal area between
    the achieved curve and the oracle curve (lower is better, 0 = the
    uncertainty ranks poorness perfectly).
    """
    dice = np.asarray(dice_scores, dtype=np.float64)
    sv = np.asarray(sv_scores, dtype=np.float64)
    if dice.shape != sv.shape or dice.ndim != 1:
        raise ValueError("dice and sv must be equal-length 1-D sequences")
    if dice.size < 5:
        raise ValueError(f"quality control needs >= 5 images, got {dice.size}")
    if quantile_grid is None:
        quantile_grid = np.round(np.arange(0.0, 1.0001, 0.05), 10)
    quantiles = np.asarray(quantile_grid, dtype=np.float64)

    poor = dice < dice_threshold
    curve = _remaining_poor_curve(sv, poor, quantiles)

    # Oracle ordering: poor images get the highest (distinct) scores, so
    # the same flagging rule removes them first.
    order = np.argsort(np.where(poor, 1, 0), kind="stable")
    ideal_sv = np.empty(dice.size)
    ideal_sv[order] = np.arange(1.0, dice.size + 1.0)
    ideal = _remaining_poor_curve(ideal_sv, poor, quantiles)

    gap = np.asarray(curve) - np.asarray(ideal)
    d_auc = _trapezoid(gap, quantiles)
    return QcCurve(quantiles=quantiles.tolist(), remaining_fraction=curve,
                   ideal_fraction=ideal, d_auc=d_auc)


# ---------------------------------------------------------------------------
# agreement and OOD


def agreement_score(prob_maps: Sequence[np.ndarray]) -> float:
    """Mean pairwise Dice of the maps binarized at 0.5."""
    maps = [np.asarray(m) >= 0.5 for m in prob_maps]
    if len(maps) < 2:
        raise ValueError(f"agreement_score needs >= 2 maps, got {len(maps)}")
    shape = maps[0].shape
    if any(m.shape != shape for m in maps):
        raise ValueError("agreement_score: maps must share one shape")
    scores = [binary_dice(maps[i], maps[j])
              for i in range(len(maps)) for j in range(i + 1, len(maps))]
    return float(np.mean(scores))


@dataclass(frozen=True)
class OodReport:
    kind: str
    level: float
    per_fraction: list[dict]


def _summary(scores: np.ndarray) -> dict:
    return {
        "min": float(scores.min()),
        "q1": float(np.quantile(scores, 0.25)),
        "median": float(np.median(scores)),
        "q3": float(np.quantile(scores, 0.75)),
        "max": float(scores.max()),
        "mean": float(scores.mean()),
    }


def ood_experiment(models: Sequence[Model], samples: Sequence[RaterSample], kind: str,
                   level: float, rng: np.random.Generator,
                   fractions: Sequence[float] = (0.0, 0.5, 1.0),
                   head_skip: int = 0, *, batch_size: int) -> OodReport:
    """Distribution of per-image agreement as more inputs get distorted.

    For each fraction f, ceil(f * n) randomly chosen images are distorted
    (in index order, so the rng stream does not depend on batching);
    agreement is computed across the maps prob_maps gives (heads of one
    model, or ensemble members).  Each clean image is predicted once.  An
    image's maps depend on its chunk's size; they are assumed not to depend
    on its neighbours or its place there, which held on the OpenBLAS build
    measured (test_maps_depend_on_chunk_size_only checks it).  So images
    before the short tail chunk run in full chunks topped up with scored
    clean images, and the tail runs whole or not at all: under that
    assumption the report is that of predicting the whole set every time.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("ood_experiment: empty sample list")
    if batch_size < 1:
        raise ValueError(f"ood_experiment: batch_size must be >= 1, got {batch_size}")
    if not all(0.0 <= f <= 1.0 for f in fractions):  # refuses NaN too
        raise ValueError(f"fractions must lie in [0, 1], got {list(fractions)}")
    full = n - n % batch_size  # images before the short tail chunk
    clean: dict[int, float] = {}  # image index -> its clean agreement
    per_fraction = []
    for f in fractions:
        k = math.ceil(f * n)
        chosen = sorted(rng.choice(n, size=k, replace=False).tolist()) if k else []
        distorted = {i: distort(samples[i].image, kind, level, rng) for i in chosen}
        new = [i in distorted or i not in clean for i in range(n)]
        head = [i for i in range(full) if new[i]]
        spare = [i for i in range(full) if not new[i]]  # clean and scored
        head = sorted(head + spare[:(-len(head)) % batch_size])
        todo = head + (list(range(full, n)) if any(new[full:]) else [])
        images = [distorted.get(i, samples[i].image) for i in todo]
        fresh = dict(zip(todo, map(agreement_score, prob_maps(
            models, np.stack(images), head_skip, batch_size=batch_size)))) if todo else {}
        clean.update((i, s) for i, s in fresh.items() if i not in distorted)
        scores = [fresh[i] if i in distorted else clean[i] for i in range(n)]
        per_fraction.append({"fraction": float(f), "n_distorted": k,
                             "scores": [float(v) for v in scores],
                             "summary": _summary(np.asarray(scores))})
    return OodReport(kind=kind, level=level, per_fraction=per_fraction)


# ---------------------------------------------------------------------------
# the full comparison


def run_comparison(train_samples: Sequence[RaterSample],
                   test_samples: Sequence[RaterSample], config: RunConfig,
                   seeds: Sequence[int] = (1, 2, 3)) -> dict:
    """Train and evaluate every uncertainty arm per seed and per structure.

    Returns a JSON-ready report: per-seed metric tables for each arm
    plus mean/std aggregation over seeds, forward-pass counts per
    prediction, and parameter counts.  The caller records the config.
    """
    if not seeds:
        raise ValueError("run_comparison: need at least one seed")
    structures = list(train_samples[0].structure_names)
    arms: dict[str, dict] = {name: {"per_seed": []}
                             for name, arm in ARMS.items() if arm.uncertainty}

    for seed in seeds:
        for name in arms:
            per_structure: dict = {}
            nll = []
            for k, struct in enumerate(structures):
                items = to_train_items(train_samples, structure=k)
                models, _ = train_arm(name, replace(config, seed=seed), items)
                passes_before = sum(m.trunk_passes for m in models)
                report = evaluate_arm(models, test_samples, structure=k,
                                      head_skip=ARMS[name].skipped_heads(config),
                                      batch_size=config.batch_size)
                passes_used = sum(m.trunk_passes for m in models) - passes_before
                per_structure[struct] = {
                    "sr": report.dataset["sr"],
                    "dc": report.dataset["dc"],
                    "ncc": report.dataset["mean_ncc"],
                    "dice": report.dataset["mean_dice"],
                }
                nll.append(report.dataset["mean_nll"])
            arms[name]["per_seed"].append({
                "seed": seed, "structures": per_structure, "nll": float(np.mean(nll)),
                "passes_per_image": passes_used / len(test_samples),
                "parameter_count": sum(parameter_count(m.config, m.kind) for m in models)})

    for name, arm in arms.items():
        flat: dict[str, list[float]] = {}
        for row in arm["per_seed"]:
            for struct, vals in row["structures"].items():
                for metric, value in vals.items():
                    flat.setdefault(f"{struct}.{metric}", []).append(value)
            flat.setdefault("nll", []).append(row["nll"])
        arm["summary"] = {
            key: {"mean": float(np.mean(vals)), "std": float(np.std(vals))}
            for key, vals in flat.items()
        }
    return {
        "seeds": list(seeds),
        "structures": structures,
        "arms": arms,
    }
