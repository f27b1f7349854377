"""Tests for the experiment drivers: arms, QC curves, agreement, OOD."""

import itertools
import math
import os
import re
import subprocess
import sys
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from edue import harness
from edue import model as model_module
from edue.autodiff import ShapeError, Tensor
from edue.config import RunConfig, preset
from edue.harness import (
    ARMS,
    OodReport,
    _summary,
    agreement_score,
    ood_experiment,
    quality_control,
    run_comparison,
    to_train_items,
    train_arm,
)
from edue.model import (
    aggregate_heads,
    build_model,
    build_single_head_model,
    forward,
    prob_maps,
)
from edue.raters import distort, generate_dataset

from helpers import n_params, weights_hash


def tiny_config(**kwargs):
    """A 16x16 run: the model shape and the training schedule."""
    base = dict(n_e=4, in_channels=1, base_channels=4, channel_growth=2,
                input_size=(16, 16), seed=0, epochs=2, batch_size=4, lr=1e-3,
                alpha=1.0, beta=1.0, de_members=2, head_skip=0)
    base.update(kwargs)
    return RunConfig(**base)


def tiny_model(seed=0):
    return tiny_config(seed=seed).model_config()


def make_samples(n, seed=0, structure="single_blob"):
    params = tiny_config(n_raters=3, structure=structure, seed=seed).scene_params()
    return generate_dataset(params, n, np.random.default_rng(seed))


def fixed_output_member(config, prob):
    """Single-head model whose output is the constant probability prob."""
    model = build_single_head_model(config)
    for p in model.params.values():
        p.data = np.zeros_like(p.data)
    bias = model.params["head0.out.b"]
    bias.data = np.full_like(bias.data, math.log(prob / (1.0 - prob)))
    return model


class TestArmTable:
    # what each predictor builds, and whether it skips the config's head_skip
    PREDICTORS = {"multi_head": ("multi_head", True),
                  "ensemble": ("single_head_full", False),
                  "single_head": ("single_head_full", False)}

    @pytest.mark.parametrize("name", sorted(ARMS))
    def test_derived_flags_follow_the_predictor(self, name):
        arm = ARMS[name]
        kind, skips = self.PREDICTORS[arm.predictor]
        config = tiny_config(head_skip=1, seed=7)
        seeds = arm.member_seeds(config)
        assert seeds == ([1007, 2007] if arm.predictor == "ensemble" else [7])
        models = [arm.build(replace(config, seed=s).model_config()) for s in seeds]
        assert arm.kind == kind and {m.kind for m in models} == {kind}
        assert arm.skipped_heads(config) == (1 if skips else 0)
        maps = prob_maps(models, np.zeros((1, 1, 16, 16)), arm.skipped_heads(config),
                         batch_size=1)
        assert arm.uncertainty == (maps.shape[1] >= 2)


class TestTrainingArms:
    def test_le_baseline_same_architecture_no_disagreement_term(self):
        items = to_train_items(make_samples(6))
        (le,), (trace,) = train_arm("le", tiny_config(seed=3), items)
        (ed,), _ = train_arm("edue", tiny_config(seed=3), items)
        assert le.kind == "multi_head"
        assert n_params(le) == n_params(ed)
        for stats in trace:
            assert stats.mean_rmse == 0.0
            np.testing.assert_allclose(stats.mean_total, stats.mean_bce, rtol=1e-6)

    def test_single_rater_baseline_is_single_head(self):
        items = to_train_items(make_samples(6))
        (model,), (trace,) = train_arm("single_rater", tiny_config(seed=1), items)
        assert model.kind == "single_head_full"
        assert model.n_heads == 1
        assert len(trace) == 2
        assert all(np.isfinite(s.mean_total) for s in trace)

    def test_deep_ensemble_members_are_distinct(self):
        items = to_train_items(make_samples(6))
        members, traces = train_arm("de", tiny_config(de_members=3, seed=5), items)
        assert len(members) == 3 and len(traces) == 3
        hashes = {weights_hash(m) for m in members}
        assert len(hashes) == 3
        assert all(m.kind == "single_head_full" for m in members)

    def test_deep_ensemble_rejects_fewer_than_two_members(self):
        items = to_train_items(make_samples(4))
        with pytest.raises(ValueError, match="'de_members' must be >= 2, got 1"):
            train_arm("de", tiny_config(de_members=1), items)

    def test_training_is_deterministic_across_calls(self):
        items = to_train_items(make_samples(6))
        (a,), _ = train_arm("edue", tiny_config(seed=7), items)
        (b,), _ = train_arm("edue", tiny_config(seed=7), items)
        assert weights_hash(a) == weights_hash(b)

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            tiny_config(epochs=0)
        with pytest.raises(ValueError):
            tiny_config(lr=0.0)
        with pytest.raises(ValueError):
            tiny_config(de_members=1)
        with pytest.raises(ValueError):
            tiny_config(head_skip=-1)
        with pytest.raises(ValueError):
            tiny_config(alpha=-0.5)
        with pytest.raises(ValueError, match="seed"):
            tiny_config(seed=-1)

    # Every EpochStats field of each model, two epochs on a fixed toy set.
    # 1e-4 relative absorbs BLAS reordering; a changed rater draw, target or
    # rng stream moves the losses far more.
    PINNED = {
        "edue": [[(0, 3.100324273109436, 3.0222238302230835, 0.07810040935873985),
                  (1, 2.7079159021377563, 2.63388729095459, 0.07402864843606949)]],
        "le": [[(0, 3.0553109645843506, 3.0553109645843506, 0.0),
                (1, 2.6813822984695435, 2.6813822984695435, 0.0)]],
        "de": [[(0, 0.921128123998642, 0.921128123998642, 0.0),
                (1, 0.8174943327903748, 0.8174943327903748, 0.0)],
               [(0, 1.2968839406967163, 1.2968839406967163, 0.0),
                (1, 1.2150227427482605, 1.2150227427482605, 0.0)]],
        "single_rater": [[(0, 0.6473524570465088, 0.6473524570465088, 0.0),
                          (1, 0.5778357684612274, 0.5778357684612274, 0.0)]],
    }

    @pytest.mark.parametrize("arm", sorted(PINNED))
    def test_epoch_stats_pinned(self, arm):
        items = to_train_items(make_samples(8))
        _, traces = train_arm(arm, tiny_config(seed=3), items)
        got = [[(s.epoch, s.mean_total, s.mean_bce, s.mean_rmse) for s in trace]
               for trace in traces]
        assert [[row[0] for row in t] for t in got] == [[0, 1]] * len(self.PINNED[arm])
        np.testing.assert_allclose(np.array(got, dtype=float),
                                   np.array(self.PINNED[arm], dtype=float), rtol=1e-4)


class TestEnsemblePredict:
    def test_identical_members_give_zero_heatmap(self):
        members = [build_single_head_model(tiny_model(seed=4)) for _ in range(3)]
        x = Tensor(np.random.default_rng(0).random((1, 1, 16, 16)))
        final, heatmap = aggregate_heads(prob_maps(members, x.data, batch_size=1)[0])
        np.testing.assert_array_equal(heatmap, 0.0)
        single = forward(members[0], x)[0].data[0, 0]
        np.testing.assert_allclose(final, single, rtol=1e-6)

    def test_two_fixed_members_give_known_variance(self):
        members = [fixed_output_member(tiny_model(), 0.2),
                   fixed_output_member(tiny_model(), 0.8)]
        x = Tensor(np.random.default_rng(1).random((1, 1, 16, 16)))
        final, heatmap = aggregate_heads(prob_maps(members, x.data, batch_size=1)[0])
        np.testing.assert_allclose(final, 0.5, atol=1e-6)
        np.testing.assert_allclose(heatmap, 0.09, atol=1e-6)
        np.testing.assert_allclose(heatmap.sum(), 0.09 * 16 * 16, rtol=1e-5)

    def test_each_member_runs_exactly_once_per_image(self):
        members = [build_single_head_model(tiny_model(seed=s)) for s in range(3)]
        images = np.random.default_rng(2).random((4, 1, 1, 16, 16))
        before = sum(m.trunk_passes for m in members)
        for img in images:
            aggregate_heads(prob_maps(members, img, batch_size=1)[0])
        assert sum(m.trunk_passes for m in members) - before == 3 * 4

    def test_empty_member_list_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            prob_maps([], np.zeros((1, 1, 16, 16)), batch_size=1)

    def test_heatmap_matches_per_pixel_variance_loop(self):
        members = [build_single_head_model(tiny_model(seed=s)) for s in range(3)]
        x = Tensor(np.random.default_rng(5).random((1, 1, 16, 16)))
        _, heatmap = aggregate_heads(prob_maps(members, x.data, batch_size=1)[0])
        maps = [forward(m, x)[0].data[0, 0].astype(np.float64)
                for m in members]
        expected = np.zeros((16, 16))
        for r in range(16):
            for c in range(16):
                vals = [m[r, c] for m in maps]
                mu = sum(vals) / len(vals)
                expected[r, c] = sum((v - mu) ** 2 for v in vals) / len(vals)
        np.testing.assert_allclose(heatmap, expected, atol=1e-12)


class TestProbabilityMaps:
    def test_head_maps_shape_and_count(self):
        model = build_model(tiny_model(seed=2))
        image = np.random.default_rng(3).random((1, 1, 16, 16))
        (maps,) = prob_maps([model], image, batch_size=1)
        assert len(maps) == 3
        assert all(m.shape == (16, 16) for m in maps)

    def test_head_skip_drops_coarse_heads(self):
        model = build_model(tiny_model(seed=2))
        image = np.random.default_rng(3).random((1, 1, 16, 16))
        (full,) = prob_maps([model], image, batch_size=1)
        (skipped,) = prob_maps([model], image, head_skip=1, batch_size=1)
        assert len(skipped) == 2
        np.testing.assert_array_equal(skipped[0], full[1])
        with pytest.raises(ValueError, match=">= 2 maps"):
            aggregate_heads(prob_maps([model], image, head_skip=2, batch_size=1)[0])

    def test_member_maps(self):
        members = [build_single_head_model(tiny_model(seed=s)) for s in range(2)]
        image = np.random.default_rng(4).random((1, 1, 16, 16))
        (maps,) = prob_maps(members, image, batch_size=1)
        assert len(maps) == 2 and maps[0].shape == (16, 16)
        with pytest.raises(ValueError, match=">= 2"):
            aggregate_heads(prob_maps(members[:1], image, batch_size=1)[0])


def untrained_arm(name, members=2):
    """An arm's untrained models: one, or `members` for an ensemble."""
    arm = ARMS[name]
    return [arm.build(tiny_model(seed=11 + i))
            for i in range(members if arm.predictor == "ensemble" else 1)]


class TestBatchedPrediction:
    @pytest.mark.parametrize("name", sorted(ARMS))
    @pytest.mark.parametrize("head_skip", [0, 1])
    def test_batched_equals_one_image_batches(self, name, head_skip):
        models = untrained_arm(name)
        skip = ARMS[name].skipped_heads(tiny_config(head_skip=head_skip))
        images = np.random.default_rng(6).random((7, 1, 16, 16))
        single = np.concatenate([prob_maps(models, images[i:i + 1], skip, batch_size=1)
                                 for i in range(len(images))])
        n_maps = len(models) * (models[0].n_heads - skip)
        assert single.shape == (7, n_maps, 16, 16)
        # 7 is not a multiple of 3; 7 and 8 each put the set in one chunk
        for batch_size in (3, 7, 8):
            batched = prob_maps(models, images, skip, batch_size=batch_size)
            assert batched.shape == single.shape
            np.testing.assert_allclose(batched, single, rtol=0, atol=1e-6)

    def test_chunks_follow_batch_size(self, monkeypatch):
        sizes = []
        real = model_module.forward

        def spy(model, x):
            sizes.append(len(x.data))
            return real(model, x)

        monkeypatch.setattr(model_module, "forward", spy)
        model = build_model(tiny_model())
        for n, batch_size, chunks in ((7, 3, [3, 3, 1]), (2, 8, [2]),
                                      (6, 3, [3, 3]), (4, 4, [4])):
            sizes.clear()
            maps = prob_maps([model], np.zeros((n, 1, 16, 16)),
                             batch_size=batch_size)
            assert sizes == chunks
            assert maps.shape == (n, 3, 16, 16)

    @pytest.mark.parametrize("shape", [(1, 32, 32), (3, 64, 64)])
    @pytest.mark.parametrize("name", ["edue", "de"])
    def test_maps_depend_on_chunk_size_only(self, name, shape):
        # What ood assumes of BLAS when it reuses clean maps: within chunks
        # of one size, an image's maps do not change with its neighbours or
        # its place.
        c, h, w = shape
        config = replace(preset("desk"), seed=3).model_config()
        config = replace(config, in_channels=c, input_size=(h, w))
        models = [ARMS[name].build(replace(config, seed=3 + i))
                  for i in range(2 if ARMS[name].predictor == "ensemble" else 1)]
        rng = np.random.default_rng(17)
        images = rng.random((12, c, h, w))
        base = prob_maps(models, images, batch_size=4)
        perm = rng.permutation(12)
        np.testing.assert_array_equal(prob_maps(models, images[perm], batch_size=4),
                                      base[perm])
        others = rng.random((3, c, h, w))
        for i, place in ((0, 3), (5, 0), (11, 2)):
            chunk = np.insert(others, place, images[i], axis=0)
            np.testing.assert_array_equal(prob_maps(models, chunk, batch_size=4)[place],
                                          base[i])

    def test_trunk_passes_grow_by_image_count(self):
        members = untrained_arm("de", members=3)
        images = np.random.default_rng(7).random((5, 1, 16, 16))
        for expected in (5, 10):
            prob_maps(members, images, batch_size=2)
            assert [m.trunk_passes for m in members] == [expected] * 3

    def test_rejects_bad_image_sets_and_batch_sizes(self):
        model = build_model(tiny_model())
        with pytest.raises(ShapeError, match="N, C, H, W"):
            prob_maps([model], np.zeros((1, 16, 16)), batch_size=1)
        with pytest.raises(ShapeError, match="non-empty"):
            prob_maps([model], np.zeros((0, 1, 16, 16)), batch_size=1)
        with pytest.raises(TypeError, match="batch_size"):  # no whole-set default
            prob_maps([model], np.zeros((2, 1, 16, 16)))
        with pytest.raises(ValueError, match="batch_size"):
            prob_maps([model], np.zeros((2, 1, 16, 16)), batch_size=0)

    def test_ood_draws_distortions_in_per_image_order(self, monkeypatch):
        model = build_model(tiny_model(seed=9))
        samples = make_samples(5, seed=21)
        seen = []
        real = harness.prob_maps

        def spy(models, images, head_skip=0, *, batch_size):
            seen.append(np.array(images))
            return real(models, images, head_skip, batch_size=batch_size)

        monkeypatch.setattr(harness, "prob_maps", spy)
        fractions = (0.0, 0.5, 1.0)
        ood_experiment([model], samples, "gauss_noise", 0.3,
                       rng=np.random.default_rng(4), fractions=fractions,
                       batch_size=2)
        assert len(seen) == len(fractions)
        # Replay the per-image order: choose, then distort each chosen
        # image in index order from the same stream.  Every image a
        # fraction predicts is one of these, and every distorted one is
        # predicted.
        rng = np.random.default_rng(4)
        for f, images in zip(fractions, seen):
            k = math.ceil(f * len(samples))
            chosen = set(rng.choice(len(samples), size=k, replace=False).tolist()) if k else set()
            expected = [distort(s.image, "gauss_noise", 0.3, rng) if i in chosen
                        else s.image for i, s in enumerate(samples)]
            hits = [[i for i, e in enumerate(expected) if np.array_equal(image, e)]
                    for image in images]
            assert all(hits), f"fraction {f}: an image matches no expected one"
            assert chosen <= {i for h in hits for i in h}


class TestQualityControl:
    def test_hand_computed_eight_image_toy(self):
        # Four good images (dice 0.9) hold the four HIGHEST sv scores, so
        # flagging by sv removes good images first, the worst case.
        dice = [0.9, 0.9, 0.9, 0.9, 0.3, 0.3, 0.3, 0.3]
        sv = [8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]
        grid = [0.0, 0.25, 0.5, 0.75, 1.0]
        curve = quality_control(dice, sv, dice_threshold=0.5, quantile_grid=grid)
        np.testing.assert_allclose(curve.remaining_fraction,
                                   [0.5, 2.0 / 3.0, 1.0, 1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(curve.ideal_fraction,
                                   [0.5, 1.0 / 3.0, 0.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(curve.d_auc, 17.0 / 24.0, atol=1e-12)

    def test_perfect_ranking_matches_ideal(self):
        # Poor images carry the highest sv: the rule removes them first
        # and the achieved curve must sit on the oracle curve exactly.
        dice = [0.2, 0.3, 0.25, 0.9, 0.8, 0.95, 0.85, 0.7]
        sv = [6.0, 8.0, 7.0, 4.0, 2.0, 5.0, 3.0, 1.0]
        curve = quality_control(dice, sv, dice_threshold=0.5)
        np.testing.assert_allclose(curve.remaining_fraction, curve.ideal_fraction,
                                   atol=1e-12)
        assert abs(curve.d_auc) < 1e-12

    def test_ideal_is_pointwise_lower_envelope(self):
        # Over every assignment of distinct sv scores to six images, no
        # ordering beats the oracle at any quantile, and the oracle is hit.
        dice = np.array([0.2, 0.9, 0.3, 0.8, 0.95, 0.1])
        best = None
        ideal = None
        for perm in itertools.permutations(range(1, 7)):
            curve = quality_control(dice, np.array(perm, dtype=float),
                                    dice_threshold=0.5)
            achieved = np.asarray(curve.remaining_fraction)
            ideal = np.asarray(curve.ideal_fraction)
            assert np.all(achieved >= ideal - 1e-12)
            best = achieved if best is None else np.minimum(best, achieved)
        np.testing.assert_allclose(best, ideal, atol=1e-12)

    def test_dauc_is_trapezoid_of_curve_gap(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(5, 40))
            dice = rng.random(n)
            sv = rng.integers(0, 5, size=n).astype(float)  # heavy ties
            curve = quality_control(dice, sv, dice_threshold=0.5)
            q = curve.quantiles
            gap = [a - b for a, b in zip(curve.remaining_fraction,
                                         curve.ideal_fraction)]
            expected = sum((q[i + 1] - q[i]) * (gap[i] + gap[i + 1]) / 2.0
                           for i in range(len(q) - 1))
            np.testing.assert_allclose(curve.d_auc, expected, atol=1e-12)
            assert curve.d_auc >= -1e-12

    def test_random_curves_stay_above_ideal(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(5, 60))
            dice = rng.random(n)
            sv = rng.random(n)
            curve = quality_control(dice, sv, dice_threshold=float(rng.random()))
            achieved = np.asarray(curve.remaining_fraction)
            ideal = np.asarray(curve.ideal_fraction)
            assert np.all((achieved >= -1e-12) & (achieved <= 1 + 1e-12))
            assert np.all(achieved >= ideal - 1e-12)
            diffs = np.diff(ideal)
            assert np.all(diffs <= 1e-12)

    def test_all_poor_and_none_poor_are_flat(self):
        sv = [3.0, 1.0, 4.0, 2.0, 5.0]
        none_poor = quality_control([0.9] * 5, sv, dice_threshold=0.5)
        np.testing.assert_allclose(none_poor.remaining_fraction, 0.0, atol=1e-12)
        assert abs(none_poor.d_auc) < 1e-12
        all_poor = quality_control([0.1] * 5, sv, dice_threshold=0.5)
        np.testing.assert_allclose(all_poor.remaining_fraction, 1.0, atol=1e-12)
        assert abs(all_poor.d_auc) < 1e-12

    def test_default_grid_spans_unit_interval(self):
        curve = quality_control([0.9, 0.1, 0.8, 0.2, 0.7], [1, 5, 2, 4, 3],
                                dice_threshold=0.5)
        assert len(curve.quantiles) == 21
        assert curve.quantiles[0] == 0.0 and curve.quantiles[-1] == 1.0
        assert curve.remaining_fraction[0] == pytest.approx(2.0 / 5.0)

    def test_validation(self):
        with pytest.raises(ValueError, match=">= 5"):
            quality_control([0.9, 0.1, 0.8, 0.2], [1, 2, 3, 4], 0.5)
        with pytest.raises(ValueError, match="equal-length"):
            quality_control([0.9, 0.1, 0.8, 0.2, 0.7], [1, 2, 3], 0.5)

    def test_imports_without_np_trapz(self):
        # numpy 2 removed np.trapz; the package must not read it, on any
        # numpy, so drop it before importing the CLI (which pulls in
        # config and harness).
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p)
        code = ("import numpy as np; np.__dict__.pop('trapz', None); "
                "import edue.cli")
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr


class TestAgreementScore:
    def test_identical_maps_agree_fully(self):
        m = np.zeros((6, 6))
        m[2:4, 2:4] = 0.9
        assert agreement_score([m, m.copy(), m.copy()]) == 1.0

    def test_disjoint_maps_score_zero(self):
        a = np.zeros((4, 4))
        b = np.zeros((4, 4))
        a[:, :2] = 1.0
        b[:, 2:] = 1.0
        assert agreement_score([a, b]) == 0.0

    def test_two_agree_one_disjoint_gives_one_third(self):
        a = np.zeros((4, 4))
        a[:, :2] = 0.9
        c = np.zeros((4, 4))
        c[:, 2:] = 0.9
        np.testing.assert_allclose(agreement_score([a, a.copy(), c]), 1.0 / 3.0)

    def test_empty_empty_pair_counts_as_full_agreement(self):
        z = np.zeros((4, 4))
        assert agreement_score([z, z.copy()]) == 1.0

    def test_binarization_threshold_is_half(self):
        half = np.full((4, 4), 0.5)
        ones = np.ones((4, 4))
        assert agreement_score([half, ones]) == 1.0
        below = np.full((4, 4), 0.499)
        zeros = np.zeros((4, 4))
        assert agreement_score([below, zeros]) == 1.0

    def test_order_invariance(self):
        rng = np.random.default_rng(13)
        maps = [rng.random((8, 8)) for _ in range(4)]
        base = agreement_score(maps)
        np.testing.assert_allclose(agreement_score(maps[::-1]), base, atol=1e-12)

    def test_full_agreement_iff_binarized_maps_coincide(self):
        # Maps that differ before binarization but coincide after still
        # score 1; a single flipped pixel drops the score below 1.
        rng = np.random.default_rng(14)
        for _ in range(20):
            mask = rng.random((6, 6)) < 0.4
            soft_a = np.where(mask, 0.6 + 0.4 * rng.random((6, 6)),
                              0.4 * rng.random((6, 6)))
            soft_b = np.where(mask, 0.5 + 0.5 * rng.random((6, 6)),
                              0.49 * rng.random((6, 6)))
            assert agreement_score([soft_a, soft_b]) == 1.0
            flipped = soft_b.copy()
            r, c = rng.integers(0, 6, size=2)
            flipped[r, c] = 0.0 if flipped[r, c] >= 0.5 else 1.0
            assert agreement_score([soft_a, flipped]) < 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match=">= 2 maps"):
            agreement_score([np.zeros((4, 4))])
        with pytest.raises(ValueError, match="share one shape"):
            agreement_score([np.zeros((4, 4)), np.zeros((5, 5))])


def frozen_ood_experiment(models, samples, kind, level, rng,
                          fractions=(0.0, 0.5, 1.0), head_skip=0, *, batch_size):
    """ood_experiment as it was before it reused clean maps: the whole
    set, distorted or not, predicted batch_size at a time per fraction."""
    samples = list(samples)
    n = len(samples)
    per_fraction = []
    for f in fractions:
        k = math.ceil(f * n)
        chosen = set(rng.choice(n, size=k, replace=False).tolist()) if k else set()
        images = np.stack([distort(s.image, kind, level, rng) if i in chosen
                           else s.image for i, s in enumerate(samples)])
        scores = [harness.agreement_score(maps)
                  for maps in prob_maps(models, images, head_skip, batch_size=batch_size)]
        per_fraction.append({"fraction": float(f), "n_distorted": k,
                             "scores": [float(v) for v in scores],
                             "summary": _summary(np.asarray(scores))})
    return OodReport(kind=kind, level=level, per_fraction=per_fraction)


@pytest.fixture(scope="module")
def setup():
    model = build_model(tiny_model(seed=9))
    samples = make_samples(5, seed=21)
    return model, samples


class TestOodExperiment:
    def test_distorted_counts_follow_ceiling(self, setup):
        model, samples = setup
        report = ood_experiment([model], samples, "gauss_noise", 0.3,
                                rng=np.random.default_rng(0), batch_size=5)
        counts = [row["n_distorted"] for row in report.per_fraction]
        assert counts == [0, 3, 5]
        fractions = [row["fraction"] for row in report.per_fraction]
        assert fractions == [0.0, 0.5, 1.0]

    def test_deterministic_under_fixed_seed(self, setup):
        model, samples = setup
        a = ood_experiment([model], samples, "gauss_noise", 0.3,
                           rng=np.random.default_rng(42), batch_size=5)
        b = ood_experiment([model], samples, "gauss_noise", 0.3,
                           rng=np.random.default_rng(42), batch_size=5)
        assert a == b

    def test_clean_fraction_matches_direct_agreement(self, setup):
        model, samples = setup
        report = ood_experiment([model], samples, "blur", 2.0,
                                rng=np.random.default_rng(1), batch_size=5)
        clean = report.per_fraction[0]
        images = np.stack([s.image for s in samples])
        direct = [agreement_score(maps) for maps in prob_maps([model], images, batch_size=5)]
        np.testing.assert_allclose(clean["scores"], direct, atol=1e-12)
        summary = clean["summary"]
        assert set(summary) == {"min", "q1", "median", "q3", "max", "mean"}
        assert summary["min"] <= summary["median"] <= summary["max"]

    def test_scores_lie_in_unit_interval(self, setup):
        model, samples = setup
        report = ood_experiment([model], samples, "intensity_shift", 0.4,
                                rng=np.random.default_rng(2), batch_size=5)
        for row in report.per_fraction:
            assert len(row["scores"]) == len(samples)
            assert all(0.0 <= s <= 1.0 for s in row["scores"])

    def test_works_with_ensembles(self, setup):
        _, samples = setup
        members = [build_single_head_model(tiny_model(seed=s)) for s in range(2)]
        report = ood_experiment(members, samples, "gauss_noise", 0.3,
                                rng=np.random.default_rng(3), batch_size=5)
        assert len(report.per_fraction) == 3

    @pytest.mark.parametrize("name", ["edue", "de"])
    def test_equals_the_frozen_per_fraction_prediction(self, name, monkeypatch):
        # Score each image by the bytes of its maps, so that a map moved
        # by one ulp shows even where its agreement would not.
        monkeypatch.setattr(harness, "agreement_score",
                            lambda maps: float(zlib.crc32(np.asarray(maps).tobytes())))
        config = preset("desk")
        models = [ARMS[name].build(replace(config, seed=5 + i).model_config())
                  for i in range(2 if ARMS[name].predictor == "ensemble" else 1)]
        pool = generate_dataset(config.scene_params(), 32, np.random.default_rng(8))
        # a batch of 32 puts each set in one chunk
        for n, batch_size, fractions in itertools.product(
                (3, 4, 5, 29, 32), (2, 3, 8, 32),
                ((0.0, 0.5, 1.0), (0.5,), (0.25, 0.75), (0.0, 1.0))):
            args = (models, pool[:n], "gauss_noise", 0.3)
            kwargs = dict(fractions=fractions, batch_size=batch_size)
            assert (ood_experiment(*args, np.random.default_rng(n), **kwargs)
                    == frozen_ood_experiment(*args, np.random.default_rng(n), **kwargs))

    def test_predicts_each_clean_image_once(self, monkeypatch):
        members = [build_single_head_model(tiny_model(seed=s)) for s in range(2)]
        samples = make_samples(32, seed=22)
        ood_experiment(members, samples, "gauss_noise", 0.3,
                       rng=np.random.default_rng(5), batch_size=8)
        # 32 clean, then 16 distorted, then 32 distorted images; predicting
        # the whole set at each fraction made 96 passes
        assert [m.trunk_passes for m in members] == [80, 80]
        sizes = []
        real = harness.prob_maps

        def spy(models, images, head_skip=0, *, batch_size):
            sizes.append(len(images))
            return real(models, images, head_skip, batch_size=batch_size)

        monkeypatch.setattr(harness, "prob_maps", spy)
        for n, batch_size in itertools.product((5, 9), (2, 3, 4, 9)):
            for fractions in ((0.0, 0.5, 1.0), (0.5,), (0.25, 0.75), (1.0, 0.0, 0.5)):
                sizes.clear()
                ood_experiment(members, samples[:n], "blur", 2.0,
                               rng=np.random.default_rng(6), fractions=fractions,
                               batch_size=batch_size)
                assert len(sizes) <= len(fractions)
                assert all(size <= n for size in sizes)

    def test_validation(self, setup):
        model, samples = setup
        with pytest.raises(ValueError, match="fractions"):
            ood_experiment([model], samples, "gauss_noise", 0.3,
                           rng=np.random.default_rng(0), fractions=(0.0, 1.5),
                           batch_size=5)
        with pytest.raises(ValueError, match="empty"):
            ood_experiment([model], [], "gauss_noise", 0.3,
                           rng=np.random.default_rng(0), batch_size=1)
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            ood_experiment([model], samples, "gauss_noise", 0.3,
                           rng=np.random.default_rng(0), batch_size=0)

    def test_every_fraction_is_checked_before_any_prediction(self, setup, monkeypatch):
        model, samples = setup
        calls = []
        monkeypatch.setattr(harness, "prob_maps", lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValueError, match=re.escape(
                "fractions must lie in [0, 1], got [0.0, 0.5, 2.0]")):
            ood_experiment([model], samples, "gauss_noise", 0.3,
                           rng=np.random.default_rng(0), fractions=(0.0, 0.5, 2.0),
                           batch_size=5)
        assert calls == []


class TestRunComparison:
    def test_smoke_single_structure(self):
        train_samples = make_samples(8, seed=31)
        test_samples = make_samples(6, seed=32)
        report = run_comparison(train_samples, test_samples, tiny_config(),
                                seeds=(0, 1))
        assert set(report["arms"]) == {"edue", "le", "de"}
        assert report["structures"] == ["blob"]
        for arm in report["arms"].values():
            assert len(arm["per_seed"]) == 2
            assert set(arm["summary"]) == {"blob.sr", "blob.dc", "blob.ncc",
                                           "blob.dice", "nll"}
            for stats in arm["summary"].values():
                assert set(stats) == {"mean", "std"}
                assert np.isfinite(stats["mean"]) and np.isfinite(stats["std"])

    def test_pass_and_parameter_counts(self):
        train_samples = make_samples(8, seed=33)
        test_samples = make_samples(6, seed=34)
        report = run_comparison(train_samples, test_samples, tiny_config(),
                                seeds=(0,))
        edue_row = report["arms"]["edue"]["per_seed"][0]
        le_row = report["arms"]["le"]["per_seed"][0]
        de_row = report["arms"]["de"]["per_seed"][0]
        assert edue_row["passes_per_image"] == 1.0
        assert le_row["passes_per_image"] == 1.0
        assert de_row["passes_per_image"] == 2.0
        member_count = n_params(build_single_head_model(tiny_model()))
        assert de_row["parameter_count"] == 2 * member_count
        assert edue_row["parameter_count"] < de_row["parameter_count"] / 2

    def test_nested_structures_make_nine_column_groups(self):
        train_samples = make_samples(6, seed=35, structure="nested")
        test_samples = make_samples(5, seed=36, structure="nested")
        report = run_comparison(train_samples, test_samples,
                                tiny_config(epochs=1), seeds=(0,))
        summary = report["arms"]["edue"]["summary"]
        expected = {f"{s}.{m}" for s in ("disc", "cup")
                    for m in ("sr", "dc", "ncc", "dice")} | {"nll"}
        assert set(summary) == expected
        assert len(summary) == 9

    def test_requires_a_seed(self):
        with pytest.raises(ValueError, match="seed"):
            run_comparison(make_samples(4), make_samples(4), tiny_config(),
                           seeds=())
