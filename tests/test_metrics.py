"""Metric correctness against independent brute-force references.

The oracle functions below are deliberately naive (explicit loops, direct
textbook formulas) and serve as the ground truth the vectorized
implementations must match to 1e-12.
"""

import math

import numpy as np
import pytest

from edue.disagreement import binarize_majority, gt_heatmap, soft_majority
from edue.metrics import (
    MetricReport,
    _average_ranks,
    distance_correlation,
    evaluate_predictions,
    ncc,
    nll,
    soft_dice,
    spearman,
)


# ---------------------------------------------------------------------------
# oracles


def oracle_ranks(values):
    """Average ranks, 1-based, ties share the mean of their positions."""
    values = list(values)
    ranks = []
    for v in values:
        smaller = sum(1 for u in values if u < v)
        equal = sum(1 for u in values if u == v)
        # positions smaller+1 .. smaller+equal, averaged
        ranks.append(smaller + (equal + 1) / 2.0)
    return ranks


def oracle_pearson(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y)) / n
    sx = math.sqrt(sum((a - mx) ** 2 for a in x) / n)
    sy = math.sqrt(sum((b - my) ** 2 for b in y) / n)
    return cov / (sx * sy)


def oracle_spearman(x, y):
    return oracle_pearson(oracle_ranks(x), oracle_ranks(y))


def oracle_dcor(x, y):
    n = len(x)

    def centered(v):
        d = [[abs(v[i] - v[j]) for j in range(n)] for i in range(n)]
        row = [sum(d[i]) / n for i in range(n)]
        col = [sum(d[i][j] for i in range(n)) / n for j in range(n)]
        grand = sum(row) / n
        return [[d[i][j] - row[i] - col[j] + grand for j in range(n)] for i in range(n)]

    a = centered(x)
    b = centered(y)
    dcov2 = sum(a[i][j] * b[i][j] for i in range(n) for j in range(n)) / n ** 2
    dvarx = math.sqrt(sum(a[i][j] ** 2 for i in range(n) for j in range(n)) / n ** 2)
    dvary = math.sqrt(sum(b[i][j] ** 2 for i in range(n) for j in range(n)) / n ** 2)
    if dvarx == 0 or dvary == 0:
        return 0.0
    return math.sqrt(max(dcov2, 0.0) / (dvarx * dvary))


def oracle_ncc(a, b):
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    za = (a - a.mean()) / a.std()
    zb = (b - b.mean()) / b.std()
    return float(np.mean([p * q for p, q in zip(za, zb)]))


def oracle_nll(pred, target):
    pred = np.asarray(pred, dtype=np.float64).reshape(-1)
    target = np.asarray(target, dtype=np.float64).reshape(-1)
    total = 0.0
    for p, t in zip(pred, target):
        p = min(max(p, 1e-7), 1 - 1e-7)
        total += -(t * math.log(p) + (1 - t) * math.log(1 - p))
    return total / len(pred)


def oracle_soft_dice(pred, target, s=1e-6):
    pred = np.asarray(pred, dtype=np.float64).reshape(-1)
    target = np.asarray(target, dtype=np.float64).reshape(-1)
    inter = sum(p * t for p, t in zip(pred, target))
    return (2 * inter + s) / (sum(pred) + sum(target) + s)


# ---------------------------------------------------------------------------
# frozen copies of replaced code: the new code must equal them bit for bit


def frozen_average_ranks(v):
    """The tie-grouping loop _average_ranks replaced."""
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


def frozen_ncc(a, b):
    """ncc before it was computed on blocks of images."""
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    sa, sb = av.std(), bv.std()
    if sa == 0.0 or sb == 0.0:
        return 0.0
    return float(np.mean(((av - av.mean()) / sa) * ((bv - bv.mean()) / sb)))


def frozen_nll(pred, target):
    """nll before it was computed on blocks of images."""
    p = np.clip(np.asarray(pred, dtype=np.float64), 1e-7, 1.0 - 1e-7)
    t = np.asarray(target, dtype=np.float64)
    return float(np.mean(-(t * np.log(p) + (1.0 - t) * np.log(1.0 - p))))


def frozen_soft_dice(pred, target):
    """soft_dice before it was computed on blocks of images."""
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    return float((2.0 * (p * t).sum() + 1e-6) / (p.sum() + t.sum() + 1e-6))


def test_scalar_metrics_equal_their_frozen_copies():
    rng = np.random.default_rng(12)
    for shape in [(17,), (8, 8), (31, 45), (256, 256), (3, 20, 20)]:
        for dtype in (np.float32, np.float64):
            a = rng.random(shape).astype(dtype)
            b = rng.random(shape).astype(dtype)
            t = (rng.random(shape) < 0.5).astype(float)
            assert ncc(a, b) == frozen_ncc(a, b)
            assert nll(a, t) == frozen_nll(a, t)
            assert soft_dice(a, b) == frozen_soft_dice(a, b)


# ---------------------------------------------------------------------------
# spearman


class TestSpearman:
    def test_monotone_pairs(self):
        assert spearman([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0, abs=1e-12)
        assert spearman([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_oracle_on_random_inputs(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(3, 20))
            x = rng.normal(size=n).tolist()
            y = rng.normal(size=n).tolist()
            assert spearman(x, y) == pytest.approx(oracle_spearman(x, y), abs=1e-12)

    def test_matches_oracle_with_ties(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(4, 16))
            x = rng.integers(0, 4, size=n).astype(float)
            y = rng.integers(0, 4, size=n).astype(float)
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            assert spearman(x, y) == pytest.approx(oracle_spearman(x, y), abs=1e-12)

    def test_average_ranks_equal_the_frozen_loop(self):
        rng = np.random.default_rng(13)
        cases = [rng.integers(0, k, size=n).astype(float)
                 for n, k in [(3, 2), (10, 3), (50, 7), (200, 20)]]
        cases += [rng.normal(size=40), np.array([0.0, -0.0, 1.0, -0.0, 0.0, -1.0]),
                  np.full(9, 2.5), np.array([1.0])]
        for v in cases:
            ranks = _average_ranks(v)
            assert ranks.dtype == np.float64
            assert ranks.tobytes() == frozen_average_ranks(v).tobytes()

    def test_tie_example(self):
        x = [1.0, 2.0, 2.0, 3.0]
        y = [1.0, 3.0, 2.0, 4.0]
        assert spearman(x, y) == pytest.approx(oracle_spearman(x, y), abs=1e-12)

    def test_invariant_under_monotone_transforms(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=12)
        y = rng.normal(size=12)
        base = spearman(x, y)
        assert spearman(np.exp(x), y) == pytest.approx(base, abs=1e-12)
        assert spearman(x, np.power(y, 3)) == pytest.approx(base, abs=1e-12)

    def test_constant_input_errors(self):
        with pytest.raises(ValueError, match="undefined correlation"):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="undefined correlation"):
            spearman([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])

    def test_length_validation(self):
        with pytest.raises(ValueError):
            spearman([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            spearman([1.0, 2.0, 3.0], [1.0, 2.0])

    def test_permutation_null_is_small(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=100)
        y = rng.permutation(x)
        assert abs(spearman(x, y)) < 0.3


# ---------------------------------------------------------------------------
# distance correlation


class TestDistanceCorrelation:
    def test_affine_dependence_is_one(self):
        x = [1.0, 2.0, 5.0, 7.0, 11.0]
        y = [3 * v + 1 for v in x]
        assert distance_correlation(x, y) == pytest.approx(1.0, abs=1e-12)
        assert distance_correlation(x, [-v for v in x]) == pytest.approx(1.0, abs=1e-12)

    def test_matches_oracle_on_random_inputs(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(4, 65))
            x = rng.normal(size=n).tolist()
            y = rng.normal(size=n).tolist()
            assert distance_correlation(x, y) == pytest.approx(oracle_dcor(x, y), abs=1e-12)

    def test_quadratic_example_matches_oracle(self):
        x = [1.0, 2.0, 3.0, 4.0]
        y = [1.0, 4.0, 9.0, 16.0]
        assert distance_correlation(x, y) == pytest.approx(oracle_dcor(x, y), abs=1e-12)

    def test_degenerate_returns_zero(self):
        assert distance_correlation([1.0] * 5, [1.0, 2.0, 3.0, 4.0, 5.0]) == 0.0

    def test_range(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.normal(size=10)
            y = rng.normal(size=10)
            assert 0.0 <= distance_correlation(x, y) <= 1.0 + 1e-12

    def test_length_validation(self):
        with pytest.raises(ValueError):
            distance_correlation([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# ncc


class TestNcc:
    def test_self_correlation(self):
        rng = np.random.default_rng(6)
        a = rng.uniform(size=(8, 8))
        assert ncc(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_negated_affine(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(size=(8, 8))
        assert ncc(a, -a + 3.0) == pytest.approx(-1.0, abs=1e-12)

    def test_orthogonal_example(self):
        assert ncc(np.array([0.0, 1.0, 0.0, 1.0]),
                   np.array([0.0, 1.0, 1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)

    def test_matches_oracle_on_random_inputs(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            a = rng.uniform(size=(5, 5))
            b = rng.uniform(size=(5, 5))
            assert ncc(a, b) == pytest.approx(oracle_ncc(a, b), abs=1e-12)

    def test_affine_invariance_and_symmetry(self):
        rng = np.random.default_rng(9)
        a = rng.uniform(size=(6, 6))
        b = rng.uniform(size=(6, 6))
        assert ncc(2.5 * a + 0.7, b) == pytest.approx(ncc(a, b), abs=1e-12)
        assert ncc(a, b) == pytest.approx(ncc(b, a), abs=1e-12)

    def test_zero_variance_returns_zero_with_warning(self):
        with pytest.warns(RuntimeWarning, match="zero-variance"):
            assert ncc(np.full((4, 4), 0.2), np.arange(16.0).reshape(4, 4)) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ncc(np.zeros((2, 2)), np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# nll


class TestNll:
    def test_perfect_prediction_near_zero(self):
        t = (np.arange(16).reshape(4, 4) % 2).astype(float)
        assert nll(t, t) == pytest.approx(-math.log(1 - 1e-7), rel=1e-6)
        assert nll(t, t) < 1e-6

    def test_uninformative_prediction(self):
        t = (np.arange(16) % 2).astype(float)
        assert nll(np.full(16, 0.5), t) == pytest.approx(math.log(2), abs=1e-12)

    def test_confident_wrong_prediction(self):
        assert nll(np.full(8, 0.9), np.zeros(8)) == pytest.approx(-math.log(0.1), abs=1e-12)

    def test_matches_oracle_on_random_inputs(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            p = rng.uniform(size=12)
            t = (rng.uniform(size=12) < 0.5).astype(float)
            assert nll(p, t) == pytest.approx(oracle_nll(p, t), abs=1e-12)

    def test_penalizes_confident_errors_more(self):
        t = np.zeros(4)
        confident = np.array([0.99, 0.1, 0.1, 0.1])
        hedged = np.array([0.5, 0.1, 0.1, 0.1])
        assert nll(hedged, t) < nll(confident, t)

    def test_validation(self):
        with pytest.raises(ValueError):
            nll(np.zeros((2, 2)), np.zeros((3, 3)))
        with pytest.raises(ValueError, match="binary"):
            nll(np.full(4, 0.5), np.full(4, 0.3))

    def test_checks_shape_then_range_then_target(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            nll(np.full(3, 1.5), np.full(4, 0.3))
        with pytest.raises(ValueError, match=r"pred must lie in \[0, 1\]"):
            nll(np.full(4, 1.5), np.full(4, 0.3))


# ---------------------------------------------------------------------------
# soft dice


class TestSoftDice:
    def test_perfect_overlap(self):
        t = np.zeros((6, 6))
        t[2:4, 2:4] = 1.0
        assert soft_dice(t, t) == pytest.approx(1.0, abs=1e-6)

    def test_empty_prediction(self):
        t = np.zeros((6, 6))
        t[2:4, 2:4] = 1.0
        assert soft_dice(np.zeros((6, 6)), t) == pytest.approx(0.0, abs=1e-6)

    def test_half_confidence(self):
        t = np.ones(10)
        assert soft_dice(np.full(10, 0.5), t) == pytest.approx(2.0 / 3.0, rel=1e-6)

    def test_matches_oracle_on_random_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            p = rng.uniform(size=(4, 4))
            t = rng.uniform(size=(4, 4))
            assert soft_dice(p, t) == pytest.approx(oracle_soft_dice(p, t), abs=1e-12)

    def test_symmetric_and_monotone_in_overlap(self):
        rng = np.random.default_rng(12)
        p = rng.uniform(size=16)
        t = rng.uniform(size=16)
        assert soft_dice(p, t) == pytest.approx(soft_dice(t, p), abs=1e-12)
        base = np.zeros(16)
        base[:8] = 1.0
        shrunk = np.zeros(16)
        shrunk[:4] = 1.0
        assert soft_dice(base, base) > soft_dice(shrunk, base)


# ---------------------------------------------------------------------------
# dataset-level aggregation


class TestImageLevelCorrelation:
    # the two correlations evaluate_predictions gives its per-image variance
    # sums (test_sr_matches_direct_call checks that it calls these)
    def test_identity(self):
        sv = [1.0, 3.0, 2.0, 5.0, 4.0]
        assert spearman(sv, sv) == pytest.approx(1.0, abs=1e-12)
        assert distance_correlation(sv, sv) == pytest.approx(1.0, abs=1e-12)

    def test_permutation_null(self):
        rng = np.random.default_rng(13)
        sv = rng.uniform(1, 10, size=100)
        assert abs(spearman(sv, rng.permutation(sv))) < 0.3

    def test_needs_four_images(self):
        with pytest.raises(ValueError, match="at least 4 values"):
            distance_correlation([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])


def reference_evaluate(maps, rater_masks, variance):
    """The per-image scoring path evaluate_predictions replaced: reduce
    each image's maps to a mask and a heatmap, then score it with the
    frozen per-image metrics.  Returns (per_image, dataset)."""
    per_image = []
    for i, (image_maps, masks) in enumerate(zip(maps, rater_masks)):
        if variance:
            stacked = np.asarray(image_maps, dtype=np.float64)
            mask, heatmap = stacked.mean(axis=0), stacked.var(axis=0)
        else:
            mask, heatmap = image_maps[0], None
        pred = np.asarray(mask, dtype=np.float64)
        soft = soft_majority(masks)
        row = {"id": f"img{i:04d}", "soft_dice": frozen_soft_dice(pred, soft),
               "nll": frozen_nll(pred, binarize_majority(soft))}
        if variance:
            heat = np.asarray(heatmap, dtype=np.float64)
            gt_heat = gt_heatmap(masks)
            row.update(sv_model=float(heat.sum()), sv_gt=float(gt_heat.sum()),
                       ncc=frozen_ncc(heat, gt_heat))
        per_image.append(row)
    dataset = {
        "mean_dice": float(np.mean([r["soft_dice"] for r in per_image])),
        "mean_nll": float(np.mean([r["nll"] for r in per_image])),
    }
    if variance:
        sv_model = [r["sv_model"] for r in per_image]
        sv_gt = [r["sv_gt"] for r in per_image]
        dataset.update(sr=spearman(sv_model, sv_gt), dc=distance_correlation(sv_model, sv_gt),
                       mean_ncc=float(np.mean([r["ncc"] for r in per_image])))
    return per_image, dataset


class TestEvaluatePredictions:
    def records(self, n=5, seed=0, m=3, dtype=np.float64, size=8):
        """(maps (n, m, size, size), rater stacks): maps scatter around the
        soft label, more where raters disagree; rater counts vary per image."""
        rng = np.random.default_rng(seed)
        maps, stacks = [], []
        for i in range(n):
            masks = (rng.uniform(size=(3 + i % 3, size, size)) < 0.5).astype(float)
            soft = masks.mean(axis=0)
            noise = rng.normal(0, 1, (m, size, size)) * (0.02 + 0.5 * masks.std(axis=0))
            maps.append(np.clip(soft + noise, 0.0, 1.0))
            stacks.append(masks)
        return np.stack(maps).astype(dtype), stacks

    def test_report_structure(self):
        report = evaluate_predictions(*self.records())
        assert isinstance(report, MetricReport)
        assert len(report.per_image) == 5
        row = report.per_image[0]
        assert set(row) == {"id", "soft_dice", "nll", "sv_model", "sv_gt", "ncc"}
        assert [r["id"] for r in report.per_image] == [f"img000{i}" for i in range(5)]
        for key in ("sr", "dc", "mean_ncc", "mean_dice", "mean_nll"):
            assert np.isfinite(report.dataset[key])
        assert -1.0 <= report.dataset["sr"] <= 1.0
        assert 0.0 <= report.dataset["dc"] <= 1.0 + 1e-12

    def test_per_image_values_match_direct_metric_calls(self):
        maps, stacks = self.records(seed=3)
        report = evaluate_predictions(maps, stacks)
        row = report.per_image[2]
        masks = stacks[2]
        pred, heat = maps[2].mean(axis=0), maps[2].var(axis=0)
        soft = masks.mean(axis=0)
        hard = (soft >= 0.5).astype(float)
        gt_heat = masks.var(axis=0)
        assert row["soft_dice"] == pytest.approx(soft_dice(pred, soft), abs=1e-12)
        assert row["nll"] == pytest.approx(nll(pred, hard), abs=1e-12)
        assert row["sv_model"] == pytest.approx(heat.sum(), abs=1e-12)
        assert row["sv_gt"] == pytest.approx(gt_heat.sum(), abs=1e-12)
        assert row["ncc"] == pytest.approx(ncc(heat, gt_heat), abs=1e-12)

    def test_without_variance_scores_the_first_map(self):
        maps, stacks = self.records(n=3, seed=6)
        report = evaluate_predictions(maps[:, :1], stacks)
        assert set(report.per_image[0]) == {"id", "soft_dice", "nll"}
        assert set(report.dataset) == {"mean_dice", "mean_nll"}
        soft = stacks[1].mean(axis=0)
        assert report.per_image[1]["soft_dice"] == pytest.approx(
            soft_dice(maps[1][0], soft), abs=1e-12)

    def test_dataset_means_are_unweighted(self):
        report = evaluate_predictions(*self.records(n=6, seed=4))
        assert report.dataset["mean_dice"] == pytest.approx(
            np.mean([r["soft_dice"] for r in report.per_image]), abs=1e-12)
        assert report.dataset["mean_nll"] == pytest.approx(
            np.mean([r["nll"] for r in report.per_image]), abs=1e-12)
        assert report.dataset["mean_ncc"] == pytest.approx(
            np.mean([r["ncc"] for r in report.per_image]), abs=1e-12)

    def test_sr_matches_direct_call(self):
        report = evaluate_predictions(*self.records(n=8, seed=5))
        sv_m = [r["sv_model"] for r in report.per_image]
        sv_g = [r["sv_gt"] for r in report.per_image]
        assert report.dataset["sr"] == pytest.approx(spearman(sv_m, sv_g), abs=1e-12)
        assert report.dataset["dc"] == pytest.approx(
            distance_correlation(sv_m, sv_g), abs=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("variance, m", [(False, 1), (False, 2), (False, 3),
                                             (True, 2), (True, 3)])
    def test_equals_the_per_image_reference_path(self, variance, m, dtype):
        # without variance the reference scores the first of m maps, and
        # evaluate_predictions gets that map alone
        maps, stacks = self.records(n=6, seed=7, m=m, dtype=dtype)
        report = evaluate_predictions(maps if variance else maps[:, :1], stacks)
        per_image, dataset = reference_evaluate(maps, stacks, variance)
        assert report.per_image == per_image
        assert report.dataset == dataset

    @pytest.mark.parametrize("n, size", [(64, 32), (65, 32), (150, 32), (300, 8), (5, 256)])
    def test_blocks_equal_the_per_image_reference_path(self, n, size):
        # blocks of 64 desk images (1024 at 8 x 8, one at 256 x 256), rater
        # counts 3-5 mixed within a block, and maps past numpy's
        # 8192-element summation buffer
        maps, stacks = self.records(n=n, seed=8, dtype=np.float32, size=size)
        for variance in (True, False):
            report = evaluate_predictions(maps if variance else maps[:, :1], stacks)
            per_image, dataset = reference_evaluate(maps, stacks, variance)
            assert report.per_image == per_image
            assert report.dataset == dataset

    def test_zero_variance_image_warns_and_scores_zero(self):
        maps, stacks = self.records(n=70, seed=9)
        maps[66] = 0.25  # identical heads: a constant, zero heatmap
        with pytest.warns(RuntimeWarning, match="zero-variance"):
            report = evaluate_predictions(maps, stacks)
        per_image, dataset = reference_evaluate(maps, stacks, True)
        assert report.per_image[66]["ncc"] == 0.0
        assert report.per_image == per_image
        assert report.dataset == dataset

    @pytest.mark.parametrize("variance", [True, False])
    def test_bad_records_raise_the_per_image_messages(self, variance):
        maps, stacks = self.records(n=6, seed=10, m=3 if variance else 1)
        stacks[4] = stacks[4][:, :6, :6]
        with pytest.raises(ValueError, match=r"shape mismatch: \(8, 8\) vs \(6, 6\)"):
            evaluate_predictions(maps, stacks)
        maps, stacks = self.records(n=6, seed=10, m=3 if variance else 1)
        maps[3] += 1.5
        with pytest.raises(ValueError, match=r"pred must lie in \[0, 1\]"):
            evaluate_predictions(maps, stacks)

    @pytest.mark.parametrize("variance", [True, False])
    def test_first_faulty_image_names_the_error(self, variance):
        # several faults in one block: the first image's fault is reported,
        # and within an image the raters come before the pred range
        maps, stacks = self.records(n=70, seed=11, m=3 if variance else 1, size=32)
        maps[3] += 1.5
        stacks[5][0, 0, 0] = 0.5
        with pytest.raises(ValueError, match=r"pred must lie in \[0, 1\]"):
            evaluate_predictions(maps, stacks)
        stacks[3][0, 0, 0] = 0.5
        with pytest.raises(ValueError, match="rater masks must be binary"):
            evaluate_predictions(maps, stacks)
        stacks[2] = stacks[2][:, :6, :6]
        with pytest.raises(ValueError, match=r"shape mismatch: \(32, 32\) vs \(6, 6\)"):
            evaluate_predictions(maps, stacks)

    def test_variance_needs_two_maps(self):
        # the map count sets the mode: one map is scored alone, two or
        # more by their mean and variance
        for m, keys in ((1, {"mean_dice", "mean_nll"}),
                        (2, {"mean_dice", "mean_nll", "sr", "dc", "mean_ncc"})):
            maps, stacks = self.records(m=m)
            assert set(evaluate_predictions(maps, stacks).dataset) == keys

    def test_length_mismatch_raises(self):
        maps, stacks = self.records()
        with pytest.raises(ValueError, match="5 map sets but 4 rater stacks"):
            evaluate_predictions(maps, stacks[:4])
        with pytest.raises(ValueError, match="4 map sets but 5 rater stacks"):
            evaluate_predictions(maps[:4, :1], stacks)

    def test_too_few_images(self):
        maps, stacks = self.records(n=3)
        with pytest.raises(ValueError, match="at least 4 images"):
            evaluate_predictions(maps, stacks)
        assert len(evaluate_predictions(maps[:1, :1], stacks[:1]).per_image) == 1
