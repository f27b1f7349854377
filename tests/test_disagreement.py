"""Loss algebra, label sampling, and training-loop behavior."""

import math
import tracemalloc
from dataclasses import replace
from contextlib import contextmanager

import numpy as np
import pytest

from edue import autodiff as ad
from edue import disagreement
from edue.autodiff import Tape, Tensor
from edue.disagreement import (
    EpochStats,
    LossWeights,
    TrainItem,
    binarize_majority,
    gt_heatmap,
    label_stack,
    majority_labels,
    model_heatmap,
    rmse_loss,
    sample_labels,
    single_rater_labels,
    soft_majority,
    total_loss,
    train,
)
from edue.config import preset
from edue.model import build_model, forward

from helpers import weights_hash


@contextmanager
def dtype64():
    ad.set_default_dtype(np.float64)
    try:
        yield
    finally:
        ad.set_default_dtype(np.float32)


def heads_from(prob_arrays):
    return [Tensor(p) for p in prob_arrays]


def fd_grad(build_loss, leaf, h=1e-5):
    """Central-difference gradient of a scalar loss w.r.t. one leaf."""
    grad = np.zeros_like(leaf.data)
    flat = leaf.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = build_loss()
        flat[i] = orig - h
        lo = build_loss()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * h)
    return grad


def rel_err(got, want):
    scale = max(np.abs(want).max(), 1e-8)
    return np.abs(got - want).max() / scale


def toy_items(n, size=32, raters=3, seed=0, wobble=0.8):
    """Small blob dataset: soft-edged disc images, jittered rater masks."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:size, 0:size]
    items = []
    for _ in range(n):
        cy, cx = rng.uniform(size * 0.3, size * 0.7, size=2)
        radius = rng.uniform(size * 0.15, size * 0.25)
        dist = np.hypot(yy - cy, xx - cx) - radius
        masks = np.stack([
            (dist + rng.normal(0.0, wobble) < 0.0).astype(np.float64)
            for _ in range(raters)
        ])
        image = 1.0 / (1.0 + np.exp(dist)) + rng.normal(0.0, 0.05, (size, size))
        items.append(TrainItem(image=np.clip(image, 0.0, 1.0)[None], masks=masks))
    return items


class TestGtHeatmap:
    def test_identical_raters_zero(self):
        m = np.zeros((4, 5, 5))
        m[:, 1:3, 1:3] = 1.0
        np.testing.assert_array_equal(gt_heatmap(m), 0.0)

    def test_two_of_four(self):
        m = np.zeros((4, 1, 1))
        m[:2] = 1.0
        assert gt_heatmap(m)[0, 0] == pytest.approx(0.25, abs=1e-12)

    def test_one_of_three(self):
        m = np.zeros((3, 1, 1))
        m[0] = 1.0
        assert gt_heatmap(m)[0, 0] == pytest.approx(2.0 / 9.0, abs=1e-12)

    def test_matches_p_one_minus_p(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            y = int(rng.integers(2, 7))
            m = (rng.uniform(size=(y, 6, 6)) < 0.5).astype(np.float64)
            p = m.mean(axis=0)
            np.testing.assert_allclose(gt_heatmap(m), p * (1.0 - p), atol=1e-12)
            assert gt_heatmap(m).max() <= 0.25 + 1e-12
            assert gt_heatmap(m).min() >= 0.0

    def test_single_rater_rejected(self):
        for check in (gt_heatmap, label_stack):
            with pytest.raises(ValueError, match="at least 2"):
                check(np.zeros((1, 4, 4)))

    def test_non_binary_rejected(self):
        for check in (gt_heatmap, label_stack):
            with pytest.raises(ValueError, match="binary"):
                check(np.full((2, 4, 4), 0.5))


class TestModelHeatmap:
    def test_identical_heads_zero(self):
        p = np.full((1, 1, 3, 3), 0.7)
        hm = model_heatmap(heads_from([p, p.copy(), p.copy()]))
        np.testing.assert_allclose(hm.data, 0.0, atol=1e-12)

    def test_opposite_heads(self):
        hm = model_heatmap(heads_from([np.zeros((1, 1, 2, 2)), np.ones((1, 1, 2, 2))]))
        np.testing.assert_allclose(hm.data, 0.25, atol=1e-7)

    def test_single_head_rejected(self):
        with pytest.raises(ValueError, match="2 heads"):
            model_heatmap(heads_from([np.zeros((1, 1, 2, 2))]))

    def test_gradient_matches_analytic_and_fd(self):
        with dtype64():
            rng = np.random.default_rng(3)
            leaves = [Tensor(rng.uniform(0.1, 0.9, (1, 1, 2, 2)), requires_grad=True)
                      for _ in range(3)]

            def variance_sum():
                hm = model_heatmap(leaves)
                return float(ad.scale(ad.mean_all(hm), hm.data.size).data)

            with Tape() as tape:
                hm = model_heatmap(leaves)
                tape.backward(ad.scale(ad.mean_all(hm), hm.data.size))
            mean = np.mean([l.data for l in leaves], axis=0)
            for leaf in leaves:
                analytic = 2.0 * (leaf.data - mean) / 3.0
                assert rel_err(leaf.grad, analytic) < 1e-10
                assert rel_err(leaf.grad, fd_grad(variance_sum, leaf)) < 1e-8
                leaf.zero_grad()


class TestRmseLoss:
    def test_identical_heatmaps(self):
        a = Tensor(np.full((1, 1, 2, 2), 0.1))
        assert float(rmse_loss(a, Tensor(a.data.copy())).data) == pytest.approx(1e-6, rel=1e-3)

    def test_constant_residual(self):
        got = rmse_loss(Tensor(np.full((1, 1, 4, 4), 0.25)), Tensor(np.zeros((1, 1, 4, 4))))
        assert float(got.data) == pytest.approx(0.25, abs=1e-6)

    def test_half_residual_on_one_of_two(self):
        got = rmse_loss(Tensor(np.array([[0.0, 0.5]])), Tensor(np.zeros((1, 2))))
        assert float(got.data) == pytest.approx(math.sqrt(0.125), abs=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ad.ShapeError):
            rmse_loss(Tensor(np.zeros((1, 2))), Tensor(np.zeros((2, 1))))

    def test_gradient_finite_at_zero_residual(self):
        a = Tensor(np.full((2, 2), 0.1), requires_grad=True)
        with Tape() as tape:
            tape.backward(rmse_loss(a, Tensor(np.full((2, 2), 0.1))))
        assert np.all(np.isfinite(a.grad))


class TestSoftMajority:
    def test_two_of_three(self):
        m = np.zeros((3, 1, 1))
        m[:2] = 1.0
        assert soft_majority(m)[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_agreement_returns_common_mask(self):
        mask = (np.arange(16).reshape(4, 4) % 3 == 0).astype(np.float64)
        np.testing.assert_array_equal(soft_majority(np.stack([mask] * 4)), mask)

    def test_binarize_tie_rounds_up(self):
        soft = np.array([0.0, 0.49, 0.5, 0.51, 1.0])
        np.testing.assert_array_equal(binarize_majority(soft), [0, 0, 1, 1, 1])


class TestSampleLabels:
    def masks(self, y=4, seed=0):
        rng = np.random.default_rng(seed)
        return (rng.uniform(size=(y, 4, 4)) < 0.5).astype(np.float64)

    def draw(self, sampler, rng, m, n_heads):
        """A sampler's indices and the head targets they pick from m's label stack."""
        idx = sampler(rng, len(m), n_heads)
        return idx, label_stack(m)[idx]

    def test_label_stack_is_masks_then_vote(self):
        m = self.masks()
        stack = label_stack(m)
        assert stack.shape == (5, 4, 4)
        np.testing.assert_array_equal(stack[:4], m)
        np.testing.assert_array_equal(stack[4], soft_majority(m))

    def test_last_head_is_soft_majority(self):
        m = self.masks()
        idx, targets = self.draw(sample_labels, np.random.default_rng(1), m, 3)
        np.testing.assert_array_equal(targets[-1], m.mean(axis=0))
        assert len(targets) == 3
        assert idx[-1] == len(m)
        assert len(idx[:-1]) == 2 and all(0 <= i < len(m) for i in idx[:-1])

    def test_non_last_targets_are_real_masks(self):
        m = self.masks()
        for seed in range(10):
            idx, targets = self.draw(sample_labels, np.random.default_rng(seed), m, 4)
            for target, i in zip(targets[:-1], idx[:-1]):
                np.testing.assert_array_equal(target, m[i])

    def test_single_rater_degenerate(self):
        # One mask carries no disagreement: it has no label stack to pick from.
        m = self.masks(y=1)
        with pytest.raises(ValueError, match="at least 2 rater masks, got 1"):
            self.draw(sample_labels, np.random.default_rng(0), m, 3)

    def test_deterministic_given_seed(self):
        m = self.masks()
        a, _ = self.draw(sample_labels, np.random.default_rng(7), m, 5)
        b, _ = self.draw(sample_labels, np.random.default_rng(7), m, 5)
        assert a == b

    def test_draws_are_uniform(self):
        rng = np.random.default_rng(11)
        counts = np.zeros((2, 4))
        for _ in range(10_000):
            idx = sample_labels(rng, 4, n_heads=3)
            for head, i in enumerate(idx[:-1]):
                counts[head, i] += 1
        freq = counts / 10_000
        assert np.all(np.abs(freq - 0.25) < 0.04)

    def test_majority_labels_everywhere(self):
        m = self.masks()
        idx, targets = self.draw(majority_labels, np.random.default_rng(0), m, 3)
        for target in targets:
            np.testing.assert_array_equal(target, m.mean(axis=0))
        assert idx == [len(m)] * 3  # no rater is drawn

    def test_single_rater_sampler(self):
        m = self.masks(y=3)
        idx, targets = self.draw(single_rater_labels, np.random.default_rng(0), m, 3)
        assert idx == [0, 0, 0]
        for target in targets:
            np.testing.assert_array_equal(target, m[0])


class TestTotalLoss:
    def test_uninformative_heads_give_ln2_each(self):
        probs = [np.full((1, 1, 4, 4), 0.5)] * 3
        target = (np.arange(16).reshape(1, 1, 4, 4) % 2).astype(np.float64)
        loss, parts = total_loss(heads_from(probs), [target] * 3, None,
                                 LossWeights(alpha=1.0, beta=0.0))
        assert float(loss.data) == pytest.approx(3 * math.log(2), rel=1e-5)
        assert parts["rmse"] == 0.0

    def test_beta_only_with_agreeing_raters(self):
        probs = [np.zeros((1, 1, 4, 4)), np.ones((1, 1, 4, 4))]
        targets = [np.zeros((1, 1, 4, 4))] * 2
        h_gt = np.zeros((1, 1, 4, 4))
        loss, parts = total_loss(heads_from(probs), targets, h_gt,
                                 LossWeights(alpha=0.0, beta=1.0))
        assert float(loss.data) == pytest.approx(0.25, abs=1e-6)
        assert parts["rmse"] == pytest.approx(0.25, abs=1e-6)

    def test_perfect_heads_near_zero(self):
        target = (np.arange(16).reshape(1, 1, 4, 4) % 2).astype(np.float64)
        probs = [target.copy()] * 2
        loss, _ = total_loss(heads_from(probs), [target] * 2, gt_heatmap(
            np.stack([target[0, 0]] * 2))[None, None], LossWeights(alpha=1.0, beta=1.0))
        assert float(loss.data) < 1e-4

    def test_total_recomposes_from_parts(self):
        rng = np.random.default_rng(2)
        probs = [rng.uniform(0.1, 0.9, (2, 1, 4, 4)) for _ in range(3)]
        targets = [(rng.uniform(size=(2, 1, 4, 4)) < 0.5).astype(np.float64) for _ in range(3)]
        h_gt = rng.uniform(0.0, 0.25, (2, 1, 4, 4))
        w = LossWeights(alpha=0.7, beta=2.5)
        loss, parts = total_loss(heads_from(probs), targets, h_gt, w)
        # Recompute the combination with the same dtype and op order the
        # graph used: scale(bce_sum, alpha) then add scale(rmse, beta).
        f = ad.default_dtype()
        recomposed = f(f(parts["bce_sum"]) * f(w.alpha)) + f(f(parts["rmse"]) * f(w.beta))
        assert f(parts["total"]) == recomposed
        assert parts["bce_sum"] == pytest.approx(sum(parts["bce_per_head"]), rel=1e-6)

    def test_nonnegative_for_valid_weights(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            probs = [rng.uniform(0.01, 0.99, (1, 1, 3, 3)) for _ in range(2)]
            targets = [(rng.uniform(size=(1, 1, 3, 3)) < 0.5).astype(np.float64)] * 2
            h_gt = rng.uniform(0.0, 0.25, (1, 1, 3, 3))
            w = LossWeights(alpha=float(rng.uniform(0, 2)), beta=float(rng.uniform(0.1, 5)))
            loss, _ = total_loss(heads_from(probs), targets, h_gt, w)
            assert float(loss.data) >= 0.0

    def test_weight_validation(self):
        with pytest.raises(ValueError, match="both"):
            LossWeights(alpha=0.0, beta=0.0)
        with pytest.raises(ValueError, match=">= 0"):
            LossWeights(alpha=-1.0, beta=1.0)

    def test_target_count_mismatch(self):
        probs = [np.full((1, 1, 2, 2), 0.5)] * 2
        with pytest.raises(ValueError, match="targets"):
            total_loss(heads_from(probs), [probs[0]], None, LossWeights(alpha=1.0, beta=0.0))

    def test_gradient_wrt_head_logits_fd(self):
        with dtype64():
            rng = np.random.default_rng(4)
            z = [Tensor(rng.normal(size=(1, 1, 4, 4)), requires_grad=True) for _ in range(2)]
            targets = [(rng.uniform(size=(1, 1, 4, 4)) < 0.5).astype(np.float64)
                       for _ in range(2)]
            h_gt = rng.uniform(0.0, 0.25, (1, 1, 4, 4))
            w = LossWeights(alpha=1.0, beta=2.0)

            def build_loss():
                probs = [ad.sigmoid(t) for t in z]
                loss, _ = total_loss(probs, targets, h_gt, w)
                return float(loss.data)

            with Tape() as tape:
                probs = [ad.sigmoid(t) for t in z]
                loss, _ = total_loss(probs, targets, h_gt, w)
                tape.backward(loss)
            for leaf in z:
                assert rel_err(leaf.grad, fd_grad(build_loss, leaf)) < 1e-5

    def test_non_finite_loss_raises(self):
        probs = [np.full((1, 1, 2, 2), np.nan)] * 2
        targets = [np.zeros((1, 1, 2, 2))] * 2
        with pytest.raises(FloatingPointError, match="non-finite"):
            total_loss(heads_from(probs), targets, None, LossWeights(alpha=1.0, beta=0.0))


class TestRmseOnlyConvergence:
    def test_variance_tracks_target(self):
        # Frozen-trunk stand-in: two directly optimizable logit maps.
        target = np.array([[[[0.0, 0.25], [0.09, 0.16]]]])
        z1 = Tensor(np.full((1, 1, 2, 2), 0.5), requires_grad=True, name="z1")
        z2 = Tensor(np.full((1, 1, 2, 2), -0.5), requires_grad=True, name="z2")
        opt = ad.Adam({"z1": z1, "z2": z2}, lr=0.1)
        gap = None
        for _ in range(500):
            with Tape() as tape:
                hm = model_heatmap([ad.sigmoid(z1), ad.sigmoid(z2)])
                tape.backward(rmse_loss(hm, Tensor(target)))
            opt.step()
            opt.zero_grad()
            gap = np.abs(hm.data - target).max()
            if gap < 1e-2:
                break
        assert gap < 1e-2


class TestTrain:
    CONFIG = preset("desk").model_config()

    def run(self, items, seed=0, sampler=sample_labels, beta=1.0, epochs=3,
            batch_size=4, lr=1e-3):
        model = build_model(replace(preset("desk"), seed=seed).model_config())
        return train(model, items, epochs=epochs, batch_size=batch_size, lr=lr,
                     weights=LossWeights(alpha=1.0, beta=beta),
                     rng=np.random.default_rng(seed), sampler=sampler)

    def test_loss_descends(self):
        _, trace = self.run(toy_items(12), epochs=5)
        assert len(trace) == 5
        assert all(np.isfinite(e.mean_total) for e in trace)
        assert trace[-1].mean_total < trace[0].mean_total
        assert trace[0].mean_rmse > 0.0

    def test_beta_zero_skips_disagreement_term(self):
        _, trace = self.run(toy_items(8), beta=0.0, epochs=2)
        assert all(e.mean_rmse == 0.0 for e in trace)
        assert all(e.mean_total == pytest.approx(e.mean_bce, rel=1e-6) for e in trace)

    def test_majority_sampler_runs(self):
        _, trace = self.run(toy_items(8), sampler=majority_labels, beta=0.0, epochs=2)
        assert trace[-1].mean_total < trace[0].mean_total * 1.5

    def test_single_rater_rows_skip_rmse_only(self):
        # A one-rater item among valid ones is rejected before any step.
        items = toy_items(6, raters=3) + toy_items(2, raters=1, seed=9)
        model = build_model(self.CONFIG)
        before = weights_hash(model)
        for sampler in (sample_labels, majority_labels, single_rater_labels):
            with pytest.raises(ValueError, match="at least 2 rater masks, got 1"):
                train(model, items, epochs=1, batch_size=4, lr=1e-3,
                      weights=LossWeights(alpha=1.0, beta=1.0),
                      rng=np.random.default_rng(0), sampler=sampler)
        assert weights_hash(model) == before

    def test_all_single_rater_dataset(self):
        for sampler in (sample_labels, majority_labels, single_rater_labels):
            with pytest.raises(ValueError, match="at least 2 rater masks, got 1"):
                self.run(toy_items(4, raters=1), sampler=sampler, beta=0.0, epochs=1)

    def test_deterministic_given_seed(self):
        m1, _ = self.run(toy_items(6), seed=3, epochs=2)
        m2, _ = self.run(toy_items(6), seed=3, epochs=2)
        assert weights_hash(m1) == weights_hash(m2)

    def test_empty_dataset_rejected(self):
        model = build_model(self.CONFIG)
        with pytest.raises(ValueError, match="empty"):
            train(model, [], epochs=1, batch_size=2, lr=1e-3,
                  weights=LossWeights(alpha=1.0, beta=5.0), rng=np.random.default_rng(0))

    def test_nan_aborts_with_batch_index(self):
        items = toy_items(4)
        bad = TrainItem(image=np.full_like(items[0].image, np.nan), masks=items[0].masks)
        with pytest.raises(FloatingPointError, match=r"epoch 0, batch 0"):
            self.run([bad] + items[1:], epochs=1)

    def test_trace_is_epoch_stats(self):
        _, trace = self.run(toy_items(4), epochs=2, batch_size=2)
        assert all(isinstance(e, EpochStats) for e in trace)
        assert [e.epoch for e in trace] == [0, 1]

    def spy(self, monkeypatch):
        """Count gt_heatmap calls and keep the targets each step passes on."""
        seen = {"heatmaps": 0, "targets": [], "h_gt": []}

        def counting_heatmap(masks):
            seen["heatmaps"] += 1
            return gt_heatmap(masks)

        def keeping_loss(heads, head_targets, h_gt, weights):
            seen["targets"].extend(head_targets)
            seen["h_gt"].append(h_gt)
            return total_loss(heads, head_targets, h_gt, weights)

        monkeypatch.setattr(disagreement, "gt_heatmap", counting_heatmap)
        monkeypatch.setattr(disagreement, "total_loss", keeping_loss)
        return seen

    def test_heatmaps_only_for_the_rmse_term(self, monkeypatch):
        seen = self.spy(monkeypatch)
        self.run(toy_items(6), beta=0.0, epochs=2)
        assert seen["heatmaps"] == 0
        assert all(h is None for h in seen["h_gt"])
        seen = self.spy(monkeypatch)
        self.run(toy_items(6), beta=1.0, epochs=2)
        assert seen["heatmaps"] == 6  # once per image, not per epoch

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_targets_kept_in_the_tensor_dtype(self, monkeypatch, dtype):
        seen = self.spy(monkeypatch)
        ad.set_default_dtype(dtype)
        try:
            self.run(toy_items(4), beta=1.0, epochs=1)
        finally:
            ad.set_default_dtype(np.float32)
        assert {a.dtype for a in seen["targets"] + seen["h_gt"]} == {np.dtype(dtype)}


class TestTrainingStepMemory:
    """One desk multi-head step at batch 8, traced by tracemalloc.

    Measured (numpy 2.4.6): the forward pass holds 10.1 MiB, which
    backward releases down to 0.11 MiB (the heads and the loss), and the
    backward peak exceeds the forward level by 0.16 MiB.  With a tape that
    kept its records, 13.0 MiB stayed held and the excess was 3.4 MiB;
    with conv2d keeping its columns while it builds the input gradient,
    the excess was 2.33 MiB.  Both lie above the 2.25 MiB of the largest
    column matrix, the bound the second test sets.
    """

    HELD_MARGIN = 1 << 19  # 0.5 MiB

    def step(self, monkeypatch):
        model = build_model(preset("desk").model_config())  # seed 0
        items = toy_items(8)
        x = Tensor(np.stack([it.image for it in items]))
        targets = [np.stack([label_stack(it.masks)[i % 3][None] for it in items])
                   .astype(np.float32) for i in range(model.n_heads)]
        h_gt = np.stack([gt_heatmap(it.masks)[None] for it in items]).astype(np.float32)
        weights = LossWeights(alpha=1.0, beta=1.0)
        cols_bytes = []
        conv2d = ad.conv2d

        def sizing_conv2d(x, kernel, bias, stride=1, padding=0):
            out = conv2d(x, kernel, bias, stride=stride, padding=padding)
            b, _, ho, wo = out.data.shape
            cols_bytes.append(b * ho * wo * kernel.data[0].size * x.data.itemsize)
            return out

        monkeypatch.setattr(ad, "conv2d", sizing_conv2d)
        forward(model, x)
        monkeypatch.setattr(ad, "conv2d", conv2d)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                loss, _ = total_loss(forward(model, x), targets, h_gt, weights)
                forward_level = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                tape.backward(loss)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return tape, start, forward_level, held, peak, max(cols_bytes)

    def test_backward_releases_the_tape(self, monkeypatch):
        tape, start, forward_level, held, _, _ = self.step(monkeypatch)
        assert tape.records == []
        assert forward_level - start > 20 * self.HELD_MARGIN  # the pass did hold memory
        assert held - start < self.HELD_MARGIN

    def test_backward_peak_stays_below_one_column_matrix(self, monkeypatch):
        _, _, forward_level, _, peak, cols = self.step(monkeypatch)
        assert peak - forward_level < cols
