"""Generator distribution checks, distortion bank, and agreement scores."""

import re
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from edue import raters
from edue.config import preset
from edue.disagreement import gt_heatmap
from edue.raters import (
    DISTORTION_KINDS,
    DegenerateSceneError,
    RaterSample,
    binary_dice,
    distort,
    generate_dataset,
    generate_sample,
)

from helpers import rater_agreement

DESK = preset("desk").scene_params()


def fixed_delta(delta, **kwargs):
    """Desk scene params with every sample drawn at one disagreement level."""
    return replace(DESK, delta_low=delta, delta_high=delta, **kwargs)


def boundary_distance_map(true_mask):
    """Distance of every pixel to the mask's inner boundary ring."""
    inner = ndimage.binary_erosion(true_mask.astype(bool))
    boundary = true_mask.astype(bool) & ~inner
    return ndimage.distance_transform_edt(~boundary)


class TestGenerateSample:
    def test_zero_delta_all_raters_identical(self):
        params = fixed_delta(0.0, texture_noise=0.0)
        sample = generate_sample(params, np.random.default_rng(0))
        for j in range(params.n_raters):
            np.testing.assert_array_equal(sample.masks[0, j], sample.true_mask[0])
        np.testing.assert_array_equal(gt_heatmap(sample.masks[0]), 0.0)

    def test_deterministic_given_seed(self):
        params = DESK
        a = generate_sample(params, np.random.default_rng(42))
        b = generate_sample(params, np.random.default_rng(42))
        np.testing.assert_array_equal(a.image, b.image)
        np.testing.assert_array_equal(a.masks, b.masks)
        assert a.delta_used == b.delta_used

    def test_shapes_and_ranges(self):
        sample = generate_sample(DESK, np.random.default_rng(1))
        assert sample.image.shape == (1, 32, 32)
        assert sample.image.min() >= 0.0 and sample.image.max() <= 1.0
        assert sample.masks.shape == (1, 4, 32, 32)
        assert set(np.unique(sample.masks)) <= {0.0, 1.0}
        assert sample.masks.dtype == np.float64
        assert sample.delta_used in (0.5, 3.0)

    def test_three_channel_images(self):
        sample = generate_sample(replace(DESK, in_channels=3), np.random.default_rng(2))
        assert sample.image.shape == (3, 32, 32)

    def test_masks_are_single_components(self):
        params = fixed_delta(2.0)
        rng = np.random.default_rng(3)
        for _ in range(20):
            sample = generate_sample(params, rng)
            for j in range(params.n_raters):
                _, n = ndimage.label(sample.masks[0, j],
                                     structure=[[0, 1, 0], [1, 1, 1], [0, 1, 0]])
                assert n == 1

    def test_dice_decreases_with_delta(self):
        means = []
        for delta in (0.5, 1.0, 2.0, 4.0):
            rng = np.random.default_rng(17)
            params = fixed_delta(delta)
            scores = [rater_agreement(generate_sample(params, rng).masks[0])
                      ["mean_pairwise_dice"] for _ in range(200)]
            means.append(np.mean(scores))
        assert 0.5 < means[2] < 1.0  # delta = 2
        assert all(means[i] > means[i + 1] for i in range(3))

    def test_disagreement_stays_near_boundary(self):
        # Rater deviations from the latent mask should concentrate within
        # a 4*delta + 2 band of the latent boundary.
        delta = 2.0
        params = fixed_delta(delta)
        rng = np.random.default_rng(5)
        inside = total = 0
        band_mass = full_mass = 0.0
        for _ in range(20):
            sample = generate_sample(params, rng)
            dist = boundary_distance_map(sample.true_mask[0])
            band = dist <= 4 * delta + 2
            diff = sample.masks[0].astype(bool) ^ sample.true_mask[0].astype(bool)
            inside += int((diff & band[None]).sum())
            total += int(diff.sum())
            heat = gt_heatmap(sample.masks[0])
            band_mass += heat[band].sum()
            full_mass += heat.sum()
        assert total > 0
        assert inside / total > 0.95
        assert band_mass / full_mass > 0.9

    def test_degenerate_blob_aborts(self, monkeypatch):
        monkeypatch.setattr(raters, "MIN_BLOB_AREA", 10 ** 6)
        with pytest.raises(DegenerateSceneError, match="degenerate"):
            generate_sample(DESK, np.random.default_rng(0))

    def test_nested_structures(self):
        params = replace(DESK, structure="nested")
        sample = generate_sample(params, np.random.default_rng(7))
        assert sample.structure_names == ("disc", "cup")
        assert sample.masks.shape == (2, 4, 32, 32)
        for j in range(4):
            cup, disc = sample.masks[1, j], sample.masks[0, j]
            assert np.all(disc[cup == 1.0] == 1.0)
            assert cup.sum() < disc.sum()

    def test_validation_errors(self):
        bad = [
            (dict(n_raters=1), "'n_raters' must be in [2, 16], got 1"),
            (dict(n_raters=17), "'n_raters' must be in [2, 16], got 17"),
            (dict(delta_low=3.0, delta_high=1.0),
             "need 0 <= 'delta_low' <= 'delta_high', got 3.0 and 1.0"),
            (dict(delta_high=8.0),
             "'delta_high' 8.0 must be under a quarter of 'input_size' (32, 32)"),
            (dict(ambiguity_mix=1.5), "'ambiguity_mix' must be in [0, 1], got 1.5"),
            (dict(texture_noise=-0.5), "'texture_noise' must be >= 0, got -0.5"),
            (dict(structure="donut"),
             "'structure' must be 'single_blob' or 'nested', got 'donut'"),
            (dict(input_size=(8, 8)), "'input_size' must be at least 16x16, got (8, 8)"),
            (dict(in_channels=0), "'in_channels' must be >= 1, got 0"),
        ]
        for changes, message in bad:  # refused before any scene is drawn
            with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
                replace(DESK, **changes)


def flood_reference(mask, seed):
    """The ring-by-ring flood fill that scene generation used to run."""
    comp = np.zeros_like(mask)
    comp[seed] = True
    frontier = comp.copy()
    while frontier.any():
        grown = np.zeros_like(mask)
        grown[:-1] |= frontier[1:]
        grown[1:] |= frontier[:-1]
        grown[:, :-1] |= frontier[:, 1:]
        grown[:, 1:] |= frontier[:, :-1]
        frontier = grown & mask & ~comp
        comp |= frontier
    return comp


def largest_component_reference(mask):
    """Flood from the first remaining pixel in raster order; keep a
    component only when it is strictly larger than the best so far."""
    remaining = mask.copy()
    best = np.zeros_like(mask)
    best_area = 0
    while remaining.sum() > best_area:
        seed = np.unravel_index(int(np.argmax(remaining)), remaining.shape)
        comp = flood_reference(remaining, seed)
        area = int(comp.sum())
        if area > best_area:
            best, best_area = comp, area
        remaining &= ~comp
    return best


def largest_component_scipy(mask):
    """4-connected labelling; labels run in raster order of first pixel, so
    argmax's first maximum takes the first label on an area tie."""
    labels, n = ndimage.label(mask, structure=[[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    if n == 0:
        return np.zeros_like(mask)
    return labels == 1 + int(np.argmax(np.bincount(labels.ravel())[1:]))


def mask_from(rows):
    return np.array([[c == "#" for c in row] for row in rows])


class TestLargestComponent:
    def check(self, mask):
        before = mask.copy()
        out = raters._largest_component(mask)
        np.testing.assert_array_equal(mask, before)
        assert out.dtype == bool and out.shape == mask.shape
        np.testing.assert_array_equal(out, largest_component_reference(mask))
        np.testing.assert_array_equal(out, largest_component_scipy(mask))
        return out

    @settings(max_examples=300, deadline=None)
    @given(arrays(np.bool_, st.tuples(st.integers(1, 24), st.integers(1, 24))))
    def test_matches_flood_fill_and_scipy(self, mask):
        self.check(mask)

    def test_u_shape_arms_join_only_below(self):
        mask = mask_from(["#...#.##",
                          "#...#.##",
                          "#...#.##",
                          "#####...",
                          "........"])
        out = self.check(mask)
        assert out.sum() == 11 and out[0, 0] and out[0, 4] and not out[0, 6]

    def test_spiral(self):
        # One arm winding inward to (4, 4), next to a 3 x 4 block; the arms
        # meet in raster order as separate runs and join only through the
        # outer ring.
        mask = mask_from(["#########....",
                          "........#.###",
                          "#######.#.###",
                          "#.....#.#.###",
                          "#.###.#.#.###",
                          "#.#...#.#....",
                          "#.#####.#....",
                          "#.......#....",
                          "#########...."])
        out = self.check(mask)
        assert out.sum() == mask.sum() - 12 and out[4, 4] and not out[1, 10]

    def test_diagonal_touch_stays_separate(self):
        mask = mask_from(["##...",
                          "##...",
                          "..###",
                          "..###",
                          "..###"])
        out = self.check(mask)
        assert out.sum() == 9 and not out[0, 0]

    def test_equal_areas_go_to_the_earlier_first_pixel(self):
        mask = mask_from(["....##",
                          "#...##",
                          "#.....",
                          "#.....",
                          "#....."])
        out = self.check(mask)
        assert out.sum() == 4 and out[0, 4] and not out[1, 0]
        # The first to start wins even when it is the last to end.
        out = self.check(mask_from(["#.....",
                                    "#..##.",
                                    "#..##.",
                                    "#....."]))
        assert out.sum() == 4 and out[3, 0] and not out[1, 3]

    @pytest.mark.parametrize("shape", [(1, 1), (5, 7), (1, 9), (9, 1)])
    def test_all_false_and_all_true(self, shape):
        assert not self.check(np.zeros(shape, dtype=bool)).any()
        assert self.check(np.ones(shape, dtype=bool)).all()

    def test_single_row_and_column(self):
        row = np.array([[True, True, False, True, True, True, False, True]])
        assert self.check(row).sum() == 3
        self.check(row.T.copy())


def band_limited_field_reference(rng, shape, cell=8):
    """The four np.ix_ gathers that scene generation used to run."""
    h, w = shape
    coarse = rng.normal(size=(h // cell + 2, w // cell + 2))
    ys = np.arange(h) / cell
    xs = np.arange(w) / cell
    y0 = ys.astype(int)
    x0 = xs.astype(int)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    field = (coarse[np.ix_(y0, x0)] * (1 - fy) * (1 - fx)
             + coarse[np.ix_(y0 + 1, x0)] * fy * (1 - fx)
             + coarse[np.ix_(y0, x0 + 1)] * (1 - fy) * fx
             + coarse[np.ix_(y0 + 1, x0 + 1)] * fy * fx)
    return field / max(field.std(), 1e-9)


def wobbled_distance_reference(rng, shape, center, radius):
    """The full np.mgrid coordinate planes that scene generation used to build."""
    h, w = shape
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    cy, cx = center
    rho = np.hypot(yy - cy, xx - cx)
    theta = np.arctan2(yy - cy, xx - cx)
    factor = np.ones_like(rho)
    for k in (2, 3, 4):
        amp = rng.normal(0.0, 0.05)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        factor += amp * np.cos(k * theta + phase)
    return rho - radius * np.clip(factor, 0.7, 1.3)


EXACT_SHAPES = [(16, 16), (17, 23), (40, 24), (32, 32), (128, 128), (256, 256)]


def assert_same_bits(new, old):
    assert new.dtype == old.dtype == np.float64 and new.shape == old.shape
    np.testing.assert_array_equal(new.view(np.uint64), old.view(np.uint64))


class TestSameBitsAsReference:
    """Scene generation must draw the same datasets as the old formulas."""

    @pytest.mark.parametrize("shape", EXACT_SHAPES)
    def test_band_limited_field(self, shape):
        for seed in range(100):
            new = raters._band_limited_field(np.random.default_rng(seed), shape)
            old = band_limited_field_reference(np.random.default_rng(seed), shape)
            assert_same_bits(new, old)

    @pytest.mark.parametrize("cell", [3, 5])
    @pytest.mark.parametrize("shape", [(17, 23), (40, 24)])
    def test_band_limited_field_other_cells(self, shape, cell):
        for seed in range(20):
            new = raters._band_limited_field(np.random.default_rng(seed), shape, cell)
            old = band_limited_field_reference(np.random.default_rng(seed), shape, cell)
            assert_same_bits(new, old)

    @pytest.mark.parametrize("shape", EXACT_SHAPES)
    def test_wobbled_distance(self, shape):
        h, w = shape
        coords = (np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64))
        for seed in range(100):
            draw = np.random.default_rng(10_000 + seed)
            center = (draw.uniform(0.35 * h, 0.65 * h), draw.uniform(0.35 * w, 0.65 * w))
            radius = draw.uniform(0.18, 0.28) * min(h, w)
            new = raters._wobbled_distance(np.random.default_rng(seed), coords,
                                           center, radius)
            old = wobbled_distance_reference(np.random.default_rng(seed), shape,
                                             center, radius)
            assert_same_bits(new, old)


class TestGenerateDataset:
    def test_mix_is_binomial(self):
        params = replace(DESK, delta_low=0.5, delta_high=3.0, ambiguity_mix=0.5)
        samples = generate_dataset(params, 100, np.random.default_rng(11))
        assert len(samples) == 100
        deltas = [s.delta_used for s in samples]
        assert set(deltas) == {0.5, 3.0}
        assert 35 <= deltas.count(3.0) <= 65  # 3 sigma around 50
        assert all(s.masks.shape[1] == 4 for s in samples)

    def test_disagreement_varies_across_images(self):
        params = replace(DESK, delta_low=0.5, delta_high=3.0, ambiguity_mix=0.5)
        samples = generate_dataset(params, 30, np.random.default_rng(2))
        sv = [gt_heatmap(s.masks[0]).sum() for s in samples]
        assert np.var(sv) > 0.0

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="n_images"):
            generate_dataset(DESK, 0, np.random.default_rng(0))

    def test_generation_speed(self):
        params = DESK
        rng = np.random.default_rng(0)
        start = time.perf_counter()
        generate_dataset(params, 1000, rng)
        assert time.perf_counter() - start < 10.0


class TestDistort:
    def image(self, channels=1):
        rng = np.random.default_rng(0)
        return np.clip(rng.uniform(0.2, 0.8, (channels, 16, 16)), 0.0, 1.0)

    def test_level_zero_is_identity_for_all_kinds(self):
        img = self.image(3)
        for kind in DISTORTION_KINDS:
            out = distort(img, kind, 0.0, np.random.default_rng(1))
            np.testing.assert_array_equal(out, img)

    def test_gauss_noise_preclip_std(self):
        # mid-grey leaves the noise unclipped at 0.5 +- 0.1 for all but ~1e-6
        # of pixels, so its spread is the noise's
        noisy = distort(np.full((1, 200, 200), 0.5), "gauss_noise", 0.1,
                        np.random.default_rng(3))
        assert abs(noisy.std() - 0.1) < 0.01
        out = distort(np.full((1, 8, 8), 0.5), "gauss_noise", 0.5, np.random.default_rng(3))
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_blur_impulse_spreads_uniformly(self):
        img = np.zeros((1, 9, 9))
        img[0, 4, 4] = 1.0
        out = distort(img, "blur", 1.0, np.random.default_rng(0))
        np.testing.assert_allclose(out[0, 3:6, 3:6], 1.0 / 9.0, atol=1e-12)
        assert out[0].sum() == pytest.approx(1.0, abs=1e-12)

    def test_intensity_shift_saturates(self):
        out = distort(np.full((1, 4, 4), 0.9), "intensity_shift", 0.3,
                      np.random.default_rng(0))
        np.testing.assert_array_equal(out, 1.0)

    def test_channel_shift_rotates_rgb(self):
        img = np.stack([np.full((4, 4), v) for v in (0.2, 0.5, 0.8)])
        out = distort(img, "channel_shift", 1.0, np.random.default_rng(0))
        np.testing.assert_allclose(out[0], 0.5, atol=1e-12)
        np.testing.assert_allclose(out[1], 0.8, atol=1e-12)
        np.testing.assert_allclose(out[2], 0.2, atol=1e-12)

    def test_channel_shift_single_channel_gain(self):
        out = distort(np.full((1, 4, 4), 0.4), "channel_shift", 0.5,
                      np.random.default_rng(0))
        np.testing.assert_allclose(out, 0.6, atol=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown distortion"):
            distort(self.image(), "sepia", 1.0, np.random.default_rng(0))

    def test_negative_level(self):
        with pytest.raises(ValueError, match="level"):
            distort(self.image(), "blur", -1.0, np.random.default_rng(0))


class TestRaterAgreement:
    def test_identical_masks(self):
        m = np.zeros((3, 6, 6))
        m[:, 2:4, 2:4] = 1.0
        report = rater_agreement(m)
        assert report["mean_pairwise_dice"] == 1.0
        np.testing.assert_array_equal(report["per_pair"], 1.0)

    def test_disjoint_masks(self):
        a = np.zeros((6, 6))
        b = np.zeros((6, 6))
        a[:2, :2] = 1.0
        b[4:, 4:] = 1.0
        assert rater_agreement(np.stack([a, b]))["mean_pairwise_dice"] == 0.0

    def test_nested_half_mask(self):
        big = np.zeros((4, 4))
        big[:2] = 1.0  # 8 pixels
        small = np.zeros((4, 4))
        small[0] = 1.0  # 4 pixels, contained
        assert binary_dice(small, big) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_empty_pair_counts_as_agreement(self):
        assert binary_dice(np.zeros((4, 4)), np.zeros((4, 4))) == 1.0

    def test_pair_matrix_is_symmetric(self):
        rng = np.random.default_rng(0)
        m = (rng.uniform(size=(4, 8, 8)) < 0.4).astype(float)
        per_pair = rater_agreement(m)["per_pair"]
        np.testing.assert_array_equal(per_pair, per_pair.T)
        np.testing.assert_array_equal(np.diag(per_pair), 1.0)

    def test_single_mask_rejected(self):
        with pytest.raises(ValueError, match=">= 2"):
            rater_agreement(np.zeros((1, 4, 4)))
