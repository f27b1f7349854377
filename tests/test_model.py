"""Architecture tests: parameter accounting, shapes, determinism, heads."""

import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from edue import autodiff as ad
from edue.autodiff import Tensor
from edue.config import PRESET_NAMES, preset
from edue.model import (
    aggregate_heads,
    build_model,
    build_single_head_model,
    forward,
    load_checkpoint,
    parameter_count,
    prob_maps,
    save_checkpoint,
)

from helpers import n_params, weights_hash

DESK = preset("desk").model_config()  # n_e=4, 1 channel in, base 8, growth 2, 32x32
BUILDERS = {"multi_head": build_model, "single_head_full": build_single_head_model}


def desk_input(batch=2, seed=0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(size=(batch, 1, 32, 32)))


class TestParameterCount:
    def test_desk_count_by_hand(self):
        # Encoder blocks (conv + norm + stride-2 conv), channels 8/16/32/64:
        #   enc0:   80 +  16 +   584 =   680
        #   enc1: 1168 +  32 +  2320 =  3520
        #   enc2: 4640 +  64 +  9248 = 13952
        #   enc3: 18496 + 128 + 36928 = 55552
        # Decoder blocks (conv over upsampled+skip, + norm):
        #   dec0: 32*(64+64)*9+32 + 64 = 36960
        #   dec1: 16*(32+32)*9+16 + 32 =  9264
        #   dec2:  8*(16+16)*9+ 8 + 16 =  2328
        # Heads (1x1 conv to one channel): 33 + 17 + 9 = 59
        expected = 680 + 3520 + 13952 + 55552 + 36960 + 9264 + 2328 + 59
        assert expected == 122315
        assert parameter_count(DESK, "multi_head") == 122315
        assert n_params(build_model(DESK)) == 122315

    def test_single_head_member_is_larger(self):
        # The ensemble member extends the decoder to full resolution: one
        # extra block 8*(8+8)*9+8 + 16 = 1176, heads shrink from 59 to 9.
        expected = 122315 - 59 + 1176 + 9
        assert parameter_count(DESK, kind="single_head_full") == expected
        member = build_single_head_model(DESK)
        assert n_params(member) == expected
        assert n_params(build_model(DESK)) < n_params(member)

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_count_matches_built_model_at_full_scale(self, name, kind):
        cfg = preset(name).model_config()
        model = BUILDERS[kind](cfg)
        assert n_params(model) == parameter_count(cfg, kind)
        assert model.n_heads == (cfg.n_e - 1 if kind == "multi_head" else 1)


class TestPinnedInit:
    # (weights_hash, sha256 of the saved weights.edt) for the desk model config
    # at seed 0, recorded with numpy 2.4.6 before init, forward and the
    # parameter count were derived from one layer spec.  Any change to the
    # parameter names, their order or the draw order moves these values.
    PINNED = {
        "multi_head": (2905942182, "7798bce48ca11f0338a5632135adee4c"
                                   "8a4805694970c40ce28e039b322793e0"),
        "single_head_full": (4186188105, "4a095bae52f5da16195fac9ea467eb42"
                                         "1fe21be77ceaa370b407871c51032c6c"),
    }

    @pytest.mark.parametrize("kind", sorted(PINNED))
    def test_initial_weights_match_pinned_values(self, tmp_path, kind):
        model = BUILDERS[kind](DESK)
        save_checkpoint(tmp_path, model)
        digest = hashlib.sha256((tmp_path / "weights.edt").read_bytes()).hexdigest()
        assert (weights_hash(model), digest) == self.PINNED[kind]


class TestDeterminism:
    def test_same_seed_same_weights(self):
        a, b = build_model(DESK), build_model(DESK)
        assert set(a.params) == set(b.params)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name].data, b.params[name].data)
        assert weights_hash(a) == weights_hash(b)

    def test_different_seed_different_weights(self):
        a = build_model(DESK)
        b = build_model(replace(DESK, seed=1))
        assert weights_hash(a) != weights_hash(b)

    def test_forward_is_deterministic(self):
        x = desk_input()
        pa = forward(build_model(DESK), x)
        pb = forward(build_model(DESK), x)
        for ta, tb in zip(pa, pb):
            np.testing.assert_array_equal(ta.data, tb.data)


class TestForward:
    def test_head_shapes_and_range(self):
        model = build_model(DESK)
        outs = forward(model, desk_input(batch=3))
        assert isinstance(outs, list)
        assert len(outs) == 3
        for pr in outs:
            assert pr.data.shape == (3, 1, 32, 32)
            assert np.all(pr.data > 0.0) and np.all(pr.data < 1.0)

    def test_deepest_head_is_blockwise_constant(self):
        # head0 is computed at 4x4 and nearest-upsampled by 8, so its map
        # must be constant on aligned 8x8 blocks; head2 on 2x2 blocks.
        outs = forward(build_model(DESK), desk_input())
        for head, block in ((0, 8), (2, 2)):
            p = outs[head].data
            blocks = p.reshape(2, 1, 32 // block, block, 32 // block, block)
            anchor = np.broadcast_to(blocks[:, :, :, :1, :, :1], blocks.shape)
            np.testing.assert_array_equal(blocks, anchor)

    def test_heads_disagree_with_random_weights(self):
        outs = forward(build_model(DESK), desk_input())
        assert np.abs(outs[0].data - outs[1].data).max() > 1e-4

    def test_zero_weights_give_half_everywhere(self):
        model = build_model(DESK)
        for p in model.params.values():
            p.data[...] = 0.0
        outs = forward(model, desk_input())
        for pr in outs:
            np.testing.assert_allclose(pr.data, 0.5, rtol=0, atol=1e-7)

    def test_shape_invariant_under_width_doubling(self):
        wide = build_model(replace(DESK, base_channels=16))
        # conv kernels quadruple; biases and norms only double
        assert n_params(wide) > 3.9 * n_params(build_model(DESK))
        outs = forward(wide, desk_input())
        assert [p.data.shape for p in outs] == [(2, 1, 32, 32)] * 3

    def test_rejects_wrong_input_shape(self):
        model = build_model(DESK)
        with pytest.raises(ad.ShapeError):
            forward(model, Tensor(np.zeros((1, 3, 32, 32))))
        with pytest.raises(ad.ShapeError):
            forward(model, Tensor(np.zeros((1, 1, 16, 16))))

    def test_single_head_full_resolution(self):
        member = build_single_head_model(DESK)
        outs = forward(member, desk_input())
        assert len(outs) == 1
        assert outs[0].data.shape == (2, 1, 32, 32)
        # Full decoder ends at input resolution: adjacent pixels may differ.
        p = outs[0].data
        assert np.abs(p[..., ::2, :] - p[..., 1::2, :]).max() > 1e-6

    def test_pass_counters(self):
        model = build_model(DESK)
        forward(model, desk_input())
        assert model.trunk_passes == 2
        aggregate_heads(prob_maps([model], desk_input(batch=1).data, batch_size=1)[0])
        assert model.trunk_passes == 3

    def test_full_scale_forward_shapes(self):
        cfg = preset("riga-like").model_config()
        model = build_model(cfg)
        assert n_params(model) == parameter_count(cfg, "multi_head")
        assert model.n_heads == 5
        rng = np.random.default_rng(0)
        outs = forward(model, Tensor(rng.normal(size=(1, 3, 256, 256))))
        assert len(outs) == 5
        assert all(p.data.shape == (1, 1, 256, 256) for p in outs)


def per_chunk_forward_maps(models, images, head_skip, batch_size):
    """prob_maps written out: each chunk's forward passes, maps stacked."""
    chunks = []
    for start in range(0, len(images), batch_size):
        x = Tensor(images[start:start + batch_size])
        chunks.append(np.stack([p.data[:, 0] for m in models
                                for p in forward(m, x)[head_skip:]], axis=1))
    return np.concatenate(chunks)


class TestPrediction:
    CASES = {
        "multi_chunk": ("multi_head", 1, 8, 4, 1),
        "uneven_last_chunk": ("multi_head", 1, 7, 3, 0),
        "one_chunk": ("multi_head", 1, 3, 3, 0),
        "members_uneven": ("single_head_full", 3, 5, 2, 0),
        "members_one_each": ("single_head_full", 2, 3, 1, 0),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_maps_bit_equal_to_per_chunk_forward(self, case):
        kind, n_models, n, batch_size, head_skip = self.CASES[case]
        models = [BUILDERS[kind](replace(DESK, seed=s)) for s in range(n_models)]
        images = np.random.default_rng(3).normal(size=(n, 1, 32, 32))
        expected = per_chunk_forward_maps(models, images, head_skip, batch_size)
        got = prob_maps(models, images, head_skip=head_skip, batch_size=batch_size)
        assert got.dtype == expected.dtype and np.array_equal(got, expected)

    def test_maps_own_their_memory(self):
        """Every head map forward returns, and the maps prob_maps returns,
        own their memory: no map is a view of a conv's scratch arrays."""
        model = build_model(DESK)
        for p in forward(model, desk_input(batch=3)):
            assert p.data.flags.owndata and p.data.flags.c_contiguous
        maps = prob_maps([model], desk_input(batch=3).data, batch_size=2)
        assert maps.flags.owndata and maps.flags.c_contiguous

    def test_no_maps_is_refused(self):
        with pytest.raises(ValueError, match="no maps"):
            prob_maps([build_model(DESK)], desk_input(batch=2).data, head_skip=3, batch_size=2)

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    def test_maps_agree_with_forward_under_a_tape(self, kind, dtype, tol):
        """A tape sends every conv through im2col; without one the decoder
        convs and heads sum shifted planes instead.  The maps of the two
        paths agree to tol absolute."""
        ad.set_default_dtype(dtype)
        try:
            model = BUILDERS[kind](DESK)
            images = np.random.default_rng(4).normal(size=(4, 1, 32, 32))
            got = prob_maps([model], images, batch_size=4)
            with ad.Tape():
                taped = forward(model, Tensor(images))
        finally:
            ad.set_default_dtype(np.float32)
        expected = np.stack([p.data[:, 0] for p in taped], axis=1)
        assert got.dtype == expected.dtype == dtype
        np.testing.assert_allclose(got, expected, rtol=0, atol=tol)

    def test_one_member_predicts_in_bounded_memory(self):
        """prob_maps on one desk member at batch 8 peaks below 6 MiB: its
        decoder builds no column matrix (with one, it took 8.6 MiB)."""
        member = build_single_head_model(DESK)
        images = desk_input(batch=8).data
        prob_maps([member], images, batch_size=8)  # numpy's one-time allocations
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            prob_maps([member], images, batch_size=8)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20, f"prediction peaked at {peak / 2**20:.2f} MiB"


class TestAggregation:
    def test_variance_oracle(self):
        rng = np.random.default_rng(7)
        maps = [rng.uniform(size=(2, 1, 4, 4)) for _ in range(3)]
        final, heatmap = aggregate_heads(maps)
        mean = np.zeros((2, 1, 4, 4))
        var = np.zeros((2, 1, 4, 4))
        for b in range(2):
            for i in range(4):
                for j in range(4):
                    vals = [m[b, 0, i, j] for m in maps]
                    mu = sum(vals) / 3
                    mean[b, 0, i, j] = mu
                    var[b, 0, i, j] = sum((v - mu) ** 2 for v in vals) / 3
        np.testing.assert_allclose(final, mean, atol=1e-12)
        np.testing.assert_allclose(heatmap, var, atol=1e-12)

    def test_identical_heads_have_zero_variance(self):
        m = np.full((1, 1, 4, 4), 0.3)
        _, heatmap = aggregate_heads([m, m.copy(), m.copy()])
        np.testing.assert_array_equal(heatmap, 0.0)

    def test_two_fixed_heads(self):
        # Heads at 0.2 and 0.8 everywhere: mean 0.5, variance 0.09 per
        # pixel, so a 4x4 single-channel image sums to 1.44.
        a = np.full((1, 1, 4, 4), 0.2)
        b = np.full((1, 1, 4, 4), 0.8)
        final, heatmap = aggregate_heads([a, b])
        np.testing.assert_allclose(final, 0.5, atol=1e-7)
        np.testing.assert_allclose(heatmap, 0.09, atol=1e-7)
        assert heatmap.sum() == pytest.approx(1.44, abs=1e-5)

    def test_predict_head_skip(self):
        model = build_model(DESK)
        x = desk_input(batch=1)
        full, _ = aggregate_heads(prob_maps([model], x.data, batch_size=1)[0])
        skipped, _ = aggregate_heads(prob_maps([model], x.data, head_skip=1, batch_size=1)[0])
        outs = forward(model, x)
        np.testing.assert_allclose(
            skipped,
            np.stack([outs[1].data, outs[2].data]).mean(axis=0)[0, 0],
            atol=1e-7,
        )
        assert not np.allclose(full, skipped)
        with pytest.raises(ValueError, match="head"):
            aggregate_heads(prob_maps([model], x.data, head_skip=2, batch_size=1)[0])


class TestConfigValidation:
    @pytest.mark.parametrize("n_e", [2, 3, 5])
    def test_head_count_is_n_e_minus_one(self, n_e):
        model = build_model(replace(DESK, n_e=n_e))
        assert model.n_heads == n_e - 1
        assert len(forward(model, desk_input(batch=1))) == n_e - 1

    def test_indivisible_input(self):
        with pytest.raises(ValueError, match="divisible"):
            build_model(replace(DESK, input_size=(36, 36)))

    def test_too_shallow(self):
        with pytest.raises(ValueError, match="n_e"):
            build_model(replace(DESK, n_e=1))


class TestCheckpoint:
    def test_roundtrip_preserves_predictions(self, tmp_path):
        model = build_model(replace(DESK, seed=3))
        images = desk_input(batch=1).data
        before = aggregate_heads(prob_maps([model], images, batch_size=1)[0])
        save_checkpoint(tmp_path / "ckpt", model)
        assert [p.name for p in (tmp_path / "ckpt").iterdir()] == ["weights.edt"]
        loaded = load_checkpoint(tmp_path / "ckpt", model.config, "multi_head", "meta")
        assert loaded.kind == "multi_head"
        assert loaded.config == model.config
        for name in model.params:
            np.testing.assert_array_equal(loaded.params[name].data, model.params[name].data)
        after = aggregate_heads(prob_maps([loaded], images, batch_size=1)[0])
        np.testing.assert_array_equal(before[0], after[0])
        np.testing.assert_array_equal(before[1], after[1])

    def test_roundtrip_single_head(self, tmp_path):
        member = build_single_head_model(DESK)
        save_checkpoint(tmp_path / "m", member)
        loaded = load_checkpoint(tmp_path / "m", DESK, "single_head_full", "meta")
        assert loaded.kind == "single_head_full"
        assert n_params(loaded) == n_params(member)

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_load_draws_no_init(self, tmp_path, monkeypatch, kind):
        model = BUILDERS[kind](replace(DESK, seed=5))
        save_checkpoint(tmp_path / "c", model)

        def no_init(*args, **kwargs):
            raise AssertionError("load_checkpoint drew an init")
        monkeypatch.setattr("edue.model._init_params", no_init)
        loaded = load_checkpoint(tmp_path / "c", model.config, kind, "meta")
        for name, p in model.params.items():
            np.testing.assert_array_equal(loaded.params[name].data, p.data)

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_loaded_params_match_a_built_model(self, tmp_path, kind):
        model = BUILDERS[kind](DESK)
        save_checkpoint(tmp_path / "c", model)
        loaded = load_checkpoint(tmp_path / "c", DESK, kind, "meta")
        # Adam and save_checkpoint iterate params in this order
        assert list(loaded.params) == list(model.params)
        for name, p in model.params.items():
            q = loaded.params[name]
            assert q.name == name and q.requires_grad
            assert q.data.dtype == p.data.dtype == ad.default_dtype()
            assert q.grad.dtype == p.grad.dtype and q.grad.shape == p.grad.shape
            assert not q.grad.any()
        assert loaded.trunk_passes == 0

    def test_mismatched_weights_rejected(self, tmp_path):
        model = build_model(DESK)
        save_checkpoint(tmp_path / "c", model)
        with pytest.raises(ValueError, match="(entries|shape)"):
            load_checkpoint(tmp_path / "c", replace(DESK, base_channels=16), "multi_head",
                            "meta")
