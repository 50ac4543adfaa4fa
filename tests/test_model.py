"""Masked-autoencoder model: masking plans, positional embeddings, forward
shapes, preset scaling and the masked reconstruction loss contract."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fgmae import model as M
from fgmae import features as F
from fgmae import tensor as T
from fgmae.tensor import Tensor
from fgmae.rng import Rng

from oracles import trunc_normal_reference


TINY = M.ModelConfig(image_size=32, patch_size=8, in_channels=2,
                     enc_width=64, enc_depth=2, enc_heads=4,
                     dec_width=32, dec_depth=1, dec_heads=4,
                     mask_ratio=0.7)
HOG = {"hog": 128}


def _model(cfg=TINY, seed=0, heads=HOG):
    return M.FgMae(cfg, heads, Rng(seed).child("init").at(0))


def _loss(pred, target, plan):
    """The masked loss of a lone head."""
    return M.masked_l2_loss({"x": pred}, {"x": target}, plan)


class TestMasking:
    def test_keep_count_floor_rule(self):
        cases = [(196, 0.7, 58), (196, 0.75, 49), (16, 0.7, 4),
                 (64, 0.5, 32), (100, 0.8, 19), (7, 0.5, 3),
                 (9, 0.33, 6), (10, 0.15, 8), (12, 0.99, 0),
                 (50, 0.7, 15), (25, 0.6, 10), (49, 0.75, 12),
                 (1, 0.0, 1), (144, 0.7, 43), (256, 0.7, 76),
                 (196, 0.0, 196), (36, 0.7, 10), (81, 0.8, 16),
                 (121, 0.7, 36), (169, 0.7, 50)]
        for n, ratio, expect in cases:
            assert M.keep_count(n, ratio) == expect, (n, ratio)

    def test_plan_partitions_indices(self):
        gen = np.random.default_rng(0)
        plan = M.random_masking_plan(4, 16, 0.7, gen)
        for b in range(4):
            ids = np.concatenate([plan.ids_keep[b], plan.ids_mask[b]])
            assert sorted(ids) == list(range(16))

    def test_restore_inverts_shuffle(self):
        gen = np.random.default_rng(1)
        plan = M.random_masking_plan(2, 16, 0.5, gen)
        shuffled = np.concatenate([plan.ids_keep, plan.ids_mask], axis=1)
        restored = np.take_along_axis(shuffled, plan.ids_restore, axis=1)
        assert (restored == np.arange(16)).all()

    def test_all_masked_rejected(self):
        gen = np.random.default_rng(2)
        with pytest.raises(ValueError):
            M.random_masking_plan(1, 16, 1.0, gen)

    @settings(max_examples=80, deadline=None)
    @given(batch=st.integers(1, 6), n=st.integers(1, 64),
           ratio=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_plan_invariants(self, batch, n, ratio, seed):
        n_keep = math.floor(n * (1.0 - ratio))
        if n_keep < 1:
            with pytest.raises(ValueError, match="no visible patches"):
                M.random_masking_plan(batch, n, ratio, np.random.default_rng(seed))
            return
        plan = M.random_masking_plan(batch, n, ratio, np.random.default_rng(seed))
        assert plan.n_keep == n_keep == M.keep_count(n, ratio)
        assert plan.ids_keep.shape == (batch, n_keep)
        assert plan.ids_mask.shape == (batch, n - n_keep)
        shuffled = np.concatenate([plan.ids_keep, plan.ids_mask], axis=1)
        # keep and mask split each row's permutation between them
        assert (np.sort(shuffled, axis=1) == np.arange(n)).all()
        # ids_restore inverts the shuffle, both ways round
        assert (np.take_along_axis(shuffled, plan.ids_restore, axis=1)
                == np.arange(n)).all()
        assert (np.take_along_axis(plan.ids_restore, shuffled, axis=1)
                == np.arange(n)).all()
        # the same generator state gives the same plan
        again = M.random_masking_plan(batch, n, ratio, np.random.default_rng(seed))
        for name in ("ids_keep", "ids_mask", "ids_restore"):
            assert np.array_equal(getattr(plan, name), getattr(again, name))

    def test_identity_plan(self):
        plan = M.identity_plan(3, 9)
        assert plan.n_keep == 9 and plan.n_mask == 0


class TestPosEmbed:
    def test_shape_and_determinism(self):
        e = M.sincos_pos_embed(64, 4)
        assert e.shape == (16, 64)
        np.testing.assert_array_equal(e, M.sincos_pos_embed(64, 4))

    def test_row_half_constant_along_columns(self):
        # first half encodes the row coordinate: identical across a row
        e = M.sincos_pos_embed(64, 4).reshape(4, 4, 64)
        np.testing.assert_allclose(e[2, 0, :32], e[2, 3, :32], atol=1e-12)
        np.testing.assert_allclose(e[0, 1, 32:], e[3, 1, 32:], atol=1e-12)

    def test_distinct_positions_distinct_embeddings(self):
        e = M.sincos_pos_embed(64, 4)
        assert len({tuple(np.round(r, 9)) for r in e}) == 16

    def test_models_share_one_read_only_float32_table(self):
        a, b = _model(), _model()
        assert a.enc_pos is b.enc_pos and a.dec_pos is b.dec_pos
        for table, width in ((a.enc_pos, TINY.enc_width),
                             (a.dec_pos, TINY.dec_width)):
            assert not table.flags.writeable
            assert table.tobytes() == M.sincos_pos_embed(
                width, TINY.grid).astype(np.float32).tobytes()

    def test_width_must_divide_by_four(self):
        with pytest.raises(ValueError):
            M.sincos_pos_embed(30, 4)


class TestInit:
    def test_trunc_normal_bounds(self):
        out = M.trunc_normal(np.random.default_rng(0), (10000,), std=0.02)
        assert np.abs(out).max() <= 0.04
        # truncation at +-2 std shrinks the sample std to about 0.88 std
        assert abs(out.std() - 0.88 * 0.02) < 0.001

    @pytest.mark.parametrize("shape", [(1, 1, 64), (384, 1536), (7,), (33, 5, 3)])
    @pytest.mark.parametrize("std", [0.02, 1.0, 3.5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_trunc_normal_matches_oracle_bitwise(self, shape, std, seed):
        out = M.trunc_normal(np.random.default_rng(seed), shape, std=std)
        ref = trunc_normal_reference(np.random.default_rng(seed), shape, std=std)
        assert out.shape == shape and out.dtype == ref.dtype
        assert out.tobytes() == ref.tobytes()
        assert np.abs(out).max() <= 2.0 * std


class TestForward:
    def test_shapes_single_head(self):
        model = _model()
        img = Tensor(np.random.default_rng(0).random((2, 2, 32, 32),
                                                     dtype=np.float64))
        plan = M.random_masking_plan(2, 16, 0.7, np.random.default_rng(1))
        out = model.forward(img, plan)
        assert list(out) == ["hog"] and out["hog"].shape == (2, 16, 128)
        assert {"head.w", "head.b"} <= set(model.params)

    def test_encoder_sees_only_kept_tokens(self):
        model = _model()
        img = np.random.default_rng(2).random((1, 2, 32, 32))
        plan = M.random_masking_plan(1, 16, 0.7, np.random.default_rng(3))
        enc = model.encode(Tensor(img), plan)
        assert enc.shape == (1, plan.n_keep, 64)

    def test_masked_patch_content_does_not_change_output(self):
        model = _model()
        gen = np.random.default_rng(4)
        img = gen.random((1, 2, 32, 32))
        plan = M.random_masking_plan(1, 16, 0.7, np.random.default_rng(5))
        out1 = model.forward(Tensor(img), plan)["hog"].data
        # scribble over one masked patch
        pid = int(plan.ids_mask[0, 0])
        r, c = divmod(pid, 4)
        img2 = img.copy()
        img2[0, :, r * 8:(r + 1) * 8, c * 8:(c + 1) * 8] = gen.random((2, 8, 8))
        out2 = model.forward(Tensor(img2), plan)["hog"].data
        np.testing.assert_allclose(out1, out2, atol=1e-6)

    def test_dual_head_output(self):
        model = _model(TINY.with_(in_channels=13), heads={"hog": 72, "ndi": 192})
        img = Tensor(np.random.default_rng(6).random((1, 13, 32, 32)))
        plan = M.random_masking_plan(1, 16, 0.7, np.random.default_rng(7))
        out = model.forward(img, plan)
        assert list(out) == ["hog", "ndi"]
        assert out["hog"].shape == (1, 16, 72) and out["ndi"].shape == (1, 16, 192)
        assert {"head.w", "head.b", "head.ndi.w", "head.ndi.b"} <= set(model.params)

    def test_encoder_features_shape(self):
        model = _model()
        img = Tensor(np.random.default_rng(8).random((3, 2, 32, 32)))
        feats = model.encoder_features(img)
        assert feats.shape == (3, 64)

    def test_no_grad_encoder_records_nothing_same_bytes(self, monkeypatch):
        from test_tensor import node_counter
        model = _model()
        img = Tensor(np.random.default_rng(10).random((2, 2, 32, 32),
                                                      dtype=np.float32))
        plan = M.random_masking_plan(2, 16, 0.7, np.random.default_rng(11))
        ref = model.encode(img, plan)
        made = node_counter(monkeypatch)
        with T.no_grad():
            out = model.encode(img, plan)
        assert made[0] == 0 and not out.requires_grad
        assert out.data.tobytes() == ref.data.tobytes()

    def test_unpatchify_roundtrip(self):
        img = np.random.default_rng(10).random((1, 2, 16, 16))
        p = F.patchify_array(img, 4)
        back = F.unpatchify_array(p, 2, 16, 16, 4)
        np.testing.assert_allclose(back, img, atol=1e-12)


class TestMaskedLoss:
    def _setup(self, seed=0):
        gen = np.random.default_rng(seed)
        pred = Tensor(gen.random((2, 16, 10)), requires_grad=True,
                      dtype=np.float64)
        target = gen.random((2, 16, 10))
        plan = M.random_masking_plan(2, 16, 0.7, gen)
        return pred, target, plan

    def test_visible_targets_do_not_matter(self):
        pred, target, plan = self._setup()
        base = _loss(pred, target, plan).item()
        t2 = target.copy()
        for b in range(2):
            t2[b, plan.ids_keep[b]] = 999.0
        again = _loss(pred, t2, plan).item()
        assert base == again

    def test_constant_offset_gives_delta_squared(self):
        pred, target, plan = self._setup(1)
        delta = 0.37
        t2 = np.asarray(target, dtype=np.float64).copy()
        for b in range(2):
            t2[b, plan.ids_mask[b]] = pred.data[b, plan.ids_mask[b]] + delta
        loss = _loss(pred, t2, plan).item()
        assert abs(loss - delta ** 2) < 1e-9

    def test_empty_mask_rejected(self):
        pred, target, _ = self._setup(2)
        with pytest.raises(ValueError):
            _loss(pred, target, M.identity_plan(2, 16))

    def test_gradient_zero_on_visible(self):
        pred, target, plan = self._setup(3)
        _loss(pred, target, plan).backward()
        for b in range(2):
            assert np.abs(pred.grad[b, plan.ids_keep[b]]).max() == 0.0
            assert np.abs(pred.grad[b, plan.ids_mask[b]]).max() > 0.0

    def test_dual_head_weights(self):
        gen = np.random.default_rng(4)
        p1 = Tensor(gen.random((1, 16, 4)))
        p2 = Tensor(gen.random((1, 16, 6)))
        t1, t2 = gen.random((1, 16, 4)), gen.random((1, 16, 6))
        plan = M.random_masking_plan(1, 16, 0.7, gen)
        l1 = _loss(p1, t1, plan).item()
        l2 = _loss(p2, t2, plan).item()
        pred, target = {"hog": p1, "ndi": p2}, {"hog": t1, "ndi": t2}
        both = M.masked_l2_loss(pred, target, plan,
                                head_weights={"hog": 2.0, "ndi": 0.5}).item()
        np.testing.assert_allclose(both, 2.0 * l1 + 0.5 * l2, rtol=1e-6)
        # a head left out of the weights counts once
        half = M.masked_l2_loss(pred, target, plan,
                                head_weights={"ndi": 0.5}).item()
        np.testing.assert_allclose(half, l1 + 0.5 * l2, rtol=1e-6)

    def test_lone_head_weight_one_is_its_loss_bitwise(self):
        pred, target, plan = self._setup(5)
        alone = _loss(pred, target, plan)
        weighted = M.masked_l2_loss({"hog": pred}, {"hog": target}, plan,
                                    head_weights={"hog": 1.0})
        assert weighted.data.tobytes() == alone.data.tobytes()


class TestPresets:
    def test_known_widths(self):
        assert M.VIT_PRESETS["vit-s"][0] == 384
        assert M.VIT_PRESETS["vit-b"][0] == 768
        assert M.VIT_PRESETS["vit-l"][0] == 1024
        assert M.VIT_PRESETS["vit-h"][0] == 1280

    def test_small_preset_constructs_and_runs(self):
        # the full S/B/L/H construction sweep lives in the acceptance suite
        cfg = M.ModelConfig.preset("vit-s", image_size=32, patch_size=8,
                                   in_channels=2)
        model = _model(cfg, heads={"hog": 16})
        img = Tensor(np.random.default_rng(0).random((1, 2, 32, 32)))
        plan = M.random_masking_plan(1, cfg.n_patches, 0.7,
                                     np.random.default_rng(1))
        out = model.forward(Tensor(img.data.astype(np.float32)), plan)["hog"]
        assert out.shape == (1, cfg.n_patches, 16)
        assert model.n_parameters() > 0

    def test_preset_depths_increase(self):
        widths = [M.VIT_PRESETS[n][0] for n in ("vit-s", "vit-b", "vit-l",
                                                "vit-h")]
        assert widths == sorted(widths)

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            M.ModelConfig.preset("vit-xxl")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            M.ModelConfig(image_size=30, patch_size=8)  # not divisible
        with pytest.raises(ValueError):
            M.ModelConfig(mask_ratio=1.5)


class TestRender:
    def test_sar_composite_shape_and_range(self):
        img = np.random.default_rng(0).random((2, 2, 16, 16))
        out = M.render_sar_composite(img)
        assert out.shape == (2, 3, 16, 16) and out.dtype == np.uint8

    def test_ndi_false_color(self):
        pred = np.random.default_rng(1).uniform(-1, 1, (1, 16, 8 * 8 * 3))
        out = M.render_ndi_false_color(pred, 32, 8)
        assert out.shape == (1, 3, 32, 32) and out.dtype == np.uint8

    def test_hog_glyphs(self):
        hist = np.random.default_rng(2).random((4, 4, 9))
        out = M.render_hog_glyphs(hist)
        assert out.dtype == np.uint8 and out.ndim == 2
