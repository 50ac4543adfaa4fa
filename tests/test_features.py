"""Engineered feature extractors versus independent scalar-loop oracles,
plus patch bookkeeping and target assembly."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fgmae import data as D
from fgmae import features as F
from fgmae.features import (BandMap, CannyParams, FeatureSpec, HogParams,
                            SiftParams)
from fgmae.rng import Rng

from oracles import (_conv_scalar, canny_reference, compute_canny_reference,
                     conv_fixed_order_reference, hog_reference,
                     sift_targets_reference)


def _img(seed, c, h, w):
    return np.random.default_rng(seed).random((1, c, h, w))


def _batched_stack():
    """(B=3, C=2) stack with one blank channel and one scaled by 1e-2: a
    batch-wide threshold, or edges joined across images, breaks the
    per-image oracles."""
    img = np.random.default_rng(70).random((3, 2, 32, 32))
    img[1, 0] = 0.0
    img[2, 1] *= 1e-2
    return img


@pytest.fixture(scope="module")
def ms_batches(tmp_path_factory):
    """Two 13-band training batches as pretraining assembles them: 32 px
    crops of 64 px synthetic MS scenes, 8 per batch."""
    manifest = D.synthesize_dataset(str(tmp_path_factory.mktemp("ms")), "MS",
                                    n_locations=4, seed=8, looks=1, size=64)
    paths = [os.path.join(os.path.dirname(manifest), e.path)
             for e in D.read_manifest(manifest)]
    aug = D.AugmentationConfig(scale_min=0.2, scale_max=1.0, out_size=32)
    sample = Rng(0).child("sample")
    return [D.augmented_batch(paths[k:k + 8], [sample.at(k + j) for j in range(8)],
                              aug, 13) for k in (0, 8)]


def _special(seed, shape):
    """Random values with NaN, ±inf and −0 among them."""
    gen = np.random.default_rng(seed)
    x = gen.random(shape)
    picks = gen.integers(0, 10, shape)
    for k, v in enumerate((np.nan, np.inf, -np.inf, -0.0)):
        x[picks == k] = v
    return x


class TestNdi:
    def test_ndvi_hand_value(self):
        img = np.zeros((1, 13, 2, 2))
        bands = BandMap()
        img[0, bands.nir] = 0.8
        img[0, bands.red] = 0.2
        ndi = F.compute_ndi(img)
        np.testing.assert_allclose(ndi[0, 0], 0.6, atol=1e-12)

    def test_antisymmetry(self):
        # swapping the two bands flips the sign of the index
        gen = np.random.default_rng(0)
        a, b = gen.random(100), gen.random(100)
        fwd = F._safe_ratio(a - b, a + b)
        rev = F._safe_ratio(b - a, b + a)
        np.testing.assert_allclose(fwd, -rev, atol=1e-12)

    def test_zero_denominator_maps_to_zero(self):
        img = np.zeros((1, 13, 4, 4))
        ndi = F.compute_ndi(img)
        assert (ndi == 0.0).all()

    def test_range_bounded(self):
        gen = np.random.default_rng(1)
        img = gen.random((1, 13, 1000, 1000))
        ndi = F.compute_ndi(img)
        assert ndi.min() >= -1.0 and ndi.max() <= 1.0

    def test_shapes_and_band_validation(self):
        ndi = F.compute_ndi(_img(2, 13, 16, 16))
        assert ndi.shape == (1, 3, 16, 16)
        with pytest.raises(ValueError):
            F.compute_ndi(_img(3, 4, 8, 8))  # bands out of range


class TestHog:
    def test_matches_oracle_small(self):
        img = _img(10, 1, 16, 16)
        ours = F.compute_hog(img, HogParams(cell_size=8))
        ref = hog_reference(img[0, 0], cell_size=8)
        np.testing.assert_allclose(ours[0, 0], ref, atol=1e-10)

    @pytest.mark.parametrize("cell_size", [4, 8])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_targets_unpatchify_to_the_fields(self, cell_size, channels):
        # 2 images of 2 x 3 patches of 16 px: rows, columns and images apart
        img = np.random.default_rng(channels).random((2, channels, 32, 48))
        p = HogParams(cell_size=cell_size)
        targets = F.assemble_targets(img, FeatureSpec("hog", hog=p), 16)["hog"]
        back = F.unpatchify_hog(targets, p, 32, 48, 16)
        assert back.tobytes() == F.compute_hog(img, p).tobytes()

    def test_matches_oracle_multichannel(self):
        for img in (_img(11, 3, 24, 24), _batched_stack()):
            ours = F.compute_hog(img, HogParams(cell_size=8))
            for b, c in np.ndindex(img.shape[:2]):
                ref = hog_reference(img[b, c], cell_size=8)
                np.testing.assert_allclose(ours[b, c], ref, atol=1e-10)

    def test_cell_norm_at_most_unit(self):
        out = F.compute_hog(_img(12, 2, 32, 32), HogParams(cell_size=4))
        norms = np.linalg.norm(out, axis=-1)
        assert norms.max() <= 1.0 + 1e-9

    def test_uniform_image_zero_histogram(self):
        out = F.compute_hog(np.full((1, 1, 16, 16), 0.7), HogParams())
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_vertical_edge_votes_bin_zero(self):
        # gradient along x only -> angle 0 -> all mass in the first bin
        img = np.tile(np.linspace(0, 1, 16), (16, 1))[None, None]
        out = F.compute_hog(img, HogParams(cell_size=8))
        hist = out[0, 0, 1, 1]  # interior cell
        assert hist[0] > 0.99 and hist[1:].max() < 1e-6

    def test_rejects_non_divisible(self):
        with pytest.raises(ValueError):
            F.compute_hog(_img(13, 1, 30, 30), HogParams(cell_size=8))


class TestCanny:
    def test_matches_oracle_exactly(self):
        for img in [_img(20 + seed, 1, 32, 32) for seed in range(5)] + [_batched_stack()]:
            ours = F.compute_canny(img)
            for b, c in np.ndindex(img.shape[:2]):
                assert (ours[b, c] == canny_reference(img[b, c])).all()

    def test_binary_output(self):
        out = F.compute_canny(_img(30, 2, 64, 64))
        assert set(np.unique(out)) <= {0.0, 1.0}

    def test_blank_image_no_edges(self):
        out = F.compute_canny(np.zeros((1, 1, 32, 32)))
        assert out.sum() == 0

    def test_step_edge_detected(self):
        img = np.zeros((1, 1, 32, 32))
        img[..., :, 16:] = 1.0
        out = F.compute_canny(img)
        assert out[0, 0, :, 14:18].sum() > 10

    def test_hysteresis_promotes_connected_weak(self):
        p = CannyParams(low=0.05, high=0.6)
        img = _img(31, 1, 48, 48)
        loose = F.compute_canny(img, p)
        strict = F.compute_canny(img, CannyParams(low=0.59, high=0.6))
        # weak pixels can only add edges, never remove them
        assert (loose[strict == 1.0] == 1.0).all()

    def test_gaussian_kernel_normalized(self):
        k = F.gaussian_kernel(1.4, 5)
        assert k.shape == (5, 5)
        np.testing.assert_allclose(k.sum(), 1.0, atol=1e-12)
        np.testing.assert_allclose(k, k.T, atol=1e-15)

    def test_same_bytes_as_masked_pass_reference(self, ms_batches):
        plateau = np.full((2, 3, 16, 16), 0.25)
        plateau[:, :, 4:12, 4:12] = 0.75
        plateau[1, 2] = 0.5
        cases = [*ms_batches, np.zeros((2, 3, 16, 16)),
                 np.full((1, 2, 16, 16), -0.0), plateau,
                 _special(80, (2, 3, 20, 24)), _special(81, (1, 2, 8, 8))]
        for img in cases:
            with np.errstate(invalid="ignore"):
                ours = F.compute_canny(img)
                ref = compute_canny_reference(img)
            assert ours.tobytes() == ref.tobytes()
        assert F.compute_canny(ms_batches[0]).sum() > 0

    def test_sector_without_mod(self):
        """The sector step adds 180 to negative angles instead of taking
        ``% 180``; it must pick the sector ``% 180`` does at ±0, ±180, the
        sector boundaries, their neighbouring floats and across arctan2."""
        edges = [0.0, -0.0, 180.0, -180.0] + [22.5 + 45.0 * k for k in range(-4, 4)]
        near = [np.nextafter(a, to) for a in edges for to in (-np.inf, np.inf)]
        gen = np.random.default_rng(0)
        y, x = gen.standard_normal((2, 10 ** 6))
        signed = np.array([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf])
        ys, xs = np.meshgrid(signed, signed)
        ang = np.concatenate([edges, near, np.degrees(np.arctan2(y, x)),
                              np.degrees(np.arctan2(ys, xs)).ravel()])
        expect = np.floor((ang % 180.0 + 22.5) / 45.0).astype(np.int64) % 4
        assert (F._sector(ang.copy()) == expect).all()


def _assert_same_bits_but_nan_signs(a, b):
    """Equal bytes everywhere but in NaNs, which must sit at the same places.
    When both operands are NaN, numpy's add returns one or the other
    depending on the loop length and the element's place in it, so a NaN's
    sign bit follows the array layout, not the arithmetic."""
    nan = np.isnan(a)
    assert (nan == np.isnan(b)).all()
    assert a[~nan].tobytes() == b[~nan].tobytes()


_TAPS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.25, -0.25]),
                  st.floats(-3.0, 3.0))
_VALUES = st.one_of(st.floats(-1e3, 1e3),
                    st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0]))


@st.composite
def _correlation_case(draw):
    kernel = draw(hnp.arrays(np.float64, (draw(st.integers(1, 5)),
                                          draw(st.integers(1, 5))), elements=_TAPS))
    lead = draw(st.lists(st.integers(1, 3), max_size=2))
    shape = (*lead, draw(st.integers(1, 7)), draw(st.integers(1, 7)))
    return draw(hnp.arrays(np.float64, shape, elements=_VALUES)), kernel


class TestCorrelation:
    @settings(max_examples=300, deadline=None)
    @given(_correlation_case())
    def test_same_bytes_as_scalar_loop_and_reference(self, case):
        x, kernel = case
        with np.errstate(invalid="ignore", over="ignore"):
            ours = F._conv_fixed_order(x, kernel)
            ref = conv_fixed_order_reference(x, kernel)
            scalar = np.array([_conv_scalar(x[i], kernel)
                               for i in np.ndindex(x.shape[:-2])]).reshape(x.shape)
        assert ours.shape == x.shape and ours.dtype == x.dtype
        _assert_same_bits_but_nan_signs(ours, ref)
        _assert_same_bits_but_nan_signs(ours, scalar)

    def test_blocks_of_whole_images(self):
        # 40 images of 36 x 36 padded pixels: several blocks, the last short
        x = np.random.default_rng(82).standard_normal((4, 10, 32, 32))
        kernel = F.gaussian_kernel(1.4, 5)
        assert (F._conv_fixed_order(x, kernel).tobytes()
                == conv_fixed_order_reference(x, kernel).tobytes())

    @pytest.mark.parametrize("extract", [
        lambda img: F.compute_hog(img, HogParams(cell_size=4)),
        lambda img: F.compute_dense_sift(img, SiftParams(stride=4, support=8)),
    ], ids=["hog", "sift"])
    def test_extractors_keep_their_bytes(self, extract, monkeypatch):
        img = np.random.default_rng(83).random((2, 3, 16, 16))
        img[0, 1, 4:8, 4:8] = -0.0
        ours = extract(img)
        monkeypatch.setattr(F, "_conv_fixed_order", conv_fixed_order_reference)
        assert extract(img).tobytes() == ours.tobytes()


class TestDenseSift:
    def test_shapes(self):
        img = _img(40, 2, 64, 64)
        desc = F.compute_dense_sift(img)
        ys, xs = F.sift_grid(64, 64)
        assert desc.shape == (1, len(ys) * len(xs), 128)

    def test_descriptor_norm_bounded(self):
        desc = F.compute_dense_sift(_img(41, 1, 64, 64))
        norms = np.linalg.norm(desc, axis=-1)
        assert norms.max() <= 1.0 + 1e-6
        assert desc.min() >= 0.0

    def test_clip_bounds_prenormalized_entries(self):
        # after the first L2 norm no entry may exceed the clip threshold;
        # the final renorm can scale entries back up but never above 1
        p = SiftParams()
        desc = F.compute_dense_sift(_img(44, 1, 64, 64), p)
        assert desc.max() <= 1.0 + 1e-9

    def test_uniform_image_zero_descriptors(self):
        desc = F.compute_dense_sift(np.full((1, 1, 64, 64), 0.3))
        np.testing.assert_allclose(desc, 0.0, atol=1e-12)

    def test_grid_matches_stride(self):
        p = SiftParams()
        ys, xs = F.sift_grid(64, 64, p)
        assert (np.diff(ys) == p.stride).all()
        assert ys[0] == 0 and ys[-1] + p.support <= 64

    # (stride, support, patch, size): a window center off the stride grid
    # (support 10, stride 4), grids that stop short of the border, one
    # descriptor per patch and several
    @pytest.mark.parametrize("stride, support, patch, size", [
        (8, 16, 8, 32), (4, 10, 8, 32), (4, 16, 8, 40), (2, 8, 4, 20),
        (4, 8, 16, 48), (8, 16, 16, 48), (4, 12, 8, 24), (2, 6, 8, 16)])
    def test_targets_match_slot_oracle(self, stride, support, patch, size):
        img = np.random.default_rng(size + stride).random((2, 2, size, size))
        spec = FeatureSpec("sift", sift=SiftParams(
            stride=stride, support=support, spatial_bins=2 if support % 4 else 4))
        targets = F.assemble_targets(img, spec, patch)["sift"]
        ref = sift_targets_reference(img, spec, patch)
        assert targets.shape == ref.shape and targets.tobytes() == ref.tobytes()

    def test_grayscale_reduce_is_channel_mean(self):
        img = _img(43, 4, 8, 8)
        np.testing.assert_allclose(F.grayscale_reduce(img)[:, 0],
                                   img.mean(axis=1), atol=1e-12)


class TestPatching:
    def test_roundtrip(self):
        img = _img(50, 3, 32, 32)
        p = F.patchify_array(img, 8)
        assert p.shape == (1, 16, 8 * 8 * 3)
        back = F.unpatchify_array(p, 3, 32, 32, 8)
        np.testing.assert_allclose(back, img, atol=1e-12)

    def test_trailing_axes_roundtrip_and_order(self):
        # a (B, C, H, W, 2, 3) field of 4x4-cell patches: channel, rows,
        # columns, then the trailing block inside each patch
        field = np.random.default_rng(52).random((2, 3, 8, 12, 2, 3))
        p = F.patchify_array(field, 4)
        assert p.shape == (2, 6, 3 * 4 * 4 * 6)
        b, c, r, col = 1, 2, 5, 9
        cut = p[b, (r // 4) * 3 + col // 4].reshape(3, 4, 4, 2, 3)
        assert (cut[c, r % 4, col % 4] == field[b, c, r, col]).all()
        back = F.unpatchify_array(p, 3, 8, 12, 4, (2, 3))
        assert back.tobytes() == field.tobytes()

    def test_channel_major_layout(self):
        # within one patch row vector: all of channel 0 first, then channel 1
        img = np.zeros((1, 2, 8, 8))
        img[0, 1] = 1.0
        p = F.patchify_array(img, 8)
        assert (p[0, 0, :64] == 0.0).all() and (p[0, 0, 64:] == 1.0).all()

    def test_per_patch_normalize(self):
        p = F.patchify_array(_img(51, 1, 32, 32), 8)
        n = F._per_patch_normalize(p)
        np.testing.assert_allclose(n.mean(axis=-1), 0.0, atol=1e-6)
        np.testing.assert_allclose(n.std(axis=-1), 1.0, atol=1e-3)


class TestFeatureSpec:
    def test_out_dims_raw(self):
        assert FeatureSpec("raw").heads(2, 8) == {"raw": 8 * 8 * 2}

    def test_out_dims_hog(self):
        # patch 8 / cell 4 -> 2x2 cells x 9 bins per channel
        assert FeatureSpec("hog", hog=HogParams(cell_size=4)).heads(2, 8) \
            == {"hog": 2 * 2 * 2 * 9}

    def test_out_dims_dual_head(self):
        heads = FeatureSpec("hog+ndi").heads(13, 8)
        assert list(heads.items()) == [("hog", 13 * 9), ("ndi", 8 * 8 * 3)]

    @pytest.mark.parametrize("spec, channels", [
        (FeatureSpec("hog", hog=HogParams(cell_size=3)), 2),
        (FeatureSpec("sift", sift=SiftParams(stride=3, support=12,
                                             spatial_bins=4)), 2),
        (FeatureSpec("hog+ndi"), 2),
        (FeatureSpec("ndi"), 4)])
    def test_heads_reject_geometry_misfit(self, spec, channels):
        with pytest.raises(ValueError):
            spec.heads(channels, 8)

    @pytest.mark.parametrize("spec, channels, message", [
        (FeatureSpec("hog", hog=HogParams(cell_size=3)), 1, "HOG cell size"),
        (FeatureSpec("sift", sift=SiftParams(stride=3, support=12)), 1,
         "SIFT grid stride"),
        (FeatureSpec("ndi"), 2, "band map")])
    def test_targets_reject_what_heads_reject(self, spec, channels, message):
        with pytest.raises(ValueError, match=message):
            spec.heads(channels, 8)
        with pytest.raises(ValueError, match=message):
            F.assemble_targets(_img(63, channels, 24, 24), spec, 8)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            FeatureSpec("sobel")

    def test_assemble_targets_shapes(self):
        # every head's width is its target's last axis
        for channels in (1, 2, 13):
            img = np.random.default_rng(channels).random((2, channels, 32, 32))
            for patch, cell, stride in ((8, 4, 4), (8, 8, 8), (16, 4, 8),
                                        (16, 8, 4)):
                for variant in F.VARIANTS:
                    if "ndi" in variant and channels != 13:
                        continue
                    spec = FeatureSpec(variant, hog=HogParams(cell_size=cell),
                                       sift=SiftParams(stride=stride))
                    targets = F.assemble_targets(img, spec, patch)
                    assert {k: v.shape for k, v in targets.items()} == \
                        {k: (2, (32 // patch) ** 2, w)
                         for k, w in spec.heads(channels, patch).items()}

    def test_assemble_targets_dual(self):
        img = _img(61, 13, 32, 32)
        spec = FeatureSpec("hog+ndi", hog=HogParams(cell_size=4))
        targets = F.assemble_targets(img, spec, 8)
        assert list(targets) == ["hog", "ndi"]
        for name, width in spec.heads(13, 8).items():
            assert targets[name].shape == (1, 16, width)

    def test_ndi_targets_match_direct_computation(self):
        img = _img(62, 13, 16, 16)
        targets = F.assemble_targets(img, FeatureSpec("ndi"), 8)
        direct = F.patchify_array(F.compute_ndi(img), 8)
        np.testing.assert_allclose(targets["ndi"], direct, atol=1e-6)
