"""On-disk formats, synthetic scene generation, speckle statistics and
augmentations."""

import math
import os
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fgmae import data as D
from fgmae.rng import Rng


class TestContainer:
    def test_roundtrip_f32(self, tmp_path):
        arr = np.random.default_rng(0).random((3, 5, 7)).astype(np.float32)
        p = str(tmp_path / "a.fgmr")
        D.write_tensor(p, arr)
        back = D.read_tensor(p)
        assert back.dtype == np.float32
        np.testing.assert_array_equal(back, arr)

    def test_roundtrip_f64(self, tmp_path):
        arr = np.random.default_rng(1).random((4, 4))
        p = str(tmp_path / "b.fgmr")
        D.write_tensor(p, arr)
        back = D.read_tensor(p)
        assert back.dtype == np.float64
        np.testing.assert_array_equal(back, arr)

    def test_bytes_stable(self, tmp_path):
        arr = np.random.default_rng(2).random((8, 8)).astype(np.float32)
        p1, p2 = str(tmp_path / "c1.fgmr"), str(tmp_path / "c2.fgmr")
        D.write_tensor(p1, arr)
        D.write_tensor(p2, arr)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_bad_magic(self, tmp_path):
        p = str(tmp_path / "bad.fgmr")
        open(p, "wb").write(b"NOPE" + b"\x00" * 16)
        with pytest.raises(D.ContainerError):
            D.read_tensor(p)

    def test_truncated_payload(self, tmp_path):
        arr = np.zeros((4, 4), dtype=np.float32)
        p = str(tmp_path / "t.fgmr")
        D.write_tensor(p, arr)
        blob = open(p, "rb").read()
        open(p, "wb").write(blob[:-8])
        with pytest.raises(D.ContainerError):
            D.read_tensor(p)

    def test_no_tmp_left_behind(self, tmp_path):
        p = str(tmp_path / "x.fgmr")
        D.write_tensor(p, np.zeros(3, dtype=np.float32))
        assert not os.path.exists(p + ".tmp")


_FUZZ = settings(max_examples=60, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])
_ARRAYS = hnp.arrays(dtype=st.sampled_from([np.float32, np.float64]),
                     shape=hnp.array_shapes(min_dims=0, max_dims=4, min_side=0,
                                            max_side=5))


def _fgmr_bytes(array):
    return (D.FGMR_MAGIC + struct.pack("<IBB", D.FGMR_VERSION,
                                        D._DTYPE_CODES[array.dtype], array.ndim)
            + struct.pack(f"<{array.ndim}Q", *array.shape)
            + array.astype(array.dtype.newbyteorder("<")).tobytes())


class TestContainerFuzz:
    """Property tests: valid files round-trip bitwise; every malformed file
    raises ContainerError and nothing else."""

    @_FUZZ
    @given(arr=_ARRAYS)
    @example(arr=np.zeros((3, 0), np.float32))
    def test_roundtrip_bitwise(self, tmp_path, arr):
        p = str(tmp_path / "r.fgmr")
        D.write_tensor(p, arr)
        assert open(p, "rb").read() == _fgmr_bytes(arr)
        back = D.read_tensor(p)
        assert back.dtype == arr.dtype and back.shape == arr.shape
        assert back.tobytes() == arr.tobytes()
        assert back.flags.writeable
        back[...] = 0  # the caller owns the buffer

    def test_every_truncation_of_2x3(self, tmp_path):
        blob = _fgmr_bytes(np.arange(6, dtype=np.float32).reshape(2, 3))
        p = str(tmp_path / "t.fgmr")
        for cut in range(len(blob)):
            open(p, "wb").write(blob[:cut])
            with pytest.raises(D.ContainerError):
                D.read_tensor(p)

    @_FUZZ
    @given(arr=_ARRAYS, data=st.data())
    def test_truncation_and_tail(self, tmp_path, arr, data):
        blob = _fgmr_bytes(arr)
        cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
        tail = data.draw(st.binary(min_size=1, max_size=24), label="tail")
        p = str(tmp_path / "f.fgmr")
        for bad in (blob[:cut], blob + tail):
            open(p, "wb").write(bad)
            with pytest.raises(D.ContainerError):
                D.read_tensor(p)

    @_FUZZ
    @given(version=st.sampled_from([D.FGMR_VERSION, 0, 2, 2**32 - 1]),
           code=st.integers(0, 255),
           dims=st.lists(st.one_of(st.integers(0, 4),
                                   st.sampled_from([2**32, 2**63, 2**64 - 1]),
                                   st.integers(0, 2**64 - 1)), max_size=70),
           payload=st.binary(max_size=64))
    @example(version=1, code=1, dims=[2**32, 2**32], payload=b"")
    @example(version=1, code=2, dims=[0, 2**64 - 1], payload=b"")
    @example(version=1, code=1, dims=[1] * 65, payload=b"\0" * 4)
    def test_random_header(self, tmp_path, version, code, dims, payload):
        p = str(tmp_path / "h.fgmr")
        with open(p, "wb") as f:
            f.write(D.FGMR_MAGIC + struct.pack("<IBB", version, code, len(dims)))
            f.write(struct.pack(f"<{len(dims)}Q", *dims) + payload)
        valid = (version == D.FGMR_VERSION and code in D._CODE_DTYPES
                 and math.prod(dims) * D._CODE_DTYPES[code].itemsize == len(payload))
        try:
            back = D.read_tensor(p)
        except D.ContainerError:
            return
        assert valid
        assert back.shape == tuple(dims) and back.tobytes() == payload


class TestPpm:
    def test_p6_header_and_size(self, tmp_path):
        img = np.random.default_rng(0).integers(0, 256, (3, 4, 6),
                                                dtype=np.uint8)
        p = str(tmp_path / "img.ppm")
        D.write_ppm(p, img)
        blob = open(p, "rb").read()
        assert blob.startswith(b"P6\n6 4\n255\n")
        assert len(blob) == len(b"P6\n6 4\n255\n") + 3 * 4 * 6

    def test_p5_grayscale(self, tmp_path):
        img = np.zeros((5, 3), dtype=np.uint8)
        p = str(tmp_path / "g.pgm")
        D.write_ppm(p, img)
        assert open(p, "rb").read().startswith(b"P5\n3 5\n255\n")

    def test_rejects_non_uint8(self, tmp_path):
        with pytest.raises(ValueError):
            D.write_ppm(str(tmp_path / "f.ppm"), np.zeros((3, 2, 2)))

    def test_rejects_channels_last(self, tmp_path):
        # (H, W, 3) would pass as a 3 px wide image of H rows and W bands
        with pytest.raises(ValueError, match="expects"):
            D.write_ppm(str(tmp_path / "f.ppm"), np.zeros((8, 8, 3), np.uint8))
        assert not (tmp_path / "f.ppm").exists()

    def test_byte_stable(self, tmp_path):
        img = np.random.default_rng(1).integers(0, 256, (3, 8, 8),
                                                dtype=np.uint8)
        p1, p2 = str(tmp_path / "a.ppm"), str(tmp_path / "b.ppm")
        D.write_ppm(p1, img)
        D.write_ppm(p2, img)
        assert open(p1, "rb").read() == open(p2, "rb").read()


class TestManifest:
    def test_roundtrip(self, tmp_path):
        entries = [D.SceneEntry("loc0000", 0, "SAR", "a.fgmr", "3"),
                   D.SceneEntry("loc0001", 2, "MS", "b.fgmr", "1;4")]
        p = str(tmp_path / "manifest.csv")
        D.write_manifest(p, entries)
        back = D.read_manifest(p)
        assert back == entries
        assert back[1].label_list() == [1, 4]

    def test_locations_ordered_unique(self):
        entries = [D.SceneEntry("b", 0, "SAR", "x", ""),
                   D.SceneEntry("a", 0, "SAR", "y", ""),
                   D.SceneEntry("b", 1, "SAR", "z", "")]
        assert D.locations(entries) == ["b", "a"]

    def test_select_season(self):
        entries = [D.SceneEntry("a", s, "SAR", f"{s}.fgmr", "") for s in range(4)]
        gen = np.random.default_rng(0)
        picks = {D.select_season(entries, "a", gen).season for _ in range(50)}
        assert picks == {0, 1, 2, 3}


class TestSpeckle:
    def test_unit_mean_and_variance(self):
        gen = np.random.default_rng(0)
        for looks in (1, 4, 16):
            s = D.gamma_speckle((200, 200), looks, gen)
            assert abs(s.mean() - 1.0) < 0.02
            assert abs(s.var() - 1.0 / looks) < 0.05

    def test_nonnegative(self):
        s = D.gamma_speckle((100, 100), 1, np.random.default_rng(1))
        assert s.min() >= 0.0


class TestScenes:
    @pytest.mark.parametrize("modality, size, looks, seed, match", [
        pytest.param("SAR", 0, 1, 0, "SAR needs size >= 1", id="SAR-0"),
        pytest.param("MS", 2, 1, 0, "MS needs size >= 3", id="MS-2"),
        pytest.param("SAR", 8, 0, 0, "looks must be >= 1", id="SAR-looks-0"),
        pytest.param("MS", 8, 0, 0, "looks must be >= 1", id="MS-looks-0"),
        pytest.param("SAR", 8, 1, -1, "seed must be >= 0", id="SAR-seed--1"),
        pytest.param("MS", 8, 1, -1, "seed must be >= 0", id="MS-seed--1"),
    ])
    def test_too_small_scene_rejected(self, tmp_path, modality, size, looks,
                                      seed, match):
        # below the minimum, MS died in its blob draw and SAR dividing by 0;
        # every bad value is refused before the directory is made
        with pytest.raises(ValueError, match=match):
            D.synthesize_dataset(str(tmp_path / "d"), modality, 1, seed,
                                 looks=looks, size=size)
        assert not (tmp_path / "d").exists()

    def test_multispectral_shapes(self):
        img, mask, labels = D.synth_multispectral_scene(0, 64)
        assert img.shape == (13, 64, 64)
        assert mask.shape == (64, 64)
        assert labels.shape == (D.MS_CLASSES,)
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_multispectral_labels_match_mask(self):
        img, mask, labels = D.synth_multispectral_scene(3, 64)
        present = set(np.unique(mask).astype(int))
        assert {i for i, v in enumerate(labels) if v} == present

    def test_sar_shapes_and_determinism(self):
        a = D.synth_sar_scene(5, 64, looks=1)[0]
        b = D.synth_sar_scene(5, 64, looks=1)[0]
        assert a.shape == (2, 64, 64)
        np.testing.assert_array_equal(a, b)

    def test_sar_class_id_respected(self):
        for cid in range(D.SAR_CLASSES):
            _, _, labels = D.synth_sar_scene(6, 64, class_id=cid)
            assert labels.argmax() == cid

    def test_params_validation(self):
        with pytest.raises(ValueError, match="speckle looks must be >= 1"):
            D.synth_sar_scene(0, 64, looks=0)

    def test_synthesize_dataset_layout(self, tmp_path):
        out = str(tmp_path / "ds")
        path = D.synthesize_dataset(out, "SAR", n_locations=4, seed=1,
                                    looks=1, size=32)
        entries = D.read_manifest(path)
        assert len(entries) == 16  # 4 locations x 4 seasons
        # class labels fixed per location
        for loc in D.locations(entries):
            labels = {e.label for e in entries if e.location_id == loc}
            assert len(labels) == 1
        img = D.read_tensor(os.path.join(out, entries[0].path))
        assert img.shape == (2, 32, 32)

    def test_synthesize_dataset_rejects_unknown_modality(self, tmp_path):
        with pytest.raises(ValueError):
            D.synthesize_dataset(str(tmp_path / "x"), "optical", 2, 0)

    def test_ms_dataset_multilabel(self, tmp_path):
        path = D.synthesize_dataset(str(tmp_path / "ms"), "MS",
                                    n_locations=2, seed=2, size=32)
        entries = D.read_manifest(path)
        assert all(e.modality == "MS" for e in entries)
        assert all(len(e.label_list()) >= 1 for e in entries)


class TestAugment:
    def test_resize_identity(self):
        img = np.random.default_rng(0).random((2, 16, 16))
        out = D._bilinear_resize(img, 16, 16)
        np.testing.assert_allclose(out, img, atol=1e-12)

    def test_resize_constant_preserved(self):
        img = np.full((1, 10, 10), 0.42)
        out = D._bilinear_resize(img, 7, 13)
        np.testing.assert_allclose(out, 0.42, atol=1e-12)

    def test_random_resized_crop_shape(self):
        cfg = D.AugmentationConfig(scale_min=0.2, scale_max=1.0, out_size=32)
        img = np.random.default_rng(1).random((2, 64, 64))
        out = D.random_resized_crop(img, cfg, np.random.default_rng(2))
        assert out.shape == (2, 32, 32)

    def test_crop_values_within_input_range(self):
        cfg = D.AugmentationConfig(scale_min=0.2, scale_max=0.5, out_size=16)
        img = np.random.default_rng(3).random((1, 64, 64))
        out = D.random_resized_crop(img, cfg, np.random.default_rng(4))
        assert out.min() >= img.min() - 1e-12
        assert out.max() <= img.max() + 1e-12

    def test_hflip(self):
        img = np.arange(8.0).reshape(1, 1, 8)
        flipped = D.horizontal_flip(img, 1.0, np.random.default_rng(0))
        np.testing.assert_array_equal(flipped[0, 0], img[0, 0, ::-1])
        same = D.horizontal_flip(img, 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(same, img)

    def test_mixup_convexity(self):
        gen = np.random.default_rng(5)
        x = gen.random((4, 2, 8, 8))
        y = np.eye(4)
        mx, my, lam = D.mixup(x, y, 0.8, np.random.default_rng(6))
        assert 0.0 <= lam <= 1.0
        np.testing.assert_allclose(my.sum(axis=1), 1.0, atol=1e-12)
        assert mx.min() >= 0.0 and mx.max() <= 1.0

    def test_mixup_requires_positive_alpha(self):
        with pytest.raises(ValueError):
            D.mixup(np.zeros((2, 1, 4, 4)), np.zeros((2, 2)), 0.0,
                    np.random.default_rng(0))

    def test_zero_pad_channels(self):
        img = np.ones((2, 4, 4))
        out = D.zero_pad_channels(img, 13)
        assert out.shape == (13, 4, 4)
        assert (out[2:] == 0).all() and (out[:2] == 1).all()
        with pytest.raises(ValueError):
            D.zero_pad_channels(np.ones((13, 4, 4)), 2)

    def test_augment_config_validation(self):
        with pytest.raises(ValueError):
            D.AugmentationConfig(scale_min=0.0)
        with pytest.raises(ValueError):
            D.AugmentationConfig(scale_min=0.9, scale_max=0.5)


class TestRng:
    def test_child_streams_differ(self):
        r = Rng(0)
        a = r.child("alpha").at(0).random(5)
        b = r.child("beta").at(0).random(5)
        assert not np.allclose(a, b)

    def test_at_is_stateless(self):
        r = Rng(7).child("x")
        g1 = r.at(3).random(4)
        g2 = r.at(3).random(4)
        np.testing.assert_array_equal(g1, g2)
        assert not np.allclose(r.at(3).random(4), r.at(4).random(4))

    def test_same_seed_same_stream(self):
        np.testing.assert_array_equal(Rng(5).child("z").at(0).random(8),
                                      Rng(5).child("z").at(0).random(8))
