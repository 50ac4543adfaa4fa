"""Pretraining loop: determinism, checkpoint transparency, loss logging and
failure modes."""

import dataclasses
import gc
import json
import math
import os
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fgmae import data as D
from fgmae import evaluate as E
from fgmae import features as F
from fgmae import model as M
from fgmae import optim as O
from fgmae import pretrain as P
from fgmae import tensor as T
from fgmae.evaluate import params_digest
from fgmae.rng import Rng

from oracles import pretrain_step_reference


TINY_MODEL = M.ModelConfig(image_size=32, patch_size=8, in_channels=2,
                           enc_width=32, enc_depth=1, enc_heads=4,
                           dec_width=32, dec_depth=1, dec_heads=4,
                           mask_ratio=0.7)


def _dataset(tmp_path, n_locations=4):
    out = str(tmp_path / "data")
    return D.synthesize_dataset(out, "SAR", n_locations=n_locations, seed=3,
                                looks=1, size=32)


def _cfg(**kw):
    base = dict(model=TINY_MODEL,
                feature=F.FeatureSpec("hog", hog=F.HogParams(cell_size=4)),
                augment=D.AugmentationConfig(scale_min=0.5, scale_max=1.0,
                                             out_size=32, hflip_prob=0.5),
                epochs=4, batch_size=2, base_lr=1e-3, warmup_epochs=1,
                weight_decay=0.05, seed=11)
    base.update(kw)
    return P.PretrainConfig(**base)


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_UNIT = st.floats(0.0, 1.0, exclude_max=True)


@st.composite
def _pretrain_configs(draw):
    """Any valid PretrainConfig: the geometry of every block fits the model,
    and the mask ratio leaves a visible and a masked patch."""
    patch = draw(st.sampled_from([4, 8, 16]))
    channels = draw(st.integers(1, 13))
    enc_heads, dec_heads = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    grid = draw(st.integers(2, 4))
    model = M.ModelConfig(
        image_size=patch * grid, patch_size=patch,
        in_channels=channels,
        enc_width=math.lcm(enc_heads, 4) * draw(st.integers(1, 4)),
        enc_depth=draw(st.integers(0, 3)), enc_heads=enc_heads,
        dec_width=math.lcm(dec_heads, 4) * draw(st.integers(1, 4)),
        dec_depth=draw(st.integers(0, 3)), dec_heads=dec_heads,
        mask_ratio=draw(_UNIT.filter(
            lambda r: 0 < M.keep_count(grid * grid, r) < grid * grid)))
    variants = [v for v in F.VARIANTS if "ndi" not in v or channels >= 4]
    variant = draw(st.sampled_from(variants))
    # a descriptor the variant names fits its window into the image
    canny_max = model.image_size if variant == "canny" else 9
    sift_max = model.image_size if variant == "sift" else 32
    bands = F.BandMap()
    if channels >= 4:
        bands = F.BandMap(*draw(st.permutations(range(channels)))[:4])
    divisors = [d for d in (1, 2, 4, 8, 16) if patch % d == 0]
    low = draw(st.floats(0.01, 0.5))
    spatial = draw(st.integers(1, 4))
    feature = F.FeatureSpec(
        variant,
        hog=F.HogParams(n_bins=draw(st.integers(2, 12)),
                        cell_size=draw(st.sampled_from(divisors)), eps=draw(_FLOATS)),
        canny=F.CannyParams(gaussian_sigma=draw(_FLOATS),
                            kernel_size=draw(st.integers(1, min(9, canny_max))),
                            low=low,
                            high=draw(st.floats(low, 1.0, exclude_min=True))),
        sift=F.SiftParams(stride=draw(st.sampled_from(divisors)),
                          support=spatial * draw(st.integers(
                              1, min(8, sift_max // spatial))),
                          spatial_bins=spatial,
                          orientation_bins=draw(st.integers(1, 12)),
                          clip=draw(_FLOATS), eps=draw(_FLOATS)),
        bands=bands)
    scale_min = draw(st.floats(0.0, 1.0, exclude_min=True))
    augment = D.AugmentationConfig(scale_min=scale_min,
                                   scale_max=draw(st.floats(scale_min, 1.0)),
                                   out_size=model.image_size,
                                   hflip_prob=draw(_UNIT))
    heads = feature.heads(channels, patch)
    epochs = draw(st.integers(1, 1000))
    return P.PretrainConfig(
        model=model, feature=feature, augment=augment, epochs=epochs,
        batch_size=draw(st.integers(1, 64)), base_lr=draw(_FLOATS),
        min_lr=draw(_FLOATS), warmup_epochs=draw(st.integers(0, epochs)),
        weight_decay=draw(_FLOATS), adam_betas=(draw(_UNIT), draw(_UNIT)),
        head_weights=draw(st.dictionaries(st.sampled_from(list(heads)), _FLOATS)),
        grad_clip=draw(_FLOATS), seed=draw(st.integers(0, 2**32)),
        checkpoint_interval=draw(st.integers(0, 100)))


_PROBE_CONFIGS = st.builds(
    E.ProbeConfig, task=st.sampled_from(["singlelabel", "multilabel"]),
    epochs=st.integers(1, 100), batch_size=st.integers(1, 64), lr=_FLOATS,
    weight_decay=_FLOATS, layer_decay=_FLOATS,
    mixup_alpha=st.floats(0.0, allow_infinity=False),
    seed=st.integers(0, 2**32), eval_every_n=st.integers(1, 10),
    scale_min=st.floats(0.0, 1.0, exclude_min=True))
_FUZZ = settings(max_examples=60, deadline=None)


def _json_dict(cfg):
    return json.loads(json.dumps(dataclasses.asdict(cfg)))


def _int_dicts(cls, ints):
    """Dicts for config class ``cls`` that give every integer field, nested
    blocks included, a value drawn from ``ints``."""
    fields = {}
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(f.default_factory):
            fields[f.name] = _int_dicts(f.default_factory, ints)
        elif type(f.default) is int:
            fields[f.name] = ints
    return st.fixed_dictionaries(fields)


class TestConfig:
    def test_digest_stable_and_sensitive(self):
        a, b = _cfg(), _cfg()
        assert a.digest() == b.digest()
        assert a.digest() != _cfg(seed=12).digest()
        assert len(a.digest()) == 16

    @_FUZZ
    @given(cfg=_pretrain_configs())
    @example(cfg=_cfg())
    def test_dict_roundtrip(self, cfg):
        back = P.from_dict(P.PretrainConfig, _json_dict(cfg))
        assert back == cfg and back.digest() == cfg.digest()

    @_FUZZ
    @given(cfg=_PROBE_CONFIGS)
    def test_probe_dict_roundtrip(self, cfg):
        assert P.from_dict(E.ProbeConfig, _json_dict(cfg)) == cfg

    @settings(max_examples=150, deadline=None)
    @given(d=st.one_of(*(st.tuples(st.just(cls),
                                   _int_dicts(cls, st.integers(-2, 64)))
                         for cls in (P.PretrainConfig, E.ProbeConfig))))
    @example(d=(P.PretrainConfig, {"model": {"patch_size": 0}}))
    @example(d=(P.PretrainConfig, {"model": {"enc_heads": 0}}))
    @example(d=(P.PretrainConfig, {"feature": {"sift": {"spatial_bins": 0}}}))
    @example(d=(E.ProbeConfig, {"epochs": 0}))
    def test_any_integers_build_or_are_config_errors(self, d):
        # out-of-range sizes, counts and depths are rejected by the config
        # classes themselves, never by arithmetic further on; a config that
        # builds trains for at least one epoch
        cls, raw = d
        try:
            cfg = P.from_dict(cls, raw)
        except P.ConfigError:
            return
        assert cfg.epochs >= 1

    @_FUZZ
    @given(cfg=_pretrain_configs(), data=st.data())
    def test_unknown_key_at_any_level_rejected(self, cfg, data):
        d = _json_dict(cfg)
        blocks = [d, d["model"], d["feature"], d["augment"],
                  *(d["feature"][k] for k in ("hog", "canny", "sift", "bands"))]
        blocks[data.draw(st.integers(0, len(blocks) - 1))]["bogus"] = 1
        with pytest.raises(ValueError, match="bogus"):
            P.from_dict(P.PretrainConfig, d)

    @_FUZZ
    @given(cfg=_PROBE_CONFIGS)
    def test_unknown_probe_key_rejected(self, cfg):
        with pytest.raises(ValueError, match="bogus"):
            P.from_dict(E.ProbeConfig, {**_json_dict(cfg), "bogus": 1})

    @_FUZZ
    @given(cfg=_pretrain_configs())
    def test_unknown_head_weight_rejected(self, cfg):
        d = _json_dict(cfg)
        d["head_weights"]["bogus"] = 1.0
        with pytest.raises(ValueError, match="bogus"):
            P.from_dict(P.PretrainConfig, d)

    @_FUZZ
    @given(cfg=_pretrain_configs(), data=st.data())
    def test_value_of_wrong_type_rejected(self, cfg, data):
        d = _json_dict(cfg)
        nested = {"model", "feature", "augment", "hog", "canny", "sift", "bands"}
        blocks = [d, d["model"], d["feature"], d["augment"],
                  *(d["feature"][k] for k in ("hog", "canny", "sift", "bands"))]
        leaves = [(block, key) for block in blocks for key in block
                  if key not in nested]
        block, key = data.draw(st.sampled_from(leaves))
        wrong = {int: ["3", 2.5, True], float: ["0.1", True, None],
                 str: [1, None], list: ["x", [0.9], [0.9, "x"], [0.9, False]],
                 dict: [[], {"hog": "2"}, {"hog": True}]}[type(block[key])]
        block[key] = data.draw(st.sampled_from(wrong))
        with pytest.raises(ValueError, match=key):
            P.from_dict(P.PretrainConfig, d)

    @_FUZZ
    @given(cfg=_PROBE_CONFIGS, data=st.data())
    def test_probe_value_of_wrong_type_rejected(self, cfg, data):
        d = _json_dict(cfg)
        key = data.draw(st.sampled_from(sorted(d)))
        d[key] = {int: 2.5, float: "0.1", str: 1}[type(d[key])]
        with pytest.raises(ValueError, match=key):
            P.from_dict(E.ProbeConfig, d)

    def test_ints_pass_for_floats_and_lists_for_tuples(self):
        d = _json_dict(_cfg())
        d.update(base_lr=1, adam_betas=[0, 0], head_weights={"hog": 2})
        cfg = P.from_dict(P.PretrainConfig, d)
        assert (cfg.base_lr, cfg.adam_betas, cfg.head_weights) == (
            1, (0, 0), {"hog": 2})
        with pytest.raises(ValueError, match="config.adam_betas"):
            P.from_dict(P.PretrainConfig, {**d, "adam_betas": [0.9, 0.95, 0.99]})

    def test_nested_blocks_may_be_partial(self):
        demo = os.path.join(os.path.dirname(__file__), "..", "demos",
                            "pretrain_config.json")
        with open(demo) as f:
            cfg = P.from_dict(P.PretrainConfig, json.load(f))
        assert cfg.feature.canny == F.CannyParams()
        assert cfg.feature.hog.cell_size == 4

    @pytest.mark.parametrize("overrides, match", [
        (dict(augment=D.AugmentationConfig(out_size=64)), "augmentation output"),
        (dict(feature=F.FeatureSpec("hog", hog=F.HogParams(cell_size=3))),
         "HOG cell size"),
        (dict(feature=F.FeatureSpec("hog+ndi")), "band map"),
        (dict(head_weights={"ndi": 0.5}), "not among the run's heads"),
        # 16 patches: 0.0 masks none of them, 0.95 keeps none visible
        (dict(model=TINY_MODEL.with_(mask_ratio=0.0)), "keeps 16 of 16"),
        (dict(model=TINY_MODEL.with_(mask_ratio=0.95)), "keeps 0 of 16")])
    def test_config_checked_against_itself(self, overrides, match):
        with pytest.raises(ValueError, match=match):
            _cfg(**overrides)

    def test_descriptor_windows_fit_the_image(self):
        # 32-px images: only the descriptors the variant names are checked
        window = dict(canny=F.CannyParams(kernel_size=33),
                      sift=F.SiftParams(support=64))
        for variant, match in (("canny", "kernel_size 33"),
                               ("sift", "support 64")):
            with pytest.raises(ValueError, match=match):
                _cfg(feature=F.FeatureSpec(variant, **window))
        _cfg(feature=F.FeatureSpec("hog", hog=F.HogParams(cell_size=4),
                                   **window))
        _cfg(feature=F.FeatureSpec("canny", canny=F.CannyParams(kernel_size=32)))
        _cfg(feature=F.FeatureSpec("sift", sift=F.SiftParams(support=32)))

    def test_validation(self):
        with pytest.raises(ValueError):
            _cfg(batch_size=0)
        with pytest.raises(ValueError):
            _cfg(warmup_epochs=99)

    def test_head_dims_resolved_from_feature(self, tmp_path):
        cfg = _cfg()
        trainer = P.Trainer(cfg, D.read_manifest(_dataset(tmp_path)),
                            str(tmp_path / "data"))
        assert trainer.model.heads == cfg.feature.heads(2, 8) == {"hog": 72}
        assert trainer.model.params["head.w"].shape == (32, 72)


class TestDeterminism:
    def test_same_seed_identical_runs(self, tmp_path):
        manifest = _dataset(tmp_path)
        r1 = P.pretrain_run(_cfg(), manifest, str(tmp_path / "r1"))
        r2 = P.pretrain_run(_cfg(), manifest, str(tmp_path / "r2"))
        assert r1.loss_log == r2.loss_log
        assert params_digest(r1.model.params) == params_digest(r2.model.params)

    def test_checkpoint_files_bitwise_identical(self, tmp_path):
        manifest = _dataset(tmp_path)
        P.pretrain_run(_cfg(), manifest, str(tmp_path / "r1"))
        P.pretrain_run(_cfg(), manifest, str(tmp_path / "r2"))
        d1, d2 = tmp_path / "r1" / "checkpoint", tmp_path / "r2" / "checkpoint"
        names = sorted(os.listdir(d1))
        assert names == sorted(os.listdir(d2))
        for n in names:
            if n.endswith(".fgmr"):
                assert (d1 / n).read_bytes() == (d2 / n).read_bytes(), n

    def test_different_seed_differs(self, tmp_path):
        manifest = _dataset(tmp_path)
        r1 = P.pretrain_run(_cfg(seed=1), manifest, str(tmp_path / "a"))
        r2 = P.pretrain_run(_cfg(seed=2), manifest, str(tmp_path / "b"))
        assert r1.loss_log != r2.loss_log


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        manifest = _dataset(tmp_path)
        trainer = P.pretrain_run(_cfg(), manifest, str(tmp_path / "run"))
        path = str(tmp_path / "run" / "checkpoint")
        cfg, model, opt, step, loss_log = P.load_checkpoint(path)
        assert cfg == trainer.cfg and model.heads == cfg.heads
        assert step == trainer.step
        assert loss_log == trainer.loss_log
        assert params_digest(model.params) == params_digest(trainer.model.params)
        for name, m in trainer.opt.m.items():
            np.testing.assert_array_equal(opt.m[name], m)
            np.testing.assert_array_equal(opt.v[name], trainer.opt.v[name])

    def test_resume_is_transparent(self, tmp_path):
        manifest = _dataset(tmp_path)
        cfg = _cfg()
        entries = D.read_manifest(manifest)
        data_dir = os.path.dirname(manifest)

        full = P.Trainer(cfg, entries, data_dir)
        full.run()

        half = P.Trainer(cfg, entries, data_dir)
        half.run(max_steps=full.total_steps // 2)
        mid = str(tmp_path / "mid")
        half.save(mid)
        resumed = P.Trainer.load(mid, entries, data_dir)
        resumed.run()

        assert resumed.loss_log == full.loss_log
        assert params_digest(resumed.model.params) == \
            params_digest(full.model.params)

    def test_interval_checkpoints_resume_to_the_same_bytes(self, tmp_path):
        manifest = _dataset(tmp_path)
        cfg = _cfg(epochs=5, batch_size=4, checkpoint_interval=2)
        full = tmp_path / "full"
        P.pretrain_run(cfg, manifest, str(full))
        assert sorted(os.listdir(full)) == ["checkpoint", "ckpt_000002",
                                            "ckpt_000004", "loss_log.csv"]
        resumed = tmp_path / "resumed"
        P.Trainer.load(str(full / "ckpt_000002"), D.read_manifest(manifest),
                       os.path.dirname(manifest)).run(out_dir=str(resumed))
        names = sorted(os.listdir(full / "checkpoint"))
        assert names == sorted(os.listdir(resumed / "checkpoint"))
        for n in names:
            assert (full / "checkpoint" / n).read_bytes() == \
                (resumed / "checkpoint" / n).read_bytes(), n
        assert (full / "loss_log.csv").read_bytes() == \
            (resumed / "loss_log.csv").read_bytes()

    def test_missing_parameter_file_fatal(self, tmp_path):
        manifest = _dataset(tmp_path)
        P.pretrain_run(_cfg(), manifest, str(tmp_path / "run"))
        ckpt = tmp_path / "run" / "checkpoint"
        victim = next(f for f in os.listdir(ckpt) if f.startswith("param__"))
        os.remove(ckpt / victim)
        with pytest.raises(Exception) as exc:
            P.load_checkpoint(str(ckpt))
        assert victim.replace("param__", "").replace(".fgmr", "") \
            in str(exc.value).replace("/", ".")

    def test_missing_moment_file_is_checkpoint_error(self, tmp_path):
        manifest = _dataset(tmp_path)
        P.pretrain_run(_cfg(), manifest, str(tmp_path / "run"))
        ckpt = tmp_path / "run" / "checkpoint"
        victim = next(f for f in sorted(os.listdir(ckpt)) if f.startswith("v__"))
        os.remove(ckpt / victim)
        with pytest.raises(P.CheckpointError) as exc:
            P.load_checkpoint(str(ckpt))
        assert victim[len("v__"):-len(".fgmr")] in str(exc.value)

    def test_missing_param_file_is_checkpoint_error(self, tmp_path):
        manifest = _dataset(tmp_path)
        P.pretrain_run(_cfg(), manifest, str(tmp_path / "run"))
        ckpt = tmp_path / "run" / "checkpoint"
        victim = next(f for f in sorted(os.listdir(ckpt)) if f.startswith("param__"))
        os.remove(ckpt / victim)
        with pytest.raises(P.CheckpointError) as exc:
            P.load_checkpoint(str(ckpt))
        assert victim[len("param__"):-len(".fgmr")] in str(exc.value)

    @pytest.mark.parametrize("edit", [
        lambda index: {**index, "format": "fgmae-checkpoint-v0"},
        lambda index: {**index, "format": "fgmae-checkpoint-v1"},
        lambda index: {**index, "format": "fgmae-checkpoint-v2"},
        lambda index: {k: v for k, v in index.items() if k != "config"},
        lambda index: {**index, "optimizer": {"t": 0}},
        lambda index: {**index, "config": {**index["config"], "epochs": 0}},
        lambda index: {**index, "config": {**index["config"], "lr": 1.0}},
        lambda index: [index]],
        ids=["v0", "v1", "v2", "no-config", "no-optimizer-keys",
             "config-invalid", "config-unknown-key", "not-an-object"])
    def test_bad_index_is_checkpoint_error(self, tmp_path, edit):
        manifest = _dataset(tmp_path)
        ckpt = tmp_path / "ckpt"
        P.Trainer(_cfg(), D.read_manifest(manifest),
                  os.path.dirname(manifest)).save(str(ckpt))
        index = json.loads((ckpt / "index.json").read_text())
        assert index["format"] == P.FORMAT == "fgmae-checkpoint-v3"
        assert set(index) == {"format", "step", "config_digest", "config",
                              "optimizer", "loss_log"}
        assert set(index["optimizer"]) == {"t", "has_moments"}
        (ckpt / "index.json").write_text(json.dumps(edit(index)))
        with pytest.raises(P.CheckpointError):
            P.load_checkpoint(str(ckpt))

    def test_truncated_index_is_checkpoint_error(self, tmp_path):
        manifest = _dataset(tmp_path)
        ckpt = tmp_path / "ckpt"
        P.Trainer(_cfg(), D.read_manifest(manifest),
                  os.path.dirname(manifest)).save(str(ckpt))
        text = (ckpt / "index.json").read_text()
        (ckpt / "index.json").write_text(text[:len(text) // 2])
        with pytest.raises(P.CheckpointError, match="malformed"):
            P.load_checkpoint(str(ckpt))

    @pytest.mark.parametrize("edit, error", [
        ({"model": {"enc_width": 16}}, D.ContainerError),
        ({"feature": {"variant": "canny"}}, D.ContainerError),
        ({"model": {"enc_depth": 0}}, P.CheckpointError),
        ({"model": {"dec_depth": 2}}, P.CheckpointError)],
        ids=["narrower", "other-head-width", "fewer-blocks", "more-blocks"])
    def test_config_that_disagrees_with_the_tensors(self, tmp_path, edit,
                                                    error):
        # the stored config alone describes the model, so a config edited
        # away from the tensors fails the load, naming what does not fit
        manifest = _dataset(tmp_path)
        entries, data_dir = D.read_manifest(manifest), os.path.dirname(manifest)
        trainer = P.Trainer(_cfg(), entries, data_dir)
        trainer.train_step()
        ckpt = tmp_path / "ckpt"
        trainer.save(str(ckpt))
        index = json.loads((ckpt / "index.json").read_text())
        for block, values in edit.items():
            index["config"][block].update(values)
        (ckpt / "index.json").write_text(json.dumps(index))
        with pytest.raises(error):
            P.Trainer.load(str(ckpt), entries, data_dir)
        with pytest.raises(error):
            P.load_model(str(ckpt))

    @settings(max_examples=25, deadline=None)
    @given(cfg=_pretrain_configs(), step=st.integers(0, 2**31),
           stepped=st.booleans())
    def test_round_trip_property(self, tmp_path_factory, cfg, step, stepped):
        # the checkpoint leg of config round trips: save and load give the
        # same config and digest, the config's heads and every bit of the
        # parameters and moments
        model = M.FgMae(cfg.model, cfg.heads, np.random.default_rng(step))
        opt = O.AdamW(model.params, lr=cfg.base_lr,
                      beta1=cfg.adam_betas[0], beta2=cfg.adam_betas[1],
                      weight_decay=cfg.weight_decay)
        gen = np.random.default_rng(1)
        if stepped:
            for p in model.params.values():
                p.grad = gen.standard_normal(p.shape).astype(np.float32)
            with np.errstate(all="ignore"):
                O.adamw_step(opt)
        log = [(step, cfg.base_lr, 0.5)]
        path = str(tmp_path_factory.mktemp("ckpt"))
        P.save_checkpoint(path, model, opt, step, log, cfg)
        back, model2, opt2, step2, log2 = P.load_checkpoint(path)
        assert back == cfg and back.digest() == cfg.digest()
        assert model2.heads == cfg.heads == model.heads
        assert (step2, log2, opt2.t) == (step, log, opt.t)
        assert TestLoopOracle._arrays(model2, opt2) == \
            TestLoopOracle._arrays(model, opt)
        assert len(opt2.m) == (len(model.params) if stepped else 0)

    def test_fresh_trainer_draws_into_the_optimizer(self, tmp_path):
        # no copy: each parameter is a view of its AdamW group's buffer,
        # holding what FgMae draws from the same generator
        cfg = _cfg()
        trainer = P.Trainer(cfg, D.read_manifest(_dataset(tmp_path)),
                            str(tmp_path / "data"))
        drawn = M.FgMae(cfg.model, cfg.heads,
                        Rng(cfg.seed).child("init").at(0))
        for name, p in trainer.model.params.items():
            assert any(np.shares_memory(p.data, g.p)
                       for g in trainer.opt.groups), name
            assert p.data.tobytes() == drawn.params[name].data.tobytes()

    def test_load_model_helper(self, tmp_path):
        manifest = _dataset(tmp_path)
        trainer = P.pretrain_run(_cfg(), manifest, str(tmp_path / "run"))
        model = P.load_model(str(tmp_path / "run" / "checkpoint"))
        assert params_digest(model.params) == params_digest(trainer.model.params)


def _demo_config():
    demo = os.path.join(os.path.dirname(__file__), "..", "demos",
                        "pretrain_config.json")
    with open(demo) as f:
        return P.from_dict(P.PretrainConfig, json.load(f))


def _demo_trainer(tmp_path):
    manifest = _dataset(tmp_path, n_locations=8)
    return P.Trainer(_demo_config(), D.read_manifest(manifest),
                     os.path.dirname(manifest))


class TestLoopOracle:
    """The shared sample plan, batch assembler and step function against
    the hand-written step they replaced (tests/oracles.py), bitwise."""

    @pytest.mark.parametrize("grad_clip", [0.0, 0.05])
    def test_matches_reference_across_resume(self, tmp_path, grad_clip):
        # 12 locations in batches of 8: partial batches and 4 epoch turns
        manifest = _dataset(tmp_path, n_locations=12)
        entries, data_dir = D.read_manifest(manifest), os.path.dirname(manifest)
        cfg = dataclasses.replace(_demo_config(), grad_clip=grad_clip)
        ref = P.Trainer(cfg, entries, data_dir)
        for _ in range(8):
            pretrain_step_reference(ref)
        new = P.Trainer(cfg, entries, data_dir)
        for _ in range(5):
            new.train_step()
        new.save(str(tmp_path / "ckpt"))
        new = P.Trainer.load(str(tmp_path / "ckpt"), entries, data_dir)
        for _ in range(3):
            new.train_step()
        assert new.loss_log == ref.loss_log
        assert new.step == ref.step == new.opt.t == ref.opt.t == 8
        assert self._arrays(new.model, new.opt) == \
            self._arrays(ref.model, ref.opt)

    @staticmethod
    def _arrays(model, opt):
        """(kind, name) -> (dtype, bytes) of every parameter and moment."""
        stores = {"param": {n: p.data for n, p in model.params.items()},
                  "m": opt.m, "v": opt.v}
        return {(kind, name): (a.dtype, a.tobytes())
                for kind, store in stores.items() for name, a in store.items()}


class TestMemory:
    def test_train_step_leaves_no_cyclic_garbage(self, tmp_path):
        # the step's tape must go by reference counting when the step ends
        trainer = _demo_trainer(tmp_path)
        gc.collect()
        gc.disable()
        try:
            trainer.train_step()
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestLanes:
    def test_demo_steps_stay_on_one_lane(self, tmp_path, monkeypatch):
        """With a lane installed and PAIR_MIN and SPLIT_MIN as they are, a
        demo-size step (SAR with HOG; 13 bands with Canny, whose patch
        embed is the largest demo product) and its AdamW step submit
        nothing to it; the decoder of criterion 6's width does."""
        jobs = []
        lane = T._new_lane()
        monkeypatch.setattr(T, "_lane", lane)
        monkeypatch.setattr(lane, "submit", lambda *a: (
            jobs.append(1), type(lane).submit(lane, *a))[1])
        ms = D.synthesize_dataset(str(tmp_path / "ms"), "MS", n_locations=8,
                                  seed=4, looks=1, size=32)
        demo = _demo_config()
        canny = dataclasses.replace(demo, model=demo.model.with_(in_channels=13),
                                    feature=F.FeatureSpec("canny"))
        wide = dataclasses.replace(demo, model=demo.model.with_(dec_width=128))
        try:
            for trainer in (_demo_trainer(tmp_path), P.Trainer(
                    canny, D.read_manifest(ms), os.path.dirname(ms))):
                trainer.train_step()
                for p in trainer.model.params.values():
                    p.grad = np.ones_like(p.data)
                O.adamw_step(trainer.opt)
                assert jobs == []
            data = tmp_path / "data"
            P.Trainer(wide, D.read_manifest(str(data / "manifest.csv")),
                      str(data)).train_step()
            assert jobs
        finally:
            lane.shutdown(wait=True)

    def test_lane_runs_no_traced_function_and_ends_idle(self, tmp_path,
                                                         monkeypatch):
        """With every product and the AdamW step on two lanes: perfbench's
        tracer, which keeps one span stack per process, opens every span on
        the calling thread; the lane is idle whenever backward or the step
        returns; and the step trains the one-lane bits."""
        from perfbench import tracer as tracing
        from test_tensor import forced_lane, lane_idle
        want = _demo_trainer(tmp_path)
        want.train_step()
        main, threads, idle = threading.get_ident(), set(), []
        tracer = tracing.Tracer()
        open_span = tracer.open

        def recording(nid):
            threads.add(threading.get_ident())
            return open_span(nid)
        monkeypatch.setattr(tracer, "open", recording)
        with forced_lane(monkeypatch) as lane:
            for owner, name in ((T.Tensor, "backward"), (O, "adamw_step")):
                def ends_idle(*a, _f=getattr(owner, name), **k):
                    out = _f(*a, **k)
                    idle.append(lane_idle(lane))
                    return out
                monkeypatch.setattr(owner, name, ends_idle)
            restore = tracing.instrument(tracer)
            try:
                got = _demo_trainer(tmp_path)
                got.train_step()
            finally:
                restore()
            names = {n.split(".<locals>")[0] for n, _ in lane.jobs}
        assert names == {"_halves", "_weight_grad_job", "adamw_step"}
        assert threads == {main} and tracer.start
        assert idle == [True, True]
        assert got.loss_log == want.loss_log
        assert params_digest(got.model.params) == params_digest(want.model.params)


class TestTape:
    def test_demo_step_records_161_nodes(self, tmp_path, monkeypatch):
        # 2+2 blocks: 4-node layer_norms, one node per qkv split
        from test_tensor import node_counter
        trainer = _demo_trainer(tmp_path)
        made = node_counter(monkeypatch)
        trainer.train_step()
        assert made[0] == 161


def _read_loss_log(path):
    """(rows, config digest) of a loss_log.csv."""
    with open(path) as f:
        digest = f.readline().strip().split("=", 1)[1]
        assert f.readline() == "step,lr,loss\n"
        rows = [line.strip().split(",") for line in f]
    return [(int(s), float(lr), float(lo)) for s, lr, lo in rows], digest


class TestLossLog:
    def test_csv_roundtrip(self, tmp_path):
        log = [(0, 0.0, 1.5), (1, 1e-4, 1.25), (2, 1.5e-4, 0.75)]
        p = str(tmp_path / "loss_log.csv")
        P.write_loss_log(p, log, "deadbeefdeadbeef")
        back, digest = _read_loss_log(p)
        assert digest == "deadbeefdeadbeef"
        assert back == log

    def test_written_during_run(self, tmp_path):
        manifest = _dataset(tmp_path)
        trainer = P.pretrain_run(_cfg(), manifest, str(tmp_path / "run"))
        log, digest = _read_loss_log(str(tmp_path / "run" / "loss_log.csv"))
        assert log == trainer.loss_log
        assert digest == _cfg().digest()

    def test_loss_decreases_on_tiny_run(self, tmp_path):
        manifest = _dataset(tmp_path)
        trainer = P.pretrain_run(_cfg(epochs=8, base_lr=2e-3), manifest,
                                 str(tmp_path / "run"))
        first = trainer.loss_log[0][2]
        last = np.mean([l for _, _, l in trainer.loss_log[-4:]])
        assert last < first


class TestFailure:
    def test_divergence_raises_with_context(self, tmp_path):
        manifest = _dataset(tmp_path)
        cfg = _cfg(base_lr=1e18, warmup_epochs=0, epochs=50)
        entries = D.read_manifest(manifest)
        trainer = P.Trainer(cfg, entries, os.path.dirname(manifest))
        with pytest.raises((O.TrainingDiverged, FloatingPointError)):
            trainer.run()

    def test_augment_size_must_match_model(self):
        # caught when the config is built, before any trainer exists
        with pytest.raises(ValueError, match="augmentation output size"):
            _cfg(augment=D.AugmentationConfig(out_size=64))
