"""Pretraining loop: determinism, checkpoint transparency, loss logging and
failure modes."""

import gc
import json
import os

import numpy as np
import pytest

from fgmae import cli
from fgmae import data as D
from fgmae import features as F
from fgmae import model as M
from fgmae import pretrain as P
from fgmae.evaluate import params_digest


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


class TestConfig:
    def test_digest_stable_and_sensitive(self):
        a, b = _cfg(), _cfg()
        assert a.digest() == b.digest()
        assert a.digest() != _cfg(seed=12).digest()
        assert len(a.digest()) == 16

    def test_dict_roundtrip(self):
        cfg = _cfg()
        back = P.config_from_dict(P.config_to_dict(cfg))
        assert back.digest() == cfg.digest()

    def test_validation(self):
        with pytest.raises(ValueError):
            _cfg(batch_size=0)
        with pytest.raises(ValueError):
            _cfg(warmup_epochs=99)

    def test_head_dims_resolved_from_feature(self):
        cfg = _cfg()
        resolved = P._resolve_head_dims(cfg)
        assert resolved.out_dims == cfg.feature.out_dims(2, 8)


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
        model, opt, step, loss_log, cfg_dict, digest = P.load_checkpoint(path)
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

    def test_digest_mismatch_warns(self, tmp_path):
        manifest = _dataset(tmp_path)
        P.pretrain_run(_cfg(), manifest, str(tmp_path / "run"))
        path = str(tmp_path / "run" / "checkpoint")
        with pytest.warns(UserWarning):
            P.load_checkpoint(path, cfg=_cfg(seed=99))

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

    def test_load_model_helper(self, tmp_path):
        manifest = _dataset(tmp_path)
        trainer = P.pretrain_run(_cfg(), manifest, str(tmp_path / "run"))
        model = P.load_model(str(tmp_path / "run" / "checkpoint"))
        assert params_digest(model.params) == params_digest(trainer.model.params)


def _demo_trainer(tmp_path):
    demo = os.path.join(os.path.dirname(__file__), "..", "demos",
                        "pretrain_config.json")
    with open(demo) as f:
        cfg = cli._from_dict(P.PretrainConfig, json.load(f))
    manifest = _dataset(tmp_path, n_locations=8)
    return P.Trainer(cfg, D.read_manifest(manifest), os.path.dirname(manifest))


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


class TestTape:
    def test_demo_step_records_161_nodes(self, tmp_path, monkeypatch):
        # 2+2 blocks: 4-node layer_norms, one node per qkv split
        from test_tensor import node_counter
        trainer = _demo_trainer(tmp_path)
        made = node_counter(monkeypatch)
        trainer.train_step()
        assert made[0] == 161


class TestLossLog:
    def test_csv_roundtrip(self, tmp_path):
        log = [(0, 0.0, 1.5), (1, 1e-4, 1.25), (2, 1.5e-4, 0.75)]
        p = str(tmp_path / "loss_log.csv")
        P.write_loss_log(p, log, "deadbeefdeadbeef")
        back, digest = P.read_loss_log(p)
        assert digest == "deadbeefdeadbeef"
        assert back == log

    def test_written_during_run(self, tmp_path):
        manifest = _dataset(tmp_path)
        trainer = P.pretrain_run(_cfg(), manifest, str(tmp_path / "run"))
        log, digest = P.read_loss_log(str(tmp_path / "run" / "loss_log.csv"))
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
        with pytest.raises((P.TrainingDiverged, FloatingPointError)):
            trainer.run()

    def test_augment_size_must_match_model(self):
        with pytest.raises(ValueError):
            cfg = _cfg(augment=D.AugmentationConfig(out_size=64))
            P.Trainer(cfg, [D.SceneEntry("a", 0, "SAR", "x.fgmr", "0")], "/tmp")
