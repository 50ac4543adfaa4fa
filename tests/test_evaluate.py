"""Classification metrics versus brute-force references, probe plumbing and
the ablation result table."""

import os

import numpy as np
import pytest

from fgmae import data as D
from fgmae import evaluate as E
from fgmae import features as F
from fgmae import model as M
from fgmae import optim as O
from fgmae import pretrain as P
from fgmae.rng import Rng

from oracles import (f1_reference, fine_tune_reference,
                     layer_decay_scales_reference, linear_probe_reference,
                     map_reference, miou_reference, oa_aa_reference,
                     train_classifier_reference)


class TestMapMetric:
    def test_hand_example(self):
        scores = np.array([[0.9], [0.4], [0.2]])
        labels = np.array([[1], [0], [1]])
        mAP, per = E.metric_map(scores, labels)
        np.testing.assert_allclose(mAP, (1.0 + 2.0 / 3.0) / 2.0)

    def test_perfect_ranking(self):
        scores = np.array([[0.9], [0.8], [0.1]])
        labels = np.array([[1], [1], [0]])
        assert E.metric_map(scores, labels)[0] == 1.0

    def test_single_positive_at_bottom(self):
        n = 7
        scores = np.arange(n, dtype=float)[::-1].reshape(-1, 1)
        labels = np.zeros((n, 1), dtype=int)
        labels[-1, 0] = 1
        np.testing.assert_allclose(E.metric_map(scores, labels)[0], 1.0 / n)

    def test_classes_without_positives_skipped(self):
        scores = np.random.default_rng(0).random((6, 3))
        labels = np.zeros((6, 3), dtype=int)
        labels[:, 0] = [1, 0, 1, 0, 0, 0]
        mAP, per = E.metric_map(scores, labels)
        assert per[1] is None and per[2] is None
        np.testing.assert_allclose(
            mAP, map_reference(scores[:, :1], labels[:, :1]))

    def test_all_negative_rejected(self):
        with pytest.raises(ValueError):
            E.metric_map(np.zeros((3, 2)), np.zeros((3, 2), dtype=int))

    def test_matches_bruteforce_random(self):
        gen = np.random.default_rng(1)
        for _ in range(30):
            n, c = int(gen.integers(2, 12)), int(gen.integers(1, 4))
            scores = gen.random((n, c))
            labels = gen.integers(0, 2, (n, c))
            if labels.sum(axis=0).min() == 0:
                labels[0] = 1
            np.testing.assert_allclose(E.metric_map(scores, labels)[0],
                                       map_reference(scores, labels))

    def test_tie_break_stable(self):
        scores = np.array([[0.5], [0.5], [0.5]])
        labels = np.array([[0], [1], [0]])
        # ties resolved by ascending index: positive lands at rank 2
        np.testing.assert_allclose(E.metric_map(scores, labels)[0], 0.5)


class TestF1:
    def test_matches_bruteforce_random(self):
        gen = np.random.default_rng(2)
        for _ in range(30):
            n, c = int(gen.integers(2, 15)), int(gen.integers(1, 5))
            pred = gen.integers(0, 2, (n, c))
            labels = gen.integers(0, 2, (n, c))
            f1, _ = E.metric_f1(pred, labels)
            np.testing.assert_allclose(f1, f1_reference(pred, labels))

    def test_perfect_prediction(self):
        labels = np.array([[1, 0], [0, 1]])
        assert E.metric_f1(labels, labels)[0] == 1.0

    def test_empty_class_zero(self):
        pred = np.zeros((4, 1), dtype=int)
        labels = np.zeros((4, 1), dtype=int)
        assert E.metric_f1(pred, labels)[0] == 0.0


class TestOaAa:
    def test_matches_bruteforce_random(self):
        gen = np.random.default_rng(3)
        for _ in range(30):
            n = int(gen.integers(2, 20))
            k = int(gen.integers(2, 5))
            labels = gen.integers(0, k, n)
            pred = gen.integers(0, k, n)
            oa, aa = E.metric_oa_aa(pred, labels)
            oa_r, aa_r = oa_aa_reference(list(pred), list(labels))
            np.testing.assert_allclose(oa, oa_r)
            np.testing.assert_allclose(aa, aa_r)

    def test_imbalanced_aa_differs_from_oa(self):
        labels = np.array([0, 0, 0, 0, 1])
        pred = np.array([0, 0, 0, 0, 0])
        oa, aa = E.metric_oa_aa(pred, labels)
        np.testing.assert_allclose(oa, 0.8)
        np.testing.assert_allclose(aa, 0.5)


class TestMiou:
    def test_hand_example(self):
        pred = np.array([[0, 0], [1, 1]])
        label = np.array([[0, 1], [1, 1]])
        oa, aa, miou = E.metric_miou(pred, label, 2)
        np.testing.assert_allclose(miou, 7.0 / 12.0)

    def test_ignore_index(self):
        pred = np.array([0, 1, 1, 0])
        label = np.array([0, 1, 255, 255])
        oa, aa, miou = E.metric_miou(pred, label, 2, ignore_index=255)
        assert oa == 1.0 and miou == 1.0

    def test_matches_bruteforce_random(self):
        gen = np.random.default_rng(4)
        for _ in range(30):
            k = int(gen.integers(2, 5))
            pred = gen.integers(0, k, (6, 6))
            label = gen.integers(0, k, (6, 6))
            ours = E.metric_miou(pred, label, k)
            ref = miou_reference(pred, label, k)
            np.testing.assert_allclose(ours, ref)


class TestProbePlumbing:
    def test_split_holds_out_every_nth_location(self):
        entries = [D.SceneEntry(f"loc{i:02d}", s, "SAR", f"{i}_{s}.fgmr", "0")
                   for i in range(8) for s in range(2)]
        train, held = E._split_entries(entries, 4)
        train_locs = {e.location_id for e in train}
        held_locs = {e.location_id for e in held}
        assert held_locs == {"loc00", "loc04"}
        assert not train_locs & held_locs

    def test_layer_decay_scales(self):
        cfg = M.ModelConfig(image_size=32, patch_size=8, in_channels=2,
                            enc_width=32, enc_depth=3, enc_heads=4)
        model = M.FgMae(cfg, {"hog": 8})
        scales = E.layer_decay_scales(model, 0.5)
        # embedding below block 0, the final norm and the head at 1.0
        assert scales["embed.w"] == 0.5 ** 4
        assert scales["enc.0.mlp1.w"] == 0.5 ** 3
        assert scales["enc.2.mlp1.w"] == 0.5 ** 1
        assert scales["enc.norm.g"] == scales["enc.norm.b"] == 1.0
        assert scales.get("head.w", 1.0) == 1.0
        # the keys are the encoder, in the model's order
        assert list(scales) == [n for n in model.params
                                if n.startswith(("embed.", "enc."))]
        assert scales == {**layer_decay_scales_reference(cfg, 0.5),
                          "enc.norm.g": 1.0, "enc.norm.b": 1.0}

    def test_params_digest_sensitivity(self):
        cfg = M.ModelConfig(image_size=16, patch_size=8, in_channels=2,
                            enc_width=32, enc_depth=1, enc_heads=4)
        m1 = M.FgMae(cfg, {"hog": 8}, Rng(0).child("init").at(0))
        m2 = M.FgMae(cfg, {"hog": 8}, Rng(0).child("init").at(0))
        assert E.params_digest(m1.params) == E.params_digest(m2.params)
        m2.params["embed.b"].data[0] += 1e-6
        assert E.params_digest(m1.params) != E.params_digest(m2.params)

    def test_probe_config_validation(self):
        with pytest.raises(ValueError):
            E.ProbeConfig(task="regression")


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("probe") / "data")
    manifest = D.synthesize_dataset(out, "SAR", n_locations=6, seed=5,
                                    looks=1, size=32)
    return manifest, out


class TestProbeTraining:

    def _model(self, depth=1):
        cfg = M.ModelConfig(image_size=32, patch_size=8, in_channels=2,
                            enc_width=32, enc_depth=depth, enc_heads=4,
                            dec_width=32, dec_depth=1, dec_heads=4,
                            mask_ratio=0.7)
        return M.FgMae(cfg, {"hog": 16}, Rng(3).child("init").at(0))

    def test_linear_probe_runs_and_freezes_encoder(self, dataset):
        manifest, data_dir = dataset
        entries = D.read_manifest(manifest)
        model = self._model()
        before = E.params_digest(model.params)
        pcfg = E.ProbeConfig(task="singlelabel", epochs=2, batch_size=4,
                             lr=0.05, seed=0)
        report = E.linear_probe_train(model, entries, data_dir, pcfg)
        assert E.params_digest(model.params) == before
        assert 0.0 <= report["OA"] <= 1.0 and 0.0 <= report["AA"] <= 1.0

    def test_fine_tune_updates_encoder(self, dataset):
        manifest, data_dir = dataset
        entries = D.read_manifest(manifest)
        model = self._model()
        before = E.params_digest(model.params)
        pcfg = E.ProbeConfig(task="singlelabel", epochs=1, batch_size=4,
                             lr=1e-3, layer_decay=0.75,
                             seed=0)
        report = E.fine_tune(model, entries, data_dir, pcfg)
        assert E.params_digest(model.params) != before
        assert 0.0 <= report["OA"] <= 1.0

    @pytest.mark.parametrize("trainable_encoder,task", [
        (False, "singlelabel"), (True, "singlelabel"), (True, "multilabel")])
    def test_matches_reference_loop(self, dataset, trainable_encoder, task):
        # the shared plan, assembler and step against the hand-written loop
        # they replaced (tests/oracles.py): SGD probe with weight decay, or
        # fine-tune with layer decay and mixup; 24 scenes in batches of 5
        manifest, data_dir = dataset
        entries = D.read_manifest(manifest)
        pcfg = E.ProbeConfig(task=task, epochs=2, batch_size=5,
                             lr=1e-3 if trainable_encoder else 0.05,
                             weight_decay=0.05, mixup_alpha=0.8, seed=1)
        n_classes = D.SAR_CLASSES if task == "singlelabel" else D.MS_CLASSES
        models = self._model(), self._model()
        new = E._train_classifier(models[0], entries, data_dir, pcfg,
                                  n_classes, trainable_encoder)
        ref = train_classifier_reference(models[1], entries, data_dir, pcfg,
                                         n_classes, trainable_encoder)
        for a, b in ((new, ref), (models[0].params, models[1].params)):
            assert list(a) == list(b)
            for name in a:
                assert a[name].data.dtype == np.float32
                assert a[name].data.tobytes() == b[name].data.tobytes(), name
        changed = E.params_digest(models[0].params) != \
            E.params_digest(self._model().params)
        assert changed == trainable_encoder

    # case -> (train encoder, task, encoder depth)
    TRANSFER = {"sgd-probe": (False, "singlelabel", 1),
                "finetune-mixup-depth-3": (True, "singlelabel", 3),
                "finetune-multilabel": (True, "multilabel", 1)}

    @pytest.mark.parametrize("case", list(TRANSFER))
    def test_entry_points_match_reference(self, dataset, monkeypatch, case):
        # linear_probe_train and fine_tune against the two entry points
        # they replaced (tests/oracles.py): report, classifier and model
        # bytes, and the fine-tune's AdamW names, groups and lr scales
        train_encoder, task, depth = self.TRANSFER[case]
        manifest, data_dir = dataset
        entries = D.read_manifest(manifest)
        pcfg = E.ProbeConfig(task=task, epochs=2, batch_size=5,
                             lr=1e-3 if train_encoder else 0.05,
                             weight_decay=0.05, layer_decay=0.75,
                             mixup_alpha=0.8, seed=2)
        made = {"clf": [], "opt": []}

        class Recorded(O.AdamW):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made["opt"].append(self)
        monkeypatch.setattr(O, "AdamW", Recorded)
        train = E._train_classifier

        def recorded(*args, **kwargs):
            made["clf"].append(train(*args, **kwargs))
            return made["clf"][-1]
        monkeypatch.setattr(E, "_train_classifier", recorded)
        models = self._model(depth), self._model(depth)
        entry = E.fine_tune if train_encoder else E.linear_probe_train
        report = entry(models[0], entries, data_dir, pcfg)
        reference = fine_tune_reference if train_encoder else \
            linear_probe_reference
        ref_report, ref_clf = reference(models[1], entries, data_dir, pcfg)
        assert report.values == ref_report.values
        assert report.per_class == ref_report.per_class
        for a, b in ((made["clf"][0], ref_clf),
                     (models[0].params, models[1].params)):
            assert list(a) == list(b)
            for name in a:
                assert a[name].data.tobytes() == b[name].data.tobytes(), name
        assert len(made["opt"]) == (2 if train_encoder else 0)
        if train_encoder:
            new, ref = made["opt"]
            assert list(new.params) == list(ref.params)
            assert [(g.scale, g.exempt, g.p.dtype, g.members)
                    for g in new.groups] == \
                [(g.scale, g.exempt, g.p.dtype, g.members) for g in ref.groups]
            assert {n: new.lr_scale.get(n, 1.0) for n in new.params} == \
                {n: ref.lr_scale.get(n, 1.0) for n in ref.params}
            assert new.lr_scale["enc.norm.g"] == 1.0
            assert new.lr_scale["embed.w"] == 0.75 ** (depth + 1)

    def test_probe_deterministic(self, dataset):
        manifest, data_dir = dataset
        entries = D.read_manifest(manifest)
        pcfg = E.ProbeConfig(task="singlelabel", epochs=2, batch_size=4,
                             lr=0.05, seed=0)
        r1 = E.linear_probe_train(self._model(), entries, data_dir, pcfg)
        r2 = E.linear_probe_train(self._model(), entries, data_dir, pcfg)
        assert r1["OA"] == r2["OA"] and r1["AA"] == r2["AA"]


class TestAblationTable:
    def test_requires_two_specs(self):
        cfg = P.PretrainConfig()
        with pytest.raises(ValueError):
            E.feature_ablation_study(cfg, [F.FeatureSpec("raw")], [0],
                                     "m.csv", "/tmp", E.ProbeConfig())

    def test_csv_writer(self, tmp_path):
        rows = [("hog", 0, "OA", 0.5), ("hog", "mean", "OA", 0.5)]
        p = str(tmp_path / "ablation.csv")
        E.write_ablation_csv(p, rows)
        lines = open(p).read().splitlines()
        assert lines[0] == "spec,seed,metric,value"
        assert lines[1] == "hog,0,OA,0.5"
