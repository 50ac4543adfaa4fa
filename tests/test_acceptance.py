"""Acceptance suite: one test per release criterion.

These are the binding end-to-end checks; the other test files cover the same
ground at unit granularity. Some tests here train real (tiny) models and take
minutes on CPU.
"""

import dataclasses
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from fgmae import data as D
from fgmae import evaluate as E
from fgmae import features as F
from fgmae import model as M
from fgmae import optim as O
from fgmae import pretrain as P
from fgmae import tensor as T
from fgmae.rng import Rng
from fgmae.tensor import Tensor

from oracles import (canny_reference, f1_reference, hog_reference,
                     map_reference, miou_reference, oa_aa_reference)


def test_criterion_1_descriptor_oracles():
    """HOG within 1e-6 of the scalar oracle on 50 seeded 32x32 images;
    Canny exactly equal on 50 seeded 64x64 images; under 30 s."""
    t0 = time.time()
    gen = np.random.default_rng(20240)
    for _ in range(50):
        img = gen.random((32, 32))
        ours = F.compute_hog(img[None, None])[0, 0]
        ref = hog_reference(img)
        assert np.abs(ours - ref).max() < 1e-6
    gen = np.random.default_rng(20241)
    for _ in range(50):
        img = gen.random((64, 64))
        ours = F.compute_canny(img[None, None])[0, 0]
        ref = canny_reference(img)
        assert (ours == ref).all()
    assert time.time() - t0 < 30.0


def test_criterion_2_ndi_correctness():
    t0 = time.time()
    # hand value
    img = np.zeros((1, 13, 1, 1))
    bands = F.BandMap()
    img[0, bands.nir] = 0.8
    img[0, bands.red] = 0.2
    np.testing.assert_allclose(F.compute_ndi(img)[0, 0], 0.6, atol=1e-12)
    # antisymmetry
    gen = np.random.default_rng(0)
    a, b = gen.random(1000), gen.random(1000)
    np.testing.assert_allclose(F._safe_ratio(a - b, a + b),
                               -F._safe_ratio(b - a, b + a), atol=1e-12)
    # zero denominator convention
    assert (F.compute_ndi(np.zeros((1, 13, 8, 8))) == 0.0).all()
    # bounded on a million random nonnegative pixels
    big = gen.random((1, 13, 280, 280)) * 10.0
    assert big[0, 0].size * 13 >= 1_000_000
    ndi = F.compute_ndi(big)
    assert ndi.min() >= -1.0 and ndi.max() <= 1.0
    assert time.time() - t0 < 10.0


def test_criterion_3_autodiff_soundness():
    """Every differentiable op and the full tiny masked-feature loss pass
    central-difference gradient checks at rel. err < 1e-4 in f64."""
    t0 = time.time()
    gen = np.random.default_rng(7)

    def t(shape):
        return Tensor(gen.standard_normal(shape), requires_grad=True,
                      dtype=np.float64)

    w34 = Tensor(gen.standard_normal((3, 4)))
    w43 = Tensor(gen.standard_normal((4, 3)))
    w33 = Tensor(gen.standard_normal((3, 3)))
    w43b = Tensor(gen.standard_normal((4, 3)))
    g8 = Tensor(gen.standard_normal(8))
    idx = np.array([[2, 0], [1, 3]])
    op_cases = [
        lambda x: T.tsum(x + w34),
        lambda x: T.tsum(x * w34),
        lambda x: T.tsum(x / (x * x + 2.0)),
        lambda x: T.tsum(x ** 3),
        lambda x: T.tsum(T.exp(x * 0.2)),
        lambda x: T.tsum(T.log(x * x + 1.0)),
        lambda x: T.tsum(T.gelu(x)),
        lambda x: T.tsum(T.matmul(x, w43) * w33),
        lambda x: T.tsum(T.reshape(x, 12) ** 2),
        lambda x: T.tsum(T.transpose(x) * w43b),
        lambda x: T.tsum(T.swapaxes(x, 0, 1) * w43b),
        lambda x: T.tsum(T.concatenate([x, x], axis=0) ** 2),
        lambda x: T.tsum(T.softmax(x) * w34),
        lambda x: T.tsum(T.log_softmax(x) * w34),
        lambda x: T.tsum(T.softplus(x)),
        lambda x: T.tsum(T.sigmoid(x) * w34),
        lambda x: T.tmean(x * x),
    ]
    for f in op_cases:
        assert T.grad_check(f, t((3, 4))) < 1e-4
    assert T.grad_check(
        lambda x: T.tsum(T.layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8)))
                         * g8), t((2, 8))) < 1e-4
    assert T.grad_check(
        lambda x: T.tsum(T.gather_tokens(x, idx) ** 2), t((2, 4, 3))) < 1e-4

    # full tiny model loss: analytic gradients vs central differences on
    # sampled coordinates of several parameters
    cfg = M.ModelConfig(image_size=16, patch_size=8, in_channels=2,
                        enc_width=16, enc_depth=1, enc_heads=2,
                        dec_width=16, dec_depth=1, dec_heads=2,
                        mask_ratio=0.5)
    model = M.FgMae(cfg, F.FeatureSpec("hog", hog=F.HogParams(cell_size=4))
                    .heads(2, 8), Rng(0).child("init").at(0))
    for p in model.params.values():  # the check runs in f64
        p.data = p.data.astype(np.float64)
    img = gen.random((2, 2, 16, 16))
    target = F.assemble_targets(img, F.FeatureSpec("hog",
                                                   hog=F.HogParams(cell_size=4)), 8)
    plan = M.random_masking_plan(2, cfg.n_patches, 0.5,
                                 np.random.default_rng(1))

    def loss_value():
        return M.masked_l2_loss(model.forward(Tensor(img), plan),
                                target, plan).item()

    M.masked_l2_loss(model.forward(Tensor(img), plan), target, plan).backward()
    h = 1e-6
    for name in ("embed.w", "enc.0.qkv.w", "enc.0.mlp1.w", "mask_token",
                 "dec.0.proj.w", "head.w", "head.b", "enc.norm.g"):
        p = model.params[name]
        flat = p.data.reshape(-1)
        coords = np.random.default_rng(2).choice(flat.size,
                                                 size=min(4, flat.size),
                                                 replace=False)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + h
            up = loss_value()
            flat[c] = orig - h
            dn = loss_value()
            flat[c] = orig
            fd = (up - dn) / (2 * h)
            an = p.grad.reshape(-1)[c]
            rel = abs(fd - an) / max(1.0, abs(an))
            assert rel < 1e-4, (name, c, fd, an)
    assert time.time() - t0 < 120.0


def test_criterion_4_masked_loss_contract():
    gen = np.random.default_rng(3)
    pred = Tensor(gen.random((2, 16, 12)), requires_grad=True,
                  dtype=np.float64)
    target = gen.random((2, 16, 12))
    plan = M.random_masking_plan(2, 16, 0.7, gen)
    def loss(tgt):
        return M.masked_l2_loss({"hog": pred}, {"hog": tgt}, plan).item()

    base = loss(target)
    # visible-patch targets are irrelevant, bit for bit
    t2 = target.copy()
    for b in range(2):
        t2[b, plan.ids_keep[b]] = -1e6
    assert loss(t2) == base
    # constant offset delta on masked entries -> loss exactly delta^2
    delta = 0.73
    t3 = target.copy()
    for b in range(2):
        t3[b, plan.ids_mask[b]] = pred.data[b, plan.ids_mask[b]] + delta
    assert abs(loss(t3) - delta ** 2) < 1e-9
    # floor rule for the keep count on 20 pairs
    pairs = [(196, 0.7, 58), (196, 0.75, 49), (16, 0.7, 4), (64, 0.5, 32),
             (100, 0.8, 19), (7, 0.5, 3), (9, 0.33, 6), (10, 0.15, 8),
             (12, 0.99, 0), (50, 0.7, 15), (25, 0.6, 10), (49, 0.75, 12),
             (1, 0.0, 1), (144, 0.7, 43), (256, 0.7, 76), (196, 0.0, 196),
             (36, 0.7, 10), (81, 0.8, 16), (121, 0.7, 36), (169, 0.7, 50)]
    assert len(pairs) == 20
    for n, ratio, expect in pairs:
        assert M.keep_count(n, ratio) == expect, (n, ratio)
        if expect >= 1:
            p = M.random_masking_plan(1, n, ratio, np.random.default_rng(0))
            assert p.n_keep == expect


_CRITERION_5_CONFIG = P.PretrainConfig(
    model=M.ModelConfig(image_size=32, patch_size=8, in_channels=2,
                        enc_width=32, enc_depth=1, enc_heads=4,
                        dec_width=32, dec_depth=1, dec_heads=4,
                        mask_ratio=0.7),
    feature=F.FeatureSpec("hog", hog=F.HogParams(cell_size=4)),
    augment=D.AugmentationConfig(scale_min=0.5, scale_max=1.0, out_size=32),
    epochs=4, batch_size=2, base_lr=1e-3, warmup_epochs=1, seed=11)


def _criterion_5_data(tmp_path):
    return D.synthesize_dataset(str(tmp_path / "data"), "SAR", n_locations=4,
                                seed=3, looks=1, size=32)


def test_criterion_5_determinism(tmp_path):
    t0 = time.time()
    manifest = _criterion_5_data(tmp_path)
    cfg = _CRITERION_5_CONFIG
    r1 = P.pretrain_run(cfg, manifest, str(tmp_path / "r1"))
    r2 = P.pretrain_run(cfg, manifest, str(tmp_path / "r2"))
    assert r1.loss_log == r2.loss_log
    d1, d2 = tmp_path / "r1" / "checkpoint", tmp_path / "r2" / "checkpoint"
    for n in sorted(os.listdir(d1)):
        if n.endswith(".fgmr"):
            assert (d1 / n).read_bytes() == (d2 / n).read_bytes(), n
    assert (tmp_path / "r1" / "loss_log.csv").read_bytes() == \
        (tmp_path / "r2" / "loss_log.csv").read_bytes()

    # save/load mid-run is bitwise transparent
    entries = D.read_manifest(manifest)
    data_dir = os.path.dirname(manifest)
    half = P.Trainer(cfg, entries, data_dir)
    half.run(max_steps=half.total_steps // 2)
    half.save(str(tmp_path / "mid"))
    resumed = P.Trainer.load(str(tmp_path / "mid"), entries, data_dir)
    resumed.run()
    assert resumed.loss_log == r1.loss_log
    assert E.params_digest(resumed.model.params) == \
        E.params_digest(r1.model.params)
    assert time.time() - t0 < 120.0


_PRETRAIN_CHILD = """
import json, sys
from fgmae import pretrain as P
cfg = P.from_dict(P.PretrainConfig, json.loads(sys.argv[1]))
P.pretrain_run(cfg, sys.argv[2], sys.argv[3])
"""


def test_criterion_5_blas_threads(tmp_path):
    """Criterion 5's run in a child process with OpenBLAS on one thread and
    on two, the variable set for each child only: the loss logs and the
    checkpoint tensors are the same bytes. Criterion 5's products are too
    small for OpenBLAS to split over threads, so this shows that the
    setting alone changes nothing, not that a threaded GEMM is bitwise."""
    manifest = _criterion_5_data(tmp_path)
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    config = json.dumps(dataclasses.asdict(_CRITERION_5_CONFIG))
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", _PRETRAIN_CHILD, config,
                              manifest, str(tmp_path / threads)],
                             env=env, capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, (threads, out.stderr)
    one, two = tmp_path / "1", tmp_path / "2"
    assert (one / "loss_log.csv").read_bytes() == (two / "loss_log.csv").read_bytes()
    tensors = sorted(n for n in os.listdir(one / "checkpoint") if n.endswith(".fgmr"))
    assert tensors == sorted(n for n in os.listdir(two / "checkpoint")
                             if n.endswith(".fgmr"))
    for n in tensors:
        assert (one / "checkpoint" / n).read_bytes() == \
            (two / "checkpoint" / n).read_bytes(), n


# criterion 6's model: the decoder's MLP products are 8·16·128·512 = 2^23
# multiply-adds, PAIR_MIN, so they run on two lanes when BLAS is pinned
_TWO_LANE_CONFIG = dataclasses.replace(
    _CRITERION_5_CONFIG, batch_size=8, epochs=3, warmup_epochs=1,
    model=_CRITERION_5_CONFIG.model.with_(enc_width=64, enc_depth=2,
                                          dec_width=128, dec_depth=2))

# the same with a 128-wide encoder of depth 4: 1.2 M parameters, above the
# optimizer's SPLIT_MIN, so AdamW splits its steps over the two lanes too
_TWO_LANE_STEP_CONFIG = dataclasses.replace(
    _TWO_LANE_CONFIG, model=_TWO_LANE_CONFIG.model.with_(enc_width=128,
                                                         enc_depth=4))

_COUNTED_PRETRAIN = """
import collections, json, sys
from fgmae import cli, tensor as T
jobs = collections.Counter()
if T._lane is not None:
    submit = T._lane.submit
    def counting(run, job):
        jobs[job.__qualname__.split(".<locals>")[0]] += 1
        return submit(run, job)
    T._lane.submit = counting
code = cli.main(["pretrain", "--config", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps({"jobs": jobs, "cpus": T._cpus()}))
sys.exit(code)
"""


def _pretrain_on_one_and_two_lanes(tmp_path, cfg):
    """``fgmae pretrain`` of ``cfg`` in a child with OpenBLAS on one thread
    (two lanes) and one with two threads (one lane), the variables set for
    each child only. Asserts that the loss logs and every checkpoint tensor
    are the same bytes; returns the pinned child's lane jobs by the
    function that submitted them, and its CPU count."""
    # one scene per location and epoch: 8 locations fill a batch of 8
    manifest = D.synthesize_dataset(str(tmp_path / "data"), "SAR",
                                    n_locations=8, seed=3, looks=1, size=32)
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    config = tmp_path / "pretrain.json"
    config.write_text(json.dumps({**dataclasses.asdict(cfg),
                                  "manifest": manifest}))
    report = {}
    for threads in ("1", "2"):
        env = {k: v for k, v in os.environ.items()
               if k not in ("GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
        env.update(OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", _COUNTED_PRETRAIN,
                              str(config), str(tmp_path / threads)],
                             env=env, capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, (threads, out.stderr)
        report[threads] = json.loads(out.stdout.splitlines()[-1])
    assert report["2"]["jobs"] == {}
    one, two = tmp_path / "1", tmp_path / "2"
    assert (one / "loss_log.csv").read_bytes() == (two / "loss_log.csv").read_bytes()
    tensors = sorted(n for n in os.listdir(one / "checkpoint") if n.endswith(".fgmr"))
    assert tensors and tensors == sorted(
        n for n in os.listdir(two / "checkpoint") if n.endswith(".fgmr"))
    for n in tensors:
        assert (one / "checkpoint" / n).read_bytes() == \
            (two / "checkpoint" / n).read_bytes(), n
    return report["1"]["jobs"], report["1"]["cpus"]


def test_two_lanes_bitwise_across_processes(tmp_path):
    """``fgmae pretrain`` at a geometry that reaches PAIR_MIN: the same
    bytes on two lanes and on one, and the products used the lane."""
    jobs, cpus = _pretrain_on_one_and_two_lanes(tmp_path, _TWO_LANE_CONFIG)
    assert (jobs.get("_weight_grad_job", 0) > 0) is (cpus >= 2)
    assert "adamw_step" not in jobs  # 0.5 M parameters, below SPLIT_MIN


def test_two_lane_steps_bitwise_across_processes(tmp_path):
    """The same at a model above the optimizer's SPLIT_MIN: the AdamW steps
    and the weight gradients used the lane, and the bytes are the same."""
    jobs, cpus = _pretrain_on_one_and_two_lanes(tmp_path, _TWO_LANE_STEP_CONFIG)
    for kind in ("_weight_grad_job", "adamw_step"):
        assert (jobs.get(kind, 0) > 0) is (cpus >= 2), (kind, jobs)


def test_criterion_6_overfit_sanity():
    """Tiny model (encoder width 64, depth 2), 8 fixed synthetic SAR scenes,
    HOG targets: loss drops below 10% of its initial value in 500 steps."""
    t0 = time.time()
    imgs = np.stack([D.synth_sar_scene(i, 32, looks=4)[0] for i in range(8)])
    spec = F.FeatureSpec("hog", hog=F.HogParams(cell_size=4))
    cfg = M.ModelConfig(image_size=32, patch_size=8, in_channels=2,
                        enc_width=64, enc_depth=2, enc_heads=4,
                        dec_width=128, dec_depth=2, dec_heads=4,
                        mask_ratio=0.7)
    rng = Rng(0)
    model = M.FgMae(cfg, spec.heads(2, 8), rng.child("init").at(0))
    target = F.assemble_targets(imgs, spec, 8)
    opt = O.AdamW(model.params, lr=3e-3, beta2=0.95, weight_decay=0.0)
    sched = O.LrSchedule(base_lr=3e-3, min_lr=3e-3, warmup_steps=50,
                         total_steps=500)
    losses = []
    for step in range(500):  # through the step function training runs take
        plan = M.random_masking_plan(8, cfg.n_patches, 0.7,
                                     rng.child("mask").at(step))
        losses.append(O.take_step(
            model.params,
            lambda: M.masked_l2_loss(model.forward(
                Tensor(imgs.astype(np.float32)), plan), target, plan),
            lambda lr: O.adamw_step(opt, lr=lr), O.lr_at(step, sched), step))
    first, last = losses[0], losses[-1]
    assert last < 0.1 * first, f"ratio {last / first:.3f}"
    assert time.time() - t0 < 300.0


def test_criterion_7_probe_ordering(tmp_path):
    """Desk-scale directional replication on speckled SAR (looks=1): mean
    linear-probe OA with HOG targets >= raw-pixel targets (>=2 of 3 seeds),
    and pretrained >= random-init on every seed."""
    t0 = time.time()
    manifest = D.synthesize_dataset(str(tmp_path / "data"), "SAR",
                                    n_locations=24, seed=7, looks=1, size=64)
    base = P.PretrainConfig(
        model=M.ModelConfig(image_size=32, patch_size=8, in_channels=2,
                            enc_width=64, enc_depth=2, enc_heads=4,
                            dec_width=64, dec_depth=2, dec_heads=4,
                            mask_ratio=0.7),
        feature=F.FeatureSpec("hog", hog=F.HogParams(cell_size=4)),
        augment=D.AugmentationConfig(scale_min=0.2, scale_max=1.0,
                                     out_size=32),
        epochs=375, batch_size=8, base_lr=2e-3, min_lr=0.0, warmup_epochs=31,
        weight_decay=0.05, seed=0)
    specs = [F.FeatureSpec("hog", hog=F.HogParams(cell_size=4)),
             F.FeatureSpec("raw")]
    pcfg = E.ProbeConfig(task="singlelabel", epochs=30, batch_size=8, lr=0.1)
    rows = E.feature_ablation_study(base, specs, [0, 1, 2], manifest,
                                    str(tmp_path / "work"), pcfg,
                                    include_random_init=True)
    by_arm = {}
    for tag, seed, _, value in rows:
        if seed != "mean":
            by_arm.setdefault(tag, {})[seed] = value
    hog, raw = by_arm["hog"], by_arm["raw"]
    rand = by_arm["random-init"]
    # mean ordering plus the per-seed soft criterion
    assert np.mean(list(hog.values())) >= np.mean(list(raw.values()))
    assert sum(hog[s] >= raw[s] for s in (0, 1, 2)) >= 2
    assert all(hog[s] >= rand[s] for s in (0, 1, 2))
    assert time.time() - t0 < 1800.0


def test_criterion_8_metric_oracles():
    t0 = time.time()
    gen = np.random.default_rng(99)
    for _ in range(100):
        n, c = int(gen.integers(2, 10)), int(gen.integers(1, 4))
        scores = gen.random((n, c))
        labels = gen.integers(0, 2, (n, c))
        if labels.sum() == 0:
            labels[0, 0] = 1
        np.testing.assert_allclose(E.metric_map(scores, labels)[0],
                                   map_reference(scores, labels))
    for _ in range(100):
        n, c = int(gen.integers(2, 10)), int(gen.integers(1, 4))
        pred = gen.integers(0, 2, (n, c))
        labels = gen.integers(0, 2, (n, c))
        np.testing.assert_allclose(E.metric_f1(pred, labels)[0],
                                   f1_reference(pred, labels))
    for _ in range(100):
        n, k = int(gen.integers(2, 20)), int(gen.integers(2, 5))
        labels = gen.integers(0, k, n)
        pred = gen.integers(0, k, n)
        np.testing.assert_allclose(E.metric_oa_aa(pred, labels),
                                   oa_aa_reference(list(pred), list(labels)))
    for _ in range(100):
        k = int(gen.integers(2, 5))
        pred = gen.integers(0, k, (5, 5))
        labels = gen.integers(0, k, (5, 5))
        np.testing.assert_allclose(E.metric_miou(pred, labels, k),
                                   miou_reference(pred, labels, k))
    # hand-count examples
    mAP, _ = E.metric_map(np.array([[0.9], [0.4], [0.2]]),
                          np.array([[1], [0], [1]]))
    np.testing.assert_allclose(mAP, 5.0 / 6.0, atol=5e-5)
    _, _, miou = E.metric_miou(np.array([[0, 0], [1, 1]]),
                               np.array([[0, 1], [1, 1]]), 2)
    np.testing.assert_allclose(miou, 7.0 / 12.0)
    assert time.time() - t0 < 30.0


def test_criterion_9_preset_scaling():
    """S/B/L/H presets construct at a 32-pixel input, run a forward pass and
    have strictly increasing parameter counts."""
    counts = []
    for name in ("vit-s", "vit-b", "vit-l", "vit-h"):
        cfg = M.ModelConfig.preset(name, image_size=32, patch_size=8,
                                   in_channels=2, mask_ratio=0.7)
        model = M.FgMae(cfg, {"hog": 16}, Rng(0).child("init").at(0))
        img = Tensor(np.random.default_rng(0)
                     .random((1, 2, 32, 32)).astype(np.float32))
        plan = M.random_masking_plan(1, cfg.n_patches, 0.7,
                                     np.random.default_rng(1))
        out = model.forward(img, plan)["hog"]
        assert out.shape == (1, cfg.n_patches, 16)
        counts.append(model.n_parameters())
        del model
    assert all(a < b for a, b in zip(counts, counts[1:])), counts


def test_criterion_10_format_roundtrips(tmp_path):
    # FGMR bitwise
    for dtype in (np.float32, np.float64):
        arr = np.random.default_rng(0).random((3, 7, 5)).astype(dtype)
        p = str(tmp_path / f"{dtype.__name__}.fgmr")
        D.write_tensor(p, arr)
        back = D.read_tensor(p)
        assert back.dtype == dtype
        assert back.tobytes() == arr.tobytes()
        D.write_tensor(str(tmp_path / "again.fgmr"), back)
        assert open(p, "rb").read() == \
            open(str(tmp_path / "again.fgmr"), "rb").read()

    # checkpoint directory bitwise: save, load, save again, compare files
    manifest = D.synthesize_dataset(str(tmp_path / "data"), "SAR",
                                    n_locations=2, seed=1, looks=1, size=32)
    cfg = P.PretrainConfig(
        model=M.ModelConfig(image_size=32, patch_size=8, in_channels=2,
                            enc_width=32, enc_depth=1, enc_heads=4,
                            dec_width=32, dec_depth=1, dec_heads=4,
                            mask_ratio=0.7),
        feature=F.FeatureSpec("hog", hog=F.HogParams(cell_size=4)),
        augment=D.AugmentationConfig(scale_min=0.5, scale_max=1.0,
                                     out_size=32),
        epochs=2, batch_size=2, base_lr=1e-3, warmup_epochs=1, seed=2)
    trainer = P.pretrain_run(cfg, manifest, str(tmp_path / "run"))
    src = str(tmp_path / "run" / "checkpoint")
    entries = D.read_manifest(manifest)
    reloaded = P.Trainer.load(src, entries, os.path.dirname(manifest))
    dst = str(tmp_path / "resaved")
    reloaded.save(dst)
    for n in sorted(os.listdir(src)):
        if n.endswith(".fgmr"):
            assert open(os.path.join(src, n), "rb").read() == \
                open(os.path.join(dst, n), "rb").read(), n

    # PPM golden: byte-stable across repeated renders
    img = np.random.default_rng(5).random((2, 16, 16))
    rgb = M.render_sar_composite(img[None])[0]
    p1, p2 = str(tmp_path / "a.ppm"), str(tmp_path / "b.ppm")
    D.write_ppm(p1, rgb)
    D.write_ppm(p2, M.render_sar_composite(img[None])[0])
    assert open(p1, "rb").read() == open(p2, "rb").read()
