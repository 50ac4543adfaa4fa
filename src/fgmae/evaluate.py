"""Transfer-learning protocols and metrics.

Linear probing with a frozen encoder, end-to-end fine-tuning with mixup and
layer-wise lr decay, the classification/segmentation metric set (mAP, F1,
OA, AA, mIoU), and the feature-ablation study runner.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import data as D
from . import model as M
from . import optim as O
from . import pretrain as P
from . import tensor as T
from .features import at_least
from .rng import Rng
from .tensor import Tensor


# ---------------------------------------------------------------------------
# metrics


@dataclass
class MetricsReport:
    values: dict = field(default_factory=dict)       # metric name -> scalar
    per_class: dict = field(default_factory=dict)    # metric name -> list

    def __getitem__(self, key):
        return self.values[key]


def metric_map(scores, labels):
    """Macro mean average precision over classes with >= 1 positive.

    Per class: rank by descending score (stable, ties broken by ascending
    index); AP is the mean of precision@rank over the positive ranks.
    Returns (mAP, per-class list with None for excluded classes).
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 2 or scores.shape != labels.shape:
        raise ValueError(f"need 2-D scores and labels of one shape, got "
                         f"{scores.shape} and {labels.shape}")
    n, k = scores.shape
    per_class = []
    valid = []
    for c in range(k):
        pos = labels[:, c] > 0
        if not pos.any():
            per_class.append(None)
            continue
        order = np.argsort(-scores[:, c], kind="stable")
        ranked = pos[order]
        hits = np.cumsum(ranked)
        precision = hits / np.arange(1, n + 1)
        ap = float(precision[ranked].mean())
        per_class.append(ap)
        valid.append(ap)
    if not valid:
        raise ValueError("no class has a positive example")
    return float(np.mean(valid)), per_class


def metric_f1(pred, labels):
    """Macro F1 over classes for 0/1 predictions; a class with P + R == 0
    contributes 0."""
    pred = np.asarray(pred)
    labels = np.asarray(labels)
    per_class = []
    for c in range(labels.shape[1]):
        tp = float(np.sum((pred[:, c] == 1) & (labels[:, c] == 1)))
        fp = float(np.sum((pred[:, c] == 1) & (labels[:, c] == 0)))
        fn = float(np.sum((pred[:, c] == 0) & (labels[:, c] == 1)))
        denom = 2 * tp + fp + fn
        per_class.append(0.0 if denom == 0 else 2 * tp / denom)
    return float(np.mean(per_class)), per_class


def metric_oa_aa(pred, labels):
    """Overall accuracy and unweighted mean of per-class recalls."""
    pred = np.asarray(pred)
    labels = np.asarray(labels)
    if pred.shape != labels.shape:
        raise ValueError(f"shapes disagree: {pred.shape} and {labels.shape}")
    if pred.size == 0:
        raise ValueError("empty input")
    oa = float(np.mean(pred == labels))
    recalls = []
    for c in np.unique(labels):
        sel = labels == c
        recalls.append(float(np.mean(pred[sel] == c)))
    return oa, float(np.mean(recalls))


def metric_miou(pred_mask, label_mask, n_classes, ignore_index=None):
    """(OA, AA, mIoU) over segmentation masks. IoU = TP/(TP+FP+FN) per
    class; the mean runs over classes with nonzero union; ignore_index
    pixels are excluded everywhere. Any other label outside [0, n_classes)
    is a ValueError."""
    pred = np.asarray(pred_mask).ravel()
    label = np.asarray(label_mask).ravel()
    if pred.size != label.size:
        raise ValueError(f"sizes disagree: {pred.size} and {label.size}")
    if ignore_index is not None:
        keep = label != ignore_index
        pred, label = pred[keep], label[keep]
    if pred.size == 0:
        raise ValueError("no valid pixels")
    bad = label[(label < 0) | (label >= n_classes)]
    if bad.size:
        raise ValueError(f"label {bad[0]} is outside [0, {n_classes})")
    oa = float(np.mean(pred == label))
    recalls = []
    ious = []
    for c in range(n_classes):
        tp = float(np.sum((pred == c) & (label == c)))
        fp = float(np.sum((pred == c) & (label != c)))
        fn = float(np.sum((pred != c) & (label == c)))
        if tp + fn > 0:
            recalls.append(tp / (tp + fn))
        union = tp + fp + fn
        if union > 0:
            ious.append(tp / union)
    aa = float(np.mean(recalls)) if recalls else 0.0
    miou = float(np.mean(ious)) if ious else 0.0
    return oa, aa, miou


# ---------------------------------------------------------------------------
# probing / fine-tuning


@dataclass
class ProbeConfig:
    """A linear probe (SGD on a frozen encoder) or a fine-tune (AdamW)."""

    task: str = "singlelabel"        # or "multilabel"
    epochs: int = 20
    batch_size: int = 8
    lr: float = 0.1
    weight_decay: float = 0.0
    layer_decay: float = 0.75        # fine-tune only
    mixup_alpha: float = 0.0         # fine-tune only
    seed: int = 0
    eval_every_n: int = 4            # every n-th location held out
    scale_min: float = 0.2

    def __post_init__(self):
        if self.task not in ("singlelabel", "multilabel"):
            raise ValueError(f"unknown task {self.task!r}")
        at_least(1, self, "epochs", "batch_size", "eval_every_n")
        if not 0.0 < self.scale_min <= 1.0:
            raise ValueError("need 0 < scale_min <= 1")
        at_least(0, self, "mixup_alpha")


def _split_entries(entries, every_n):
    locs = D.locations(entries)
    eval_locs = set(locs[::every_n])
    train = [e for e in entries if e.location_id not in eval_locs]
    held = [e for e in entries if e.location_id in eval_locs]
    return train, held


def _labels_for(entries, task, n_classes):
    """The entries' targets; a label outside the task's classes is a
    ContainerError naming its scene."""
    out = np.zeros((len(entries), n_classes), dtype=np.float32)
    for i, e in enumerate(entries):
        for c in e.label_list():
            if not 0 <= c < n_classes:
                raise D.ContainerError(f"scene {e.path}: label {c} is not "
                                       f"among the {n_classes} {task} classes")
            out[i, c] = 1.0
    if task == "singlelabel":
        return out.argmax(axis=1)
    return out


def params_digest(params):
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(params[name].data).tobytes())
    return h.hexdigest()


def _classifier_loss(logits, labels, task):
    """Loss against one row of class weights per sample: one-hot or mixed
    for singlelabel (softmax cross-entropy), 0/1 for multilabel."""
    t = Tensor(np.asarray(labels, dtype=logits.data.dtype))
    if task == "multilabel":
        # one-vs-all logistic: mean(softplus(x) - t * x)
        return T.tmean(T.softplus(logits) - t * logits)
    return -T.tmean(T.tsum(t * T.log_softmax(logits), axis=-1))


def _logits(model, clf, batch, train_encoder):
    """The linear head over the encoder's mean-pooled features of ``batch``;
    a frozen encoder runs without a tape."""
    with contextlib.nullcontext() if train_encoder else T.no_grad():
        feats = model.encoder_features(Tensor(batch))
    return T.matmul(feats, clf["clf.w"]) + clf["clf.b"]


def _train_classifier(model, entries, data_dir, pcfg, n_classes, train_encoder):
    """Shared loop behind probing and fine-tuning: SGD on a linear head over
    the frozen encoder, or AdamW with layer decay (and mixup) on both."""
    rng = Rng(pcfg.seed).child("probe")
    clf = {
        "clf.w": Tensor(M.trunc_normal(rng.at(10_000_000),
                                       (model.config.enc_width, n_classes))
                        .astype(np.float32), requires_grad=True),
        "clf.b": Tensor(np.zeros(n_classes, dtype=np.float32), requires_grad=True),
    }
    params = dict(clf)
    if train_encoder:
        # the encoder only: decoder, mask token and heads get no gradient
        scales = layer_decay_scales(model, pcfg.layer_decay)
        params.update((n, model.params[n]) for n in scales)
        opt = O.AdamW(params, lr=pcfg.lr, weight_decay=pcfg.weight_decay,
                      lr_scale=scales)
        update = lambda lr: O.adamw_step(opt, lr=lr)
    else:
        update = lambda lr: O.sgd_step(clf, lr, weight_decay=pcfg.weight_decay)

    labels = _labels_for(entries, pcfg.task, n_classes)
    if pcfg.task == "singlelabel":  # one-hot rows, which mixup can blend
        labels = np.eye(n_classes, dtype=np.float32)[labels]
    paths = [os.path.join(data_dir, e.path) for e in entries]
    steps_per_epoch = math.ceil(len(entries) / pcfg.batch_size)
    schedule = O.LrSchedule(base_lr=pcfg.lr, warmup_steps=0,
                            total_steps=pcfg.epochs * steps_per_epoch)
    aug = D.AugmentationConfig(scale_min=pcfg.scale_min,
                               out_size=model.config.image_size)
    for step in range(schedule.total_steps):
        idx, gens = D.sample_plan(rng, len(entries), pcfg.batch_size, step)
        batch = D.augmented_batch([paths[i] for i in idx], gens, aug,
                                  model.config.in_channels)
        y = labels[idx]
        if train_encoder and pcfg.mixup_alpha > 0:
            batch, y, _ = D.mixup(batch, y, pcfg.mixup_alpha,
                                  rng.child("mixup").at(step))
            batch = batch.astype(np.float32)
        loss_fn = lambda: _classifier_loss(
            _logits(model, clf, batch, train_encoder), y, pcfg.task)
        O.take_step(params, loss_fn, update, O.lr_at(step, schedule), step)
    return clf


def layer_decay_scales(model, decay):
    """Fine-tuning's lr scale for each encoder parameter, by its name:
    ``embed.*`` decay^(depth + 1), block ``enc.<i>.*`` (bottom = 0)
    decay^(depth - i) and ``enc.norm.*`` 1. The classifier head keeps 1."""
    depth, scales = model.config.enc_depth, {}
    for name in model.params:
        part, _, rest = name.partition(".")
        if part == "embed":
            scales[name] = decay ** (depth + 1)
        elif part == "enc":
            block = rest.partition(".")[0]
            scales[name] = 1.0 if block == "norm" else decay ** (depth - int(block))
    return scales


def _transfer(model, entries, data_dir, pcfg, train_encoder):
    """The transfer protocol: check every label before a step, hold out
    every ``eval_every_n``-th location, train the head (with the encoder
    when ``train_encoder``; a frozen one must come out bitwise unchanged)
    and score the held-out scenes through the deterministic view."""
    n_classes = D.SAR_CLASSES if pcfg.task == "singlelabel" else D.MS_CLASSES
    _labels_for(entries, pcfg.task, n_classes)
    train, held = _split_entries(entries, pcfg.eval_every_n)
    if not train:
        raise P.ConfigError(f"eval_every_n {pcfg.eval_every_n} holds out all "
                            f"locations ({len(D.locations(entries))}): none is "
                            "left to train on")
    frozen = None if train_encoder else params_digest(model.params)
    clf = _train_classifier(model, train, data_dir, pcfg, n_classes,
                            train_encoder)
    if frozen is not None and params_digest(model.params) != frozen:
        raise RuntimeError("probe mutated encoder parameters")
    cfg, b = model.config, pcfg.batch_size
    paths = [os.path.join(data_dir, e.path) for e in held]
    with T.no_grad():
        scores = np.concatenate([
            _logits(model, clf, D.view_batch(map(D.read_tensor, paths[i:i + b]),
                                             cfg.in_channels, cfg.image_size),
                    False).data for i in range(0, len(paths), b)])
    labels = _labels_for(held, pcfg.task, n_classes)
    if pcfg.task == "singlelabel":
        oa, aa = metric_oa_aa(scores.argmax(axis=1), labels)
        return MetricsReport({"OA": oa, "AA": aa})
    mAP, per_ap = metric_map(scores, labels)
    f1, per_f1 = metric_f1((1.0 / (1.0 + np.exp(-scores)) >= 0.5).astype(int),
                           labels.astype(int))
    return MetricsReport({"mAP": mAP, "macro_f1": f1}, {"AP": per_ap, "F1": per_f1})


def linear_probe_train(model, entries, data_dir, pcfg):
    """Frozen-encoder linear probe; encoder parameters are bitwise unchanged."""
    return _transfer(model, entries, data_dir, pcfg, train_encoder=False)


def fine_tune(model, entries, data_dir, pcfg):
    """End-to-end fine-tuning with AdamW, layer-wise lr decay and mixup."""
    return _transfer(model, entries, data_dir, pcfg, train_encoder=True)


# ---------------------------------------------------------------------------
# feature ablation study


def feature_ablation_study(base_cfg, specs, seeds, manifest_path, work_dir,
                           probe_cfg, include_random_init=False):
    """Pretrain + probe per (feature spec, seed); returns result rows
    (spec, seed, metric, value) plus per-spec mean summary rows."""
    if len(specs) < 2 and not include_random_init:
        raise P.ConfigError("an ablation needs at least two feature specs")
    if not seeds:
        raise P.ConfigError("an ablation needs at least one seed")
    for what, items in (("feature spec", [s.variant for s in specs]),
                        ("seed", list(seeds))):
        if len(set(items)) < len(items):
            raise P.ConfigError(f"an ablation runs each {what} once, got {items}")
    entries = D.read_manifest(manifest_path)
    data_dir = os.path.dirname(os.path.abspath(manifest_path))
    metric_name = "OA" if probe_cfg.task == "singlelabel" else "mAP"
    rows = []
    arms = [(spec, True) for spec in specs]
    if include_random_init:
        arms.append((specs[0], False))
    for spec, pretrained in arms:
        tag = spec.variant if pretrained else "random-init"
        for seed in seeds:
            cfg = replace(base_cfg, feature=spec, seed=seed)
            if pretrained:
                out = os.path.join(work_dir, f"{tag.replace('+', '_')}_s{seed}")
                trainer = P.pretrain_run(cfg, manifest_path, out)
                model = trainer.model
            else:
                model = P.Trainer(cfg, entries, data_dir).model  # untrained
            pc = replace(probe_cfg, seed=seed)
            report = linear_probe_train(model, entries, data_dir, pc)
            rows.append((tag, seed, metric_name, report[metric_name]))
    for tag in list(dict.fromkeys(r[0] for r in rows)):
        vals = [r[3] for r in rows if r[0] == tag]
        rows.append((tag, "mean", metric_name, float(np.mean(vals))))
    return rows


def write_ablation_csv(path, rows):
    with open(path, "w") as f:
        f.write("spec,seed,metric,value\n")
        for spec, seed, metric, value in rows:
            f.write(f"{spec},{seed},{metric},{value!r}\n")
