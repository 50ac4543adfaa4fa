"""Independent reference implementations used to cross-check the library.

Most are plain scalar loops (or tiny brute-force enumerations),
deliberately avoiding the vectorized code paths under test. The autodiff
oracles are the compositions that fused tape ops replaced, kept to check
that the fused ops match them bit for bit.
"""

import contextlib
import math
import os

import numpy as np
from scipy import ndimage

from fgmae import data as D
from fgmae import evaluate as E
from fgmae import features as F
from fgmae import model as M
from fgmae import optim as O
from fgmae import pretrain as P
from fgmae import tensor as T
from fgmae.rng import Rng


# ---------------------------------------------------------------------------
# HOG oracle: per-pixel loops, linear vote between adjacent unsigned bins


def hog_reference(channel, n_bins=9, cell_size=8, eps=1e-10):
    h, w = channel.shape
    ch, cw = h // cell_size, w // cell_size
    hist = np.zeros((ch, cw, n_bins))
    bin_width = 180.0 / n_bins

    def px(r, c):
        r = min(max(r, 0), h - 1)
        c = min(max(c, 0), w - 1)
        return channel[r, c]

    for r in range(h):
        for c in range(w):
            gx = -1.0 * px(r, c - 1) + 0.0 * px(r, c) + 1.0 * px(r, c + 1)
            gy = -1.0 * px(r - 1, c) + 0.0 * px(r, c) + 1.0 * px(r + 1, c)
            mag = math.sqrt(gx * gx + gy * gy)
            ang = math.degrees(math.atan2(gy, gx)) % 180.0
            pos = ang / bin_width
            lo = int(math.floor(pos)) % n_bins
            hi = (lo + 1) % n_bins
            frac = pos - math.floor(pos)
            hist[r // cell_size, c // cell_size, lo] += mag * (1.0 - frac)
            hist[r // cell_size, c // cell_size, hi] += mag * frac
    for i in range(ch):
        for j in range(cw):
            norm = math.sqrt(sum(v * v for v in hist[i, j]))
            hist[i, j] = hist[i, j] / (norm + eps)
    return hist


# ---------------------------------------------------------------------------
# Canny oracle: scalar loops end to end


def _conv_scalar(x, kernel):
    h, w = x.shape
    kh, kw = kernel.shape
    pr, pc = kh // 2, kw // 2
    out = np.zeros_like(x)
    for r in range(h):
        for c in range(w):
            acc = 0.0
            for i in range(kh):
                for j in range(kw):
                    rr = min(max(r + i - pr, 0), h - 1)
                    cc = min(max(c + j - pc, 0), w - 1)
                    acc = acc + kernel[i, j] * x[rr, cc]
            out[r, c] = acc
    return out


def canny_reference(channel, sigma=1.4, kernel_size=5, low=0.1, high=0.2):
    h, w = channel.shape
    ax = np.arange(kernel_size) - (kernel_size - 1) / 2.0
    g1 = np.exp(-(ax * ax) / (2.0 * sigma * sigma))
    gk = np.outer(g1, g1)
    gk = gk / gk.sum()
    blurred = _conv_scalar(channel, gk)
    sx = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
    sy = np.array([[-1.0, -2.0, -1.0], [0.0, 0.0, 0.0], [1.0, 2.0, 1.0]])
    gx = _conv_scalar(blurred, sx)
    gy = _conv_scalar(blurred, sy)
    mag = np.zeros_like(channel)
    sector = np.zeros(channel.shape, dtype=int)
    for r in range(h):
        for c in range(w):
            mag[r, c] = math.sqrt(gx[r, c] ** 2 + gy[r, c] ** 2)
            ang = math.degrees(math.atan2(gy[r, c], gx[r, c])) % 180.0
            sector[r, c] = int(math.floor((ang + 22.5) / 45.0)) % 4

    neighbors = {0: ((0, -1), (0, 1)), 1: ((-1, 1), (1, -1)),
                 2: ((-1, 0), (1, 0)), 3: ((-1, -1), (1, 1))}

    def mag_at(r, c):
        if 0 <= r < h and 0 <= c < w:
            return mag[r, c]
        return 0.0

    suppressed = np.zeros_like(mag)
    for r in range(h):
        for c in range(w):
            (r1, c1), (r2, c2) = neighbors[sector[r, c]]
            if mag[r, c] >= mag_at(r + r1, c + c1) and mag[r, c] >= mag_at(r + r2, c + c2):
                suppressed[r, c] = mag[r, c]

    mmax = mag.max()
    if mmax == 0.0:
        return np.zeros_like(mag)
    strong = suppressed >= high * mmax
    weak = (suppressed >= low * mmax) & ~strong
    edges = strong.copy()
    stack = [(r, c) for r in range(h) for c in range(w) if strong[r, c]]
    while stack:
        r, c = stack.pop()
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                rr, cc = r + dr, c + dc
                if 0 <= rr < h and 0 <= cc < w and weak[rr, cc] and not edges[rr, cc]:
                    edges[rr, cc] = True
                    stack.append((rr, cc))
    return edges.astype(np.float64)


# ---------------------------------------------------------------------------
# Batched correlation and Canny as they were before the correlation became
# shifted adds over the flat padded stack and suppression one gather per
# neighbour: one full-size product and sum per tap, four masked passes


def conv_fixed_order_reference(x, kernel):
    kh, kw = kernel.shape
    pad = [(0, 0)] * (x.ndim - 2) + [(kh // 2, kh // 2), (kw // 2, kw // 2)]
    xp = np.pad(x, pad, mode="edge")
    out = np.zeros_like(x)
    h, w = x.shape[-2:]
    for i in range(kh):
        for j in range(kw):
            out += kernel[i, j] * xp[..., i:i + h, j:j + w]
    return out


_NMS_NEIGHBORS_REFERENCE = {
    0: ((0, -1), (0, 1)),
    1: ((-1, 1), (1, -1)),
    2: ((-1, 0), (1, 0)),
    3: ((-1, -1), (1, 1)),
}


def compute_canny_reference(image, p=F.CannyParams()):
    image = F._check_image(image).astype(np.float64)
    b, c, h, w = image.shape
    if h < p.kernel_size or w < p.kernel_size:
        raise ValueError("image smaller than the Gaussian kernel")
    x = image.reshape(b * c, h, w)
    blurred = conv_fixed_order_reference(
        x, F.gaussian_kernel(p.gaussian_sigma, p.kernel_size))
    gx = conv_fixed_order_reference(blurred, F.SOBEL_X)
    gy = conv_fixed_order_reference(blurred, F.SOBEL_Y)
    mag = np.sqrt(gx * gx + gy * gy)
    ang = np.degrees(np.arctan2(gy, gx)) % 180.0
    sector = (np.floor((ang + 22.5) / 45.0).astype(np.int64)) % 4

    suppressed = np.zeros_like(mag)
    padded = np.pad(mag, ((0, 0), (1, 1), (1, 1)), mode="constant")
    for s, ((r1, c1), (r2, c2)) in _NMS_NEIGHBORS_REFERENCE.items():
        n1 = padded[:, 1 + r1:1 + r1 + h, 1 + c1:1 + c1 + w]
        n2 = padded[:, 1 + r2:1 + r2 + h, 1 + c2:1 + c2 + w]
        keep = (sector == s) & (mag >= n1) & (mag >= n2)
        suppressed[keep] = mag[keep]

    mmax = mag.max(axis=(1, 2), keepdims=True)
    strong = (suppressed >= p.high * mmax) & (mmax > 0.0)
    labels, n = ndimage.label(suppressed >= p.low * mmax,
                              structure=F._HYSTERESIS_STRUCTURE)
    has_strong = np.zeros(n + 1, dtype=bool)
    has_strong[labels[strong]] = True
    return has_strong[labels].astype(np.float64).reshape(b, c, h, w)


# ---------------------------------------------------------------------------
# SIFT target oracle: each patch slot looked up in the descriptor grid, one
# at a time


def sift_targets_reference(image, spec, patch_size):
    p = spec.sift
    descr = F.compute_dense_sift(image, p)  # (B, G, dims)
    b, _, h, w = image.shape
    ys, xs = F.sift_grid(h, w, p)
    gh, gw = h // patch_size, w // patch_size
    slots = patch_size // p.stride
    k_out = slots * slots * p.dims
    out = np.zeros((b, gh * gw, k_out))
    center_off = p.support // 2
    # descriptor centers lie at corner + support/2; a patch owns the fixed
    # slot positions congruent to that offset, zeros where the grid has no
    # descriptor (image border)
    for pr in range(gh):
        for pc in range(gw):
            patch = pr * gw + pc
            for sr in range(slots):
                for sc in range(slots):
                    cy = pr * patch_size + sr * p.stride + center_off % p.stride
                    cx = pc * patch_size + sc * p.stride + center_off % p.stride
                    iy = (cy - center_off) // p.stride
                    ix = (cx - center_off) // p.stride
                    if 0 <= iy < len(ys) and 0 <= ix < len(xs):
                        slot = (sr * slots + sc)
                        g = iy * len(xs) + ix
                        out[:, patch, slot * p.dims:(slot + 1) * p.dims] = descr[:, g]
    return out


# ---------------------------------------------------------------------------
# metric oracles: brute force over small instances


def average_precision_reference(scores, labels):
    """Mean of precision@rank over positive ranks, ties by ascending index."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    precisions = []
    hits = 0
    for rank, i in enumerate(order, start=1):
        if labels[i]:
            hits += 1
            precisions.append(hits / rank)
    return sum(precisions) / len(precisions)


def map_reference(scores, labels):
    aps = []
    for c in range(labels.shape[1]):
        if labels[:, c].sum() > 0:
            aps.append(average_precision_reference(scores[:, c], labels[:, c]))
    return sum(aps) / len(aps)


def f1_reference(pred, labels):
    per = []
    for c in range(labels.shape[1]):
        tp = fp = fn = 0
        for i in range(labels.shape[0]):
            if pred[i, c] and labels[i, c]:
                tp += 1
            elif pred[i, c] and not labels[i, c]:
                fp += 1
            elif not pred[i, c] and labels[i, c]:
                fn += 1
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        per.append(2 * p * r / (p + r) if p + r else 0.0)
    return sum(per) / len(per)


def oa_aa_reference(pred, labels):
    correct = sum(1 for p, l in zip(pred, labels) if p == l)
    oa = correct / len(labels)
    recalls = []
    for c in sorted(set(labels)):
        idx = [i for i, l in enumerate(labels) if l == c]
        recalls.append(sum(1 for i in idx if pred[i] == c) / len(idx))
    return oa, sum(recalls) / len(recalls)


def miou_reference(pred, label, n_classes, ignore_index=None):
    pred = list(np.asarray(pred).ravel())
    label = list(np.asarray(label).ravel())
    pairs = [(p, l) for p, l in zip(pred, label)
             if ignore_index is None or l != ignore_index]
    oa = sum(1 for p, l in pairs if p == l) / len(pairs)
    recalls, ious = [], []
    for c in range(n_classes):
        tp = sum(1 for p, l in pairs if p == c and l == c)
        fp = sum(1 for p, l in pairs if p == c and l != c)
        fn = sum(1 for p, l in pairs if p != c and l == c)
        if tp + fn:
            recalls.append(tp / (tp + fn))
        if tp + fp + fn:
            ious.append(tp / (tp + fp + fn))
    aa = sum(recalls) / len(recalls) if recalls else 0.0
    miou = sum(ious) / len(ious) if ious else 0.0
    return oa, aa, miou


# ---------------------------------------------------------------------------
# truncated-normal init oracle: every rejection round re-tests the whole array


def trunc_normal_reference(generator, shape, std=0.02):
    out = generator.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2.0 * std
    while bad.any():
        out[bad] = generator.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * std
    return out


# ---------------------------------------------------------------------------
# autodiff oracles: layer_norm composed of elementwise ops and means (12 tape
# nodes), an index whose backward scatters with np.add.at, matmul's
# stacked weight gradient and matmul on one lane


def layer_norm_reference(x, gamma, beta, eps=1e-6):
    mu = T.tmean(x, axis=-1, keepdims=True)
    centered = x - mu
    var = T.tmean(centered * centered, axis=-1, keepdims=True)
    inv = T.power(var + eps, -0.5)
    return centered * inv * gamma + beta


def getitem_reference(t, key):
    out = T._node(t.data[key], (t,))
    if out.requires_grad:
        def _bw(g, a=t, key=key):
            ga = np.zeros_like(a.data)
            np.add.at(ga, key, g)
            T._accum(a, ga)
        out._backward = _bw
    return out


def matmul_weight_grad_reference(a, b):
    """``a @ b`` with every gradient one batched product reduced by
    ``_unbroadcast``: a 2-D weight's gradient under a (B, N, D) input is a
    (B, D, E) stack summed over B."""
    out = T._node(np.matmul(a.data, b.data), (a, b))
    if out.requires_grad:
        def _bw(g, a=a, b=b):
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            T._accum(a, T._unbroadcast(ga, a.shape))
            T._accum(b, T._unbroadcast(gb, b.shape))
        out._backward = _bw
    return out


def matmul_reference(a, b):
    """``T.matmul`` on one lane: the batched forward product, then the
    input's gradient and after it the weight's, each on the caller."""
    a, b = T._wrap(a), T._wrap(b)
    out = T._node(np.matmul(a.data, b.data), (a, b))
    if out.requires_grad:
        def _bw(g, a=a, b=b):
            if a.requires_grad:
                ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
                T._accum(a, T._unbroadcast(ga, a.shape))
            if not b.requires_grad:
                return
            if b.data.ndim == 2:
                T._accum(b, T._weight_grad(a.data, g, b))
            else:
                gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
                T._accum(b, T._unbroadcast(gb, b.shape))
        out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# AdamW oracle: the per-parameter loop that the arena's blocked update replaced


def adamw_step_reference(params, grads, state, lr=None):
    """One AdamW step, parameter by parameter, with fresh temporaries and
    ``p.data`` rebound to the result. Moments are created lazily with
    ``np.zeros_like``; ``None`` gradients are skipped."""
    if lr is None:
        lr = state.lr
    state.t += 1
    t = state.t
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for name, p in params.items():
        g = grads[name]
        if g is None:
            continue
        g = np.asarray(g)
        if not np.isfinite(g).all():
            raise FloatingPointError(f"non-finite gradient for parameter {name!r}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        m_hat = m / bc1
        v_hat = v / bc2
        scale = state.lr_scale.get(name, 1.0)
        wd = 0.0 if name in state.no_decay else state.weight_decay
        p.data = p.data - lr * scale * (m_hat / (np.sqrt(v_hat) + state.eps) + wd * p.data)


# ---------------------------------------------------------------------------
# Training-loop oracles: pretraining's step and the probe/fine-tune loop as
# two hand-written loops, before they shared one sample plan, one batch
# assembler and one step function


def pretrain_step_reference(trainer):
    """One ``Trainer.train_step`` with the batch assembled inline: epoch
    permutation, per-sample generator, season, read, crop, flip; then zero
    grad, forward, loss, backward, the non-finite check, optional clipping
    and the AdamW step. Returns (lr, loss)."""
    cfg = trainer.cfg
    step = trainer.step
    epoch = step // trainer.steps_per_epoch
    k = step % trainer.steps_per_epoch
    order = trainer.rng.child("order").at(epoch).permutation(len(trainer.locations))
    idx = order[k * cfg.batch_size:(k + 1) * cfg.batch_size]
    images = []
    for j, loc_i in enumerate(idx):
        gen = trainer.rng.child("sample").at(step * cfg.batch_size + j)
        entry = D.select_season(trainer.entries, trainer.locations[loc_i], gen)
        img = D.read_tensor(os.path.join(trainer.data_dir, entry.path))
        img = D.random_resized_crop(img, cfg.augment, gen)
        img = D.horizontal_flip(img, cfg.augment.hflip_prob, gen)
        images.append(img)
    batch = np.stack(images).astype(np.float32)
    target = F.assemble_targets(batch, cfg.feature, cfg.model.patch_size)
    plan = M.random_masking_plan(batch.shape[0], cfg.model.n_patches,
                                 cfg.model.mask_ratio,
                                 trainer.rng.child("mask").at(step))
    for p in trainer.model.params.values():
        p.grad = None
    pred = trainer.model.forward(T.Tensor(batch), plan)
    loss = M.masked_l2_loss(pred, target, plan, cfg.head_weights)
    loss_val = float(loss.data)
    lr = O.lr_at(step, trainer.schedule)
    loss.backward()
    if not np.isfinite(loss_val):
        raise O.TrainingDiverged(step, lr,
                                 T.global_grad_norm(trainer.model.params))
    if cfg.grad_clip > 0:
        T.clip_global_norm(trainer.model.params, cfg.grad_clip)
    O.adamw_step(trainer.opt, lr=lr)
    trainer.step += 1
    trainer.loss_log.append((step, lr, loss_val))
    return lr, loss_val


def _classifier_loss_reference(logits, labels, task):
    if task == "multilabel":
        t = T.Tensor(np.asarray(labels, dtype=logits.data.dtype))
        return T.tmean(T.softplus(logits) - t * logits)
    t = np.asarray(labels)
    if t.ndim == 1:  # hard labels -> one-hot
        onehot = np.zeros(logits.shape, dtype=logits.data.dtype)
        onehot[np.arange(t.size), t.astype(int)] = 1.0
        t = onehot
    return -T.tmean(T.tsum(T.Tensor(t.astype(logits.data.dtype))
                           * T.log_softmax(logits), axis=-1))


def train_classifier_reference(model, entries, data_dir, pcfg, n_classes,
                               trainable_encoder):
    """The probe (SGD, frozen encoder) and fine-tune (AdamW, layer decay,
    mixup) loop with its batches assembled inline, epoch by epoch, and no
    non-finite check. Returns the classifier parameters."""
    rng = Rng(pcfg.seed).child("probe")
    gen_init = rng.at(10_000_000)
    clf = {
        "clf.w": T.Tensor(M.trunc_normal(gen_init, (model.config.enc_width,
                                                    n_classes))
                          .astype(np.float32), requires_grad=True),
        "clf.b": T.Tensor(np.zeros(n_classes, dtype=np.float32),
                          requires_grad=True),
    }
    params = dict(clf)
    opt = None
    if trainable_encoder:
        params.update((n, p) for n, p in model.params.items()
                      if n.startswith(("embed.", "enc.")))
        opt = O.AdamW(params, lr=pcfg.lr, weight_decay=pcfg.weight_decay,
                      lr_scale=layer_decay_scales_reference(model.config,
                                                            pcfg.layer_decay))
    labels = E._labels_for(entries, pcfg.task, n_classes)
    n = len(entries)
    steps_per_epoch = math.ceil(n / pcfg.batch_size)
    schedule = O.LrSchedule(base_lr=pcfg.lr, warmup_steps=0,
                            total_steps=pcfg.epochs * steps_per_epoch)
    aug = D.AugmentationConfig(scale_min=pcfg.scale_min,
                               out_size=model.config.image_size)
    step = 0
    for epoch in range(pcfg.epochs):
        order = rng.child("order").at(epoch).permutation(n)
        for k in range(steps_per_epoch):
            idx = order[k * pcfg.batch_size:(k + 1) * pcfg.batch_size]
            imgs = []
            for j, i in enumerate(idx):
                gen = rng.child("sample").at(step * pcfg.batch_size + j)
                img = D.read_tensor(os.path.join(data_dir, entries[i].path))
                img = D.zero_pad_channels(img, model.config.in_channels)
                img = D.random_resized_crop(img, aug, gen)
                img = D.horizontal_flip(img, aug.hflip_prob, gen)
                imgs.append(img)
            batch = np.stack(imgs).astype(np.float32)
            y = labels[idx]
            if trainable_encoder and pcfg.mixup_alpha > 0:
                y_soft = y
                if pcfg.task == "singlelabel":
                    y_soft = np.eye(n_classes, dtype=np.float32)[y]
                batch, y, _ = D.mixup(batch, y_soft, pcfg.mixup_alpha,
                                      rng.child("mixup").at(step))
                batch = batch.astype(np.float32)
            for p in params.values():
                p.grad = None
            with contextlib.nullcontext() if trainable_encoder else T.no_grad():
                feats = model.encoder_features(T.Tensor(batch))
            logits = T.matmul(feats, clf["clf.w"]) + clf["clf.b"]
            loss = _classifier_loss_reference(logits, y, pcfg.task)
            loss.backward()
            lr = O.lr_at(step, schedule)
            if trainable_encoder:
                O.adamw_step(opt, lr=lr)
            else:
                O.sgd_step(clf, lr, weight_decay=pcfg.weight_decay)
            step += 1
    return clf


# ---------------------------------------------------------------------------
# the transfer protocol as two entry points, each with its own class count,
# label check and split, the head spelled out in evaluation, and layer decay
# from a list of block parameter suffixes


def layer_decay_scales_reference(model_cfg, decay):
    scales = {}
    depth = model_cfg.enc_depth
    for i in range(depth):
        s = decay ** (depth - i)
        for suffix in ("ln1.g", "ln1.b", "qkv.w", "qkv.b", "proj.w", "proj.b",
                       "ln2.g", "ln2.b", "mlp1.w", "mlp1.b", "mlp2.w", "mlp2.b"):
            scales[f"enc.{i}.{suffix}"] = s
    scales["embed.w"] = decay ** (depth + 1)
    scales["embed.b"] = decay ** (depth + 1)
    return scales


def _split_entries_reference(entries, every_n):
    locs = D.locations(entries)
    eval_locs = set(locs[::every_n])
    train = [e for e in entries if e.location_id not in eval_locs]
    held = [e for e in entries if e.location_id in eval_locs]
    return train, held


def eval_view_reference(image, model_cfg):
    image = D.zero_pad_channels(image, model_cfg.in_channels)
    return D._bilinear_resize(image, model_cfg.image_size,
                              model_cfg.image_size).astype(np.float32)


def evaluate_classifier_reference(model, clf, entries, data_dir, pcfg,
                                  n_classes):
    logits_all = []
    labels = E._labels_for(entries, pcfg.task, n_classes)
    for i in range(0, len(entries), pcfg.batch_size):
        chunk = entries[i:i + pcfg.batch_size]
        imgs = [eval_view_reference(
            D.read_tensor(os.path.join(data_dir, e.path)), model.config)
            for e in chunk]
        with T.no_grad():
            feats = model.encoder_features(T.Tensor(np.stack(imgs)))
            logits = T.matmul(feats, clf["clf.w"]) + clf["clf.b"]
        logits_all.append(logits.data)
    scores = np.concatenate(logits_all)
    report = E.MetricsReport()
    if pcfg.task == "multilabel":
        mAP, per_ap = E.metric_map(scores, labels)
        f1, per_f1 = E.metric_f1(
            (1.0 / (1.0 + np.exp(-scores)) >= 0.5).astype(int),
            labels.astype(int))
        report.values = {"mAP": mAP, "macro_f1": f1}
        report.per_class = {"AP": per_ap, "F1": per_f1}
    else:
        pred = scores.argmax(axis=1)
        oa, aa = E.metric_oa_aa(pred, labels)
        report.values = {"OA": oa, "AA": aa}
    return report


def linear_probe_reference(model, entries, data_dir, pcfg):
    """The probe and its classifier parameters."""
    n_classes = D.SAR_CLASSES if pcfg.task == "singlelabel" else D.MS_CLASSES
    E._labels_for(entries, pcfg.task, n_classes)
    train, held = _split_entries_reference(entries, pcfg.eval_every_n)
    before = E.params_digest(model.params)
    clf = train_classifier_reference(model, train, data_dir, pcfg, n_classes,
                                     trainable_encoder=False)
    if E.params_digest(model.params) != before:
        raise RuntimeError("probe mutated encoder parameters")
    return evaluate_classifier_reference(model, clf, held, data_dir, pcfg,
                                         n_classes), clf


def fine_tune_reference(model, entries, data_dir, pcfg):
    """The fine-tune and its classifier parameters."""
    n_classes = D.SAR_CLASSES if pcfg.task == "singlelabel" else D.MS_CLASSES
    E._labels_for(entries, pcfg.task, n_classes)
    train, held = _split_entries_reference(entries, pcfg.eval_every_n)
    clf = train_classifier_reference(model, train, data_dir, pcfg, n_classes,
                                     trainable_encoder=True)
    return evaluate_classifier_reference(model, clf, held, data_dir, pcfg,
                                         n_classes), clf


def render_reference(mode, image, checkpoint, seed):
    """``fgmae render``'s picture of a (C, H, W) or (B, C, H, W) scene, the
    evaluation view made image by image."""
    if image.ndim == 3:
        image = image[None]
    if mode == "sar":
        return M.render_sar_composite(image)[0]
    run_cfg, model, *_ = P.load_checkpoint(checkpoint, moments=False)
    cfg = model.config
    image = np.stack([eval_view_reference(im, cfg) for im in image])
    gen = Rng(seed).child("render").at(0)
    plan = M.random_masking_plan(image.shape[0], cfg.n_patches,
                                 cfg.mask_ratio, gen)
    with T.no_grad():
        pred = model.forward(T.Tensor(image), plan)[mode]
    if mode == "ndi":
        return M.render_ndi_false_color(pred, cfg.image_size,
                                        cfg.patch_size)[0]
    field = F.unpatchify_hog(pred.data, run_cfg.feature.hog, cfg.image_size,
                             cfg.image_size, cfg.patch_size)
    return M.render_hog_glyphs(np.clip(field[0, 0], 0.0, None))
