"""Independent reference implementations used to cross-check the library.

Everything here is written as plain scalar loops (or tiny brute-force
enumerations), deliberately avoiding the vectorized code paths under test.
"""

import math

import numpy as np


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
