"""Masked-autoencoder ViT that reconstructs engineered image features.

Asymmetric encoder/decoder: only visible patches enter the encoder, a
lightweight decoder fills in mask tokens and predicts per-patch feature
vectors through one linear head per target descriptor (two parallel heads
for the spatial+spectral combination). The L2 loss counts masked patches
only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor as T
from .features import at_least, patchify_array, unpatchify_array
from .tensor import Tensor


# encoder presets: width, depth, heads
VIT_PRESETS = {
    "vit-s": (384, 12, 6),
    "vit-b": (768, 12, 12),
    "vit-l": (1024, 24, 16),
    "vit-h": (1280, 32, 16),
}


@dataclass(frozen=True)
class ModelConfig:
    image_size: int = 224
    patch_size: int = 16
    in_channels: int = 13
    enc_width: int = 384
    enc_depth: int = 12
    enc_heads: int = 6
    dec_width: int = 256
    dec_depth: int = 2
    dec_heads: int = 8
    mask_ratio: float = 0.7

    def __post_init__(self):
        at_least(1, self, "image_size", "patch_size", "in_channels",
                 "enc_width", "enc_heads", "dec_width", "dec_heads")
        at_least(0, self, "enc_depth", "dec_depth")
        if self.image_size % self.patch_size:
            raise ValueError("image size must be divisible by patch size")
        if any(w % h or w % 4 for w, h in ((self.enc_width, self.enc_heads),
                                           (self.dec_width, self.dec_heads))):
            raise ValueError("width must be divisible by head count and by 4")
        if not (0.0 <= self.mask_ratio < 1.0):
            raise ValueError("mask ratio must lie in [0, 1)")

    @property
    def grid(self):
        return self.image_size // self.patch_size

    @property
    def n_patches(self):
        return self.grid * self.grid

    @classmethod
    def preset(cls, name, **overrides):
        width, depth, heads = VIT_PRESETS[name.lower()]
        return cls(enc_width=width, enc_depth=depth, enc_heads=heads, **overrides)

    def with_(self, **kw):
        return replace(self, **kw)


@dataclass
class MaskPlan:
    """Random keep/mask partition of the L patch slots."""

    ids_keep: np.ndarray     # (B, L - L_m)
    ids_mask: np.ndarray     # (B, L_m)
    ids_restore: np.ndarray  # (B, L) inverse of the shuffle permutation

    @property
    def n_keep(self):
        return self.ids_keep.shape[1]

    @property
    def n_mask(self):
        return self.ids_mask.shape[1]


def keep_count(n_patches, ratio):
    return int(math.floor(n_patches * (1.0 - ratio)))


def random_masking_plan(batch, n_patches, ratio, generator):
    """Per-sample uniform-noise argsort partition; floor rule for the keep
    count."""
    n_keep = keep_count(n_patches, ratio)
    if n_keep < 1:
        raise ValueError("mask ratio leaves no visible patches")
    noise = generator.random((batch, n_patches))
    ids_shuffle = np.argsort(noise, axis=1, kind="stable")
    ids_restore = np.argsort(ids_shuffle, axis=1, kind="stable")
    return MaskPlan(ids_keep=ids_shuffle[:, :n_keep],
                    ids_mask=ids_shuffle[:, n_keep:],
                    ids_restore=ids_restore)


def identity_plan(batch, n_patches):
    ids = np.tile(np.arange(n_patches), (batch, 1))
    return MaskPlan(ids_keep=ids, ids_mask=ids[:, :0], ids_restore=ids)


# ---------------------------------------------------------------------------
# fixed 2-D sin-cos positional embeddings


def sincos_pos_embed(width, grid):
    """(grid², width) fixed embeddings; half the width encodes rows, half
    columns, each as interleaved sin/cos over geometric frequencies."""
    if width % 4:
        raise ValueError("embedding width must be divisible by 4")
    coords = np.arange(grid, dtype=np.float64)
    gy, gx = np.meshgrid(coords, coords, indexing="ij")
    emb_y = _sincos_1d(width // 2, gy.ravel())
    emb_x = _sincos_1d(width // 2, gx.ravel())
    return np.concatenate([emb_y, emb_x], axis=1)


def _sincos_1d(width, pos):
    half = width // 2
    omega = 1.0 / (10000.0 ** (np.arange(half, dtype=np.float64) / half))
    angles = np.outer(pos, omega)
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=1)


@functools.cache
def _pos_table(width, grid):
    """The float32 :func:`sincos_pos_embed`, made once per geometry and
    shared read-only by every model of it."""
    table = sincos_pos_embed(width, grid).astype(np.float32)
    table.flags.writeable = False
    return table


# ---------------------------------------------------------------------------
# parameter initialization


def trunc_normal(generator, shape, std=0.02):
    """Normal(0, std) with every draw outside ±2 std drawn again until none is.

    Each round's redraws fill the still-rejected entries in row-major order.
    The first round tests both bounds, not ``abs``: no float64 copy of the
    draw, whose freed pages were faulted in again on every call.
    """
    out = generator.normal(0.0, std, size=shape)
    flat = out.reshape(-1)
    bad = np.flatnonzero((flat > 2.0 * std) | (flat < -2.0 * std))
    while bad.size:
        flat[bad] = generator.normal(0.0, std, size=bad.size)
        bad = bad[np.abs(flat[bad]) > 2.0 * std]
    return out


# ---------------------------------------------------------------------------
# model


class FgMae:
    """The full network. Parameters live in ``self.params`` (name -> Tensor)
    so optimizers and checkpoints can treat them uniformly; ``heads`` maps
    each head's name to its output width, in order. They are allocated
    unfilled, then drawn from ``generator`` if one is given."""

    def __init__(self, config, heads, generator=None):
        self.config = config
        self.heads = dict(heads)
        # head.w / head.b for the first head, head.<name>.w / .b after it
        self.head_prefixes = {name: "head" if i == 0 else f"head.{name}"
                              for i, name in enumerate(self.heads)}
        c = config
        self.enc_pos = _pos_table(c.enc_width, c.grid)
        self.dec_pos = _pos_table(c.dec_width, c.grid)
        self.params = {}
        self._linear("embed", c.patch_size ** 2 * c.in_channels, c.enc_width)
        for i in range(c.enc_depth):
            self._add_block(f"enc.{i}", c.enc_width)
        self._norm("enc.norm", c.enc_width)
        self._linear("dec.embed", c.enc_width, c.dec_width)
        self._add("mask_token", 1, 1, c.dec_width)
        for i in range(c.dec_depth):
            self._add_block(f"dec.{i}", c.dec_width)
        self._norm("dec.norm", c.dec_width)
        for name, prefix in self.head_prefixes.items():
            self._linear(prefix, c.dec_width, self.heads[name])
        if generator is not None:
            self.draw(generator)

    def _add(self, name, *shape):
        self.params[name] = Tensor(np.empty(shape, np.float32), requires_grad=True)

    def _linear(self, name, d, e):
        self._add(f"{name}.w", d, e)
        self._add(f"{name}.b", e)

    def _norm(self, name, d):
        self._add(f"{name}.g", d)
        self._add(f"{name}.b", d)

    def _add_block(self, prefix, width):
        self._norm(f"{prefix}.ln1", width)
        self._linear(f"{prefix}.qkv", width, 3 * width)
        self._linear(f"{prefix}.proj", width, width)
        self._norm(f"{prefix}.ln2", width)
        self._linear(f"{prefix}.mlp1", width, 4 * width)
        self._linear(f"{prefix}.mlp2", 4 * width, width)

    def draw(self, generator):
        """Fill every parameter in place, in order: weights (``.w``) and the
        mask token from ``trunc_normal(generator, ...)``, norm gains
        (``.g``) with ones and biases with zeros."""
        for name, p in self.params.items():
            if name.endswith(".w") or name == "mask_token":
                p.data[...] = trunc_normal(generator, p.shape)
            else:
                p.data[...] = 1.0 if name.endswith(".g") else 0.0

    # -- building blocks -----------------------------------------------------

    def n_parameters(self):
        return sum(p.size for p in self.params.values())

    def _block(self, prefix, x, heads):
        p = self.params
        h = T.layer_norm(x, p[f"{prefix}.ln1.g"], p[f"{prefix}.ln1.b"])
        x = x + self._attention(prefix, h, heads)
        h = T.layer_norm(x, p[f"{prefix}.ln2.g"], p[f"{prefix}.ln2.b"])
        h = T.gelu(T.matmul(h, p[f"{prefix}.mlp1.w"]) + p[f"{prefix}.mlp1.b"])
        return x + T.matmul(h, p[f"{prefix}.mlp2.w"]) + p[f"{prefix}.mlp2.b"]

    def _attention(self, prefix, x, heads):
        p = self.params
        b, l, width = x.shape
        hd = width // heads
        qkv = T.matmul(x, p[f"{prefix}.qkv.w"]) + p[f"{prefix}.qkv.b"]
        qkv = T.reshape(qkv, b, l, 3, heads, hd)
        qkv = T.transpose(qkv, (2, 0, 3, 1, 4))  # (3, B, heads, L, hd)
        q, k, v = qkv[0], qkv[1], qkv[2]
        attn = T.matmul(q, T.swapaxes(k, -1, -2)) * (1.0 / math.sqrt(hd))
        attn = T.softmax(attn, axis=-1)
        out = T.matmul(attn, v)                  # (B, heads, L, hd)
        out = T.transpose(out, (0, 2, 1, 3))
        out = T.reshape(out, b, l, width)
        return T.matmul(out, p[f"{prefix}.proj.w"]) + p[f"{prefix}.proj.b"]

    # -- pipeline ------------------------------------------------------------

    def encode(self, image, plan):
        """Visible patches of the constant (B, C, H, W) Tensor ``image`` ->
        encoder tokens (B, L - L_m, K_en)."""
        c = self.config
        p = self.params
        patches = Tensor(patchify_array(image.data, c.patch_size))
        tokens = T.matmul(patches, p["embed.w"]) + p["embed.b"]
        pos = Tensor(self.enc_pos[plan.ids_keep])  # (B, n_keep, K_en)
        tokens = T.gather_tokens(tokens, plan.ids_keep) + pos
        for i in range(c.enc_depth):
            tokens = self._block(f"enc.{i}", tokens, c.enc_heads)
        return T.layer_norm(tokens, p["enc.norm.g"], p["enc.norm.b"])

    def decode(self, encoded, plan):
        """Re-insert mask tokens, un-shuffle, run the decoder; (B, L, K_de)."""
        c = self.config
        p = self.params
        b = encoded.shape[0]
        if plan.n_keep + plan.n_mask != c.n_patches:
            raise ValueError("mask plan inconsistent with patch count")
        x = T.matmul(encoded, p["dec.embed.w"]) + p["dec.embed.b"]
        if plan.n_mask > 0:
            fill = T.mul(p["mask_token"],
                         Tensor(np.ones((b, plan.n_mask, 1), np.float32)))
            x = T.concatenate([x, fill], axis=1)
        x = T.gather_tokens(x, plan.ids_restore)
        x = x + Tensor(self.dec_pos)
        for i in range(c.dec_depth):
            x = self._block(f"dec.{i}", x, c.dec_heads)
        return T.layer_norm(x, p["dec.norm.g"], p["dec.norm.b"])

    def predict_heads(self, decoded):
        """Each linear head over all L patch slots: name -> (B, L, width)."""
        p = self.params
        return {name: T.matmul(decoded, p[f"{prefix}.w"]) + p[f"{prefix}.b"]
                for name, prefix in self.head_prefixes.items()}

    def forward(self, image, plan):
        return self.predict_heads(self.decode(self.encode(image, plan), plan))

    def encoder_features(self, image):
        """Mean-pooled encoder tokens with no masking (for probing)."""
        plan = identity_plan(image.shape[0], self.config.n_patches)
        return T.tmean(self.encode(image, plan), axis=1)


def masked_l2_loss(pred, target, plan, head_weights=None):
    """Sum over heads, in ``pred``'s order, of weight x the head's mean
    squared error over masked patches only.

    ``pred`` and ``target`` map head name -> (B, L, width); ``head_weights``
    maps head name -> weight, 1.0 where absent. A weight of 1.0 adds no
    tape node.
    """
    weights = head_weights or {}
    total = None
    for name, head_pred in pred.items():
        loss = _masked_mse(head_pred, target[name], plan)
        weight = weights.get(name, 1.0)
        if weight != 1.0:
            loss = loss * weight
        total = loss if total is None else total + loss
    return total


def _masked_mse(pred, target, plan):
    if plan.n_mask == 0:
        raise ValueError("empty mask set: nothing to reconstruct")
    pred_masked = T.gather_tokens(pred, plan.ids_mask)
    tgt = np.take_along_axis(np.asarray(target),
                             plan.ids_mask[:, :, None], axis=1)
    diff = pred_masked - Tensor(tgt.astype(pred.data.dtype))
    return T.tmean(diff * diff)


# ---------------------------------------------------------------------------
# reconstruction rendering


def render_ndi_false_color(pred_patches, image_size, patch_size):
    """(B, L, p²·3) NDI predictions -> (B, 3, H, W) uint8 false color,
    [-1, 1] mapped affinely onto [0, 255]."""
    arr = np.asarray(pred_patches.data if isinstance(pred_patches, Tensor) else pred_patches)
    img = unpatchify_array(arr, 3, image_size, image_size, patch_size)
    scaled = np.clip((img + 1.0) * 127.5, 0.0, 255.0)
    return np.rint(scaled).astype(np.uint8)


def render_sar_composite(image):
    """(B, 2, H, W) SAR -> (B, 3, H, W) false color [VV, VH, (VV+VH)/2]."""
    image = np.asarray(image)
    vv, vh = image[:, 0], image[:, 1]
    comp = np.stack([vv, vh, (vv + vh) / 2.0], axis=1)
    lo, hi = comp.min(), comp.max()
    if hi > lo:
        comp = (comp - lo) / (hi - lo)
    return np.rint(np.clip(comp, 0.0, 1.0) * 255.0).astype(np.uint8)


def render_hog_glyphs(hist, cell_px=16):
    """Per-cell oriented line glyphs, brightness proportional to bin weight.

    ``hist`` is one channel's (CH, CW, n_bins) histogram field; returns a
    grayscale uint8 canvas of size (CH·cell_px, CW·cell_px).
    """
    hist = np.asarray(hist)
    ch, cw, nb = hist.shape
    canvas = np.zeros((ch * cell_px, cw * cell_px))
    center = (cell_px - 1) / 2.0
    radius = cell_px / 2.0 - 1.0
    for r in range(ch):
        for c in range(cw):
            for k in range(nb):
                weight = hist[r, c, k]
                if weight <= 0:
                    continue
                # unsigned orientation: edge direction orthogonal to gradient
                theta = math.radians((k * 180.0 / nb) + 90.0)
                for t in np.linspace(-radius, radius, 2 * cell_px):
                    y = int(round(r * cell_px + center + t * math.sin(theta)))
                    x = int(round(c * cell_px + center + t * math.cos(theta)))
                    if 0 <= y < canvas.shape[0] and 0 <= x < canvas.shape[1]:
                        canvas[y, x] = max(canvas[y, x], weight)
    top = canvas.max()
    if top > 0:
        canvas = canvas / top
    return np.rint(canvas * 255.0).astype(np.uint8)
