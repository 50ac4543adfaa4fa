"""Reconstruction-target feature extractors.

All functions here are pure numpy: targets are constants of the loss and
never participate in the gradient tape. Images are (B, C, H, W) with the
last two axes as rows/columns; "horizontal" gradients run along columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from scipy import ndimage


# ---------------------------------------------------------------------------
# parameter blocks


@dataclass(frozen=True)
class BandMap:
    """Channel indices of the bands entering the normalized difference
    indices. Defaults follow Sentinel-2 L1C ordering (B8, B4, B3, B11)."""

    nir: int = 7
    red: int = 3
    green: int = 2
    swir: int = 10

    def validate(self, channels):
        idx = (self.nir, self.red, self.green, self.swir)
        if len(set(idx)) != 4 or any(i < 0 or i >= channels for i in idx):
            raise ValueError(f"invalid band map {idx} for {channels} channels")


def at_least(low, cfg, *names):
    """A ValueError naming the first of ``cfg``'s fields ``names`` below
    ``low``. Config classes call it before any arithmetic on those fields."""
    for name in names:
        if getattr(cfg, name) < low:
            raise ValueError(f"{name} must be >= {low}, got {getattr(cfg, name)}")


@dataclass(frozen=True)
class HogParams:
    n_bins: int = 9
    cell_size: int = 8
    eps: float = 1e-10

    def __post_init__(self):
        at_least(1, self, "cell_size")
        if self.n_bins < 2:
            raise ValueError("need at least 2 orientation bins")


@dataclass(frozen=True)
class CannyParams:
    gaussian_sigma: float = 1.4
    kernel_size: int = 5
    low: float = 0.1
    high: float = 0.2

    def __post_init__(self):
        at_least(1, self, "kernel_size")
        if not (0.0 < self.low < self.high <= 1.0):
            raise ValueError("need 0 < low < high <= 1")


@dataclass(frozen=True)
class SiftParams:
    stride: int = 8
    support: int = 16
    spatial_bins: int = 4
    orientation_bins: int = 8
    clip: float = 0.2
    eps: float = 1e-10

    def __post_init__(self):
        at_least(1, self, "stride", "support", "spatial_bins", "orientation_bins")
        if self.support % self.spatial_bins != 0:
            raise ValueError("descriptor support must divide evenly into spatial bins")

    @property
    def dims(self):
        return self.spatial_bins * self.spatial_bins * self.orientation_bins


VARIANTS = ("raw", "canny", "hog", "sift", "ndi", "hog+ndi")


@dataclass(frozen=True)
class FeatureSpec:
    """Which descriptor(s) a pretraining run reconstructs."""

    variant: str = "hog"
    hog: HogParams = field(default_factory=HogParams)
    canny: CannyParams = field(default_factory=CannyParams)
    sift: SiftParams = field(default_factory=SiftParams)
    bands: BandMap = field(default_factory=BandMap)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown feature variant {self.variant!r}")

    def heads(self, channels, patch_size):
        """Head name -> per-patch target width for the given image geometry,
        one head per descriptor in order; a ValueError when the geometry
        does not suit a descriptor."""
        return {name: _DESCRIPTORS[name].depth(self, channels)
                * _cells_per_patch(self, name, patch_size) ** 2
                for name in self.variant.split("+")}


# ---------------------------------------------------------------------------
# helpers


def _check_image(image):
    image = np.asarray(image)
    if image.ndim != 4:
        raise ValueError(f"expected (B, C, H, W) image, got shape {image.shape}")
    return image


# whole images per correlation block: about this many elements, so that a
# block's operands stay in cache
_CONV_BLOCK = 1 << 13


def _conv_fixed_order(x, kernel):
    """2-D correlation over the last two axes, for any leading axes, with
    replicate borders.

    Bitwise contract, for a finite float64 kernel: each output is
    ``0 + k[0, 0]·p[0, 0] + k[0, 1]·p[0, 1] + ...``, summed left to right
    over the taps in row-major order, where ``p`` is the window of the
    padded input under the kernel. Zero taps are summed too, so ±inf, −0
    and the places of NaNs come out as that sum makes them; the sign bit of
    a NaN is numpy's pick when both addends are NaN, which follows the
    array layout. A tap whose sign bit is set subtracts ``|k|·p``, the same
    bits as adding ``k·p``. The input times ``|k|`` is computed once per
    distinct magnitude and block, and a ±1 tap adds or subtracts the input
    itself. The scalar-loop test oracles check all of this."""
    kh, kw = kernel.shape
    h, w = x.shape[-2:]
    pad = [(0, 0)] * (x.ndim - 2) + [(kh // 2, kh // 2), (kw // 2, kw // 2)]
    xp = np.pad(x, pad, mode="edge")
    hp, wp = xp.shape[-2:]
    flat = xp.reshape(-1)
    # output (n, r, c) sits at n·hp·wp + r·wp + c of the flat padded stack,
    # and tap (i, j) reads the input i·wp + j further on
    mags, taps = [], []
    for (i, j), k in np.ndenumerate(kernel):
        mag = abs(k)
        if mag != 1.0 and mag not in mags:
            mags.append(mag)
        # a ±1 tap reads the input itself, the last of a block's operands
        taps.append((i * wp + j, mags.index(mag) if mag != 1.0 else -1,
                     np.subtract if np.signbit(k) else np.add))
    span, size = taps[-1][0], hp * wp
    step = max(1, _CONV_BLOCK // size) * size
    n = flat.size - span
    out = np.empty((flat.size // size, h, w), dtype=x.dtype)
    for s in range(0, n, step):
        e = min(s + step, n)
        src = flat[s:e + span]
        operands = [src * m for m in mags] + [src]
        # whole images, so that the block crops by a reshape
        acc = np.zeros(-(-(e - s) // size) * size, dtype=x.dtype)
        part = acc[:e - s]
        for off, which, op in taps:
            op(part, operands[which][off:off + e - s], part)
        out[s // size:(s + acc.size) // size] = acc.reshape(-1, hp, wp)[:, :h, :w]
    return out.reshape(x.shape)


def _grad_xy(x):
    """Centered [-1, 0, 1] gradients with replicate borders."""
    gx = _conv_fixed_order(x, np.array([[-1.0, 0.0, 1.0]]))
    gy = _conv_fixed_order(x, np.array([[-1.0], [0.0], [1.0]]))
    return gx, gy


def grayscale_reduce(image):
    """Arithmetic mean over channels, keeping a singleton channel axis."""
    image = _check_image(image)
    return image.mean(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# NDI


def compute_ndi(image, bands=BandMap()):
    """NDVI/NDWI/NDBI channels from a multispectral raster.

    Each index is (x - y) / (x + y) with the convention 0 when x + y == 0,
    so outputs always lie in [-1, 1] for nonnegative inputs.
    """
    image = _check_image(image)
    bands.validate(image.shape[1])
    nir = image[:, bands.nir]
    red = image[:, bands.red]
    green = image[:, bands.green]
    swir = image[:, bands.swir]
    ndvi = _safe_ratio(nir - red, nir + red)
    ndwi = _safe_ratio(green - nir, green + nir)
    ndbi = _safe_ratio(swir - nir, swir + nir)
    return np.stack([ndvi, ndwi, ndbi], axis=1)


def _safe_ratio(num, den):
    out = np.zeros_like(num)
    np.divide(num, den, out=out, where=den != 0)
    return out


# ---------------------------------------------------------------------------
# HOG


def compute_hog(image, p=HogParams()):
    """Per-cell orientation histograms, one HOG field per image channel.

    Gradients come from [-1, 0, 1] filters with replicate borders; votes are
    magnitude-weighted with linear interpolation between the two adjacent
    unsigned orientation bins over [0, 180); each cell histogram is L2
    normalized. Returns (B, C, H/cell, W/cell, n_bins).
    """
    image = _check_image(image).astype(np.float64)
    b, c, h, w = image.shape
    if h % p.cell_size or w % p.cell_size:
        raise ValueError(f"image size {h}x{w} not divisible by cell size {p.cell_size}")
    ch, cw = h // p.cell_size, w // p.cell_size
    gx, gy = _grad_xy(image)
    mag = np.sqrt(gx * gx + gy * gy)
    ang = np.degrees(np.arctan2(gy, gx)) % 180.0
    pos = ang / (180.0 / p.n_bins)
    lo = np.floor(pos).astype(np.int64) % p.n_bins
    hi = (lo + 1) % p.n_bins
    frac = pos - np.floor(pos)
    # flat bin of (image, cell row, cell col); all low votes go before all
    # high votes, so each bin sums in the same order as two np.add.at calls
    cell = (np.arange(h)[:, None] // p.cell_size) * cw + np.arange(w) // p.cell_size
    base = (np.arange(b * c).reshape(b, c, 1, 1) * (ch * cw) + cell) * p.n_bins
    hist = np.bincount(np.concatenate([(base + lo).ravel(), (base + hi).ravel()]),
                       np.concatenate([(mag * (1.0 - frac)).ravel(), (mag * frac).ravel()]),
                       minlength=b * c * ch * cw * p.n_bins)
    hist = hist.reshape(b, c, ch, cw, p.n_bins)
    norm = np.sqrt((hist * hist).sum(axis=-1, keepdims=True))
    return hist / (norm + p.eps)


# ---------------------------------------------------------------------------
# Canny


def gaussian_kernel(sigma, size):
    ax = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-(ax * ax) / (2.0 * sigma * sigma))
    k = np.outer(g, g)
    return k / k.sum()


SOBEL_X = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
SOBEL_Y = np.array([[-1.0, -2.0, -1.0], [0.0, 0.0, 0.0], [1.0, 2.0, 1.0]])

# (row, col) offsets of the two neighbours compared in each 45-degree
# orientation sector
_NMS_NEIGHBORS = (((0, -1), (0, 1)), ((-1, 1), (1, -1)),
                  ((-1, 0), (1, 0)), ((-1, -1), (1, 1)))


def _sector(ang):
    """Orientation sector 0-3 of angles in degrees from ``arctan2``, the
    sector ``floor((ang % 180 + 22.5) / 45) % 4`` gives: a negative angle
    is turned by 180 instead of taking ``% 180``, and angles from 157.5 to
    180 land in sector 4, which is sector 0. Overwrites ``ang``."""
    np.add(ang, 180.0, out=ang, where=ang < 0.0)
    ang += 22.5
    ang /= 45.0
    sector = np.empty(ang.shape, dtype=np.intp)
    np.floor(ang, out=sector, casting="unsafe")
    sector &= 3
    return sector


# hysteresis connectivity over a (B*C, H, W) stack: 8-neighbours within an
# image, never across images
_HYSTERESIS_STRUCTURE = np.zeros((3, 3, 3), dtype=bool)
_HYSTERESIS_STRUCTURE[1] = True


def compute_canny(image, p=CannyParams()):
    """Binary edge maps: Gaussian blur, Sobel gradients, 4-direction
    non-maximum suppression, double threshold (fractions of each image's
    own max magnitude) and hysteresis, which keeps each image's 8-connected
    components of weak-or-strong pixels that hold a strong pixel. One edge
    map per channel; a blank image has no edges."""
    image = _check_image(image).astype(np.float64)
    b, c, h, w = image.shape
    if h < p.kernel_size or w < p.kernel_size:
        raise ValueError("image smaller than the Gaussian kernel")
    x = image.reshape(b * c, h, w)
    blurred = _conv_fixed_order(x, gaussian_kernel(p.gaussian_sigma, p.kernel_size))
    gx = _conv_fixed_order(blurred, SOBEL_X)
    gy = _conv_fixed_order(blurred, SOBEL_Y)
    mag = np.sqrt(gx * gx + gy * gy)
    sector = _sector(np.degrees(np.arctan2(gy, gx)))

    # each pixel's two neighbours, gathered once each from the zero-bordered
    # magnitudes through its sector's flat offsets
    padded = np.pad(mag, ((0, 0), (1, 1), (1, 1)), mode="constant").reshape(-1)
    wp = w + 2
    first, second = np.array([[dr * wp + dc for dr, dc in pair]
                              for pair in _NMS_NEIGHBORS]).T
    at = (np.arange(b * c)[:, None, None] * ((h + 2) * wp)
          + np.arange(1, h + 1)[:, None] * wp + np.arange(1, w + 1))
    at += first.take(sector)
    keep = mag >= padded.take(at)
    at += (second - first).take(sector)
    keep &= mag >= padded.take(at)
    suppressed = np.where(keep, mag, 0.0)

    mmax = mag.max(axis=(1, 2), keepdims=True)
    strong = (suppressed >= p.high * mmax) & (mmax > 0.0)
    labels, n = ndimage.label(suppressed >= p.low * mmax, structure=_HYSTERESIS_STRUCTURE)
    has_strong = np.zeros(n + 1, dtype=bool)
    has_strong[labels[strong]] = True
    return has_strong[labels].astype(np.float64).reshape(b, c, h, w)


# ---------------------------------------------------------------------------
# dense SIFT


def sift_grid(h, w, p=SiftParams()):
    """Top-left corners of the descriptor support windows."""
    ys = np.arange(0, h - p.support + 1, p.stride)
    xs = np.arange(0, w - p.support + 1, p.stride)
    return ys, xs


def compute_dense_sift(image, p=SiftParams()):
    """128-d descriptors on a regular grid over the channel-mean grayscale.

    Per window: Gaussian-weighted gradient magnitudes vote into a 4x4 grid
    of 8-bin signed-orientation histograms, then L2 normalize, clip at
    ``p.clip`` and renormalize. Returns (B, G, 128) with G grid positions
    in row-major order.
    """
    image = _check_image(image).astype(np.float64)
    b, _, h, w = image.shape
    if h < p.support or w < p.support:
        raise ValueError("image smaller than the descriptor support")
    gray = grayscale_reduce(image)[:, 0]
    ys, xs = sift_grid(h, w, p)
    n_desc = len(ys) * len(xs)
    out = np.zeros((b, n_desc, p.dims))

    cell = p.support // p.spatial_bins
    ax = np.arange(p.support) - (p.support - 1) / 2.0
    sigma = p.support / 2.0
    gwin = np.exp(-(ax[:, None] ** 2 + ax[None, :] ** 2) / (2.0 * sigma * sigma))
    bin_width = 360.0 / p.orientation_bins
    spatial_r = np.arange(p.support) // cell
    spatial_c = np.arange(p.support) // cell

    for bi in range(b):
        gx, gy = _grad_xy(gray[bi])
        mag = np.sqrt(gx * gx + gy * gy)
        ang = np.degrees(np.arctan2(gy, gx)) % 360.0
        k = 0
        for y0 in ys:
            for x0 in xs:
                m = mag[y0:y0 + p.support, x0:x0 + p.support] * gwin
                a = ang[y0:y0 + p.support, x0:x0 + p.support]
                pos = a / bin_width
                lo = np.floor(pos).astype(np.int64) % p.orientation_bins
                hi = (lo + 1) % p.orientation_bins
                frac = pos - np.floor(pos)
                hist = np.zeros((p.spatial_bins, p.spatial_bins, p.orientation_bins))
                rr = np.repeat(spatial_r, p.support)
                cc = np.tile(spatial_c, p.support)
                np.add.at(hist, (rr, cc, lo.ravel()), (m * (1.0 - frac)).ravel())
                np.add.at(hist, (rr, cc, hi.ravel()), (m * frac).ravel())
                vec = hist.ravel()
                norm = math.sqrt(float(vec @ vec))
                if norm > p.eps:
                    vec = vec / norm
                    vec = np.minimum(vec, p.clip)
                    norm2 = math.sqrt(float(vec @ vec))
                    if norm2 > p.eps:
                        vec = vec / norm2
                out[bi, k] = vec
                k += 1
    return out


# ---------------------------------------------------------------------------
# target assembly


def patchify_array(field, patch_size):
    """Cut a (B, C, H, W, *K) field of H x W cells, each holding a K-shaped
    block (none for an image), into (B, L, C · patch² · prod(K)) patches of
    patch x patch cells. Inside a flattened patch the order is channel, then
    rows, then columns, then K."""
    field = np.asarray(field)
    if field.ndim < 4:
        raise ValueError(f"expected a (B, C, H, W, ...) field, got shape {field.shape}")
    b, c, h, w, *k = field.shape
    if h % patch_size or w % patch_size:
        raise ValueError(f"{h}x{w} field not divisible by patch size {patch_size}")
    gh, gw = h // patch_size, w // patch_size
    x = field.reshape(b, c, gh, patch_size, gw, patch_size, *k)
    x = x.transpose(0, 2, 4, 1, 3, 5, *range(6, x.ndim))
    return x.reshape(b, gh * gw, c * patch_size * patch_size * math.prod(k))


def unpatchify_array(patches, channels, h, w, patch_size, trailing=()):
    """Inverse of :func:`patchify_array`: (B, L, ...) patches -> the
    (B, channels, h, w, *trailing) field; ``channels`` -1 infers it."""
    patches = np.asarray(patches)
    b, l, _ = patches.shape
    gh, gw = h // patch_size, w // patch_size
    if l != gh * gw:
        raise ValueError("patch count inconsistent with image geometry")
    x = patches.reshape(b, gh, gw, channels, patch_size, patch_size, *trailing)
    x = x.transpose(0, 3, 1, 4, 2, 5, *range(6, x.ndim))
    return x.reshape(b, -1, h, w, *trailing)


def unpatchify_hog(patches, p, h, w, patch_size):
    """Inverse of the HOG target layout: (B, L, C·cells²·bins) -> the
    (B, C, H/cell, W/cell, bins) fields of :func:`compute_hog`."""
    u = p.cell_size
    return unpatchify_array(patches, -1, h // u, w // u, patch_size // u, (p.n_bins,))


def _per_patch_normalize(patches, eps=1e-6):
    mu = patches.mean(axis=-1, keepdims=True)
    sd = patches.std(axis=-1, keepdims=True)
    return (patches - mu) / (sd + eps)


def _sift_field(image, spec):
    """(B, 1, H/stride, W/stride, 128): each descriptor of
    :func:`compute_dense_sift` in the cell holding its window's center,
    zeros where no window fits (the image border)."""
    p = spec.sift
    b, _, h, w = image.shape
    ys, xs = sift_grid(h, w, p)
    off = (p.support // 2) // p.stride
    field = np.zeros((b, 1, h // p.stride, w // p.stride, p.dims))
    field[:, 0, off:off + len(ys), off:off + len(xs)] = \
        compute_dense_sift(image, p).reshape(b, len(ys), len(xs), p.dims)
    return field


def _ndi_depth(spec, channels):
    spec.bands.validate(channels)
    return 3


class _Descriptor(NamedTuple):
    field: Callable     # (image, spec) -> (B, C', H/u, W/u, *K) field
    cell: Callable      # spec -> (u in pixels, what u is called)
    depth: Callable     # (spec, image channels) -> C' · prod(K)
    normalize: bool     # standardise each target patch


# extractors are looked up by name when called, so a wrapper set on this
# module is the one that runs
_DESCRIPTORS = {
    "raw": _Descriptor(lambda image, spec: image, lambda spec: (1, "pixel"),
                       lambda spec, c: c, True),
    "canny": _Descriptor(lambda image, spec: compute_canny(image, spec.canny),
                         lambda spec: (1, "pixel"), lambda spec, c: c, True),
    # NDI lies in [-1, 1] already
    "ndi": _Descriptor(lambda image, spec: compute_ndi(image, spec.bands),
                       lambda spec: (1, "pixel"), _ndi_depth, False),
    "hog": _Descriptor(lambda image, spec: compute_hog(image, spec.hog),
                       lambda spec: (spec.hog.cell_size, "HOG cell size"),
                       lambda spec, c: c * spec.hog.n_bins, False),
    "sift": _Descriptor(_sift_field, lambda spec: (spec.sift.stride, "SIFT grid stride"),
                        lambda spec, c: spec.sift.dims, False),
}


def _cells_per_patch(spec, name, patch_size):
    u, unit = _DESCRIPTORS[name].cell(spec)
    if patch_size % u:
        raise ValueError(f"patch size must be divisible by {unit}")
    return patch_size // u


def assemble_targets(image, spec, patch_size):
    """Targets for one batch: head name -> (B, L, width) array, in the
    spec's head order."""
    image = _check_image(image)
    targets = {}
    for name in spec.variant.split("+"):
        d = _DESCRIPTORS[name]
        x = patchify_array(d.field(image, spec), _cells_per_patch(spec, name, patch_size))
        targets[name] = _per_patch_normalize(x) if d.normalize else x
    return targets
