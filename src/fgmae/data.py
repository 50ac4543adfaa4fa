"""Datasets and augmentations.

Covers the bit-exact FGMR tensor container, CSV scene manifests, synthetic
multispectral / SAR scene generation with gamma speckle, and the training
augmentations (random resized crop, horizontal flip, season selection,
mixup, channel zero-padding). Everything is a pure function of its inputs
and an explicit random generator.
"""

from __future__ import annotations

import csv
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .rng import Rng

# ---------------------------------------------------------------------------
# FGMR tensor container

FGMR_MAGIC = b"FGMR"
FGMR_VERSION = 1
_DTYPE_CODES = {np.dtype(np.float32): 1, np.dtype(np.float64): 2}
_CODE_DTYPES = {1: np.dtype(np.float32), 2: np.dtype(np.float64)}


class ContainerError(Exception):
    """Raised on a malformed FGMR file or scene manifest."""


class ChannelError(ValueError):
    """Raised on an image with more bands than the model has input channels."""


def write_tensor(path, array):
    """Serialize an ndarray: magic, version u32, dtype u8, rank u8,
    dims u64[rank], then the little-endian row-major payload."""
    array = np.asarray(array)
    if array.dtype not in _DTYPE_CODES:
        array = array.astype(np.float32)
    code = _DTYPE_CODES[array.dtype]
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as f:
        f.write(FGMR_MAGIC)
        f.write(struct.pack("<I", FGMR_VERSION))
        f.write(struct.pack("<BB", code, array.ndim))
        f.write(struct.pack(f"<{array.ndim}Q", *array.shape))
        f.write(array.astype(array.dtype.newbyteorder("<")).tobytes())
    os.replace(tmp, path)


def read_tensor(path, out=None):
    """Read an FGMR file back as a writable native-endian ndarray.

    Raises ContainerError on a bad magic, an unsupported version, an unknown
    dtype code, a header cut short, dims numpy cannot hold, and a payload
    shorter or longer than the dims say. The payload size (exact, in Python
    integers) is checked against the bytes left in the file before anything
    is allocated; the payload is then read once into its final buffer, a
    new array or ``out`` when given, a C-contiguous native array that must
    have the file's shape and dtype (else ContainerError); it is returned.
    """
    with open(path, "rb") as f:
        head = f.read(10)
        if head[:4] != FGMR_MAGIC:
            raise ContainerError(f"bad magic {head[:4]!r} in {path}")
        if len(head) < 10:
            raise ContainerError(f"header cut short in {path}")
        version, code, rank = struct.unpack("<IBB", head[4:])
        if version != FGMR_VERSION:
            raise ContainerError(f"unsupported container version {version}")
        if code not in _CODE_DTYPES:
            raise ContainerError(f"unknown dtype code {code}")
        raw_dims = f.read(8 * rank)
        if len(raw_dims) != 8 * rank:
            raise ContainerError(f"header cut short in {path}")
        dims = struct.unpack(f"<{rank}Q", raw_dims)
        dtype = _CODE_DTYPES[code]
        expected = math.prod(dims) * dtype.itemsize
        left = os.fstat(f.fileno()).st_size - f.tell()
        if left != expected:
            raise ContainerError(f"{'truncated' if left < expected else 'trailing'} "
                                 f"payload in {path}: {left} bytes, expected {expected}")
        if out is None:
            try:
                out = np.empty(dims, dtype)
            except ValueError as exc:
                raise ContainerError(f"dims {dims} in {path}: {exc}") from None
        elif out.shape != dims or out.dtype != dtype:
            raise ContainerError(f"{path} holds {dtype.name} {list(dims)}, "
                                 f"expected {out.dtype.name} {list(out.shape)}")
        if f.readinto(out) != expected:
            raise ContainerError(f"truncated payload in {path}")
    if not np.little_endian:
        out.byteswap(inplace=True)
    return out


# ---------------------------------------------------------------------------
# PPM (P6) rendering output


def write_ppm(path, image):
    """(3, H, W) or (H, W) uint8 -> binary P6/P5 with maxval 255."""
    image = np.asarray(image)
    if image.dtype != np.uint8:
        raise ValueError("PPM writer expects uint8 data")
    if image.ndim not in (2, 3) or image.ndim == 3 and image.shape[0] != 3:
        raise ValueError(f"PPM writer expects (3, H, W) or (H, W), got {image.shape}")
    with open(path, "wb") as f:
        if image.ndim == 2:
            f.write(b"P5\n%d %d\n255\n" % (image.shape[1], image.shape[0]))
            f.write(image.tobytes())
        else:
            h, w = image.shape[1], image.shape[2]
            f.write(b"P6\n%d %d\n255\n" % (w, h))
            f.write(np.ascontiguousarray(image.transpose(1, 2, 0)).tobytes())


# ---------------------------------------------------------------------------
# scene manifests

MANIFEST_FIELDS = ["location_id", "season", "modality", "path", "label"]


@dataclass
class SceneEntry:
    location_id: str
    season: int
    modality: str
    path: str
    label: str = ""

    def label_list(self):
        return [int(x) for x in self.label.split(";")] if self.label else []


def write_manifest(path, entries):
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=MANIFEST_FIELDS)
        writer.writeheader()
        for e in entries:
            writer.writerow({"location_id": e.location_id, "season": e.season,
                             "modality": e.modality, "path": e.path, "label": e.label})


def read_manifest(path):
    """The scene entries of a manifest. A row short of a column, a season
    that is not an integer, a label that is not a ``;``-separated list of
    integers, or a manifest with no rows is a ContainerError naming the
    file and the row."""
    entries = []
    with open(path, newline="") as f:
        for i, row in enumerate(csv.DictReader(f), 1):
            missing = [k for k in MANIFEST_FIELDS[:4] if row.get(k) is None]
            if missing:
                raise ContainerError(f"{path}, row {i}: no {missing[0]!r} column")
            try:
                season = int(row["season"])
            except ValueError:
                raise ContainerError(f"{path}, row {i}: season {row['season']!r} "
                                     f"is not an integer") from None
            entry = SceneEntry(row["location_id"], season, row["modality"],
                               row["path"], row.get("label", ""))
            try:
                entry.label_list()
            except ValueError:
                raise ContainerError(f"{path}, row {i}: label {entry.label!r} "
                                     f"is not a list of integers") from None
            entries.append(entry)
    if not entries:
        raise ContainerError(f"{path} has no rows")
    return entries


def locations(entries):
    """Ordered unique location ids."""
    seen = {}
    for e in entries:
        seen.setdefault(e.location_id, None)
    return list(seen)


def select_season(entries, location_id, generator):
    """Uniform choice among the seasons available at one location."""
    candidates = [e for e in entries if e.location_id == location_id]
    if not candidates:
        raise KeyError(f"unknown location {location_id!r}")
    return candidates[int(generator.integers(len(candidates)))]


# ---------------------------------------------------------------------------
# synthetic scenes

MS_CLASSES = 8
SAR_CLASSES = 6
# smallest scene side per modality (MS blob radii are drawn below size // 3)
MIN_SCENE_SIZE = {"MS": 3, "SAR": 1}
N_STRUCTURES = 6  # class blobs stamped on each MS scene

# 8 land-cover stand-ins; per class, levels for the 13 multispectral bands.
# Band roles follow Sentinel-2 L1C ordering: index 2 green, 3 red, 7 NIR,
# 10 SWIR. Vegetation has NIR >> red (high NDVI), water green >> NIR
# (high NDWI), built-up SWIR > NIR (high NDBI).
_MS_SIGNATURES = np.array([
    # B1   B2   B3   B4   B5   B6   B7   B8   B9  B10  B11  B12  B13
    [0.30, 0.32, 0.34, 0.36, 0.36, 0.36, 0.36, 0.38, 0.36, 0.34, 0.42, 0.40, 0.38],  # bare soil
    [0.08, 0.10, 0.30, 0.08, 0.08, 0.06, 0.06, 0.04, 0.04, 0.04, 0.03, 0.02, 0.02],  # water
    [0.06, 0.08, 0.12, 0.08, 0.20, 0.35, 0.45, 0.55, 0.50, 0.45, 0.22, 0.12, 0.10],  # vegetation
    [0.35, 0.38, 0.40, 0.42, 0.40, 0.38, 0.36, 0.30, 0.32, 0.30, 0.52, 0.48, 0.44],  # built-up
    [0.10, 0.12, 0.18, 0.12, 0.25, 0.40, 0.48, 0.60, 0.55, 0.50, 0.30, 0.18, 0.14],  # forest
    [0.60, 0.62, 0.64, 0.66, 0.64, 0.62, 0.60, 0.58, 0.56, 0.54, 0.50, 0.48, 0.46],  # snow/sand
    [0.15, 0.18, 0.28, 0.20, 0.28, 0.34, 0.38, 0.42, 0.40, 0.36, 0.34, 0.26, 0.22],  # cropland
    [0.12, 0.14, 0.24, 0.14, 0.14, 0.12, 0.12, 0.10, 0.10, 0.10, 0.08, 0.06, 0.05],  # wetland
])


def _smooth_field(generator, size, scale=8):
    """Low-frequency field in [0, 1] via bilinear upsampling of coarse noise."""
    coarse = generator.random((scale, scale))
    return _bilinear_resize(coarse[None], size, size)[0]


def synth_multispectral_scene(seed, size, class_id=None):
    """One (13, size, size) scene plus its class mask and multilabel vector.

    Regions carry class-dependent band signatures so NDI targets are
    semantically meaningful; values stay in [0, 1].
    """
    generator = Rng(seed).at(13)
    mask = np.zeros((size, size), dtype=np.int64)
    mask[:] = 0 if class_id is None else class_id
    for _ in range(N_STRUCTURES):
        cls = int(generator.integers(MS_CLASSES))
        _stamp_blob(mask, cls, generator)
    image = _MS_SIGNATURES[mask].transpose(2, 0, 1).copy()
    shade = 0.8 + 0.4 * _smooth_field(generator, size)
    image *= shade[None]
    image += generator.normal(0.0, 0.01, size=image.shape)
    image = np.clip(image, 0.0, 1.0)
    labels = np.zeros(MS_CLASSES)
    labels[np.unique(mask)] = 1.0
    return image.astype(np.float32), mask, labels.astype(np.float32)


# per SAR class: (VV level, VH level, texture kind, texture period px).
# Classes are separated by spatial structure, not backscatter level, so the
# probe task rewards encoders that capture gradient/orientation content.
# Every class is closed under horizontal flips and tolerant to rescaling.
_SAR_CLASSES = [
    (0.25, 0.12, "smooth", 0),
    (0.30, 0.15, "stripes_v", 16),
    (0.30, 0.15, "stripes_h", 16),
    (0.30, 0.15, "stripes_diag", 16),
    (0.30, 0.15, "checker", 16),
    (0.28, 0.14, "blobs", 0),
]


def synth_sar_scene(seed, size, looks=1, class_id=None):
    """One (2, size, size) dual-pol scene: clean class-dependent backscatter
    times unit-mean gamma speckle (shape = looks, scale = 1/looks),
    independent per pixel and polarization. Returns (image, mask, one-hot
    label)."""
    if looks < 1:
        raise ValueError("speckle looks must be >= 1")
    generator = Rng(seed).at(2)
    if class_id is None:
        class_id = int(generator.integers(SAR_CLASSES))
    vv, vh, texture, period = _SAR_CLASSES[class_id]
    yy, xx = np.mgrid[0:size, 0:size]
    phase = generator.uniform(0.0, 2.0 * np.pi)
    if texture == "smooth":
        pattern = np.ones((size, size))
    elif texture == "stripes_v":
        pattern = 1.0 + 0.8 * np.sin(2.0 * np.pi * xx / period + phase)
    elif texture == "stripes_h":
        pattern = 1.0 + 0.8 * np.sin(2.0 * np.pi * yy / period + phase)
    elif texture == "stripes_diag":
        # either diagonal orientation, so the class is hflip-closed
        diag = xx + yy if generator.random() < 0.5 else xx - yy
        pattern = 1.0 + 0.8 * np.sin(2.0 * np.pi * diag / period + phase)
    elif texture == "checker":
        pattern = (1.0 + 0.8 * np.sin(2.0 * np.pi * xx / period + phase)) * \
                  (1.0 + 0.8 * np.sin(2.0 * np.pi * yy / period + phase)) / 1.32
    else:  # blobs
        pattern = 1.0 + 1.2 * (_smooth_field(generator, size, scale=12) > 0.6)
    pattern = pattern * (0.8 + 0.4 * _smooth_field(generator, size))
    clean = np.stack([vv * pattern, vh * pattern])
    clean = np.clip(clean, 0.01, None)
    speckle = gamma_speckle(clean.shape, looks, generator)
    image = clean * speckle
    mask = np.full((size, size), class_id, dtype=np.int64)
    labels = np.zeros(SAR_CLASSES, dtype=np.float32)
    labels[class_id] = 1.0
    return image.astype(np.float32), mask, labels


def gamma_speckle(shape, looks, generator):
    """Unit-mean multiplicative speckle: Gamma(shape=looks, scale=1/looks)."""
    return generator.gamma(looks, 1.0 / looks, size=shape)


def _stamp_blob(mask, cls, generator):
    size = mask.shape[0]
    cy, cx = generator.integers(size, size=2)
    ry = int(generator.integers(size // 12, size // 3))
    rx = int(generator.integers(size // 12, size // 3))
    yy, xx = np.mgrid[0:size, 0:size]
    region = ((yy - cy) / max(ry, 1)) ** 2 + ((xx - cx) / max(rx, 1)) ** 2 <= 1.0
    mask[region] = cls


# ---------------------------------------------------------------------------
# augmentations


@dataclass(frozen=True)
class AugmentationConfig:
    scale_min: float = 0.2
    scale_max: float = 1.0
    out_size: int = 224
    hflip_prob: float = 0.5

    def __post_init__(self):
        if self.out_size < 1:
            raise ValueError(f"out_size must be >= 1, got {self.out_size}")
        if not (0.0 < self.scale_min <= self.scale_max <= 1.0):
            raise ValueError("need 0 < scale_min <= scale_max <= 1")


def _bilinear_resize(image, out_h, out_w):
    """Half-pixel-center bilinear resampling of (C, H, W)."""
    image = np.asarray(image, dtype=np.float64)
    c, h, w = image.shape
    ys = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    ys = np.clip(ys, 0.0, h - 1.0)
    xs = np.clip(xs, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[None, :, None]
    wx = (xs - x0)[None, None, :]
    rows0, rows1 = image[:, y0], image[:, y1]  # each row gather once
    top = rows0[:, :, x0] * (1.0 - wx) + rows0[:, :, x1] * wx
    bot = rows1[:, :, x0] * (1.0 - wx) + rows1[:, :, x1] * wx
    return top * (1.0 - wy) + bot * wy


def random_resized_crop(image, cfg, generator):
    """Sample an area fraction in the scale range and an aspect ratio in
    [3/4, 4/3], crop, and bilinear-resize to the output size. Falls back to
    a center crop after 10 failed tries."""
    image = np.asarray(image)
    c, h, w = image.shape
    area = h * w
    for _ in range(10):
        target_area = area * generator.uniform(cfg.scale_min, cfg.scale_max)
        log_ratio = generator.uniform(np.log(3.0 / 4.0), np.log(4.0 / 3.0))
        ratio = np.exp(log_ratio)
        cw = int(round(np.sqrt(target_area * ratio)))
        ch = int(round(np.sqrt(target_area / ratio)))
        if 0 < cw <= w and 0 < ch <= h:
            top = int(generator.integers(h - ch + 1))
            left = int(generator.integers(w - cw + 1))
            break
    else:
        ch = cw = min(h, w)
        top, left = (h - ch) // 2, (w - cw) // 2
    crop = image[:, top:top + ch, left:left + cw]
    return _bilinear_resize(crop, cfg.out_size, cfg.out_size).astype(image.dtype)


def horizontal_flip(image, prob, generator):
    """Mirror along width with the given probability."""
    if generator.random() < prob:
        return np.ascontiguousarray(np.asarray(image)[..., ::-1])
    return np.asarray(image)


def sample_plan(rng, n, batch_size, step):
    """The items of ``n`` that training step ``step`` draws, slice ``k`` of
    epoch ``e``'s permutation (``rng.child("order").at(e)``), and the
    generator of each: ``rng.child("sample").at(step * batch_size + j)``."""
    epoch, k = divmod(step, math.ceil(n / batch_size))
    order = rng.child("order").at(epoch).permutation(n)
    idx = order[k * batch_size:(k + 1) * batch_size]
    sample = rng.child("sample")
    return idx, [sample.at(step * batch_size + j) for j in range(len(idx))]


def augmented_batch(paths, generators, aug, channels):
    """One training batch, float32 (B, channels, out, out): each scene file
    is read, zero-padded to ``channels`` (more bands is a ChannelError),
    crop-resized and maybe flipped with its own generator."""
    images = []
    for path, gen in zip(paths, generators):
        img = zero_pad_channels(read_tensor(path), channels)
        img = random_resized_crop(img, aug, gen)
        images.append(horizontal_flip(img, aug.hflip_prob, gen))
    return np.stack(images).astype(np.float32)


def view_batch(images, channels, size):
    """The deterministic view of a batch, float32 (B, channels, size, size):
    each image zero-padded to ``channels`` and resized whole, with no crop
    and no flip. Evaluation and rendering see scenes through it."""
    return np.stack([_bilinear_resize(zero_pad_channels(im, channels), size,
                                      size) for im in images]).astype(np.float32)


def mixup(images, labels, alpha, generator):
    """lambda ~ Beta(alpha, alpha); convex-combine a batch with a random
    permutation of itself, labels mixed with the same lambda."""
    if alpha <= 0:
        raise ValueError("mixup alpha must be positive")
    images = np.asarray(images)
    labels = np.asarray(labels)
    lam = float(generator.beta(alpha, alpha))
    perm = generator.permutation(images.shape[0])
    mixed_x = lam * images + (1.0 - lam) * images[perm]
    mixed_y = lam * labels + (1.0 - lam) * labels[perm]
    return mixed_x, mixed_y, lam


def zero_pad_channels(image, target_channels):
    """Append all-zero channels up to ``target_channels``; more bands than
    that is a ChannelError."""
    image = np.asarray(image)
    c = image.shape[0]
    if c > target_channels:
        raise ChannelError(f"image has {c} bands, more than the model's "
                           f"{target_channels} input channels")
    if c == target_channels:
        return image
    pad = np.zeros((target_channels - c,) + image.shape[1:], dtype=image.dtype)
    return np.concatenate([image, pad], axis=0)


# ---------------------------------------------------------------------------
# dataset synthesis on disk


def synthesize_dataset(out_dir, modality, n_locations, seed, looks=1, size=264):
    """Write n_locations x 4 seasons of synthetic scenes plus manifest.csv.

    Returns the manifest path. Scene class (SAR) is fixed per location so
    the 4 seasons of one location share a label, as with real data."""
    modality = modality.upper()
    if modality not in ("SAR", "MS"):
        raise ValueError(f"unknown modality {modality!r}, expected 'SAR' or 'MS'")
    if size < MIN_SCENE_SIZE[modality]:
        raise ValueError(f"{modality} needs size >= {MIN_SCENE_SIZE[modality]}")
    if looks < 1:
        raise ValueError("speckle looks must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    # balanced class assignment, decorrelated from location index
    classes = np.tile(np.arange(SAR_CLASSES),
                      (n_locations + SAR_CLASSES - 1) // SAR_CLASSES)[:n_locations]
    classes = Rng(seed).at(99).permutation(classes)
    for loc in range(n_locations):
        loc_id = f"loc{loc:04d}"
        class_id = int(classes[loc]) if modality == "SAR" else None
        for season in range(4):
            scene_seed = int(np.random.SeedSequence(
                entropy=seed, spawn_key=(loc, season)).generate_state(1)[0])
            if modality == "SAR":
                image, mask, labels = synth_sar_scene(scene_seed, size, looks, class_id)
                label_str = str(int(np.argmax(labels)))
            else:
                image, mask, labels = synth_multispectral_scene(scene_seed, size)
                label_str = ";".join(str(i) for i in np.nonzero(labels)[0])
            fname = f"{loc_id}_s{season}.fgmr"
            write_tensor(os.path.join(out_dir, fname), image)
            write_tensor(os.path.join(out_dir, f"{loc_id}_s{season}_mask.fgmr"),
                         mask.astype(np.float32))
            entries.append(SceneEntry(loc_id, season, modality, fname, label_str))
    manifest_path = os.path.join(out_dir, "manifest.csv")
    write_manifest(manifest_path, entries)
    return manifest_path
