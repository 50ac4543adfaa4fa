"""Pretraining loop: seeded data flow, feature targets, masked loss, AdamW
with linear warmup + cosine decay, and bit-exact checkpointing.

All randomness is derived from (seed, consumer name, step), so a run can be
checkpointed and resumed bitwise and two runs with the same config are
identical.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import os
from dataclasses import dataclass, field, asdict

from . import data as D
from . import features as F
from . import model as M
from . import optim as O
from .rng import Rng
from .tensor import Tensor


@dataclass
class PretrainConfig:
    model: M.ModelConfig = field(default_factory=M.ModelConfig)
    feature: F.FeatureSpec = field(default_factory=F.FeatureSpec)
    augment: D.AugmentationConfig = field(default_factory=D.AugmentationConfig)
    epochs: int = 50
    batch_size: int = 8
    base_lr: float = 1.5e-4
    min_lr: float = 0.0
    warmup_epochs: int = 10
    weight_decay: float = 0.05
    adam_betas: tuple = (0.9, 0.95)
    # head name -> loss weight, 1.0 for a head not named
    head_weights: dict = field(default_factory=dict)
    grad_clip: float = 0.0       # 0 disables clipping
    seed: int = 0
    checkpoint_interval: int = 0  # steps; 0 = only final

    def __post_init__(self):
        F.at_least(1, self, "epochs", "batch_size")
        F.at_least(0, self, "warmup_epochs", "checkpoint_interval")
        if self.warmup_epochs > self.epochs:
            raise ValueError("warmup cannot exceed total epochs")
        if self.augment.out_size != self.model.image_size:
            raise ValueError("augmentation output size must match the model "
                             "image size")
        n = self.model.n_patches
        keep = M.keep_count(n, self.model.mask_ratio)
        if not 0 < keep < n:
            raise ValueError(f"mask ratio {self.model.mask_ratio} keeps {keep} "
                             f"of {n} patches; pretraining needs 1 to {n - 1}")
        heads = self.heads  # checks the feature spec against the model
        size = self.model.image_size
        for name, what, window in (
                ("canny", "Canny kernel_size", self.feature.canny.kernel_size),
                ("sift", "SIFT support", self.feature.sift.support)):
            if name in heads and window > size:
                raise ValueError(f"{what} {window} is larger than the "
                                 f"{size}-px image")
        if not isinstance(self.head_weights, dict) or not all(
                isinstance(w, (int, float)) and not isinstance(w, bool)
                for w in self.head_weights.values()):
            raise ValueError("head_weights must map head names to numbers")
        unknown = set(self.head_weights) - set(heads)
        if unknown:
            raise ValueError(f"head_weights name(s) {sorted(unknown)} not among "
                             f"the run's heads {list(heads)}")

    @property
    def heads(self):
        """Head name -> per-patch target width, in order."""
        return self.feature.heads(self.model.in_channels, self.model.patch_size)

    def digest(self):
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


class ConfigError(ValueError):
    """A config that ``from_dict`` cannot build, naming where it fails."""


def from_dict(cls, d, path="config"):
    """Build config dataclass ``cls`` from a JSON-style dict, with the nested
    blocks its fields' default factories name. Keys left out keep their
    defaults; an unknown key, a value of the wrong type (see ``_check``)
    or an invalid value is a ConfigError naming where it sits."""
    if not isinstance(d, dict):
        raise ConfigError(f"{path} must be an object")
    table = _fields(cls)
    unknown = set(d) - set(table)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {path}")
    kwargs = {}
    for name, value in d.items():
        nested, default = table[name]
        where = f"{path}.{name}"
        if nested is not None:
            value = from_dict(nested, value, where)
        else:
            value = _check(value, default, where)
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {path}: {exc}") from None


@functools.cache
def _fields(cls):
    """Field name -> (nested config class or None, default) of ``cls``,
    built once per class."""
    table = {}
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(f.default_factory):
            table[f.name] = (f.default_factory, None)
        elif f.default_factory is not dataclasses.MISSING:
            table[f.name] = (None, f.default_factory())
        else:
            table[f.name] = (None, f.default)
    return table


def _check(value, default, where):
    """``value`` if it has the type of the field's ``default``: an int passes
    for a float, a bool for no number (no config field is a bool), and a
    list for a tuple of the same length whose elements pass. Returns the
    value, a list made a tuple."""
    if isinstance(default, tuple):
        if not isinstance(value, (list, tuple)) or len(value) != len(default):
            raise ConfigError(f"{where} must be a list of {len(default)}, "
                              f"got {value!r}")
        return tuple(_check(v, dv, f"{where}[{i}]")
                     for i, (v, dv) in enumerate(zip(value, default)))
    if isinstance(default, int):
        ok, kind = type(value) is int, "an integer"
    elif isinstance(default, float):
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        kind = "a number"
    else:
        ok, kind = isinstance(value, type(default)), f"a {type(default).__name__}"
    if not ok:
        raise ConfigError(f"{where} must be {kind}, got {value!r}")
    return value


class Trainer:
    """Owns the model, optimizer state and data flow for one pretraining run.

    A fresh trainer draws the model straight into its ``AdamW``'s storage;
    ``load`` passes in both, built the same way and read from a checkpoint."""

    def __init__(self, cfg, entries, data_dir, model=None, opt=None):
        self.cfg = cfg
        self.entries = entries
        self.data_dir = data_dir
        self.locations = D.locations(entries)
        if not self.locations:
            raise ValueError("empty manifest")
        self.rng = Rng(cfg.seed)
        if model is None:
            model = M.FgMae(cfg.model, cfg.heads)
            opt = _adamw(cfg, model, 0)
            model.draw(self.rng.child("init").at(0))
        self.model, self.opt = model, opt
        self.step = 0
        self.loss_log = []  # (step, lr, loss)

        self.steps_per_epoch = math.ceil(len(self.locations) / cfg.batch_size)
        self.total_steps = cfg.epochs * self.steps_per_epoch
        self.schedule = O.LrSchedule(base_lr=cfg.base_lr,
                                     warmup_steps=cfg.warmup_epochs * self.steps_per_epoch,
                                     total_steps=self.total_steps,
                                     min_lr=cfg.min_lr)

    def train_step(self):
        """One optimizer step; returns (lr, loss). Each sample's generator
        picks its location's season, then crops and flips the scene; targets
        are computed from the augmented view, then masked, forwarded and
        regressed."""
        cfg = self.cfg
        step = self.step
        idx, gens = D.sample_plan(self.rng, len(self.locations),
                                  cfg.batch_size, step)
        scenes = [D.select_season(self.entries, self.locations[i], gen)
                  for i, gen in zip(idx, gens)]
        batch = D.augmented_batch(
            [os.path.join(self.data_dir, e.path) for e in scenes], gens,
            cfg.augment, cfg.model.in_channels)
        target = F.assemble_targets(batch, cfg.feature, cfg.model.patch_size)
        plan = M.random_masking_plan(batch.shape[0], cfg.model.n_patches,
                                     cfg.model.mask_ratio,
                                     self.rng.child("mask").at(step))
        lr = O.lr_at(step, self.schedule)
        loss = O.take_step(
            self.model.params,
            lambda: M.masked_l2_loss(self.model.forward(Tensor(batch), plan),
                                     target, plan, cfg.head_weights),
            lambda lr: O.adamw_step(self.opt, lr=lr), lr, step, cfg.grad_clip)
        self.step += 1
        self.loss_log.append((step, lr, loss))
        return lr, loss

    def run(self, out_dir=None, max_steps=None):
        limit = self.total_steps if max_steps is None else min(max_steps, self.total_steps)
        while self.step < limit:
            self.train_step()
            if (out_dir and self.cfg.checkpoint_interval
                    and self.step % self.cfg.checkpoint_interval == 0
                    and self.step < limit):
                self.save(os.path.join(out_dir, f"ckpt_{self.step:06d}"))
        if out_dir:
            self.save(os.path.join(out_dir, "checkpoint"))
            write_loss_log(os.path.join(out_dir, "loss_log.csv"), self.loss_log,
                           self.cfg.digest())
        return self

    # -- checkpointing -------------------------------------------------------

    def save(self, path):
        save_checkpoint(path, self.model, self.opt, self.step, self.loss_log,
                        self.cfg)

    @classmethod
    def load(cls, path, entries, data_dir):
        cfg, model, opt, step, loss_log = load_checkpoint(path)
        trainer = cls(cfg, entries, data_dir, model=model, opt=opt)
        trainer.step, trainer.loss_log = step, loss_log
        return trainer


def _adamw(cfg, model, t):
    """The run's AdamW at step ``t``, adopting ``model``'s parameter storage
    unfilled: a fresh run draws into it, a resumed one reads into it."""
    return O.AdamW(model.params, lr=cfg.base_lr, beta1=cfg.adam_betas[0],
                   beta2=cfg.adam_betas[1], weight_decay=cfg.weight_decay,
                   t=t, copy=False)


def pretrain_run(cfg, manifest_path, out_dir):
    """End-to-end pretraining from a manifest; returns the Trainer."""
    entries = D.read_manifest(manifest_path)
    data_dir = os.path.dirname(os.path.abspath(manifest_path))
    trainer = Trainer(cfg, entries, data_dir)
    return trainer.run(out_dir=out_dir)


def write_loss_log(path, loss_log, digest=""):
    with open(path, "w") as f:
        f.write(f"# config_digest={digest}\n")
        f.write("step,lr,loss\n")
        for step, lr, loss in loss_log:
            f.write(f"{step},{lr!r},{loss!r}\n")


# ---------------------------------------------------------------------------
# checkpoint serialization


class CheckpointError(Exception):
    pass


FORMAT = "fgmae-checkpoint-v3"


def save_checkpoint(path, model, opt, step, loss_log, cfg):
    """Directory of FGMR tensors (parameters + moments) plus index.json,
    whose run config is the one description of the model and its AdamW.
    Writes are atomic per file; the index goes last."""
    os.makedirs(path, exist_ok=True)
    for name, p in model.params.items():
        fname = f"param__{name}.fgmr"
        D.write_tensor(os.path.join(path, fname), p.data)
        for kind, store in (("m", opt.m), ("v", opt.v)):
            if name in store:
                D.write_tensor(os.path.join(path, f"{kind}__{name}.fgmr"), store[name])
    index = {
        "format": FORMAT,
        "step": step,
        "config_digest": cfg.digest(),
        "config": asdict(cfg),
        "optimizer": {"t": opt.t, "has_moments": sorted(opt.m)},
        "loss_log": [[s, lr, lo] for s, lr, lo in loss_log],
    }
    tmp = os.path.join(path, "index.json.tmp")
    with open(tmp, "w") as f:
        json.dump(index, f, indent=1)
    os.replace(tmp, os.path.join(path, "index.json"))


def load_checkpoint(path, moments=True):
    """Rebuild (config, model, optimizer, step, loss log) from the run
    config in index.json, parsed once: its model and ``AdamW`` are built as
    in a fresh ``Trainer`` and every payload is read into their storage.
    With ``moments=False`` the parameters are read into plain arrays and
    the optimizer is None. A bad index or config, a missing tensor file or
    moments for a parameter the config's model lacks is a CheckpointError;
    a payload whose shape or dtype does not fit is a ContainerError.
    """
    try:
        with open(os.path.join(path, "index.json")) as f:
            index = json.load(f)
    except FileNotFoundError:
        raise CheckpointError(f"no index.json under {path}") from None
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"malformed index.json under {path}: {exc}") from None
    fmt = index.get("format") if isinstance(index, dict) else None
    if fmt != FORMAT:
        raise CheckpointError(f"checkpoint under {path} has format {fmt!r}, "
                              f"not {FORMAT}")
    try:
        cfg = from_dict(PretrainConfig, index["config"])
        t = int(index["optimizer"]["t"])
        has_moments = sorted(set(index["optimizer"]["has_moments"]))
        step = int(index["step"])
        loss_log = [(int(s), float(lr), float(lo)) for s, lr, lo in index["loss_log"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"invalid index.json under {path}: {exc!r}") from None
    model = M.FgMae(cfg.model, cfg.heads)
    unknown = set(has_moments) - set(model.params)
    if unknown:
        raise CheckpointError(f"moments under {path} for {sorted(unknown)}, "
                              "which its config's model lacks")
    opt = _adamw(cfg, model, t) if moments else None
    for name, p in model.params.items():
        _read_into(path, f"param__{name}.fgmr", p.data)
    for name in has_moments if moments else ():
        for kind, store, view in zip("mv", (opt.m, opt.v), opt.views[name][2:]):
            store[name] = _read_into(path, f"{kind}__{name}.fgmr", view)
    return cfg, model, opt, step, loss_log


def _read_into(path, fname, out):
    try:
        return D.read_tensor(os.path.join(path, fname), out=out)
    except FileNotFoundError:
        raise CheckpointError(f"missing {fname} under {path}") from None


def load_model(path):
    """Just the model from a checkpoint directory: the index and the
    parameters, no optimizer moments."""
    return load_checkpoint(path, moments=False)[1]
