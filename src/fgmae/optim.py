"""Optimizers and learning-rate schedules.

AdamW with decoupled weight decay, plain SGD for linear probes, and the
linear-warmup + cosine-decay schedule used for pretraining.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class LrSchedule:
    base_lr: float
    warmup_steps: int
    total_steps: int
    min_lr: float = 0.0


def lr_at(step, schedule):
    """Linear 0 -> base over warmup, then cosine decay down to min_lr."""
    if step < 0 or step > schedule.total_steps:
        raise ValueError(f"step {step} outside [0, {schedule.total_steps}]")
    if schedule.warmup_steps > 0 and step < schedule.warmup_steps:
        return schedule.base_lr * step / schedule.warmup_steps
    span = schedule.total_steps - schedule.warmup_steps
    progress = 0.0 if span == 0 else (step - schedule.warmup_steps) / span
    return schedule.min_lr + (schedule.base_lr - schedule.min_lr) * 0.5 * (
        1.0 + math.cos(math.pi * progress))


@dataclass
class OptimState:
    """Per-parameter AdamW state plus hyperparameters."""

    lr: float = 1.5e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.05
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    # per-parameter lr scale (layer decay) and weight-decay exemptions
    lr_scale: dict = field(default_factory=dict)
    no_decay: set = field(default_factory=set)


def no_decay_names(names):
    """The parameters exempt from weight decay: norms and the mask token."""
    return {n for n in names if ".ln" in n or ".norm." in n or n == "mask_token"}


def adamw_step(params, grads, state, lr=None):
    """One decoupled-weight-decay Adam step over named parameters in place.

    ``params``/``grads`` map name -> Tensor / ndarray. ``lr`` overrides the
    stored rate (for schedules). Raises on non-finite gradients.
    """
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


def sgd_step(params, grads, lr, weight_decay=0.0):
    """Vanilla SGD; decoupled weight decay when requested."""
    for name, p in params.items():
        g = grads[name]
        if g is None:
            continue
        if not np.isfinite(g).all():
            raise FloatingPointError(f"non-finite gradient for parameter {name!r}")
        p.data = p.data - lr * (g + weight_decay * p.data)
