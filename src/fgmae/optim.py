"""Optimizers, learning-rate schedules and the training step.

AdamW with decoupled weight decay, plain SGD for linear probes, the
linear-warmup + cosine-decay schedule, and ``take_step``, the one step that
pretraining, probing and fine-tuning all take.

``AdamW`` owns its parameters. Its constructor is the one place that
decides which are exempt from weight decay (norms and the mask token, as in
MAE) and groups them by (lr scale, weight-decay exemption, dtype); each
group keeps its parameters, gradients and both Adam moments in four flat
buffers. A group holds whole parameters and at most ``MAX_GROUP`` elements
(a larger parameter gets a group of its own), so its buffers are no larger
than the per-parameter arrays they replace and the allocator reuses their
memory from one optimizer to the next. With one buffer per group, each
ViT-S checkpoint load faulted in 276 MB of fresh pages and took 30% longer.
``Tensor.data``, ``opt.m[name]`` and ``opt.v[name]`` are views into them,
and the tensor's ``grad_buffer`` is the view its first gradient of a
backward pass is copied into (when C-contiguous; see ``tensor._accum``).
``adamw_step`` then updates each group in place, over blocks of ``BLOCK``
elements, with two scratch blocks that stay in cache instead of a fresh
temporary array per operation. A step over at least ``SPLIT_MIN``
elements, in a process with a second lane (``tensor.two_lanes``), cuts its
block list in two halves by element count: the lane checks and updates
the first half with its own scratch pair, the caller the second with
another, and both checks end before either half is written.

Blocking and the split keep every bit. Each element still goes through the
same IEEE operations in the same order, with the same operands: every
operation is elementwise, correctly rounded and computed in the parameter
dtype (the hyperparameters are Python floats, which numpy casts to that
dtype). Where an element sits in a buffer or a block, and which lane
updates it, does not change its result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import clip_global_norm, global_grad_norm, two_lanes

# Elements per block of the in-place update: the block's slices of p, g, m
# and v and the two scratch blocks stay in cache between operations, and
# the Python cost of a block's 15 calls holds the interpreter lock, which
# two lanes share. On a 2-core Xeon VM one ViT-S update (23 M elements)
# took 132 ms on one lane with blocks of 2^15 or 2^17, and on two lanes
# 119, 84, 77 and 83 ms with 2^15 to 2^18. A demo step has no run of
# parameters longer than 2^16 elements (the 13-band patch embed is 53 K).
BLOCK = 1 << 17

# Elements per group at most (128 KB of float32), unless one parameter is
# larger. Buffers this small are reused from the heap from one optimizer to
# the next instead of being mapped and faulted in afresh: building a 13-band demo
# Trainer took 18% longer than at the parent with 2^19 (392 minor faults)
# and 7% longer with 2^15 (none).
MAX_GROUP = 1 << 15

# Elements a step updates at least before it is split over two lanes (see
# adamw_step). With 2^17-element blocks, two lanes over one took 1.92,
# 1.51, 1.31, 1.03, 1.08, 0.91, 0.94 and 0.79 times as long at 64 K, 128 K,
# 256 K, 384 K, 512 K, 768 K, 1 M and 2 M elements (same VM, back-to-back
# steps); a demo step updates about 230 K.
SPLIT_MIN = 1 << 20


class TrainingDiverged(RuntimeError):
    """Raised when the loss goes non-finite; carries step/lr/grad-norm."""

    def __init__(self, step, lr, grad_norm):
        super().__init__(f"non-finite loss at step {step} (lr={lr:.3e}, "
                         f"grad_norm={grad_norm:.3e})")
        self.step, self.lr, self.grad_norm = step, lr, grad_norm


def take_step(params, loss_fn, update, lr, step, clip=0.0):
    """One training step over named parameters: clear their gradients, run
    ``loss_fn()`` (forward and loss), backward, raise TrainingDiverged on a
    non-finite loss, clip the global gradient norm to ``clip`` if positive,
    then ``update(lr)`` (the optimizer). Returns the loss value."""
    for p in params.values():
        p.grad = None
    loss = loss_fn()
    value = float(loss.data)
    loss.backward()
    if not np.isfinite(value):
        raise TrainingDiverged(step, lr, global_grad_norm(params))
    if clip > 0:  # scales the gradients in place
        clip_global_norm(params, clip)
    update(lr)
    return value


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


class _Group:
    """One (lr scale, decay exemption, dtype) group's flat buffers; members
    are (name, start, stop) in buffer order. A gradient view is written
    before it is read, so only the moments start zeroed."""

    def __init__(self, scale, exempt, dtype, members, size):
        self.scale, self.exempt, self.members = scale, exempt, members
        self.p, self.g = np.empty(size, dtype), np.empty(size, dtype)
        self.m, self.v = np.zeros(size, dtype), np.zeros(size, dtype)


class AdamW:
    """Decoupled-weight-decay Adam state over named parameters it owns.

    The constructor decides the weight-decay exemptions (``no_decay``:
    norms and the mask token) and builds the flat groups. It rebinds every
    ``p.data`` to its view, copying the current values when ``copy`` (a
    checkpoint load reads into ``views`` instead), and points
    ``p.grad_buffer`` at its gradient view. ``lr_scale`` maps name -> lr
    scale (layer decay), 1 for a name not in it. ``m`` and ``v`` hold a
    name only once that parameter has been stepped."""

    def __init__(self, params, lr=1.5e-4, beta1=0.9, beta2=0.999, eps=1e-8,
                 weight_decay=0.05, t=0, lr_scale=None, copy=True):
        self.params = dict(params)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.weight_decay, self.t = weight_decay, t
        self.lr_scale = dict(lr_scale or {})
        self.no_decay = {n for n in params
                         if ".ln" in n or ".norm." in n or n == "mask_token"}
        self.m, self.v = {}, {}
        keyed = {}  # key -> member lists of its groups, the last one open
        for name, p in params.items():
            key = (self.lr_scale.get(name, 1.0), name in self.no_decay,
                   p.data.dtype)
            groups = keyed.setdefault(key, [[]])
            if (groups[-1] and sum(q.data.size for _, q in groups[-1])
                    + p.data.size > MAX_GROUP):
                groups.append([])
            groups[-1].append((name, p))
        self.groups = []
        self.views = {}  # name -> (p, g, m, v) views
        for (scale, exempt, dtype), members in (
                (key, members) for key, groups in keyed.items()
                for members in groups):
            spans, size = [], 0
            for name, p in members:
                spans.append((name, size, size + p.data.size))
                size += p.data.size
            group = _Group(scale, exempt, dtype, spans, size)
            self.groups.append(group)
            for (name, p), (_, a, b) in zip(members, spans):
                views = tuple(buf[a:b].reshape(p.data.shape)
                              for buf in (group.p, group.g, group.m, group.v))
                if copy:
                    views[0][...] = p.data
                p.data, p.grad_buffer = views[0], views[1]
                self.views[name] = views
        self.scratch = None  # see adamw_step


def _blocks(opt):
    """(group, start, stop) of every block the step updates, in buffer
    order: the runs of each group's buffers whose parameters have a
    gradient, adjacent ones merged, cut into ``BLOCK`` elements."""
    blocks = []
    for group in opt.groups:
        runs = []
        for name, a, b in group.members:
            if opt.params[name].grad is None or a == b:
                continue
            if runs and runs[-1][1] == a:
                runs[-1][1] = b
            else:
                runs.append([a, b])
        blocks += [(group, a, min(a + BLOCK, stop)) for start, stop in runs
                   for a in range(start, stop, BLOCK)]
    return blocks


def _cut(blocks):
    """The block list in two: the shortest head that holds at least half
    of the elements, and the rest."""
    half, done, cut = sum(b - a for _, a, b in blocks) / 2, 0, 0
    while done < half:
        done += blocks[cut][2] - blocks[cut][1]
        cut += 1
    return [blocks[:cut], blocks[cut:]]


def _all_finite(x):
    # block by block, so that no boolean array the size of a group is made
    flat = x.reshape(-1)
    return all(np.isfinite(flat[a:a + BLOCK]).all()
               for a in range(0, flat.size, BLOCK))


def _finite(blocks):
    return all(np.isfinite(group.g[a:b]).all() for group, a, b in blocks)


def _scratch(blocks):
    """One pair of scratch blocks per dtype, as long as the longest block."""
    longest = {}
    for group, a, b in blocks:
        dtype = group.p.dtype
        longest[dtype] = max(longest.get(dtype, 0), b - a)
    return {dtype: np.empty((2, n), dtype) for dtype, n in longest.items()}


def adamw_step(opt, lr=None):
    """One decoupled-weight-decay Adam step over ``opt.params`` in place.

    Each parameter's ``p.grad`` is its gradient; ``None`` skips it. A
    gradient other than its own view is copied into the view first, cast
    to the parameter dtype. ``lr`` overrides the stored rate (for
    schedules). Every gradient is checked before anything is written: a
    non-finite one raises FloatingPointError naming the first such
    parameter in ``opt.params`` order, and leaves the parameters, the
    moments and ``opt.t`` as they were. A big step runs on two lanes
    (see the module docstring) and returns with the lane idle.
    """
    if lr is None:
        lr = opt.lr
    params, views = opt.params, opt.views
    for name, p in params.items():
        if p.grad is not None and p.grad is not views[name][1]:
            np.copyto(views[name][1], p.grad, casting="unsafe")
    blocks = _blocks(opt)
    both = two_lanes() if sum(b - a for _, a, b in blocks) >= SPLIT_MIN else None
    if both is None:  # one lane: the caller runs every block
        both, halves = (lambda f, g: (f(), g())), [blocks, []]
    else:
        halves = _cut(blocks)
    if not all(both(lambda: _finite(halves[0]), lambda: _finite(halves[1]))):
        for name, p in params.items():
            if p.grad is not None and not _all_finite(views[name][1]):
                raise FloatingPointError(
                    f"non-finite gradient for parameter {name!r}")
    opt.t += 1
    # One pair of scratch blocks per dtype and lane for the whole step. They
    # stay on the optimizer until the next step. Made after the step's tape,
    # they keep glibc from trimming the heap top when the tape is freed;
    # freed here, each step handed those pages back and faulted them in
    # again (about 4,800 minor faults per 13-band demo step and 600 per
    # checkpoint load, 0 with the blocks kept).
    opt.scratch = [_scratch(half) for half in halves]
    both(lambda: _update(opt, halves[0], opt.scratch[0], lr),
         lambda: _update(opt, halves[1], opt.scratch[1], lr))
    for name, p in params.items():
        if p.grad is not None and name not in opt.m:
            opt.m[name], opt.v[name] = views[name][2:]


def _update(opt, blocks, scratch, lr):
    """Step ``opt.t``'s Adam update of each block in place, with the
    scratch pairs of one lane."""
    beta1, beta2, eps, t = opt.beta1, opt.beta2, opt.eps, opt.t
    c1, c2 = 1.0 - beta1, 1.0 - beta2
    bc1, bc2 = 1.0 - beta1 ** t, 1.0 - beta2 ** t
    for group, a, b in blocks:
        wd = 0.0 if group.exempt else opt.weight_decay
        step = lr * group.scale
        p, g, m, v = group.p[a:b], group.g[a:b], group.m[a:b], group.v[a:b]
        s1, s2 = scratch[group.p.dtype]
        t1, t2 = s1[:b - a], s2[:b - a]
        np.multiply(m, beta1, out=m)                # m *= beta1
        np.multiply(g, c1, out=t1)
        np.add(m, t1, out=m)                        # m += (1 - beta1) g
        np.multiply(v, beta2, out=v)                # v *= beta2
        np.multiply(g, c2, out=t1)
        np.multiply(t1, g, out=t1)
        np.add(v, t1, out=v)                        # v += (1 - beta2) g g
        np.divide(m, bc1, out=t1)                   # m_hat
        np.divide(v, bc2, out=t2)                   # v_hat
        np.sqrt(t2, out=t2)
        np.add(t2, eps, out=t2)
        np.divide(t1, t2, out=t1)                   # m_hat / (sqrt + eps)
        np.multiply(p, wd, out=t2)
        np.add(t1, t2, out=t1)                      # ... + wd p
        np.multiply(t1, step, out=t1)
        np.subtract(p, t1, out=p)                   # p -= lr scale (...)


def sgd_step(params, lr, weight_decay=0.0):
    """Vanilla SGD over named parameters, each stepped by its ``p.grad``
    (``None`` skips it); decoupled weight decay when requested. Every
    gradient is checked before any parameter is written."""
    for name, p in params.items():
        if p.grad is not None and not np.isfinite(p.grad).all():
            raise FloatingPointError(f"non-finite gradient for parameter {name!r}")
    for p in params.values():
        if p.grad is not None:
            p.data = p.data - lr * (p.grad + weight_decay * p.data)
