"""Span tracer that instruments fgmae from the outside.

`instrument` replaces public functions of the fgmae modules with wrappers
that open a span on entry and close it on exit; the function it returns
puts the originals back. A span is (name, parent span, run id, start, end);
spans stay in flat in-memory lists until `Tracer.write` dumps them once the
run is over. Wrappers pass arguments and results through untouched, so a
traced run trains bitwise the same as an untraced one (run.py checks this).

Tensor ops get special handling. Every tape node created while an op runs
is remembered with the stack of ops that were open at the time, and when
the outermost op returns, the backward closure of each such node is
replaced by a timed one. Per-op backward time is the time spent in those
closures. A node counts as useful when its closure actually runs during
`Tensor.backward`.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

import numpy as np

# public differentiable functions of fgmae.tensor; Tensor.__getitem__ is
# traced as "getitem" on top of these
TENSOR_OPS = ("add", "mul", "div", "power", "exp", "log", "gelu", "reshape",
              "transpose", "swapaxes", "concatenate", "gather_tokens", "tsum",
              "tmean", "matmul", "softmax", "layer_norm", "log_softmax",
              "softplus", "sigmoid")

# spans whose data-layer children count as time a training loop blocked on
LOOP_SPANS = ("pretrain.train_step", "evaluate.linear_probe_train",
              "evaluate.fine_tune")


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.counts = defaultdict(float)
        self.reset()

    def reset(self):
        """Drop all spans and counts, e.g. after a warm-up. Counts are
        cleared in place because the wrappers hold on to the dict."""
        self.name_id, self.parent, self.run = [], [], []
        self.start, self.end = [], []
        self.counts.clear()
        self._stack = []
        self.run_id = 0

    def intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid):
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid):
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def write(self, path):
        """Dump every span to a compressed .npz file."""
        np.savez_compressed(path, names=np.array(self.names, dtype=str),
                            name_id=np.array(self.name_id, dtype=np.int32),
                            parent=np.array(self.parent, dtype=np.int64),
                            run=np.array(self.run, dtype=np.int32),
                            start=np.array(self.start), end=np.array(self.end))

    def summarize(self):
        """Per span name: calls, inclusive and self seconds; per layer: self
        seconds and the time loops blocked on it; top-level seconds per run."""
        start = np.asarray(self.start, dtype=np.float64)
        end = np.asarray(self.end, dtype=np.float64)
        nid = np.asarray(self.name_id, dtype=np.int64)
        dur = end - start
        own = self_times(start, end, self.parent)
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        incl = np.bincount(nid, weights=dur, minlength=k)
        selfs = np.bincount(nid, weights=own, minlength=k)
        spans = {name: {"calls": int(calls[i]), "incl_s": float(incl[i]),
                        "self_s": float(selfs[i])}
                 for i, name in enumerate(self.names) if calls[i]}
        layer_self = defaultdict(float)
        for name, s in spans.items():
            layer_self[layer_of(name)] += s["self_s"]
        loop_ids = {self._ids[n] for n in LOOP_SPANS if n in self._ids}
        layers = [layer_of(n) for n in self.names]
        in_loop = [False] * len(start)
        blocked = defaultdict(float)
        top = defaultdict(float)
        for i, p in enumerate(self.parent):
            if p < 0:
                top[self.run[i]] += dur[i]
                in_loop[i] = nid[i] in loop_ids
                continue
            in_loop[i] = in_loop[p] or nid[i] in loop_ids
            layer = layers[nid[i]]
            if in_loop[p] and layers[nid[p]] != layer:
                blocked[layer] += dur[i]
        return {"spans": spans, "counts": dict(self.counts),
                "layer_self_s": dict(layer_self), "blocked_s": dict(blocked),
                "top_s_by_run": {int(r): float(t) for r, t in top.items()},
                "n_spans": len(start)}


def layer_of(span_name):
    return span_name.split(".", 1)[0]


def self_times(start, end, parent):
    """Each span's duration minus the part of it that child spans cover.

    Children are clipped to their parent and overlapping children are
    merged first, so time is never subtracted twice."""
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    covered = np.zeros(len(start))
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        total = 0.0
        cur_s = cur_e = None
        for s, e in sorted((max(start[c], lo), min(end[c], hi)) for c in kids):
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    total += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            total += cur_e - cur_s
        covered[p] = total
    return (end - start) - covered


def _wrap(tracer, fn, name, after=None):
    nid = tracer.intern(name)

    def traced(*args, **kwargs):
        sid = tracer.open(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if after is not None:
            after(args, out)
        return out

    return functools.update_wrapper(traced, fn)


def instrument(tracer):
    """Wrap the public functions of every fgmae layer; returns an undo."""
    from fgmae import data as D
    from fgmae import evaluate as E
    from fgmae import features as F
    from fgmae import model as M
    from fgmae import optim as O
    from fgmae import pretrain as P
    from fgmae import tensor as T

    undo = []
    counts = tracer.counts

    def patch(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def plain(owner, attr, name, after=None):
        patch(owner, attr, _wrap(tracer, getattr(owner, attr), name, after))

    def count_bytes(key, pick):
        def after(args, out):
            counts[key] += pick(args, out)
        return after

    def ckpt_bytes(args, _):
        path = args[0]
        counts["pretrain.ckpt_bytes"] += sum(
            os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))

    # -- tensor: ops, tape nodes and timed backward closures ------------------
    op_stack = []
    pending = []
    bwd_keys = {}

    def timed_backward(bw, names):
        if names not in bwd_keys:
            bwd_keys[names] = (
                tracer.intern("tensor.bwd." + (names[-1] if names else "other")),
                [f"tensor.op.{n}.bwd_s" for n in dict.fromkeys(names)])
        nid, keys = bwd_keys[names]

        def run(g):
            sid = tracer.open(nid)
            try:
                bw(g)
            finally:
                tracer.close(sid)
            dt = tracer.end[sid] - tracer.start[sid]
            for key in keys:
                counts[key] += dt
            counts["tensor.tape_useful"] += 1
        return run

    def finalize():
        for node, names in pending:
            if node._backward is not None:
                node._backward = timed_backward(node._backward, names)
        pending.clear()

    original_node = T._node

    def node(data, prev):
        out = original_node(data, prev)
        if out.requires_grad:
            counts["tensor.tape_nodes"] += 1
            pending.append((out, tuple(op_stack)))
        return out

    def op(fn, name):
        nid = tracer.intern("tensor.op." + name)
        key = f"tensor.op.{name}.out_bytes"

        def traced(*args, **kwargs):
            op_stack.append(name)
            sid = tracer.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
                op_stack.pop()
            counts[key] += out.data.nbytes
            if not op_stack:
                finalize()
            return out
        return functools.update_wrapper(traced, fn)

    patch(T, "_node", node)
    for name in TENSOR_OPS:
        patch(T, name, op(getattr(T, name), name))
    patch(T.Tensor, "__getitem__", op(T.Tensor.__getitem__, "getitem"))
    backward = _wrap(tracer, T.Tensor.backward, "tensor.backward")

    def traced_backward(self, grad=None):
        finalize()
        return backward(self, grad)
    patch(T.Tensor, "backward", functools.update_wrapper(traced_backward,
                                                         T.Tensor.backward))

    # -- the other layers ------------------------------------------------------
    for fn in ("assemble_targets", "compute_canny", "compute_hog"):
        plain(F, fn, "features." + fn)
    plain(M.FgMae, "__init__", "model.init")
    for fn in ("encode", "decode", "predict_heads", "encoder_features"):
        plain(M.FgMae, fn, "model." + fn)
    for fn in ("masked_l2_loss", "random_masking_plan", "trunc_normal"):
        plain(M, fn, "model." + fn)
    plain(O, "adamw_step", "optim.adamw_step")
    plain(O, "sgd_step", "optim.sgd_step")
    plain(D, "read_tensor", "data.read_tensor",
          count_bytes("data.read_tensor_bytes", lambda a, out: out.nbytes))
    plain(D, "write_tensor", "data.write_tensor",
          count_bytes("data.write_tensor_bytes",
                      lambda a, out: np.asarray(a[1]).nbytes))
    for fn in ("select_season", "random_resized_crop", "horizontal_flip",
               "mixup"):
        plain(D, fn, "data." + fn)
    plain(P.Trainer, "__init__", "pretrain.trainer_init")
    plain(P.Trainer, "train_step", "pretrain.train_step")
    plain(P, "save_checkpoint", "pretrain.save_checkpoint", ckpt_bytes)
    plain(P, "load_checkpoint", "pretrain.load_checkpoint")
    plain(E, "linear_probe_train", "evaluate.linear_probe_train")
    plain(E, "fine_tune", "evaluate.fine_tune")

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        undo.clear()
    return restore
