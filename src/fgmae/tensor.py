"""Dense tensors with reverse-mode automatic differentiation.

Everything is backed by numpy arrays. A forward pass builds a graph of
Tensor nodes; ``backward()`` walks it once in reverse topological order and
accumulates gradients additively across fan-out. Results are bitwise
deterministic, on one lane or two (see below). A backward closure captures
its inputs and plain arrays, never its own output node, so no reference
cycle forms and a tape is freed by reference counting as soon as it is
dropped.

Every node is made by ``_op`` through the module-level ``_node``; ``_op``
sets its backward closure only when the node is on the tape. Inside ``with
no_grad():`` nothing is recorded: results carry no tape and ``requires_grad``
is False, which is how frozen encoders and inference run.
``Tensor.__getitem__`` takes basic indices only (ints, slices, ``...``,
``None`` and tuples of these) and raises ``TypeError`` for index arrays;
``gather_tokens`` does per-token gathers.

A linear layer's weight gradient, ``Σ_b x[b].T @ g[b]`` for a (B, N, D)
input and a (D, E) weight, is summed one sample at a time into one (D, E)
array (``_weight_grad``), usually the parameter's gradient buffer. Each
product is the GEMM numpy's batched matmul makes for that sample (same
operands, same strides), and summing a (B, D, E) stack over B adds its
slices in the same order, so the bits are those of the stacked product,
which is never made (19 MB per MLP layer at ViT-S). One 2-D GEMM over all
B·N rows would be faster still, but it sums the rows in another order and
so rounds differently.

Big products run on two lanes: the caller and one worker thread, the
lane. A product of a (B, N, D) input and a (D, E) weight of at least
``PAIR_MIN`` multiply-adds splits its forward over the samples, the first
half on the lane and the rest on the caller. When such a weight trains,
its backward queues ``_weight_grad`` on the lane and does not wait:
backward walks on to the next node while the lane sums it. Each calling
thread keeps its own queue for the pass it runs. A queued gradient is settled, waited for and
accumulated, before anything else touches that tensor's gradient, and
``Tensor.backward`` waits for every job it queued before it returns or
raises, then accumulates what is left in the order the closures queued it.
So each tensor's gradients are accumulated in the single-lane order, and
the gradient buffer a job writes into is chosen when it is queued, as the
single-lane pass would choose it then. Numpy's batched product makes one
GEMM per sample, with the same operands and strides whether it is called
on the whole batch or on a half, and the two lanes write disjoint arrays.
So every bit, and every gradient's layout, is the single-lane one
(``tests/oracles.matmul_reference``). The optimizer borrows the lane
through ``two_lanes`` for its big steps (see ``optim``). Nothing that runs
on the lane calls a public function of this package. The lane exists only
when OpenBLAS is pinned to one thread (``OPENBLAS_NUM_THREADS``, else
``GOTO_NUM_THREADS``, else ``OMP_NUM_THREADS`` reads 1) and the process may
use two CPUs or more: two lanes of threaded BLAS oversubscribe the cores
and run slower. Otherwise, and for every smaller product, ``matmul`` runs
on one lane.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import os
import threading
from concurrent import futures

import numpy as np
from scipy.special import ndtr

DEFAULT_DTYPE = np.float32

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

_grad_enabled = True


class Tensor:
    """A dense n-d array that optionally participates in the gradient tape."""

    # grad_buffer: where a parameter's first gradient of a backward pass is
    # copied (a view into the optimizer's flat buffers), or None
    __slots__ = ("data", "requires_grad", "grad", "grad_buffer", "_backward",
                 "_prev")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = None
        self.grad_buffer = None
        self._backward = None
        self._prev = ()

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    def item(self):
        return float(self.data)

    # -- graph machinery -----------------------------------------------------

    def backward(self, grad=None):
        """Reverse-mode sweep seeding ``grad`` (default: ones) at this node."""
        if grad is None:
            grad = np.ones_like(self.data)
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._prev:
                if id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.asarray(grad, dtype=self.data.dtype)
        queued = _queue.jobs = {}
        try:
            for node in reversed(topo):
                if node._backward is not None:
                    if queued:  # a weight that is itself a tape node
                        _settle(node)
                    if node.grad is not None:
                        node._backward(node.grad)
        finally:
            _queue.jobs = None
            futures.wait([job for _, job in queued.values()])
        for t, job in queued.values():
            _accum(t, job.result())

    # -- operators -----------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, -_wrap(other))

    def __rsub__(self, other):
        return add(_wrap(other), -self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(_wrap(other), self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __getitem__(self, key):
        for k in key if isinstance(key, tuple) else (key,):
            if not (k is None or k is Ellipsis or isinstance(k, slice)
                    or isinstance(k, (int, np.integer)) and not isinstance(k, bool)):
                raise TypeError(f"Tensor index {k!r} is not a basic index; "
                                "use gather_tokens for per-token gathers")
        def _bw(g, a=self, key=key):
            # a basic index selects each element at most once, so this
            # adds exactly what np.add.at would
            ga = np.zeros_like(a.data)
            ga[key] += g
            _accum(a, ga)
        return _op(self.data[key], (self,), _bw)

    # convenience methods
    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis, keepdims)

    def reshape(self, *dims):
        return reshape(self, *dims)

    def transpose(self, *axes):
        return transpose(self, axes if axes else None)


def _wrap(x):
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=DEFAULT_DTYPE))


@contextlib.contextmanager
def no_grad():
    """Record no tape nodes inside the block; restores the previous mode on
    exit, so blocks nest and survive exceptions."""
    global _grad_enabled
    prev, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = prev


def _node(data, prev):
    out = Tensor(data, requires_grad=_grad_enabled
                 and any(p.requires_grad for p in prev))
    if out.requires_grad:
        out._prev = tuple(prev)
    return out


def _op(data, prev, backward):
    """``_node(data, prev)`` with ``backward`` as its closure when it is on
    the tape. ``backward`` takes the node's gradient and captures the inputs
    and plain arrays it needs, never the node itself."""
    out = _node(data, prev)
    if out.requires_grad:
        out._backward = backward
    return out


def _grad_buffer_for(t, shape):
    """t.grad_buffer when a C-contiguous gradient of ``shape`` goes there:
    t has a buffer, holds no gradient yet in this backward pass, and the
    gradient has t's shape; else None. ``_accum`` copies such a gradient
    in, and ``_weight_grad`` sums straight into it, saving that copy."""
    if _queue.jobs:
        _settle(t)
    if t.grad is None and t.grad_buffer is not None and shape == t.shape:
        return t.grad_buffer
    return None


def _accum(t, g):
    """Add g to t.grad. A gradient keeps the memory layout numpy gives it,
    because a later reduction over it (a mean's backward, the global norm)
    sums in memory order and rounds by it. So the first C-contiguous
    gradient of a parameter is copied into its t.grad_buffer (or was
    written there already), and a C-contiguous gradient is added to a
    C-contiguous t.grad in place, where numpy would lay ``t.grad + g`` out
    alike; anything else is copied or added into a new array, as before."""
    if not t.requires_grad:
        return
    if _queue.jobs:
        _settle(t)
    if t.grad is None:
        buf = _grad_buffer_for(t, g.shape)
        if g is buf:
            t.grad = buf
        elif buf is not None and g.flags.c_contiguous:
            np.copyto(buf, g, casting="unsafe")
            t.grad = buf
        else:
            t.grad = g.astype(t.data.dtype, copy=True)
        return
    g = g.astype(t.data.dtype, copy=False)
    if (g.flags.c_contiguous and t.grad.flags.c_contiguous
            and t.grad.flags.writeable and g.shape == t.grad.shape):
        np.add(t.grad, g, out=t.grad)
    else:
        t.grad = t.grad + g


def _unbroadcast(g, shape):
    """Sum ``g`` down to ``shape`` after numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# -- elementwise arithmetic ---------------------------------------------------

# A binary op's backward builds no gradient toward a constant operand.

def add(a, b):
    a, b = _wrap(a), _wrap(b)
    def _bw(g, a=a, b=b):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.shape))
    return _op(a.data + b.data, (a, b), _bw)


def mul(a, b):
    a, b = _wrap(a), _wrap(b)
    def _bw(g, a=a, b=b):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.shape))
    return _op(a.data * b.data, (a, b), _bw)


def div(a, b):
    a, b = _wrap(a), _wrap(b)
    y = a.data / b.data
    def _bw(g, a=a, b=b, y=y):
        if a.requires_grad:
            _accum(a, _unbroadcast(g / b.data, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(-g * y / b.data, b.shape))
    return _op(y, (a, b), _bw)


def power(a, exponent):
    a = _wrap(a)
    def _bw(g, a=a, e=exponent):
        _accum(a, g * e * a.data ** (e - 1))
    return _op(a.data ** exponent, (a,), _bw)


def exp(a):
    a = _wrap(a)
    y = np.exp(a.data)
    def _bw(g, a=a, y=y):
        _accum(a, g * y)
    return _op(y, (a,), _bw)


def log(a):
    a = _wrap(a)
    def _bw(g, a=a):
        _accum(a, g / a.data)
    return _op(np.log(a.data), (a,), _bw)


def gelu(a):
    """x * Phi(x) with the exact Gaussian CDF."""
    a = _wrap(a)
    phi = ndtr(a.data).astype(a.data.dtype)
    def _bw(g, a=a, phi=phi):
        pdf = (_INV_SQRT_2PI * np.exp(-0.5 * a.data * a.data)).astype(a.data.dtype)
        _accum(a, g * (phi + a.data * pdf))
    return _op(a.data * phi, (a,), _bw)


# -- shape ops ----------------------------------------------------------------

def reshape(a, *dims):
    a = _wrap(a)
    if len(dims) == 1 and isinstance(dims[0], (tuple, list)):
        dims = tuple(dims[0])
    def _bw(g, a=a):
        _accum(a, g.reshape(a.shape))
    return _op(a.data.reshape(dims), (a,), _bw)


def transpose(a, axes=None):
    a = _wrap(a)
    def _bw(g, a=a, axes=axes):
        inv = None if axes is None else tuple(np.argsort(axes))
        _accum(a, np.transpose(g, inv))
    return _op(np.transpose(a.data, axes), (a,), _bw)


def swapaxes(a, ax1, ax2):
    a = _wrap(a)
    def _bw(g, a=a, ax1=ax1, ax2=ax2):
        _accum(a, np.swapaxes(g, ax1, ax2))
    return _op(np.swapaxes(a.data, ax1, ax2), (a,), _bw)


def concatenate(tensors, axis=0):
    tensors = [_wrap(t) for t in tensors]
    def _bw(g, tensors=tensors, axis=axis):
        splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            _accum(t, piece)
    return _op(np.concatenate([t.data for t in tensors], axis=axis),
               tuple(tensors), _bw)


def gather_tokens(x, idx):
    """Per-sample token gather: out[b, i, :] = x[b, idx[b, i], :]."""
    x = _wrap(x)
    idx = np.asarray(idx)
    expanded = np.broadcast_to(idx[:, :, None], idx.shape + (x.shape[-1],))
    def _bw(g, x=x, idx=idx):
        gx = np.zeros_like(x.data)
        b_idx = np.arange(x.shape[0])[:, None]
        np.add.at(gx, (b_idx, idx), g)
        _accum(x, gx)
    return _op(np.take_along_axis(x.data, expanded, axis=1), (x,), _bw)


# -- reductions ---------------------------------------------------------------

def tsum(a, axis=None, keepdims=False):
    a = _wrap(a)
    def _bw(g, a=a, axis=axis, keepdims=keepdims):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.shape))
    return _op(a.data.sum(axis=axis, keepdims=keepdims), (a,), _bw)


def tmean(a, axis=None, keepdims=False):
    a = _wrap(a)
    n = a.size if axis is None else np.prod([a.shape[i] for i in np.atleast_1d(axis)])
    # keep the 1/n factor in the operand dtype so f64 means stay f64-accurate
    inv = Tensor(np.asarray(1.0 / float(n), dtype=a.data.dtype))
    return tsum(a, axis, keepdims) * inv


# -- linear algebra -----------------------------------------------------------

def matmul(a, b):
    """Batched matrix product with numpy broadcasting over leading dims.

    The gradient of a 2-D weight ``b`` comes from ``_weight_grad``; every
    other gradient is one batched product, reduced over broadcast dims by
    ``_unbroadcast``. Big products of a 3-D ``a`` and a 2-D ``b`` run on
    two lanes (see the module docstring)."""
    a, b = _wrap(a), _wrap(b)
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")
    paired = (_lane is not None and a.data.ndim == 3 and b.data.ndim == 2
              and a.size * b.shape[1] >= PAIR_MIN)
    y = _halves(a.data, b.data) if paired else np.matmul(a.data, b.data)
    def _bw(g, a=a, b=b, paired=paired):
        queue = paired and b.requires_grad
        if queue:  # the weight's gradient, summed on the lane meanwhile
            job = _submit(_weight_grad_job(a.data, g, b))
            _queue.jobs[id(b)] = (b, job)
        if a.requires_grad:
            bt = np.swapaxes(b.data, -1, -2)
            _accum(a, _unbroadcast(np.matmul(g, bt), a.shape))
        if queue or not b.requires_grad:
            return
        if b.data.ndim == 2:
            _accum(b, _weight_grad(a.data, g, b))
        else:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            _accum(b, _unbroadcast(gb, b.shape))
    return _op(y, (a, b), _bw)


def _weight_grad(x, g, w):
    """Gradient of the 2-D weight ``w`` in ``x @ w``: ``x[i].T @ g[i]``
    summed over the leading (batch) indices ``i`` of ``x`` in C order, or
    ``x.T @ g`` for a 2-D ``x``; bitwise the batched product summed over
    its leading axes (see the module docstring), with no stack made."""
    return _weight_grad_job(x, g, w)()


def _weight_grad_job(x, g, w):
    """``_weight_grad`` as a job to run later: the array it sums into (w's
    gradient buffer when free, else a new one) is chosen now."""
    acc = _grad_buffer_for(w, w.shape)
    dtype = np.result_type(x, g)
    if acc is None or acc.dtype != dtype:
        acc = np.empty(w.shape, dtype)

    def job():
        idxs = list(np.ndindex(x.shape[:-2]))
        if not idxs:  # an empty batch
            acc[...] = 0
            return acc
        np.matmul(x[idxs[0]].T, g[idxs[0]], out=acc)
        if len(idxs) > 1:
            tmp = np.empty_like(acc)
            for idx in idxs[1:]:
                np.matmul(x[idx].T, g[idx], out=tmp)
                np.add(acc, tmp, out=acc)
        return acc
    return job


# -- the second lane ----------------------------------------------------------

# multiply-adds below which a product stays on one lane: the three
# demo-size workloads' products all do (the largest, a 13-band patch embed,
# is 6.8 M), and halves measured slower at 3.1 M and faster from 8.4 M on
PAIR_MIN = 1 << 23


def _blas_pinned(environ):
    """True when OpenBLAS runs on one thread: the first of its thread-count
    variables that holds a positive integer reads 1, in OpenBLAS's order."""
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            n = int(environ.get(var, ""))
        except ValueError:
            continue
        if n > 0:
            return n == 1
    return False


_on_lane = threading.local()


def _new_lane():
    """A one-thread executor; its thread starts at the first job."""
    return futures.ThreadPoolExecutor(
        1, thread_name_prefix="fgmae-lane",
        initializer=setattr, initargs=(_on_lane, "here", True))


def _cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# None runs every product on one lane
_lane = _new_lane() if _blas_pinned(os.environ) and _cpus() >= 2 else None


def _fresh_lane():
    # a forked child inherits the executor but not its thread: a job
    # submitted to the copy would never run
    global _lane
    if _lane is not None:
        _lane = _new_lane()


os.register_at_fork(after_in_child=_fresh_lane)


def two_lanes():
    """``both(f, g)``, which returns ``(f(), g())`` with f on the second
    lane and g on the caller, once both are done; or None when this
    process has no second lane, or when called from it."""
    if _lane is None or getattr(_on_lane, "here", False):
        return None
    return _both


def _submit(f):
    """A future of ``f()``, run on the lane in the caller's context (so
    that ``np.errstate`` holds there). Runs f here at once when there is
    no lane or when called from the lane, whose one worker would otherwise
    wait for itself."""
    if two_lanes() is None:
        job = futures.Future()
        try:
            job.set_result(f())
        except Exception as e:  # raised where the result is read
            job.set_exception(e)
        return job
    return _lane.submit(contextvars.copy_context().run, f)


def _both(f, g):
    """``(f(), g())``: f on the lane (``_submit``) and g on the caller.
    Returns or raises only once f is done, so no job still writes into an
    array the caller has given up; g's exception wins over f's."""
    job = _submit(f)
    try:
        y = g()
    finally:
        futures.wait((job,))
    return job.result(), y


class _Queue(threading.local):
    # jobs: {id(w): (w, future)}, the weight gradients that the calling
    # thread's backward pass has queued and not yet settled; None outside
    # a pass
    jobs = None


_queue = _Queue()


def _settle(t):
    """Accumulate t's queued gradient into t.grad, once it is done."""
    if id(t) in _queue.jobs:
        _accum(t, _queue.jobs.pop(id(t))[1].result())


def _halves(x, w):
    """``np.matmul(x, w)`` for a (B, N, D) ``x`` and a 2-D ``w``, the first
    B // 2 samples on the lane: bitwise the one batched call."""
    out = np.empty(x.shape[:-1] + w.shape[-1:], np.result_type(x, w))
    h = len(x) // 2
    _both(lambda: np.matmul(x[:h], w, out=out[:h]),
          lambda: np.matmul(x[h:], w, out=out[h:]))
    return out


# -- normalization and activations -------------------------------------------

def softmax(x, axis=-1):
    """Last-axis softmax, stabilized by (detached) max subtraction."""
    x = _wrap(x)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    e = exp(shifted)
    return e / tsum(e, axis=axis, keepdims=True)


def layer_norm(x, gamma, beta, eps=1e-6):
    """Normalize the last axis to zero mean / unit variance, then affine.

    Four tape nodes: c = x - mean(x), v = mean(c·c) + eps, inv = v ** -0.5
    and c·inv·γ + β. Forward and backward run the numpy operations of that
    composition of elementwise ops and means in the same order, so every bit
    matches it; only the gradients toward its constants are not computed.
    """
    x, gamma, beta = _wrap(x), _wrap(gamma), _wrap(beta)
    d = x.shape[-1]
    if d == 0:
        raise ValueError("layer_norm over an empty axis")
    # the composition's constants: 1/d in the operand dtype (as tmean makes
    # it), -1 and eps as _wrap makes them
    inv_d = np.asarray(1.0 / float(d), dtype=x.data.dtype)
    neg = np.asarray(-1.0, dtype=DEFAULT_DTYPE)
    eps = np.asarray(eps, dtype=DEFAULT_DTYPE)
    stat_shape = x.shape[:-1] + (1,)

    def _bw_center(g, x=x):
        # the centered term first, then the mean's broadcast term
        _accum(x, _unbroadcast(g, x.shape))
        _accum(x, np.broadcast_to(_unbroadcast(g, stat_shape) * neg * inv_d,
                                  x.shape))
    c = _op(x.data + x.data.sum(axis=-1, keepdims=True) * inv_d * neg, (x,),
            _bw_center)

    def _bw_var(g, c=c):
        # c·c has c on both sides: two equal accumulations
        gsq = (g * inv_d) * c.data
        _accum(c, gsq)
        _accum(c, gsq)
    v = _op((c.data * c.data).sum(axis=-1, keepdims=True) * inv_d + eps, (c,),
            _bw_var)

    inv = power(v, -0.5)
    n = c.data * inv.data
    k = n * gamma.data
    def _bw_affine(g, c=c, inv=inv, gamma=gamma, beta=beta, n=n,
                   k_shape=k.shape):
        gk = _unbroadcast(g, k_shape)
        _accum(beta, _unbroadcast(g, beta.shape))
        gn = _unbroadcast(gk * gamma.data, n.shape)
        _accum(gamma, _unbroadcast(gk * n, gamma.shape))
        _accum(c, _unbroadcast(gn * inv.data, c.shape))
        _accum(inv, _unbroadcast(gn * c.data, inv.shape))
    return _op(k + beta.data, (c, inv, gamma, beta), _bw_affine)


def log_softmax(x, axis=-1):
    x = _wrap(x)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - log(tsum(exp(shifted), axis=axis, keepdims=True))


def softplus(x):
    """log(1 + exp(x)) via logaddexp; gradient is sigmoid(x)."""
    x = _wrap(x)
    def _bw(g, x=x):
        _accum(x, g / (1.0 + np.exp(-x.data)))
    return _op(np.logaddexp(0.0, x.data), (x,), _bw)


def sigmoid(x):
    x = _wrap(x)
    y = 1.0 / (1.0 + np.exp(-x.data))
    def _bw(g, x=x, y=y):
        _accum(x, g * y * (1.0 - y))
    return _op(y, (x,), _bw)


# -- verification -------------------------------------------------------------

def grad_check(f, x, h=1e-5):
    """Max relative error between tape gradient of scalar ``f`` and central
    finite differences, evaluated coordinate-wise in f64."""
    x64 = Tensor(x.data.astype(np.float64), requires_grad=True)
    out = f(x64)
    if out.size != 1:
        raise ValueError("grad_check requires a scalar-valued function")
    if not np.isfinite(out.data).all():
        raise ValueError("non-finite function value in grad_check")
    out.backward()
    g = x64.grad.reshape(-1)
    flat = x64.data.reshape(-1)
    num = np.empty_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f(Tensor(x64.data, dtype=np.float64)).data)
        flat[i] = orig - h
        fm = float(f(Tensor(x64.data, dtype=np.float64)).data)
        flat[i] = orig
        num[i] = (fp - fm) / (2.0 * h)
    denom = np.maximum(1.0, np.abs(g))
    return float(np.max(np.abs(num - g) / denom))


def global_grad_norm(params):
    """The l2 norm of every gradient in the name -> Tensor dict ``params``."""
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float(np.sum(p.grad.astype(np.float64) ** 2))
    return math.sqrt(total)


def clip_global_norm(params, max_norm):
    """Scale every gradient in place so the global norm is at most max_norm
    (in place, so gradients that are views into an optimizer's buffers stay
    views); returns the norm before clipping."""
    norm = global_grad_norm(params)
    if norm > max_norm > 0:
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= scale
    return norm
