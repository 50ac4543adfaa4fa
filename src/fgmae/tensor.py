"""Dense tensors with reverse-mode automatic differentiation.

Everything is backed by numpy arrays. A forward pass builds a graph of
Tensor nodes; ``backward()`` walks it once in reverse topological order and
accumulates gradients additively across fan-out. Results are bitwise
deterministic, on one lane or two (see below). A backward closure captures
its inputs and plain arrays, never its own output node, so no reference
cycle forms and a tape is freed by reference counting as soon as it is
dropped.

Every node is made by the module-level ``_node``. Inside ``with no_grad():``
it records nothing: results carry no tape and ``requires_grad`` is False,
which is how frozen encoders and inference run. ``Tensor.__getitem__`` takes
basic indices only (ints, slices, ``...``, ``None`` and tuples of these) and
raises ``TypeError`` for index arrays; ``gather_tokens`` does per-token gathers.

A linear layer's weight gradient, ``Σ_b x[b].T @ g[b]`` for a (B, N, D)
input and a (D, E) weight, is summed one sample at a time into one (D, E)
array (``_weight_grad``), usually the parameter's gradient buffer. Each
product is the GEMM numpy's batched matmul makes for that sample (same
operands, same strides), and summing a (B, D, E) stack over B adds its
slices in the same order, so the bits are those of the stacked product,
which is never made (19 MB per MLP layer at ViT-S). One 2-D GEMM over all
B·N rows would be faster still, but it sums the rows in another order and
so rounds differently.

Big products run on two lanes: the caller and one worker thread
(``_both``). A product of a (B, N, D) input and a (D, E) weight of at
least ``PAIR_MIN`` multiply-adds splits its forward over the samples, the
first half on the lane and the rest on the caller, and so does the input
gradient toward a frozen weight; when both operands take gradients, the
weight's gradient runs on the lane beside the input's product. Numpy's
batched product makes one GEMM per sample, with the same operands and
strides whether it is called on the whole batch or on a half, and the two
lanes write disjoint arrays; gradients are accumulated on the caller in
the old order, input first. So every bit, and every gradient's layout, is
the single-lane one. The lane exists only when OpenBLAS is pinned to one
thread (``OPENBLAS_NUM_THREADS``, else ``GOTO_NUM_THREADS``, else
``OMP_NUM_THREADS`` reads 1) and the process may use two CPUs or more:
two lanes of threaded BLAS oversubscribe the cores and run slower.
Otherwise, and for every smaller product, ``matmul`` runs on one lane.
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
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

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
        out = _node(self.data[key], (self,))
        if out.requires_grad:
            def _bw(g, a=self, key=key):
                # a basic index selects each element at most once, so this
                # adds exactly what np.add.at would
                ga = np.zeros_like(a.data)
                ga[key] += g
                _accum(a, ga)
            out._backward = _bw
        return out

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


def _grad_buffer_for(t, shape):
    """t.grad_buffer when a C-contiguous gradient of ``shape`` goes there:
    t has a buffer, holds no gradient yet in this backward pass, and the
    gradient has t's shape; else None. ``_accum`` copies such a gradient
    in, and ``_weight_grad`` sums straight into it, saving that copy."""
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
    out = _node(a.data + b.data, (a, b))
    if out.requires_grad:
        def _bw(g, a=a, b=b):
            if a.requires_grad:
                _accum(a, _unbroadcast(g, a.shape))
            if b.requires_grad:
                _accum(b, _unbroadcast(g, b.shape))
        out._backward = _bw
    return out


def mul(a, b):
    a, b = _wrap(a), _wrap(b)
    out = _node(a.data * b.data, (a, b))
    if out.requires_grad:
        def _bw(g, a=a, b=b):
            if a.requires_grad:
                _accum(a, _unbroadcast(g * b.data, a.shape))
            if b.requires_grad:
                _accum(b, _unbroadcast(g * a.data, b.shape))
        out._backward = _bw
    return out


def div(a, b):
    a, b = _wrap(a), _wrap(b)
    out = _node(a.data / b.data, (a, b))
    if out.requires_grad:
        def _bw(g, a=a, b=b, y=out.data):
            if a.requires_grad:
                _accum(a, _unbroadcast(g / b.data, a.shape))
            if b.requires_grad:
                _accum(b, _unbroadcast(-g * y / b.data, b.shape))
        out._backward = _bw
    return out


def power(a, exponent):
    a = _wrap(a)
    out = _node(a.data ** exponent, (a,))
    if out.requires_grad:
        def _bw(g, a=a, e=exponent):
            _accum(a, g * e * a.data ** (e - 1))
        out._backward = _bw
    return out


def exp(a):
    a = _wrap(a)
    out = _node(np.exp(a.data), (a,))
    if out.requires_grad:
        def _bw(g, a=a, y=out.data):
            _accum(a, g * y)
        out._backward = _bw
    return out


def log(a):
    a = _wrap(a)
    out = _node(np.log(a.data), (a,))
    if out.requires_grad:
        def _bw(g, a=a):
            _accum(a, g / a.data)
        out._backward = _bw
    return out


def gelu(a):
    """x * Phi(x) with the exact Gaussian CDF."""
    a = _wrap(a)
    phi = ndtr(a.data).astype(a.data.dtype)
    out = _node(a.data * phi, (a,))
    if out.requires_grad:
        def _bw(g, a=a, phi=phi):
            pdf = (_INV_SQRT_2PI * np.exp(-0.5 * a.data * a.data)).astype(a.data.dtype)
            _accum(a, g * (phi + a.data * pdf))
        out._backward = _bw
    return out


# -- shape ops ----------------------------------------------------------------

def reshape(a, *dims):
    a = _wrap(a)
    if len(dims) == 1 and isinstance(dims[0], (tuple, list)):
        dims = tuple(dims[0])
    out = _node(a.data.reshape(dims), (a,))
    if out.requires_grad:
        def _bw(g, a=a):
            _accum(a, g.reshape(a.shape))
        out._backward = _bw
    return out


def transpose(a, axes=None):
    a = _wrap(a)
    out = _node(np.transpose(a.data, axes), (a,))
    if out.requires_grad:
        inv = None if axes is None else tuple(np.argsort(axes))
        def _bw(g, a=a, inv=inv):
            _accum(a, np.transpose(g, inv))
        out._backward = _bw
    return out


def swapaxes(a, ax1, ax2):
    a = _wrap(a)
    out = _node(np.swapaxes(a.data, ax1, ax2), (a,))
    if out.requires_grad:
        def _bw(g, a=a, ax1=ax1, ax2=ax2):
            _accum(a, np.swapaxes(g, ax1, ax2))
        out._backward = _bw
    return out


def concatenate(tensors, axis=0):
    tensors = [_wrap(t) for t in tensors]
    out = _node(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors))
    if out.requires_grad:
        sizes = [t.shape[axis] for t in tensors]
        splits = np.cumsum(sizes)[:-1]
        def _bw(g, tensors=tensors, splits=splits, axis=axis):
            for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
                _accum(t, piece)
        out._backward = _bw
    return out


def gather_tokens(x, idx):
    """Per-sample token gather: out[b, i, :] = x[b, idx[b, i], :]."""
    x = _wrap(x)
    idx = np.asarray(idx)
    expanded = np.broadcast_to(idx[:, :, None], idx.shape + (x.shape[-1],))
    out = _node(np.take_along_axis(x.data, expanded, axis=1), (x,))
    if out.requires_grad:
        def _bw(g, x=x, idx=idx):
            gx = np.zeros_like(x.data)
            b_idx = np.arange(x.shape[0])[:, None]
            np.add.at(gx, (b_idx, idx), g)
            _accum(x, gx)
        out._backward = _bw
    return out


# -- reductions ---------------------------------------------------------------

def tsum(a, axis=None, keepdims=False):
    a = _wrap(a)
    out = _node(a.data.sum(axis=axis, keepdims=keepdims), (a,))
    if out.requires_grad:
        def _bw(g, a=a, axis=axis, keepdims=keepdims):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            _accum(a, np.broadcast_to(g, a.shape))
        out._backward = _bw
    return out


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
    out = _node(y, (a, b))
    if out.requires_grad:
        def _bw(g, a=a, b=b, paired=paired):
            if paired and a.requires_grad and b.requires_grad:
                # the weight's gradient on the lane beside the input's
                gb, ga = _both(lambda: _weight_grad(a.data, g, b),
                               lambda: np.matmul(g, b.data.T))
                _accum(a, ga)
                _accum(b, gb)
                return
            if a.requires_grad:
                bt = np.swapaxes(b.data, -1, -2)
                ga = _halves(g, bt) if paired else np.matmul(g, bt)
                _accum(a, _unbroadcast(ga, a.shape))
            if not b.requires_grad:
                return
            if b.data.ndim == 2:
                _accum(b, _weight_grad(a.data, g, b))
            else:
                gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
                _accum(b, _unbroadcast(gb, b.shape))
        out._backward = _bw
    return out


def _weight_grad(x, g, w):
    """Gradient of the 2-D weight ``w`` in ``x @ w``: ``x[i].T @ g[i]``
    summed over the leading (batch) indices ``i`` of ``x`` in C order, or
    ``x.T @ g`` for a 2-D ``x``; bitwise the batched product summed over
    its leading axes (see the module docstring), with no stack made."""
    acc = _grad_buffer_for(w, w.shape)
    dtype = np.result_type(x, g)
    if acc is None or acc.dtype != dtype:
        acc = np.empty(w.shape, dtype)
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


def _both(f, g):
    """``(f(), g())``: f on the lane, in the caller's context (so that
    ``np.errstate`` holds there too), and g on the caller. Returns or
    raises only once f is done, so no job still writes into an array the
    caller has given up; g's exception wins over f's. Runs both here when
    there is no lane or when called from the lane, whose one worker would
    otherwise wait for itself."""
    if _lane is None or getattr(_on_lane, "here", False):
        return f(), g()
    job = _lane.submit(contextvars.copy_context().run, f)
    try:
        y = g()
    finally:
        futures.wait((job,))
    return job.result(), y


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

    c = _node(x.data + x.data.sum(axis=-1, keepdims=True) * inv_d * neg, (x,))
    if c.requires_grad:
        def _bw_center(g, x=x):
            # the centered term first, then the mean's broadcast term
            _accum(x, _unbroadcast(g, x.shape))
            _accum(x, np.broadcast_to(_unbroadcast(g, stat_shape) * neg * inv_d,
                                      x.shape))
        c._backward = _bw_center

    v = _node((c.data * c.data).sum(axis=-1, keepdims=True) * inv_d + eps, (c,))
    if v.requires_grad:
        def _bw_var(g, c=c):
            # c·c has c on both sides: two equal accumulations
            gsq = (g * inv_d) * c.data
            _accum(c, gsq)
            _accum(c, gsq)
        v._backward = _bw_var

    inv = power(v, -0.5)
    n = c.data * inv.data
    k = n * gamma.data
    out = _node(k + beta.data, (c, inv, gamma, beta))
    if out.requires_grad:
        def _bw_affine(g, c=c, inv=inv, gamma=gamma, beta=beta, n=n,
                       k_shape=k.shape):
            gk = _unbroadcast(g, k_shape)
            _accum(beta, _unbroadcast(g, beta.shape))
            gn = _unbroadcast(gk * gamma.data, n.shape)
            _accum(gamma, _unbroadcast(gk * n, gamma.shape))
            _accum(c, _unbroadcast(gn * inv.data, c.shape))
            _accum(inv, _unbroadcast(gn * c.data, inv.shape))
        out._backward = _bw_affine
    return out


def log_softmax(x, axis=-1):
    x = _wrap(x)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - log(tsum(exp(shifted), axis=axis, keepdims=True))


def softplus(x):
    """log(1 + exp(x)) via logaddexp; gradient is sigmoid(x)."""
    x = _wrap(x)
    out = _node(np.logaddexp(0.0, x.data), (x,))
    if out.requires_grad:
        def _bw(g, x=x):
            _accum(x, g / (1.0 + np.exp(-x.data)))
        out._backward = _bw
    return out


def sigmoid(x):
    x = _wrap(x)
    out = _node(1.0 / (1.0 + np.exp(-x.data)), (x,))
    if out.requires_grad:
        def _bw(g, x=x, y=out.data):
            _accum(x, g * y * (1.0 - y))
        out._backward = _bw
    return out


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
