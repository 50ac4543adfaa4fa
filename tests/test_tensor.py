"""Autodiff engine: per-op gradient checks against central finite differences,
broadcasting reductions, and optimizer / schedule arithmetic."""

import contextlib
import gc
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fgmae import tensor as T
from fgmae.tensor import Tensor
from fgmae import optim as O

from oracles import (getitem_reference, layer_norm_reference,
                     matmul_reference, matmul_weight_grad_reference)


def _fd_check(f, x, tol=1e-4):
    err = T.grad_check(f, x)
    assert err < tol, f"finite-difference mismatch: {err}"


def _rand(shape, seed):
    gen = np.random.default_rng(seed)
    return Tensor(gen.standard_normal(shape), requires_grad=True, dtype=np.float64)


def node_counter(monkeypatch):
    """A one-element list that counts the tape nodes recorded from now on."""
    made = [0]
    original = T._node

    def node(data, prev):
        out = original(data, prev)
        made[0] += out.requires_grad
        return out
    monkeypatch.setattr(T, "_node", node)
    return made


# one case per differentiable op that perfbench's tracer names, and
# Tensor.__getitem__: the op applied to x, y (4, 5) and w (5, 3)
OP_CASES = {
    "add": lambda x, y, w: x + y,
    "mul": lambda x, y, w: x * y,
    "div": lambda x, y, w: x / y,
    "power": lambda x, y, w: x ** 3,
    "exp": lambda x, y, w: T.exp(x),
    "log": lambda x, y, w: T.log(y),
    "gelu": lambda x, y, w: T.gelu(x),
    "reshape": lambda x, y, w: x.reshape(5, 4),
    "transpose": lambda x, y, w: x.transpose(1, 0),
    "swapaxes": lambda x, y, w: T.swapaxes(x, 0, 1),
    "concatenate": lambda x, y, w: T.concatenate([x, y], axis=1),
    "gather_tokens": lambda x, y, w: T.gather_tokens(x.reshape(2, 2, 5),
                                                     [[1, 0], [0, 0]]),
    "tsum": lambda x, y, w: T.tsum(x, axis=0),
    "tmean": lambda x, y, w: T.tmean(x, axis=1),
    "matmul": lambda x, y, w: T.matmul(x.reshape(2, 2, 5), w),
    "softmax": lambda x, y, w: T.softmax(x),
    "layer_norm": lambda x, y, w: T.layer_norm(x, w[:, 0], w[:, 1]),
    "log_softmax": lambda x, y, w: T.log_softmax(x),
    "softplus": lambda x, y, w: T.softplus(x),
    "sigmoid": lambda x, y, w: T.sigmoid(x),
    "getitem": lambda x, y, w: x[1:, 2],
}


def _op_inputs():
    x, w = _rand((4, 5), 40), _rand((5, 3), 42)
    y = Tensor(np.abs(_rand((4, 5), 41).data) + 0.5, requires_grad=True)  # > 0
    return x, y, w


class TestOps:
    def test_add_broadcast(self):
        x = _rand((3, 4), 0)
        w = np.arange(4.0)
        _fd_check(lambda t: T.tsum((t + Tensor(w)) * Tensor(w + 1.0)), x)

    def test_mul_div(self):
        x = _rand((5,), 1)
        y = np.linspace(1.0, 2.0, 5)
        _fd_check(lambda t: T.tsum(t * Tensor(y) / (t * t + 2.0)), x)

    def test_power_exp_log(self):
        x = Tensor(np.array([0.5, 1.5, 2.5]), requires_grad=True, dtype=np.float64)
        _fd_check(lambda t: T.tsum(t ** 3), x)
        _fd_check(lambda t: T.tsum(T.exp(t * 0.3)), x)
        _fd_check(lambda t: T.tsum(T.log(t + 1.0)), x)

    def test_gelu(self):
        x = _rand((7,), 2)
        _fd_check(lambda t: T.tsum(T.gelu(t)), x)

    def test_gelu_values(self):
        # exact Gaussian CDF form: gelu(0)=0, gelu is odd-symmetric minus x/2 shift
        g = T.gelu(Tensor(np.array([0.0]))).data
        assert g[0] == 0.0
        big = T.gelu(Tensor(np.array([10.0]))).data
        np.testing.assert_allclose(big, 10.0, rtol=1e-12)

    def test_matmul_2d(self):
        x = _rand((3, 4), 3)
        w = np.random.default_rng(4).standard_normal((4, 2))
        _fd_check(lambda t: T.tsum(T.matmul(t, Tensor(w))), x)

    def test_matmul_batched_broadcast(self):
        x = _rand((2, 3, 4), 5)
        w = _rand((4, 5), 6)
        _fd_check(lambda t: T.tsum(T.matmul(t, w)), x)
        _fd_check(lambda t: T.tsum(T.matmul(x, t)), w)

    def test_reshape_transpose_swapaxes(self):
        x = _rand((2, 3, 4), 7)
        scale = np.arange(24.0).reshape(4, 3, 2)
        _fd_check(lambda t: T.tsum(T.transpose(t) * Tensor(scale)), x)
        _fd_check(lambda t: T.tsum(T.reshape(t, 6, 4) ** 2), x)
        _fd_check(lambda t: T.tsum(T.swapaxes(t, 0, 2) * Tensor(scale)), x)

    def test_concatenate(self):
        x = _rand((2, 3), 8)
        y = np.ones((2, 2))
        _fd_check(lambda t: T.tsum(T.concatenate([t, Tensor(y)], axis=1) ** 2), x)

    def test_gather_tokens(self):
        x = _rand((2, 5, 3), 9)
        idx = np.array([[4, 0, 0], [1, 2, 3]])
        _fd_check(lambda t: T.tsum(T.gather_tokens(t, idx) ** 2), x)

    def test_sum_mean_axes(self):
        x = _rand((3, 4), 10)
        _fd_check(lambda t: T.tsum(T.tsum(t, axis=0) ** 2), x)
        _fd_check(lambda t: T.tsum(T.tmean(t, axis=1, keepdims=True) * t), x)

    def test_softmax(self):
        x = _rand((4, 6), 11)
        w = np.random.default_rng(12).standard_normal((4, 6))
        _fd_check(lambda t: T.tsum(T.softmax(t) * Tensor(w)), x)

    def test_softmax_rows_sum_to_one(self):
        x = Tensor(np.random.default_rng(13).standard_normal((5, 9)) * 10)
        rows = T.softmax(x).data.sum(axis=-1)
        np.testing.assert_allclose(rows, 1.0, atol=1e-6)

    def test_softmax_shift_invariance(self):
        x = np.random.default_rng(14).standard_normal((3, 5))
        a = T.softmax(Tensor(x)).data
        b = T.softmax(Tensor(x + 100.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_layer_norm(self):
        x = _rand((3, 8), 15)
        g = _rand((8,), 16)
        b = _rand((8,), 17)
        w = np.random.default_rng(18).standard_normal((3, 8))
        _fd_check(lambda t: T.tsum(T.layer_norm(t, g, b) * Tensor(w)), x)
        _fd_check(lambda t: T.tsum(T.layer_norm(x, t, b) * Tensor(w)), g)
        _fd_check(lambda t: T.tsum(T.layer_norm(x, g, t) * Tensor(w)), b)

    def test_layer_norm_statistics(self):
        x = Tensor(np.random.default_rng(19).standard_normal((6, 16)) * 3 + 2)
        ones = Tensor(np.ones(16))
        zeros = Tensor(np.zeros(16))
        out = T.layer_norm(x, ones, zeros).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-4)

    def test_layer_norm_constant_row(self):
        x = Tensor(np.full((2, 4), 3.0))
        out = T.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4))).data
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_log_softmax_softplus_sigmoid(self):
        x = _rand((3, 4), 20)
        w = np.random.default_rng(21).standard_normal((3, 4))
        _fd_check(lambda t: T.tsum(T.log_softmax(t) * Tensor(w)), x)
        _fd_check(lambda t: T.tsum(T.softplus(t)), x)
        _fd_check(lambda t: T.tsum(T.sigmoid(t) * Tensor(w)), x)

    def test_softplus_large_inputs_stable(self):
        out = T.softplus(Tensor(np.array([800.0, -800.0]))).data
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out[0], 800.0)
        np.testing.assert_allclose(out[1], 0.0, atol=1e-12)


class TestBackward:
    def test_grad_accumulates_over_reuse(self):
        x = Tensor(np.array([2.0]), requires_grad=True, dtype=np.float64)
        y = x * x + x * 3.0
        y.backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_no_grad_without_flag(self):
        x = Tensor(np.array([1.0, 2.0]))
        y = T.tsum(x * 2.0)
        y.backward()
        assert x.grad is None

    def test_unbroadcast_sums_over_expanded_axes(self):
        b = Tensor(np.zeros(3), requires_grad=True, dtype=np.float64)
        x = Tensor(np.ones((4, 3)))
        T.tsum(x + b).backward()
        np.testing.assert_allclose(b.grad, [4.0, 4.0, 4.0])

    def test_diamond_graph(self):
        x = Tensor(np.array([1.5]), requires_grad=True, dtype=np.float64)
        a = x * 2.0
        b = x * 3.0
        (a * b).backward()
        np.testing.assert_allclose(x.grad, [2 * 6 * 1.5])  # d/dx 6x^2

    def test_deep_chain_iterative(self):
        # would overflow a recursive backward
        x = Tensor(np.array([1.0]), requires_grad=True, dtype=np.float64)
        y = x
        for _ in range(5000):
            y = y + 1.0
        y.backward()
        np.testing.assert_allclose(x.grad, [1.0])

    def test_tape_freed_by_reference_counting(self):
        # a backward closure that captured its own output node would make a
        # cycle, leaving the whole tape to the cyclic garbage collector
        from perfbench.tracer import TENSOR_OPS
        assert set(OP_CASES) == set(TENSOR_OPS) | {"getitem"}
        gc.collect()
        gc.disable()
        try:
            x = _rand((4, 5), 7)
            y = T.sigmoid(T.exp(x) / (x + 2.0))
            T.tsum(y).backward()
            del x, y
            assert gc.collect() == 0
            for name, op in OP_CASES.items():
                inputs = _op_inputs()
                T.tsum(op(*inputs)).backward()
                del inputs
                assert gc.collect() == 0, name
        finally:
            gc.enable()


class TestFusedOps:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_layer_norm_bitwise_equals_composition(self, dtype):
        gen = np.random.default_rng(30)
        xs = (gen.standard_normal((2, 5, 16)) * 3 + 1).astype(dtype)
        gs = (1 + 0.1 * gen.standard_normal(16)).astype(dtype)
        bs = (0.1 * gen.standard_normal(16)).astype(dtype)
        w = Tensor(gen.standard_normal((2, 5, 16)).astype(dtype))
        results = []
        for ln in (T.layer_norm, layer_norm_reference):
            x = Tensor(xs, requires_grad=True)
            g = Tensor(gs, requires_grad=True)
            b = Tensor(bs, requires_grad=True)
            # x also feeds a residual add, so it already holds a gradient
            # when layer_norm's backward adds its two terms to it
            y = x + ln(x, g, b) * w
            T.tsum(y * y).backward()
            results.append((y.data, x.grad, g.grad, b.grad))
        for new, ref in zip(*results):
            assert new.dtype == ref.dtype == dtype
            assert new.tobytes() == ref.tobytes()

    def test_layer_norm_records_four_nodes(self, monkeypatch):
        x, g, b = _rand((3, 8), 31), _rand((8,), 32), _rand((8,), 33)
        made = node_counter(monkeypatch)
        T.layer_norm(x, g, b)
        assert made[0] == 4

    def test_getitem_backward_bitwise_equals_scatter_add(self):
        keys = (0, -1, np.int64(1), (slice(None), 2), (Ellipsis, slice(1, 3)),
                (None, 1), (1, slice(None, None, 2), None))
        xs = np.random.default_rng(34).standard_normal((3, 4, 5)).astype(np.float32)
        for key in keys:
            grads = []
            for index in (Tensor.__getitem__, getitem_reference):
                x = Tensor(xs, requires_grad=True)
                y = index(x, key)
                (T.tsum(y * y) + T.tsum(x * 0.5)).backward()
                grads.append(x.grad)
            assert grads[0].tobytes() == grads[1].tobytes(), key

    def test_getitem_rejects_advanced_indices(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        for key in (np.array([0, 1]), [0, 1], (slice(None), np.array([0, 0])),
                    True, np.array(True), x.data > 2):
            with pytest.raises(TypeError):
                x[key]


class TestNoGrad:
    def test_records_nothing_and_computes_the_same(self, monkeypatch):
        x, g, b = _rand((3, 8), 35), _rand((8,), 36), _rand((8,), 37)
        ref = T.softmax(T.layer_norm(x, g, b)[1:] * 2.0)
        made = node_counter(monkeypatch)
        with T.no_grad():
            out = T.softmax(T.layer_norm(x, g, b)[1:] * 2.0)
        assert made[0] == 0 and not out.requires_grad and out._prev == ()
        assert out.data.tobytes() == ref.data.tobytes()
        for name, op in OP_CASES.items():
            inputs = _op_inputs()
            ref = op(*inputs)
            with T.no_grad():
                out = op(*inputs)
            assert ref._backward is not None and ref._prev, name
            assert out._backward is None and out._prev == (), name
            assert not out.requires_grad, name
            assert out.data.tobytes() == ref.data.tobytes(), name

    def test_mode_restored_after_exception_and_when_nested(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            with T.no_grad():
                raise RuntimeError("inside")
        assert (x * 2.0).requires_grad
        with T.no_grad():
            with T.no_grad():
                pass
            assert not (x * 2.0).requires_grad
        assert (x * 2.0).requires_grad


class TestUtilities:
    def test_global_norm_and_clip(self):
        a = Tensor(np.zeros(3), requires_grad=True)
        b = Tensor(np.zeros(4), requires_grad=True)
        a.grad = np.array([3.0, 0.0, 0.0])
        b.grad = np.array([4.0, 0.0, 0.0, 0.0])
        params = {"a": a, "b": b}
        np.testing.assert_allclose(T.global_grad_norm(params), 5.0)
        T.clip_global_norm(params, 1.0)
        np.testing.assert_allclose(T.global_grad_norm(params), 1.0, rtol=1e-6)
        np.testing.assert_allclose(a.grad[0], 0.6, rtol=1e-6)

    def test_clip_below_threshold_is_identity(self):
        a = Tensor(np.zeros(2), requires_grad=True)
        a.grad = np.array([0.1, 0.2])
        T.clip_global_norm({"a": a}, 10.0)
        np.testing.assert_allclose(a.grad, [0.1, 0.2])


class TestOptim:
    def test_adamw_hand_example(self):
        # one step from theta=1, g=0.5, lr=0.1, wd=0.05 lands on 0.895
        p = {"w": Tensor(np.array([1.0]), requires_grad=True, dtype=np.float64)}
        st = O.AdamW(p, lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8,
                     weight_decay=0.05)
        p["w"].grad = np.array([0.5])
        O.adamw_step(st)
        np.testing.assert_allclose(p["w"].data, [0.895], atol=1e-6)

    def test_adamw_decoupled_decay_skips_exempt(self):
        # "enc.norm.g" is a norm, so it is exempt
        p = {"w": Tensor(np.array([1.0]), requires_grad=True, dtype=np.float64),
             "enc.norm.g": Tensor(np.array([1.0]), requires_grad=True,
                                  dtype=np.float64)}
        st = O.AdamW(p, lr=0.1, weight_decay=0.5)
        assert st.no_decay == {"enc.norm.g"}
        p["w"].grad, p["enc.norm.g"].grad = np.array([0.0]), np.array([0.0])
        O.adamw_step(st)
        assert p["w"].data[0] < 1.0         # decayed
        np.testing.assert_allclose(p["enc.norm.g"].data, [1.0])

    def test_adamw_rejects_nonfinite(self):
        p = {"w": Tensor(np.array([1.0]), requires_grad=True, dtype=np.float64)}
        st = O.AdamW(p)
        p["w"].grad = np.array([np.nan])
        with pytest.raises(FloatingPointError):
            O.adamw_step(st)

    def test_adamw_lr_scale(self):
        mk = lambda: {"a": Tensor(np.array([0.0]), requires_grad=True,
                                  dtype=np.float64)}
        p_full, p_half = mk(), mk()
        st1 = O.AdamW(p_full, lr=0.1, weight_decay=0.0)
        st2 = O.AdamW(p_half, lr=0.1, weight_decay=0.0, lr_scale={"a": 0.5})
        for p in (p_full, p_half):
            p["a"].grad = np.array([1.0])
        O.adamw_step(st1)
        O.adamw_step(st2)
        np.testing.assert_allclose(p_half["a"].data, p_full["a"].data * 0.5,
                                   rtol=1e-12)

    def test_sgd_step(self):
        p = {"w": Tensor(np.array([1.0]), requires_grad=True, dtype=np.float64)}
        p["w"].grad = np.array([0.5])
        O.sgd_step(p, lr=0.1)
        np.testing.assert_allclose(p["w"].data, [0.95])

    def test_schedule_warmup_and_cosine(self):
        s = O.LrSchedule(base_lr=1.5e-4, min_lr=0.0, warmup_steps=100,
                         total_steps=500)
        np.testing.assert_allclose(O.lr_at(0, s), 0.0)
        np.testing.assert_allclose(O.lr_at(50, s), 0.75e-4)
        np.testing.assert_allclose(O.lr_at(100, s), 1.5e-4)
        # cosine midpoint between warmup end and total
        np.testing.assert_allclose(O.lr_at(300, s), 7.5e-5)
        np.testing.assert_allclose(O.lr_at(500, s), 0.0, atol=1e-18)

    def test_schedule_min_lr_floor(self):
        s = O.LrSchedule(base_lr=1e-3, min_lr=1e-5, warmup_steps=0,
                         total_steps=100)
        np.testing.assert_allclose(O.lr_at(100, s), 1e-5)


# -- matmul's weight gradient -------------------------------------------------


def _linear_grads(matmul, inputs, w0, c, buffer=False, input_grad=True):
    """Gradients of sum(c * sum_i inputs[i] @ w) with ``matmul``: the inputs'
    (None where not asked for), the weight's, and whether the weight's
    gradient is its buffer."""
    xs = [Tensor(x, requires_grad=input_grad) for x in inputs]
    w = Tensor(w0.copy(), requires_grad=True)
    if buffer:
        w.grad_buffer = np.full_like(w0, np.nan)
    y = None
    for x in xs:
        y = matmul(x, w) if y is None else y + matmul(x, w)
    T.tsum(y * Tensor(c)).backward()
    return [x.grad for x in xs], w.grad, w.grad is w.grad_buffer


def _linear_case(seed, b, n, d, e, dtype, uses=1):
    """Inputs, weight and output weights; a batch of None makes 2-D inputs."""
    gen = np.random.default_rng(seed)
    lead = (n,) if b is None else (b, n)
    inputs = [gen.standard_normal(lead + (d,)).astype(dtype) for _ in range(uses)]
    return (inputs, gen.standard_normal((d, e)).astype(dtype),
            gen.standard_normal(lead + (e,)).astype(dtype))


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestMatmulWeightGrad:
    """A 2-D weight's gradient is summed sample by sample, bitwise what the
    stacked (B, D, E) product and its sum over B gave."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [None, 1, 2, 8])
    @pytest.mark.parametrize("buffer", [False, True])
    def test_matches_the_stacked_sum(self, batch, dtype, buffer):
        for d, e in ((16, 24), (64, 192), (96, 32)):
            case = _linear_case(d + (batch or 0), batch, 5, d, e, dtype)
            gx, gw, in_buffer = _linear_grads(T.matmul, *case, buffer=buffer)
            rx, rw, _ = _linear_grads(matmul_weight_grad_reference, *case,
                                      buffer=buffer)
            _assert_same_bits(gx[0], rx[0])
            _assert_same_bits(gw, rw)
            assert in_buffer == buffer

    @pytest.mark.parametrize("buffer", [False, True])
    def test_second_use_accumulates(self, buffer):
        case = _linear_case(3, 4, 7, 32, 48, np.float32, uses=2)
        gx, gw, in_buffer = _linear_grads(T.matmul, *case, buffer=buffer)
        rx, rw, _ = _linear_grads(matmul_weight_grad_reference, *case,
                                  buffer=buffer)
        for got, want in zip(gx, rx):
            _assert_same_bits(got, want)
        _assert_same_bits(gw, rw)
        assert in_buffer == buffer

    def test_input_without_grad_gets_none(self, monkeypatch):
        case = _linear_case(5, 2, 3, 8, 6, np.float64)
        products = []
        matmul = np.matmul
        monkeypatch.setattr(np, "matmul", lambda *a, **k: (
            products.append(a[0].shape), matmul(*a, **k))[1])
        gx, gw, _ = _linear_grads(T.matmul, *case, input_grad=False)
        monkeypatch.undo()
        assert gx == [None]
        # the forward product and one per sample for the weight, none for
        # the input
        assert products == [(2, 3, 8), (8, 3), (8, 3)]
        _, rw, _ = _linear_grads(matmul_weight_grad_reference, *case,
                                 input_grad=False)
        _assert_same_bits(gw, rw)

    def test_every_openblas_kernel(self):
        """The comparison again in a child process per OpenBLAS core type
        this CPU can run, the variable set for that child only."""
        core = getattr(np, "_core", None) or np.core  # numpy 2 / numpy 1
        features = core._multiarray_umath.__cpu_features__
        needs = {"": (), "Haswell": ("AVX2", "FMA3"), "Zen": ("AVX2", "FMA3"),
                 "SandyBridge": ("AVX",), "Nehalem": ("SSE42",),
                 "Katmai": ("SSE",)}
        here = os.path.dirname(os.path.abspath(__file__))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
            [os.path.join(here, "..", "src"), here]))
        ran = []
        for core, flags in needs.items():
            if not all(features.get(f) for f in flags):
                continue
            child_env = dict(env, OPENBLAS_CORETYPE=core)
            if not core:
                child_env.pop("OPENBLAS_CORETYPE")
            out = subprocess.run([sys.executable, "-c", _KERNEL_CHECK],
                                 env=child_env, capture_output=True, text=True,
                                 timeout=60)
            assert out.returncode == 0, (core, out.stderr)
            assert out.stdout.split() == ["mismatches", "0"], (core, out.stdout)
            ran.append(core)
        assert "" in ran


_KERNEL_CHECK = """
import itertools
import numpy as np
from fgmae import tensor as T
from oracles import matmul_weight_grad_reference

bad = 0
for k, (b, n, (d, e), dtype) in enumerate(itertools.product(
        (1, 2, 9), (1, 5, 17), ((16, 24), (64, 192), (384, 96)),
        (np.float32, np.float64))):
    gen = np.random.default_rng(k)
    x, w0 = gen.standard_normal((b, n, d)), gen.standard_normal((d, e))
    c = T.Tensor(gen.standard_normal((b, n, e)), dtype=dtype)
    grads = []
    for matmul in (T.matmul, matmul_weight_grad_reference):
        w = T.Tensor(w0, requires_grad=True, dtype=dtype)
        T.tsum(matmul(T.Tensor(x, dtype=dtype), w) * c).backward()
        grads.append(w.grad.tobytes())
    bad += grads[0] != grads[1]
print("mismatches", bad)
"""


# -- the second lane ----------------------------------------------------------


@contextlib.contextmanager
def forced_lane(monkeypatch):
    """Every two-lane path taken, whatever BLAS's thread count: a fresh
    lane, and PAIR_MIN and the optimizer's SPLIT_MIN 0. ``lane.jobs`` lists
    (job name, future) for each job submitted to it."""
    lane = T._new_lane()
    lane.jobs = []
    submit = lane.submit

    def recording(run, job):
        future = submit(run, job)
        lane.jobs.append((job.__qualname__, future))
        return future
    with monkeypatch.context() as m:
        m.setattr(T, "_lane", lane)
        m.setattr(T, "PAIR_MIN", 0)
        m.setattr(O, "SPLIT_MIN", 0)
        m.setattr(lane, "submit", recording)
        try:
            yield lane
        finally:
            lane.shutdown(wait=True)


def lane_idle(lane):
    """True when every job submitted to ``lane`` has finished."""
    return all(future.done() for _, future in lane.jobs)


def _product(matmul, x0, w0, g, mode, buffer):
    """Output and gradients of ``x @ w`` seeded with ``g`` upstream; mode
    names the operand that takes no gradient, or "both" train."""
    x = Tensor(x0, requires_grad=mode != "frozen-input")
    w = Tensor(w0, requires_grad=mode != "frozen-weight")
    if buffer:
        w.grad_buffer = np.full_like(w0, np.nan)
    y = matmul(x, w)
    y.backward(g)
    return y.data, x.grad, w.grad, w.grad is w.grad_buffer


def _same_bits(got, want):
    if not isinstance(want, np.ndarray):
        return got == want
    return (isinstance(got, np.ndarray) and got.dtype == want.dtype
            and got.shape == want.shape and got.strides == want.strides
            and got.tobytes() == want.tobytes())


def _assert_same_array(got, want):
    if want is None:
        assert got is None
        return
    _assert_same_bits(got, want)
    assert got.strides == want.strides


class TestTwoLanes:
    """Products split over two lanes against matmul on one lane: the same
    bytes and layouts, and a lane that is safe to use."""

    @settings(max_examples=80, deadline=None)
    @given(batch=st.sampled_from([0, 1, 2, 3, 8]),
           dtype=st.sampled_from([np.float32, np.float64]),
           mode=st.sampled_from(["frozen-input", "frozen-weight", "both"]),
           transposed=st.booleans(), buffer=st.booleans(),
           n=st.integers(1, 5), d=st.integers(1, 24), e=st.integers(1, 24),
           seed=st.integers(0, 2**16))
    def test_bitwise_one_lane(self, batch, dtype, mode, transposed, buffer,
                              n, d, e, seed):
        gen = np.random.default_rng(seed)
        x0 = gen.standard_normal((batch, n, d)).astype(dtype)
        w0 = gen.standard_normal((d, e)).astype(dtype)
        g = gen.standard_normal((batch, n, e)).astype(dtype)
        if transposed:  # an upstream gradient in another layout
            g = np.ascontiguousarray(np.swapaxes(g, 0, 2)).swapaxes(0, 2)
        want = _product(matmul_reference, x0, w0, g, mode, buffer)
        with pytest.MonkeyPatch.context() as mp, forced_lane(mp):
            got = _product(T.matmul, x0, w0, g, mode, buffer)
        for a, b in zip(got[:3], want[:3]):
            _assert_same_array(a, b)
        assert got[3] == want[3]

    def test_waits_for_the_lane_before_raising(self, monkeypatch):
        started, done = threading.Event(), []

        def lane_job():
            started.wait(10)
            time.sleep(0.1)
            done.append(True)

        def caller():
            started.set()
            raise RuntimeError("caller")
        with forced_lane(monkeypatch):
            with pytest.raises(RuntimeError, match="caller"):
                T._both(lane_job, caller)
            assert done == [True]

    def test_raises_the_lanes_exception_on_the_caller(self, monkeypatch):
        def lane_job():
            raise ValueError("on the lane")
        with forced_lane(monkeypatch):
            with pytest.raises(ValueError, match="on the lane"):
                T._both(lane_job, lambda: None)

    def test_lane_runs_in_the_callers_errstate(self, monkeypatch):
        # only the lane's half overflows; a plain worker thread would warn
        x = np.zeros((2, 4, 8), np.float32)
        x[0] = 1e30
        w = np.full((8, 3), 1e30, np.float32)
        with forced_lane(monkeypatch):
            with np.errstate(over="raise"):
                with pytest.raises(FloatingPointError):
                    T._halves(x, w)

    def test_a_lane_job_does_not_submit_to_the_lane(self):
        # in a child process: a lane waiting for itself would hang this one
        # at exit too
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
        out = subprocess.run(
            [sys.executable, "-c", "from fgmae import tensor as T; "
             "lane = T._new_lane(); T._lane = lane; "
             "print(lane.submit(T._both, lambda: 1, lambda: 2).result())"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["(1,", "2)"]

    def test_forked_child_gets_a_fresh_lane(self, monkeypatch):
        with forced_lane(monkeypatch) as lane:
            assert T._both(lambda: 1, lambda: 2) == (1, 2)  # thread started
            pid = os.fork()
            if pid == 0:
                ok = T._lane is not lane and \
                    T._both(lambda: 3, lambda: 4) == (3, 4)
                os._exit(0 if ok else 1)
            deadline = time.monotonic() + 30
            while True:
                done, status = os.waitpid(pid, os.WNOHANG)
                if done or time.monotonic() > deadline:
                    break
                time.sleep(0.01)
            if not done:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
            assert done and os.waitstatus_to_exitcode(status) == 0

    def test_many_callers_share_the_lane(self, monkeypatch):
        """More caller threads than cores, switching often: each finishes
        its rounds and keeps its own bytes, through paired products whose
        backward queues on the lane, a weight used twice included."""
        gen = np.random.default_rng(0)
        cases = [(gen.standard_normal((4, 3, 16)), gen.standard_normal((16, 12)),
                  gen.standard_normal((4, 3, 12))) for _ in range(4)]
        twice = [_linear_case(i, 4, 3, 16, 12, np.float64, uses=2)
                 for i in range(len(cases))]
        want = [_product(matmul_reference, *c, "both", i % 2 == 0)
                for i, c in enumerate(cases)]
        want_twice = [_linear_grads(matmul_reference, *c, buffer=True)
                      for c in twice]
        rounds, errors, bad = [0] * len(cases), [None] * len(cases), []

        def caller(i):
            try:
                for _ in range(25):
                    got = _product(T.matmul, *cases[i], "both", i % 2 == 0)
                    bad.extend(i for a, b in zip(got, want[i])
                               if not _same_bits(a, b))
                    gx, gw, in_buffer = _linear_grads(T.matmul, *twice[i],
                                                      buffer=True)
                    rx, rw, _ = want_twice[i]
                    bad.extend(i for a, b in zip(gx + [gw, in_buffer],
                                                 rx + [rw, True])
                               if not _same_bits(a, b))
                    rounds[i] += 1
            except BaseException as e:  # recorded, so that the test fails
                errors[i] = e
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with forced_lane(monkeypatch) as lane:
                threads = [threading.Thread(target=caller, args=(i,))
                           for i in range(len(cases))]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(60)
                assert not any(t.is_alive() for t in threads)
                assert lane_idle(lane)
        finally:
            sys.setswitchinterval(interval)
        assert errors == [None] * len(cases)
        assert rounds == [25] * len(cases)
        assert bad == []
        assert sum(name.startswith("_weight_grad_job") for name, _ in lane.jobs) \
            == 25 * 3 * len(cases)

    @pytest.mark.parametrize("buffer", [False, True])
    def test_a_weight_used_twice(self, monkeypatch, buffer):
        """``x @ w + y @ w``: two queued jobs for one weight. Its buffer
        goes to the job queued first, as it goes to the first gradient on
        one lane."""
        case = _linear_case(3, 4, 7, 32, 48, np.float32, uses=2)
        rx, rw, r_buffer = _linear_grads(matmul_reference, *case, buffer=buffer)
        with forced_lane(monkeypatch) as lane:
            gx, gw, in_buffer = _linear_grads(T.matmul, *case, buffer=buffer)
            assert lane_idle(lane)
        assert [n for n, _ in lane.jobs].count("_weight_grad_job.<locals>.job") == 2
        for got, want in zip(gx + [gw], rx + [rw]):
            _assert_same_array(got, want)
        assert in_buffer == r_buffer == buffer

    @pytest.mark.parametrize("buffer", [False, True])
    def test_a_weight_also_used_elementwise(self, monkeypatch, buffer):
        """``x @ w`` and ``w * d`` and ``x2 @ w`` for a 2-D x2, which stays
        on one lane: the queued gradient is accumulated before the others,
        in the one-lane order."""
        gen = np.random.default_rng(7)
        x0, x2 = gen.standard_normal((3, 5, 8)), gen.standard_normal((4, 8))
        w0, d = gen.standard_normal((8, 6)), gen.standard_normal((8, 6))

        def grads(matmul):
            x = Tensor(x0, requires_grad=True)
            w = Tensor(w0.copy(), requires_grad=True)
            if buffer:
                w.grad_buffer = np.full_like(w0, np.nan)
            y = (T.tsum(matmul(x, w)) + T.tsum(w * Tensor(d))
                 + T.tsum(matmul(Tensor(x2), w)))
            y.backward()
            return [x.grad, w.grad, w.grad is w.grad_buffer]
        want = grads(matmul_reference)
        with forced_lane(monkeypatch) as lane:
            got = grads(T.matmul)
            assert lane_idle(lane) and lane.jobs
        for a, b in zip(got, want):
            assert _same_bits(a, b)

    @pytest.mark.parametrize("where", ["lane", "caller"])
    def test_backward_raises_once_every_job_is_done(self, monkeypatch, where):
        """A queued job that raises, or a closure that raises on the caller
        while jobs are queued: backward raises only once every job it
        queued is done, and leaves nothing running."""
        done = []
        make = T._weight_grad_job

        def job_for(x, g, w):
            job = make(x, g, w)

            def run():
                if w.shape[1] == 5 and where == "lane":
                    raise ValueError("on the lane")
                time.sleep(0.2)
                done.append(job())
                return done[-1]
            return run

        def raising(g):
            raise ValueError("on the caller")
        monkeypatch.setattr(T, "_weight_grad_job", job_for)
        gen = np.random.default_rng(1)
        x, y0 = (Tensor(gen.standard_normal((2, 3, 4)), requires_grad=True)
                 for _ in range(2))
        w5, w6 = (Tensor(gen.standard_normal((4, e)), requires_grad=True)
                  for e in (5, 6))
        with forced_lane(monkeypatch) as lane:
            y = y0 * 1.0
            if where == "caller":
                y._backward = raising
            loss = T.tsum(T.matmul(x, w5)) + T.tsum(T.matmul(y, w6))
            with pytest.raises(ValueError, match="on the " + where):
                loss.backward()
            assert lane_idle(lane)
            assert T._queue.jobs is None
        queued = sum(n.endswith("job_for.<locals>.run") for n, _ in lane.jobs)
        assert queued >= 1 and len(done) == queued - (where == "lane")

    @pytest.mark.parametrize("env, pinned", [
        ({}, False),
        ({"OPENBLAS_NUM_THREADS": "1"}, True),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
        ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "1"}, True),
        ({"GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
        ({"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "1"}, True),
        ({"OMP_NUM_THREADS": "4"}, False)])
    def test_blas_pinned_reads_openblas_order(self, env, pinned):
        assert T._blas_pinned(env) is pinned
