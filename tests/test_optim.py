"""AdamW's flat parameter buffers: bitwise equal to the per-parameter loop
kept in tests/oracles.py, all-or-nothing on non-finite gradients, in-place
clipping, checkpoint loads that read straight into the buffers, and the
weight-decay exemptions."""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fgmae import data as D
from fgmae import evaluate as E
from fgmae import features as F
from fgmae import model as M
from fgmae import optim as O
from fgmae import pretrain as P
from fgmae import tensor as T
from fgmae.rng import Rng
from fgmae.tensor import Tensor
from oracles import adamw_step_reference
from test_pretrain import _dataset
from test_tensor import forced_lane, lane_idle

SHAPES = {"w1": (5, 3), "b1": (3,), "x.ln.g": (11,), "w2": (4, 4), "tok": (1, 1, 6)}


def _params(dtype, seed=0):
    rng = np.random.default_rng(seed)
    return {n: Tensor(rng.standard_normal(s).astype(dtype), requires_grad=True)
            for n, s in SHAPES.items()}


def _state(params, lr_scale=None):
    return O.AdamW(params, lr=1e-2, beta1=0.9, beta2=0.95, weight_decay=0.05,
                   lr_scale=lr_scale)


def _assert_same(params_a, state_a, params_b, state_b):
    assert state_a.t == state_b.t
    assert sorted(state_a.m) == sorted(state_b.m)
    for name in params_a:
        assert params_a[name].data.tobytes() == params_b[name].data.tobytes(), name
    for name in state_a.m:
        assert state_a.m[name].tobytes() == state_b.m[name].tobytes(), name
        assert state_a.v[name].tobytes() == state_b.v[name].tobytes(), name


@pytest.mark.parametrize("dtype, lr_scale, block, max_group", [
    (np.float32, None, None, None),
    (np.float64, None, None, None),
    (np.float32, {"w1": 0.5625, "b1": 0.5625, "w2": 0.75}, None, None),
    (np.float32, {"w1": 0.75}, 7, None),   # blocks of 7 split parameters
    (np.float32, None, None, 16),          # groups of at most 16 elements
])
def test_arena_matches_the_per_parameter_loop(dtype, lr_scale, block,
                                              max_group, monkeypatch):
    if block is not None:
        monkeypatch.setattr(O, "BLOCK", block)
    if max_group is not None:
        monkeypatch.setattr(O, "MAX_GROUP", max_group)
    rng = np.random.default_rng(1)
    got, want = _params(dtype), _params(dtype)
    st_got, st_want = _state(got, lr_scale), _state(want, lr_scale)
    for step in range(6):
        # gradients set as separate arrays, not the buffers' views; "b1"
        # has none on the first two steps and is skipped
        grads = {n: (None if n == "b1" and step < 2
                     else rng.standard_normal(s).astype(dtype))
                 for n, s in SHAPES.items()}
        for n, p in got.items():
            p.grad = grads[n]
        O.adamw_step(st_got, lr=1e-2 * (step + 1))
        adamw_step_reference(want, grads, st_want, lr=1e-2 * (step + 1))
        _assert_same(got, st_got, want, st_want)
    assert all(p.data.dtype == dtype for p in got.values())
    if max_group is not None:
        # decay: w1 (15) | b1 (3) | w2 (16) | tok (6); no decay: x.ln.g (11)
        assert [g.p.size for g in st_got.groups] == [15, 3, 16, 6, 11]
    buffers = [buf for g in st_got.groups for buf in (g.p, g.m, g.v)]
    for name, p in got.items():
        assert any(np.shares_memory(p.data, buf) for buf in buffers), name
        assert any(np.shares_memory(st_got.m[name], buf) for buf in buffers)


def test_nonfinite_gradient_changes_nothing():
    params = _params(np.float32)
    st = _state(params)
    rng = np.random.default_rng(2)
    for n, s in SHAPES.items():
        params[n].grad = rng.standard_normal(s).astype(np.float32)
    O.adamw_step(st)
    before = {n: p.data.copy() for n, p in params.items()}
    moments = {n: (st.m[n].copy(), st.v[n].copy()) for n in st.m}
    grads = {n: np.ones(s, np.float32) for n, s in SHAPES.items()}
    # "x.ln.g" (no decay, a later group) is the first bad one in params
    # order; "w2" (the decay group, which adamw_step checks first) is bad too
    grads["x.ln.g"][3] = np.inf
    grads["w2"][0, 0] = np.nan
    for n, p in params.items():
        p.grad = grads[n]
    with pytest.raises(FloatingPointError, match="'x.ln.g'"):
        O.adamw_step(st)
    assert st.t == 1
    for n, p in params.items():
        assert p.data.tobytes() == before[n].tobytes(), n
        assert st.m[n].tobytes() == moments[n][0].tobytes(), n
        assert st.v[n].tobytes() == moments[n][1].tobytes(), n

    with pytest.raises(FloatingPointError, match="'x.ln.g'"):
        O.sgd_step(params, lr=0.1)
    for n, p in params.items():
        assert p.data.tobytes() == before[n].tobytes(), n


# -- the step on two lanes ----------------------------------------------------


def _split_case(members, seed):
    """Two equal parameter dicts for ``members``, a list of (size, f64,
    exempt, lr scale) with names in that order, and their lr scales."""
    gen = np.random.default_rng(seed)
    shapes = {}
    for i, (size, f64, exempt, scale) in enumerate(members):
        name = f"p{i}.ln.g" if exempt else f"p{i}.w"
        shapes[name] = (size, np.float64 if f64 else np.float32, scale)
    values = {n: gen.standard_normal(size).astype(dtype)
              for n, (size, dtype, _) in shapes.items()}
    scales = {n: scale for n, (_, _, scale) in shapes.items()}
    return ([{n: Tensor(v.copy(), requires_grad=True) for n, v in values.items()}
             for _ in range(2)], scales)


def _halves_of(opt):
    """Parameter names whose elements the lane's half and the caller's
    half of the next step update."""
    names = []
    for half in O._cut(O._blocks(opt)):
        names.append({n for group, a, b in half for n, lo, hi in group.members
                      if lo < b and a < hi})
    return names


@settings(max_examples=60, deadline=None)
@given(members=st.lists(st.tuples(st.integers(0, 23), st.booleans(), st.booleans(),
                                  st.sampled_from([1.0, 0.75, 0.5625])),
                        min_size=1, max_size=7),
       block=st.integers(1, 9), max_group=st.sampled_from([8, 16, 1 << 15]),
       skips=st.lists(st.integers(0, 6), max_size=3), seed=st.integers(0, 2**16))
def test_two_lanes_step_the_one_lane_bits(members, block, max_group, skips, seed):
    """The lane's half and the caller's, cut anywhere in groups of both
    dtypes, exempt or not, scaled or not, with parameters that have no
    gradient on a step: the parameters, both moments and t of the one-lane
    step."""
    (one, two), scales = _split_case(members, seed)
    gen = np.random.default_rng(seed + 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(O, "BLOCK", block)
        mp.setattr(O, "MAX_GROUP", max_group)
        st_one = _state(one, scales)
        with forced_lane(mp) as lane:
            st_two = _state(two, scales)
            for step in range(3):
                grads = {n: None if i in skips and step < 2 else
                         gen.standard_normal(p.data.shape).astype(p.data.dtype)
                         for i, (n, p) in enumerate(one.items())}
                for params in (one, two):
                    for n, p in params.items():
                        p.grad = grads[n]
                O.adamw_step(st_two, lr=1e-2 * (step + 1))
                assert lane_idle(lane)
                with pytest.MonkeyPatch.context() as one_lane:
                    one_lane.setattr(O, "SPLIT_MIN", 1 << 62)
                    O.adamw_step(st_one, lr=1e-2 * (step + 1))
                _assert_same(two, st_two, one, st_one)
        assert len(lane.jobs) == 6


@pytest.mark.parametrize("bad", [["lane"], ["caller"], ["caller", "lane, later"]])
def test_nonfinite_gradient_on_either_lane_changes_nothing(bad, monkeypatch):
    """A NaN in the lane's half, in the caller's, or in both with the
    caller's first in ``opt.params`` order: the first is named and nothing
    changes."""
    monkeypatch.setattr(O, "BLOCK", 4)
    # groups in buffer order: p0 and p4 (36 elements, the lane's half), the
    # exempt p1, the f64 p2, and p3 at half the lr
    members = [(32, False, False, 1.0), (12, False, True, 1.0),
               (7, True, False, 1.0), (10, False, False, 0.5), (4, False, False, 1.0)]
    (params, _), scales = _split_case(members, 3)
    rng = np.random.default_rng(4)
    with forced_lane(monkeypatch) as lane:
        opt = _state(params, scales)
        for n, p in params.items():
            p.grad = rng.standard_normal(p.data.shape).astype(p.data.dtype)
        O.adamw_step(opt)
        lane_half, caller_half = _halves_of(opt)
        where = {"lane": "p0.w", "caller": "p1.ln.g", "lane, later": "p4.w"}
        assert {where["lane"], where["lane, later"]} <= lane_half - caller_half
        assert where["caller"] in caller_half - lane_half
        before = {n: p.data.copy() for n, p in params.items()}
        moments = {n: (opt.m[n].copy(), opt.v[n].copy()) for n in opt.m}
        grads = {n: np.ones(p.data.shape, p.data.dtype) for n, p in params.items()}
        for side in bad:
            grads[where[side]][2] = np.nan
        for n, p in params.items():
            p.grad = grads[n]
        with pytest.raises(FloatingPointError, match=repr(where[bad[0]])):
            O.adamw_step(opt)
        assert lane_idle(lane)
    assert opt.t == 1
    for n, p in params.items():
        assert p.data.tobytes() == before[n].tobytes(), n
        assert opt.m[n].tobytes() == moments[n][0].tobytes(), n
        assert opt.v[n].tobytes() == moments[n][1].tobytes(), n


def test_exempts_exactly_the_norms_and_the_mask_token(monkeypatch):
    # the norms are found by what a forward pass hands layer_norm as gain
    # and bias, not by their names
    cfg = M.ModelConfig(image_size=32, patch_size=8, in_channels=13,
                        enc_width=32, enc_depth=2, enc_heads=4,
                        dec_width=32, dec_depth=1, dec_heads=4, mask_ratio=0.7)
    spec = F.FeatureSpec("hog+ndi", hog=F.HogParams(cell_size=4))
    model = M.FgMae(cfg, spec.heads(13, 8), Rng(0).child("init").at(0))
    norms = set()
    layer_norm = T.layer_norm

    def recording(x, gamma, beta, *args, **kwargs):
        norms.update((id(gamma), id(beta)))
        return layer_norm(x, gamma, beta, *args, **kwargs)
    monkeypatch.setattr(T, "layer_norm", recording)
    plan = M.random_masking_plan(2, cfg.n_patches, cfg.mask_ratio,
                                 Rng(0).child("mask").at(0))
    with T.no_grad():
        model.forward(Tensor(np.zeros((2, 13, 32, 32), np.float32)), plan)
    expected = {n for n, p in model.params.items() if id(p) in norms}
    # two norms per block, plus the encoder's and the decoder's last norm
    assert len(expected) == 2 * (2 * (cfg.enc_depth + cfg.dec_depth) + 2)
    expected.add("mask_token")

    opt = O.AdamW(model.params)
    assert opt.no_decay == expected
    assert {n for g in opt.groups if g.exempt
            for n, _, _ in g.members} == expected


def test_clip_scales_gradients_in_place():
    a = Tensor(np.zeros(3), requires_grad=True)
    a.grad = np.array([3.0, 4.0, 0.0])
    g = a.grad
    T.clip_global_norm({"a": a}, 1.0)
    assert a.grad is g
    np.testing.assert_allclose(g, [0.6, 0.8, 0.0])


def test_accumulation_keeps_numpy_layout():
    # later reductions sum a gradient in memory order, so a Fortran-ordered
    # first gradient must stay Fortran-ordered, and adding a C-ordered one
    # must give the layout numpy gives the sum
    x = Tensor(np.zeros((3, 4)), requires_grad=True)
    f = np.asfortranarray(np.arange(12.0).reshape(3, 4))
    c = np.ones((3, 4))
    T._accum(x, f)
    assert x.grad.strides == f.strides and x.grad is not f
    T._accum(x, c)
    assert x.grad.strides == (f + c).strides
    np.testing.assert_array_equal(x.grad, f + c)


# -- training runs ------------------------------------------------------------


def _trainer(tmp_path, **overrides):
    demo = os.path.join(os.path.dirname(__file__), "..", "demos",
                        "pretrain_config.json")
    with open(demo) as f:
        cfg = P.from_dict(P.PretrainConfig, {**json.load(f), **overrides})
    manifest = _dataset(tmp_path, n_locations=8)
    return P.Trainer(cfg, D.read_manifest(manifest), os.path.dirname(manifest))


def _oracle(monkeypatch):
    """The per-parameter loop, reading each gradient off its parameter."""
    def step(opt, lr=None):
        adamw_step_reference(opt.params,
                             {n: p.grad for n, p in opt.params.items()}, opt, lr)
    monkeypatch.setattr(O, "adamw_step", step)


@pytest.mark.parametrize("grad_clip, steps", [(0.0, 60), (0.05, 20)])
def test_demo_run_matches_the_oracle(tmp_path, monkeypatch, grad_clip, steps):
    got = _trainer(tmp_path / "a", grad_clip=grad_clip)
    got.run(out_dir=str(tmp_path / "a" / "run"), max_steps=steps)
    with monkeypatch.context() as mp:
        _oracle(mp)
        want = _trainer(tmp_path / "b", grad_clip=grad_clip)
        want.run(out_dir=str(tmp_path / "b" / "run"), max_steps=steps)
    assert got.loss_log == want.loss_log
    _assert_same(got.model.params, got.opt, want.model.params, want.opt)
    for d in ("checkpoint", ""):
        a, b = tmp_path / "a" / "run" / d, tmp_path / "b" / "run" / d
        names = sorted(n for n in os.listdir(a) if os.path.isfile(a / n))
        assert names == sorted(n for n in os.listdir(b) if os.path.isfile(b / n))
        for n in names:
            assert (a / n).read_bytes() == (b / n).read_bytes(), n


def test_step_zero_checkpoint_has_no_moments(tmp_path):
    trainer = _trainer(tmp_path)
    trainer.save(str(tmp_path / "ckpt"))
    files = os.listdir(tmp_path / "ckpt")
    assert not [f for f in files if f.startswith(("m__", "v__"))]
    with open(tmp_path / "ckpt" / "index.json") as f:
        assert json.load(f)["optimizer"]["has_moments"] == []


def test_load_reads_into_the_arena(tmp_path):
    trainer = _trainer(tmp_path)
    for _ in range(2):
        trainer.train_step()
    trainer.save(str(tmp_path / "ckpt"))
    resumed = P.Trainer.load(str(tmp_path / "ckpt"), trainer.entries,
                             trainer.data_dir)
    groups = resumed.opt.groups
    for name, p in resumed.model.params.items():
        assert any(np.shares_memory(p.data, g.p) for g in groups), name
        assert any(np.shares_memory(resumed.opt.m[name], g.m) for g in groups)
        assert p.data.tobytes() == trainer.model.params[name].data.tobytes()
    resumed.train_step()
    trainer.train_step()
    for name, p in resumed.model.params.items():
        # the step's gradients landed in the buffers and nothing was rebound
        assert any(np.shares_memory(p.grad, g.g) for g in groups), name
        assert p.data.tobytes() == trainer.model.params[name].data.tobytes()


def test_load_model_reads_no_moments(tmp_path, monkeypatch):
    trainer = _trainer(tmp_path)
    trainer.train_step()
    trainer.save(str(tmp_path / "ckpt"))
    read = []
    original = D.read_tensor

    def counting(path, *args, **kwargs):
        read.append(os.path.basename(path))
        return original(path, *args, **kwargs)
    monkeypatch.setattr(D, "read_tensor", counting)
    model = P.load_model(str(tmp_path / "ckpt"))
    assert sorted(read) == sorted(f"param__{n}.fgmr" for n in model.params)
    for name, p in model.params.items():
        assert p.data.tobytes() == trainer.model.params[name].data.tobytes()


def test_fine_tune_steps_encoder_and_classifier_only(tmp_path, monkeypatch):
    trainer = _trainer(tmp_path)
    trainer.train_step()
    trainer.save(str(tmp_path / "ckpt"))
    pcfg = E.ProbeConfig(task="singlelabel", epochs=1, batch_size=8, lr=1e-3,
                         weight_decay=0.05, mixup_alpha=0.8, eval_every_n=4)
    seen = []
    step = O.adamw_step

    def recording(opt, lr=None):
        seen.append((sorted(opt.params),
                     [n for n, p in opt.params.items() if p.grad is None]))
        step(opt, lr)
    monkeypatch.setattr(O, "adamw_step", recording)
    got = P.load_model(str(tmp_path / "ckpt"))
    report = E.fine_tune(got, trainer.entries, trainer.data_dir, pcfg)
    names = sorted(["clf.w", "clf.b"] + [n for n in got.params
                                          if n.startswith(("embed.", "enc."))])
    assert seen and all(s == (names, []) for s in seen)

    _oracle(monkeypatch)
    want = P.load_model(str(tmp_path / "ckpt"))
    expected = E.fine_tune(want, trainer.entries, trainer.data_dir, pcfg)
    assert report.values == expected.values
    assert E.params_digest(got.params) == E.params_digest(want.params)
