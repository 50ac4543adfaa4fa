"""Tests of the benchmark itself: span arithmetic, the gates tripping on
injected defects, read-only tracing, BENCHMARK.json matching the catalog,
and smoke-size runs of the command (a few seconds each)."""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import catalog, gates, run, tracer  # noqa: E402


# -- span arithmetic ----------------------------------------------------------

def test_self_time_subtracts_the_union_of_clipped_children():
    #        0 root ........................ 10
    #          1 a ..... 4   (a has child a1 at 2..3)
    #                 3 b ..... 6            (overlaps a)
    #                                9 c ........ 12 (runs past root)
    start = [0.0, 1.0, 2.0, 3.0, 9.0]
    end = [10.0, 4.0, 3.0, 6.0, 12.0]
    parent = [-1, 0, 1, 0, 0]
    own = tracer.self_times(start, end, parent)
    assert list(own) == [10 - 5 - 1, 3 - 1, 1, 3, 3]


def test_summary_aggregates_calls_self_time_and_blocking():
    tr = tracer.Tracer()
    spans = [  # name, parent, run, start, end
        ("pretrain.train_step", -1, 0, 0.0, 10.0),
        ("data.read_tensor", 0, 0, 1.0, 2.0),
        ("tensor.op.matmul", 0, 0, 3.0, 7.0),
        ("tensor.op.add", 2, 0, 4.0, 5.0),
        ("pretrain.save_checkpoint", -1, 1, 20.0, 22.0),
        ("data.write_tensor", 4, 1, 20.5, 21.0),
    ]
    for name, parent, run_id, s, e in spans:
        tr.name_id.append(tr.intern(name))
        tr.parent.append(parent)
        tr.run.append(run_id)
        tr.start.append(s)
        tr.end.append(e)
    summary = tr.summarize()
    assert summary["spans"]["tensor.op.matmul"] == {
        "calls": 1, "incl_s": 4.0, "self_s": 3.0}
    assert summary["layer_self_s"]["tensor"] == 4.0
    assert summary["layer_self_s"]["pretrain"] == 10 - 5 + 2 - 0.5
    # a checkpoint write is not time a training loop waited on data
    assert summary["blocked_s"]["data"] == 1.0
    assert summary["top_s_by_run"] == {0: 10.0, 1: 2.0}


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(100, 0, -1)), 10) == (90, 90.0, 1)
    assert run.tail([3, 1, 2], 1) == (3, 100.0, 1)
    # never below p90: with 18 steps, ten beyond would be p44
    assert run.tail(list(range(1, 19)), 6) == (17, 100.0 * 17 / 18, 1)


def test_tail_is_the_median_over_blocks_of_whole_sessions():
    # sessions of 150 steps: blocks hold two sessions (300 steps), and
    # the half session after the last whole block is left out
    block = list(range(1, 301))  # tail: the 290th
    steps = block + [x + 1000 for x in block] + [x + 50 for x in block]
    assert run.tail(steps + [9999] * 75, 150) == (340, 100.0 * 290 / 300, 3)


def test_phases_scale_to_reference_speed_and_sum_one_of_each_into_wall():
    from perfbench import workloads as W

    phases = W.Phases()
    for raw in (1.0, 3.0, 2.0):  # three loads on a host at half speed
        phases.add("startup_s", raw, 2 * W.REF_S)
    for raw in (0.5, 0.25):
        phases.add("step_s", raw, 2 * W.REF_S)
    out = phases.result(("startup_s", "step_s"), images=16)
    assert out["startup_s"] == [0.5, 1.5, 1.0]
    assert out["wall_s"] == 1.0 + 0.375
    assert out["raw"]["wall_s"] == 2.0 + 0.75
    assert out["images"] == out["raw"]["images"] == 16


# -- gates trip on injected defects -------------------------------------------

def _session(**kw):
    s = {"losses": [0.5, 0.25], "log": [0, 0.1, 0.5, 1, 0.2, 0.25],
         "state_digests": ["a", "a"], "unit_metrics": [0.5, 1.0]}
    s.update(kw)
    return s


def test_gates_hold_on_a_clean_session():
    assert gates.session_gates(_session(), _session()) == []


def test_nan_loss_trips_the_finite_gate():
    bad = _session(losses=[0.5, math.nan], log=[0, 0.1, 0.5, 1, 0.2, math.nan])
    assert gates.finite_losses(bad)
    assert len(gates.session_gates(bad, _session())) == 2  # and the log gate


def test_one_ulp_loss_log_mismatch_trips_the_traced_untraced_gate():
    untraced = _session()
    traced = _session(log=untraced["log"][:-1]
                      + [math.nextafter(untraced["log"][-1], 1.0)])
    assert gates.same_log(traced, untraced, "the untraced run's")
    assert not gates.same_log(untraced, _session(), "the untraced run's")


def test_probe_metric_out_of_range_trips():
    assert gates.unit_interval(_session(unit_metrics=[1.5]))
    assert gates.unit_interval(_session(unit_metrics=[math.nan]))


def test_flipped_checkpoint_byte_trips_the_round_trip_gate(tmp_path):
    from fgmae import pretrain as P
    from perfbench import workloads as W

    ctx = W.setup("pretrain-sar-hog", W.SMOKE, 0, str(tmp_path))
    trainer = P.Trainer(ctx["cfgs"]["pretrain"], ctx["entries"], ctx["data_dir"])
    trainer.train_step()
    ckpt = str(tmp_path / "ckpt")
    trainer.save(ckpt)
    before = W.trainer_digest(trainer)
    clean = P.Trainer.load(ckpt, ctx["entries"], ctx["data_dir"])
    assert not gates.checkpoint_round_trip(
        _session(state_digests=[before, W.trainer_digest(clean)]))

    victim = os.path.join(ckpt, "m__head.w.fgmr")
    raw = bytearray(open(victim, "rb").read())
    raw[-1] ^= 0x01
    open(victim, "wb").write(bytes(raw))
    flipped = P.Trainer.load(ckpt, ctx["entries"], ctx["data_dir"])
    assert gates.checkpoint_round_trip(
        _session(state_digests=[before, W.trainer_digest(flipped)]))


def test_zero_call_gate_names_the_function_never_called():
    summary = {"spans": {n: {"calls": 1} for n in
                         catalog.EXPECTED_CALLS["pretrain-sar-hog"]}}
    assert catalog.missing_calls("pretrain-sar-hog", summary) == []
    summary["spans"]["features.compute_hog"]["calls"] = 0
    assert catalog.missing_calls("pretrain-sar-hog", summary) == [
        "features.compute_hog"]


# -- tracing is read-only -----------------------------------------------------

def test_tracing_leaves_training_bitwise_unchanged_and_restores(tmp_path):
    from fgmae import pretrain as P
    from fgmae import tensor as T
    from perfbench import workloads as W

    ctx = W.setup("pretrain-sar-hog", W.SMOKE, 3, str(tmp_path))

    def losses():
        trainer = P.Trainer(ctx["cfgs"]["pretrain"], ctx["entries"],
                            ctx["data_dir"])
        for _ in range(2):
            trainer.train_step()
        return trainer.loss_log

    originals = (T.matmul, T._node, T.Tensor.backward, P.Trainer.train_step)
    plain = losses()
    tr = tracer.Tracer()
    restore = tracer.instrument(tr)
    try:
        traced = losses()
    finally:
        restore()
    assert traced == plain
    assert (T.matmul, T._node, T.Tensor.backward,
            P.Trainer.train_step) == originals
    summary = tr.summarize()
    assert summary["spans"]["pretrain.train_step"]["calls"] == 2
    counts = summary["counts"]
    assert counts["tensor.tape_useful"] == counts["tensor.tape_nodes"] > 0
    assert counts["tensor.op.matmul.bwd_s"] > 0


# -- BENCHMARK.json mirrors the catalog ---------------------------------------

def test_benchmark_json_matches_the_catalog():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert bench["paths"] == ["perfbench"]
    assert bench["workloads"] == [{"name": n, "why": w}
                                  for n, w in catalog.WORKLOADS.items()]
    assert bench["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound in catalog.END_TO_END]
    assert bench["per_layer"] == [{"name": n, "unit": u, "better": b}
                                  for n, u, b, _, _ in catalog.PER_LAYER]
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
               for n in names)
    assert len(bench["per_layer"]) <= 128
    for _, _, _, _, moves in catalog.PER_LAYER:
        for move in moves:
            metric, workload = move.split("@")
            assert workload in catalog.WORKLOADS
            assert metric in {n for n, _, _, _ in catalog.END_TO_END}


# -- the command, at smoke size, in a copy of the checkout ----------------------

def _checkout(tmp_path, with_src=True):
    ignore = shutil.ignore_patterns("__pycache__", ".perfbench")
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=ignore)
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                        ignore=ignore)
    return tmp_path


def _bench(checkout, workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         "0", "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=checkout, stdout=subprocess.PIPE, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("workload", ["pretrain-sar-hog", "probe-finetune-sar"])
def test_smoke_traced_run_reports_every_metric(tmp_path, workload):
    code, lines = _bench(_checkout(tmp_path), workload, 1)
    assert code == 0, lines
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [n for n, *_ in catalog.PER_LAYER]
    printed = {ln.split()[1] for ln in lines[:-1]}
    assert {n for n, *_ in catalog.END_TO_END} | {"ckpt_save_s"} <= printed
    assert (tmp_path / ".perfbench" / "traces"
            / f"{workload}-seed0.npz").is_file()
    assert not os.listdir(tmp_path / ".perfbench" / "work")


def test_corrupted_checkpoint_write_fails_the_command(tmp_path):
    checkout = _checkout(tmp_path)
    path = checkout / "src" / "fgmae" / "pretrain.py"
    code = path.read_text()
    good = 'D.write_tensor(os.path.join(path, fname), p.data)'
    assert good in code
    path.write_text(code.replace(
        good, 'D.write_tensor(os.path.join(path, fname), p.data * 1.5)'))
    code, lines = _bench(checkout, "pretrain-sar-hog", 0)
    assert code == 1
    result = json.loads(lines[-1])
    assert not result["correct"] and result["failed"] >= 1
    assert any("checkpoint round trip" in ln for ln in lines)


def test_checkout_without_sources_exits_nonzero_without_a_result(tmp_path):
    code, lines = _bench(_checkout(tmp_path, with_src=False),
                         "pretrain-sar-hog", 0)
    assert code == 2
    assert lines == []
