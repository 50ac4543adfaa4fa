"""Every metric the benchmark reports, in one table.

BENCHMARK.json repeats the names, units and directions; a test keeps the two
in step. Each per-layer metric names its layer (the fgmae module it is
measured at) and the end-to-end metrics, on which workloads, that a change
to that layer should move ("metric@workload"). Per-layer values are per
session (one rep of the workload, see workloads.py), averaged over the
sessions of a traced run.

Per-layer sources:
  ("calls", span)        calls of the wrapped function
  ("incl", span)         seconds inside it, children included
  ("self", span)         seconds inside it, children excluded
  ("layer", layer)       self seconds of every span of the layer
  ("count", key)         a counter kept by the wrappers
  ("ratio", key, key)    one counter over another (not per session)
  ("blocked", layer)     seconds a training or probe loop waited on the layer
  ("run", key)           a figure of the run itself (trace overhead etc.)
"""

from __future__ import annotations

WORKLOADS = {
    "pretrain-sar-hog":
        "paper SAR recipe at demo size (2 bands, ViT width 64, HOG targets); "
        "tape, model and Python overhead dominate a step",
    "pretrain-ms-canny":
        "same small model on 13-band MS data with Canny targets; the "
        "features layer dominates, so an extractor change shows here alone",
    "probe-finetune-sar":
        "checkpoint hand-off, frozen linear probe over all 16 tokens and "
        "fine-tune with AdamW, layer decay and mixup; per-sample FGMR reads",
    "pretrain-vits-resume":
        "ViT-S (23 M parameters) with HOG targets: init, steps, checkpoint "
        "save and resume; BLAS matmuls, AdamW and checkpoint I/O dominate",
}

# name, unit, better, bound (share of the parent's median it may worsen
# by). Times are at reference speed (see workloads.speed_sample). Timing
# bounds stay wide because on the 2-core machine the benchmark was built
# on, the host's slowdowns do not hit every kind of work alike. Checkpoint
# save time is printed but not listed: it is mostly file creation, which
# varied by 2-4x between runs there.
END_TO_END = [
    ("samples_per_s", "images/s", "higher", 0.25),
    ("step_ms_p50", "ms", "lower", 0.25),
    ("step_ms_tail", "ms", "lower", 0.25),
    ("startup_s", "s", "lower", 0.25),
    ("resume_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
]

SAR, MS, PROBE, VITS = WORKLOADS
STEP = [f"step_ms_p50@{w}" for w in (SAR, MS, VITS)]

# ops with their own metrics; the other tensor ops are traced too, but
# appear only in the span file
OPS = ("matmul", "add", "mul", "power", "exp", "gelu", "softmax", "layer_norm",
       "log_softmax", "reshape", "transpose", "concatenate", "gather_tokens",
       "tsum", "getitem")
_TENSOR_MOVES = [f"step_ms_p50@{SAR}", f"step_ms_p50@{PROBE}",
                 f"wall_s@{PROBE}"]


def _per_layer():
    rows = []

    def add(name, unit, better, source, moves):
        rows.append((name, unit, better, source, moves))

    for op in OPS:
        span = "tensor.op." + op
        add(f"{span}.calls", "count", "lower", ("calls", span), _TENSOR_MOVES)
        add(f"{span}.fwd_s", "s", "lower", ("incl", span), _TENSOR_MOVES)
        add(f"{span}.bwd_s", "s", "lower", ("count", f"{span}.bwd_s"),
            _TENSOR_MOVES)
        add(f"{span}.out_bytes", "bytes", "lower",
            ("count", f"{span}.out_bytes"), _TENSOR_MOVES)
    add("tensor.backward_s", "s", "lower", ("incl", "tensor.backward"),
        _TENSOR_MOVES)
    add("tensor.backward_self_s", "s", "lower", ("self", "tensor.backward"),
        _TENSOR_MOVES)
    add("tensor.tape_nodes", "count", "lower", ("count", "tensor.tape_nodes"),
        _TENSOR_MOVES)
    add("tensor.tape_useful_ratio", "ratio", "higher",
        ("ratio", "tensor.tape_useful", "tensor.tape_nodes"),
        [f"step_ms_p50@{PROBE}", f"wall_s@{PROBE}"])
    add("tensor.self_s", "s", "lower", ("layer", "tensor"), _TENSOR_MOVES)

    feat = [f"samples_per_s@{MS}", f"step_ms_p50@{MS}"]
    add("features.assemble_targets_s", "s", "lower",
        ("incl", "features.assemble_targets"), feat + [f"step_ms_p50@{SAR}"])
    add("features.compute_canny_s", "s", "lower",
        ("incl", "features.compute_canny"), feat)
    add("features.compute_hog_s", "s", "lower",
        ("incl", "features.compute_hog"),
        [f"samples_per_s@{SAR}", f"step_ms_p50@{SAR}"])
    add("features.self_s", "s", "lower", ("layer", "features"), feat)

    fwd = [f"step_ms_p50@{SAR}", f"samples_per_s@{SAR}"]
    for fn in ("encode", "decode", "predict_heads", "masked_l2_loss",
               "random_masking_plan"):
        add(f"model.{fn}_s", "s", "lower", ("incl", "model." + fn), fwd)
    add("model.encoder_features_s", "s", "lower",
        ("incl", "model.encoder_features"), [f"step_ms_p50@{PROBE}"])
    add("model.init_s", "s", "lower", ("incl", "model.init"),
        [f"startup_s@{VITS}"])
    add("model.trunc_normal_s", "s", "lower", ("incl", "model.trunc_normal"),
        [f"startup_s@{VITS}"])
    add("model.trunc_normal_calls", "count", "lower",
        ("calls", "model.trunc_normal"), [f"startup_s@{VITS}"])
    add("model.self_s", "s", "lower", ("layer", "model"), fwd)

    add("optim.adamw_step_s", "s", "lower", ("incl", "optim.adamw_step"),
        [f"step_ms_p50@{VITS}", f"step_ms_tail@{PROBE}"])
    add("optim.adamw_step_calls", "count", "lower",
        ("calls", "optim.adamw_step"), [f"step_ms_p50@{VITS}"])
    add("optim.sgd_step_s", "s", "lower", ("incl", "optim.sgd_step"),
        [f"step_ms_p50@{PROBE}"])
    add("optim.sgd_step_calls", "count", "lower", ("calls", "optim.sgd_step"),
        [f"step_ms_p50@{PROBE}"])

    reads = [f"wall_s@{PROBE}", f"step_ms_p50@{PROBE}", f"resume_s@{VITS}"]
    add("data.read_tensor_s", "s", "lower", ("incl", "data.read_tensor"), reads)
    add("data.read_tensor_calls", "count", "lower",
        ("calls", "data.read_tensor"), reads)
    add("data.read_tensor_bytes", "bytes", "lower",
        ("count", "data.read_tensor_bytes"), reads)
    writes = [f"wall_s@{VITS}", f"wall_s@{PROBE}"]
    add("data.write_tensor_s", "s", "lower", ("incl", "data.write_tensor"),
        writes)
    add("data.write_tensor_bytes", "bytes", "lower",
        ("count", "data.write_tensor_bytes"), writes)
    for fn in ("select_season", "random_resized_crop", "horizontal_flip"):
        add(f"data.{fn}_s", "s", "lower", ("incl", "data." + fn),
            STEP + [f"step_ms_p50@{PROBE}"])
    add("data.mixup_s", "s", "lower", ("incl", "data.mixup"),
        [f"step_ms_tail@{PROBE}"])
    add("data.batch_wait_s", "s", "lower", ("blocked", "data"),
        STEP + [f"step_ms_p50@{PROBE}"])
    add("data.self_s", "s", "lower", ("layer", "data"), reads)

    ckpt = [f"wall_s@{VITS}", f"resume_s@{VITS}"]
    add("pretrain.train_step_s", "s", "lower", ("self", "pretrain.train_step"),
        STEP)
    add("pretrain.train_step_calls", "count", "lower",
        ("calls", "pretrain.train_step"), STEP)
    add("pretrain.trainer_init_s", "s", "lower",
        ("incl", "pretrain.trainer_init"), [f"startup_s@{VITS}"])
    add("pretrain.save_checkpoint_s", "s", "lower",
        ("incl", "pretrain.save_checkpoint"), ckpt)
    add("pretrain.load_checkpoint_s", "s", "lower",
        ("incl", "pretrain.load_checkpoint"), ckpt)
    add("pretrain.ckpt_bytes", "bytes", "lower",
        ("count", "pretrain.ckpt_bytes"), ckpt)

    probe = [f"wall_s@{PROBE}", f"samples_per_s@{PROBE}"]
    add("evaluate.linear_probe_train_s", "s", "lower",
        ("incl", "evaluate.linear_probe_train"),
        probe + [f"step_ms_p50@{PROBE}"])
    add("evaluate.fine_tune_s", "s", "lower", ("incl", "evaluate.fine_tune"),
        probe + [f"step_ms_tail@{PROBE}"])
    add("evaluate.self_s", "s", "lower", ("layer", "evaluate"), probe)

    add("trace.wall_s", "s", "lower", ("run", "wall_s"), [])
    add("trace.overhead_s", "s", "lower", ("run", "overhead_s"), [])
    add("trace.unattributed_s", "s", "lower", ("run", "unattributed_s"), [])
    add("trace.spans", "count", "lower", ("run", "spans"), [])
    return rows


PER_LAYER = _per_layer()

# wrapped functions each workload must call at least once per traced run
_MODEL_OPS = ["tensor.op." + op for op in OPS
              if op not in ("log_softmax", "concatenate")]
_PRETRAIN = _MODEL_OPS + [
    "tensor.op.concatenate", "tensor.backward", "model.init",
    "model.trunc_normal", "model.encode", "model.decode",
    "model.predict_heads", "model.masked_l2_loss", "model.random_masking_plan",
    "features.assemble_targets", "optim.adamw_step", "data.read_tensor",
    "data.write_tensor", "data.select_season", "data.random_resized_crop",
    "data.horizontal_flip", "pretrain.trainer_init", "pretrain.train_step",
    "pretrain.save_checkpoint", "pretrain.load_checkpoint"]
EXPECTED_CALLS = {
    SAR: _PRETRAIN + ["features.compute_hog"],
    MS: _PRETRAIN + ["features.compute_canny"],
    VITS: _PRETRAIN + ["features.compute_hog"],
    PROBE: _MODEL_OPS + [
        "tensor.op.log_softmax", "tensor.backward", "model.encode",
        "model.encoder_features", "model.trunc_normal", "optim.sgd_step",
        "optim.adamw_step", "data.read_tensor", "data.write_tensor",
        "data.random_resized_crop", "data.horizontal_flip", "data.mixup",
        "pretrain.save_checkpoint", "pretrain.load_checkpoint",
        "evaluate.linear_probe_train", "evaluate.fine_tune"],
}


_SPAN_FIELDS = {"calls": "calls", "incl": "incl_s", "self": "self_s"}
_SUMMARY_TABLES = {"layer": "layer_self_s", "blocked": "blocked_s",
                   "count": "counts"}


def layer_metrics(summary, sessions, run_figures):
    """Per-layer metric values from a traced run's `Tracer.summarize()`."""
    counts = summary["counts"]
    out = {}
    for name, unit, _, source, _ in PER_LAYER:
        kind, key = source[0], source[1]
        if kind == "ratio":
            den = counts.get(source[2], 0.0)
            value = counts.get(key, 0.0) / den if den else 0.0
        elif kind == "run":
            value = run_figures[key]
        elif kind in _SPAN_FIELDS:
            span = summary["spans"].get(key, {})
            value = span.get(_SPAN_FIELDS[kind], 0) / sessions
        else:
            value = summary[_SUMMARY_TABLES[kind]].get(key, 0.0) / sessions
        out[name] = {"value": value, "unit": unit}
    return out


def missing_calls(workload, summary):
    """Names of wrapped functions the workload should call but did not."""
    spans = summary["spans"]
    return [n for n in EXPECTED_CALLS[workload]
            if spans.get(n, {}).get("calls", 0) == 0]
