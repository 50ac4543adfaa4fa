#!/usr/bin/env python3
"""fgmae benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload pretrain-sar-hog --seed 0 \\
        --seconds 15 --trace 0

The workload runs in a fresh child process (perfbench/child.py) against the
sources under src/ of the checkout this file sits in, with BLAS pinned to
one thread and a fixed hash seed. With --trace 0 the command prints the end-to-end metrics. With
--trace 1 it runs the workload twice, untraced and then traced, checks that
both trained bitwise alike and prints the per-layer metrics; the spans go
to .perfbench/traces/. Lines starting with '#' are for people, and the last
line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Exit status: 0 when every correctness gate held, 1 when one tripped, 2 when
the checkout holds no fgmae sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import catalog, gates  # noqa: E402

DEADLINE_S = 170.0   # the whole command, both children included
BLAS_THREADS = 1     # steadier than all cores on a shared machine


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=list(catalog.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fgmae", "__init__.py")):
        print(f"error: no fgmae sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    name = f"{args.workload}-seed{args.seed}"
    work = os.path.join(ROOT, ".perfbench", "work", f"{name}-{os.getpid()}")
    os.makedirs(work)
    try:
        plain = run_child(args, os.path.join(work, "plain"), None, deadline)
        traced = None
        if args.trace:
            trace_dir = os.path.join(ROOT, ".perfbench", "traces")
            os.makedirs(trace_dir, exist_ok=True)
            traced = run_child(args, os.path.join(work, "traced"),
                               os.path.join(trace_dir, name + ".npz"), deadline)
    finally:
        remove(work)

    report = Report(args.workload)
    e2e = report.end_to_end(plain)
    metrics = report.per_layer(plain, traced) if args.trace else e2e
    attempted = max(report.attempted, 1)
    report.lines.append(f"error_rate {len(report.failures) / attempted:.6g} "
                        f"({len(report.failures)} of {attempted} operations "
                        f"and checks failed)")
    report.lines += [f"FAILED {m}" for m in report.failures]
    for line in report.lines + [f"provenance {json.dumps(provenance(args, plain))}"]:
        print("# " + line)
    print(json.dumps({"correct": not report.failures,
                      "attempted": attempted,
                      "failed": len(report.failures),
                      "metrics": metrics}))
    return 0 if not report.failures else 1


def run_child(args, work_dir, trace_file, deadline):
    """Run perfbench.child and return its JSON result, or a result that
    carries only an error."""
    cmd = [sys.executable, "-m", "perfbench.child", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--work-dir", work_dir]
    if args.smoke:
        cmd.append("--smoke")
    if trace_file:
        cmd += ["--trace-file", trace_file]
    # a fixed hash seed keeps dict and set layouts, and with them the
    # Python-bound step times, the same from one process to the next
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        return {"error": f"child timed out: {' '.join(cmd)}"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"child exited with {proc.returncode}: {' '.join(cmd)}"}
    return json.loads(lines[-1])


def remove(path):
    """Delete the run's files and commit the deletion, so that the next run
    does not start while the file system is still discarding them."""
    shutil.rmtree(path, ignore_errors=True)
    fd = os.open(os.path.dirname(path), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


TAIL_BLOCK = 200  # steps, at least


def tail(values, per_session):
    """(value, percentile, blocks): the highest percentile with at least
    ten samples beyond it, by nearest rank, in each block of whole sessions
    holding at least TAIL_BLOCK samples, and the median of those over the
    blocks. Blocks of whole sessions hold the same mix of steps (the probe
    workload's probe and fine-tune steps differ twofold). Samples past the
    last whole block are left out; below one block, all samples form one."""
    n = per_session * -(-TAIL_BLOCK // per_session)
    n = n if len(values) >= n else len(values)
    per_block = [_tail(values[i:i + n])
                 for i in range(0, len(values) - n + 1, n)]
    return (statistics.median(v for v, _ in per_block), per_block[0][1],
            len(per_block))


def _tail(values):
    """(value, percentile) of one block, at p90 or above: below 21 samples
    the percentile with ten beyond would be at or under the median."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(n - 11, math.ceil(0.9 * n) - 1)
    return ordered[k], 100.0 * (k + 1) / n


# printed on '#' lines only (see README.md)
EXTRA = [("ckpt_save_s", "s"), ("probe_s", "s"), ("finetune_s", "s")]


def figures(sessions, setup_s):
    """End-to-end figures of a run's sessions, from their per-phase times:
    the median wall time of a session, and medians over every timing of a
    phase in the run for the rest."""
    med = lambda key: statistics.median(t for s in sessions for t in s[key])
    steps_ms = [1e3 * t for s in sessions for t in s["step_s"]]
    out = {
        "samples_per_s": sum(s["images"] for s in sessions)
        / sum(t for s in sessions for t in s["step_s"]),
        "step_ms_p50": statistics.median(steps_ms),
        "startup_s": med("startup_s"),
        "resume_s": med("resume_s"),
        "wall_s": statistics.median(s["wall_s"] for s in sessions),
        "setup_s": statistics.median(setup_s),
        "ckpt_save_s": med("ckpt_save_s"),
    }
    out["step_ms_tail"], out["tail_pct"], out["tail_blocks"] = tail(
        steps_ms, len(sessions[0]["step_s"]))
    if "probe_s" in sessions[0]:
        out["probe_s"], out["finetune_s"] = med("probe_s"), med("finetune_s")
    return out


class Report:
    """Gates and metrics for one invocation. `failures` holds one message
    per failed operation or tripped check, out of `attempted`."""

    def __init__(self, workload):
        self.workload = workload
        self.failures = []
        self.attempted = 0
        self.lines = []

    def check_child(self, result, label):
        """Per-session gates of one child; False when it has no sessions."""
        if result.get("error"):
            self.attempted += 1
            self.failures.append(f"{label}: {result['error']}")
        sessions = result.get("sessions") or []
        for s in sessions:
            self.attempted += len(s["step_s"]) + 3 + ("probe_s" in s) * 2
            self.attempted += gates.SESSION_CHECKS
            self.failures += [f"{label}: {m}"
                              for m in gates.session_gates(s, result["reference"])]
        return bool(sessions)

    def end_to_end(self, plain):
        if not self.check_child(plain, "untraced"):
            return {}
        sessions = plain["sessions"]
        values = figures(sessions, plain["setup_s"])
        raw = figures([s["raw"] for s in sessions], plain["setup_raw_s"])
        values["peak_rss_mb"] = raw["peak_rss_mb"] = plain["peak_rss_mb"]
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _, _ in catalog.END_TO_END}
        n_steps = sum(len(s["step_s"]) for s in sessions)
        self.lines.append(f"{self.workload}: {len(sessions)} sessions, "
                          f"{n_steps} steps; times at reference speed, "
                          f"raw in brackets")
        for name, unit in [row[:2] for row in catalog.END_TO_END] + EXTRA:
            if name not in values:
                continue
            note = (f" (p{values['tail_pct']:.4g}, median of "
                    f"{values['tail_blocks']} blocks, of {n_steps} steps)"
                    if name == "step_ms_tail" else "")
            self.lines.append(f"{name} {values[name]:.6g} {unit} "
                              f"[{raw[name]:.6g}]{note}")
        return metrics

    def per_layer(self, plain, traced):
        ok = self.check_child(traced, "traced")
        if not ok or not plain.get("sessions"):
            return {}
        self.attempted += 1
        self.failures += gates.same_log(traced["reference"], plain["reference"],
                                        "the untraced run's")
        summary = traced["trace"]
        expected = catalog.EXPECTED_CALLS[self.workload]
        self.attempted += len(expected)
        self.failures += [f"traced: {n} was never called"
                          for n in catalog.missing_calls(self.workload, summary)]
        sessions = traced["sessions"]
        wall = statistics.median(s["wall_s"] for s in sessions)
        run_figures = {
            "wall_s": wall,
            "overhead_s": wall - statistics.median(
                s["wall_s"] for s in plain["sessions"]),
            "unattributed_s": statistics.fmean(
                s["raw"]["timed_s"] - summary["top_s_by_run"].get(str(i), 0.0)
                for i, s in enumerate(sessions)),
            "spans": summary["n_spans"] / len(sessions),
        }
        metrics = catalog.layer_metrics(summary, len(sessions), run_figures)
        self.lines.append(f"traced: {len(sessions)} sessions, "
                          f"{summary['n_spans']} spans")
        for name, m in metrics.items():
            self.lines.append(f"{name} {m['value']:.6g} {m['unit']}")
        return metrics


def provenance(args, plain):
    prov = dict(plain.get("provenance") or {})
    ref = plain.get("reference") or {}
    prov.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "blas_threads": min(BLAS_THREADS, os.cpu_count() or 1),
        "git": git_state(),
        "loss_log_digest": gates.log_digest(ref["log"]) if ref else None,
        "final_loss": ref["losses"][-1] if ref.get("losses") else None,
    })
    return prov


def git_state():
    """(sha, dirty) of the checkout, or None when it is not a git tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain",
                                "--untracked-files=no"], cwd=ROOT, text=True,
                               capture_output=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return None
    return {"sha": sha, "dirty": bool(dirty)}


if __name__ == "__main__":
    sys.exit(main())
