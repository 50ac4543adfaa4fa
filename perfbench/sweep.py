#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize the spread.

    python3 perfbench/sweep.py --seeds 0-9 --out perfbench/results/x.json
    python3 perfbench/sweep.py --workloads probe-finetune-sar --seeds 0-4

Runs perfbench/run.py once per (workload, seed), one after another, for
BENCHMARK.json's run_seconds, and prints for every end-to-end metric the
median, the quartiles and the quartile spread as a share of the median,
next to the metric's bound. With --trace it also makes one traced run per
workload (first seed) and keeps its per-layer metrics. --out writes every
run's result, provenance and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import catalog  # noqa: E402


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    t = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace))],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    prov = next((json.loads(ln.split(" ", 2)[2]) for ln in lines
                 if ln.startswith("# provenance ")), None)
    return {"workload": workload, "seed": seed, "trace": int(trace),
            "exit": proc.returncode, "elapsed_s": time.monotonic() - t,
            "result": json.loads(lines[-1]) if lines else None,
            "notes": [ln[2:] for ln in lines[:-1]
                      if ln.startswith("# ") and "provenance" not in ln],
            "provenance": prov}


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None):
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+", default=list(catalog.WORKLOADS))
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("0-9"))
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    runs, summary = [], {}
    for w in args.workloads:
        for seed in args.seeds:
            runs.append(run_once(w, seed, args.seconds, False))
            r = runs[-1]
            print(f"{w} seed {seed}: exit {r['exit']} in {r['elapsed_s']:.1f} s",
                  file=sys.stderr)
        if args.trace:
            runs.append(run_once(w, args.seeds[0], args.seconds, True))
        ok = [r["result"]["metrics"] for r in runs
              if r["workload"] == w and not r["trace"] and r["exit"] == 0]
        summary[w] = {}
        if len(ok) < 2:
            continue
        for name, unit, _, bound in catalog.END_TO_END:
            med, q1, q3, rel = spread([m[name]["value"] for m in ok])
            summary[w][name] = {"median": med, "q1": q1, "q3": q3,
                                "spread": rel, "bound": bound, "unit": unit}
            flag = "" if name == "setup_s" or rel < bound / 3 else "  <-- wide"
            print(f"{w:22s} {name:14s} {med:12.6g} {unit:9s} "
                  f"spread {rel:6.3f} bound {bound:.2f}{flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seconds": args.seconds, "summary": summary,
                       "runs": runs}, f, indent=1)
    return 0 if all(r["exit"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
