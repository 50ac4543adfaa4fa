"""One workload run in a fresh process: set up, warm up, measure sessions.

Started by run.py as ``python -m perfbench.child``; prints one JSON object
with the raw timings and gate facts as its last stdout line. With --trace
the fgmae layers are instrumented before the warm-up session and the spans
of the measured sessions are written to --trace-file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback

clock = time.perf_counter


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--trace-file")
    args = ap.parse_args(argv)

    t = clock()
    import numpy as np
    import scipy
    import fgmae
    import_s = clock() - t
    src = os.path.join(os.getcwd(), "src")
    if os.path.commonpath([os.path.abspath(fgmae.__file__), src]) != src:
        raise SystemExit(f"fgmae was imported from {fgmae.__file__}, "
                         f"not from {src}")
    from perfbench import workloads as W

    size = W.SMOKE if args.smoke else W.SIZES[args.workload]
    setup_s, setup_raw_s = [], []
    for i in range(1 if args.smoke else W.SETUP_REPEATS):
        W.quiesce()
        t = clock()
        ctx = W.setup(args.workload, size, args.seed,
                      os.path.join(args.work_dir, f"setup{i}"))
        setup_raw_s.append(clock() - t)
        setup_s.append(W.at_ref_speed(setup_raw_s[-1], W.speed_sample()))

    tracer = restore = None
    if args.trace_file:
        from perfbench.tracer import Tracer, instrument
        tracer = Tracer()
        restore = instrument(tracer)
    result = {"setup_s": setup_s, "setup_raw_s": setup_raw_s, "sessions": [],
              "error": None}
    try:
        result["reference"] = W.session(ctx)
        if tracer:
            tracer.reset()
        begin = clock()
        while (len(result["sessions"]) < size.min_sessions
               or clock() - begin < args.seconds):
            if tracer:
                tracer.run_id = len(result["sessions"])
            result["sessions"].append(W.session(ctx))
    except Exception as exc:  # reported as a failed operation by run.py
        traceback.print_exc()
        result["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        if restore:
            restore()
    if tracer and result["sessions"]:
        result["trace"] = tracer.summarize()
        tracer.write(args.trace_file)
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    result["provenance"] = {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": _blas(np),
        "fgmae_import_s": import_s,
        "config_digest": W.config_digest(ctx["cfgs"]),
    }
    print(json.dumps(result))
    return 0


def _blas(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
