"""Outside-in benchmark for fgmae: end-to-end workloads, correctness gates
and a per-layer tracer that wraps the package's public functions from here,
without touching ``src/``. Run ``python3 perfbench/run.py --help``."""
