"""The repo's one benchmark: five workloads, host-normalised end-to-end
metrics, per-layer micro-benches and a traced per-layer latency budget.

Entry point: ``python3 benchmarks/spine/run.py`` (see README.md here).
The harness measures every layer from outside, by timing calls into public
functions of ``repro``; no file of the program is instrumented.
"""
