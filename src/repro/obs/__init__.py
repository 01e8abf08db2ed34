"""repro.obs: end-to-end observability for the STM runtime.

The paper leans on exactly this kind of instrumentation — §6's "debugging
or a monitoring connection", §8's real-time guarantees, and §9's call for
"more detailed performance analysis" — and this package supplies it in
three layers:

* :mod:`repro.obs.events` — a low-overhead **event-tracing layer**:
  thread-local ring buffers of structured spans, instants, and counter
  samples, emitted from instrumentation points threaded through the STM
  kernel (put/get/consume including block/wakeup sub-spans), the GC daemon
  (epoch scatter/collect, per-space reclaim), ``runtime.threads``
  (virtual-time ticks), and the CLF transport (packet send/recv with byte
  counts).  Armed by ``STMOBS=1`` or the :func:`trace` context manager;
  a single ``recorder is None`` check when off.
* :mod:`repro.obs.metrics` — a **metrics registry** of counters, gauges,
  and fixed-bucket latency histograms (p50/p95/p99), keyed by
  channel/connection/space.  The canonical home of the streaming-statistics
  helpers formerly in ``repro.util.stats`` (shim removed in PR 6).
* :mod:`repro.obs.export` — **exporters**: Chrome ``trace_event`` JSON
  (loadable in Perfetto / ``chrome://tracing``; one track per thread per
  address space, spans colored by op), the space-time lag report
  (per-thread virtual time vs. wall clock, paper §8), and text/JSON dumps.

PR 10 adds the **distributed telemetry plane** on top:

* :mod:`repro.obs.collect` — cross-process harvest: a ``ProcCluster``
  drains every child's rings + registry over a control RPC, estimates each
  child's monotonic-clock offset, and merges everything into one Perfetto
  document with cross-process flow arrows (CLF send/recv pairs stitched by
  per-message flow ids).
* :mod:`repro.obs.promtext` — Prometheus text exposition (format 0.0.4)
  over stdlib ``http.server`` (``python -m repro.obs serve``), plus the
  ``stmtop`` terminal view (``python -m repro.obs top``).

Command line: ``python -m repro.obs`` (see :mod:`repro.obs.cli`), plus a
``--trace OUT.json`` flag on ``examples/vision_pipeline.py`` and on the
benchmark suite (``pytest benchmarks --trace OUT.json``).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.obs.collect": (
        "ClusterTelemetry",
        "ProcessTelemetry",
        "estimate_clock_offset",
        "snapshot_local",
    ),
    "repro.obs.events": (
        "Recorder",
        "Ring",
        "TraceEvent",
        "armed",
        "disable",
        "enable",
        "get_recorder",
        "trace",
    ),
    "repro.obs.export": (
        "add_flow_events",
        "lag_report",
        "lag_report_from_doc",
        "render_lag_report",
        "summarize_trace",
        "to_chrome_trace",
        "validate_chrome_trace",
        "write_chrome_trace",
    ),
    "repro.obs.metrics": (
        "REGISTRY",
        "Counter",
        "Gauge",
        "Histogram",
        "MetricsRegistry",
        "OnlineStats",
        "dump_as_snapshot",
        "merge_dumps",
        "percentile",
        "summarize",
    ),
    "repro.obs.promtext": (
        "CONTENT_TYPE",
        "ExpositionServer",
        "render_prometheus",
        "render_top",
    ),
})

__all__ = [
    "CONTENT_TYPE",
    "REGISTRY",
    "ClusterTelemetry",
    "Counter",
    "ExpositionServer",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "OnlineStats",
    "ProcessTelemetry",
    "Recorder",
    "Ring",
    "TraceEvent",
    "add_flow_events",
    "armed",
    "disable",
    "dump_as_snapshot",
    "enable",
    "estimate_clock_offset",
    "get_recorder",
    "lag_report",
    "lag_report_from_doc",
    "merge_dumps",
    "percentile",
    "render_lag_report",
    "render_prometheus",
    "render_top",
    "snapshot_local",
    "summarize",
    "summarize_trace",
    "to_chrome_trace",
    "trace",
    "validate_chrome_trace",
    "write_chrome_trace",
]
