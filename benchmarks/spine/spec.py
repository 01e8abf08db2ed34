"""The benchmark's vocabulary: workloads and every metric by name.

``BENCHMARK.json`` at the repository root is the contract; this module is
the same list in a form the harness can use (units for the report, bounds
for ``--compare``), plus what the JSON has no room for: which end-to-end
metric each per-layer metric should move, and on which workload.  A test
checks that the two agree.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "RUN_SECONDS",
    "WORKLOAD_NAMES",
    "Metric",
    "benchmark_json",
    "unit_of",
]

WORKLOAD_NAMES = ("local_cycle", "aio_pingpong", "remote_frames", "kiosk", "gc_fanout")


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: end-to-end: allowed worsening as a share of the parent's median.
    bound: float | None = None
    #: per-layer: the end-to-end metric(s) it should move ...
    moves: str = ""
    #: ... on which workload(s); "-" = moves none, kept so the layer has a row.
    on: str = ""


#: bound = max(ISSUE 13's value, 2 x the largest spread of ten same-code runs),
#: capped at the contract's 0.25; the runs are listed in README.md.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("item_cost_cal", "cal/item", "lower", 0.09),
    Metric("item_latency_p50_cal", "cal", "lower", 0.20),
    Metric("item_latency_p95_cal", "cal", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.05),
)

_COST = "item_cost_cal"
_COST_P50 = "item_cost_cal, item_latency_p50_cal"
_REMOTE = "remote_frames, kiosk"


def _layer(name, unit, moves, on, better="lower") -> Metric:
    return Metric(name, unit, better, None, moves, on)


PER_LAYER = (
    # -- core ----------------------------------------------------------
    _layer("core.kernel.put_ns", "ns", _COST, "local_cycle"),
    _layer("core.kernel.get_ns", "ns", _COST, "local_cycle"),
    _layer("core.kernel.consume_ns", "ns", _COST, "local_cycle"),
    _layer("core.kernel.get_latest_unseen_ns", "ns", _COST, "gc_fanout"),
    _layer("core.kernel.consume_until_ns", "ns", _COST, "gc_fanout"),
    _layer("core.kernel.attach_detach_ns", "ns", _COST, "gc_fanout"),
    _layer("core.kernel.unconsumed_min_us.c512", "us", _COST, "gc_fanout"),
    _layer("core.kernel.unconsumed_min_us.c10k", "us", _COST, "gc_fanout"),
    _layer("core.kernel.collect_below_us", "us", _COST, "gc_fanout"),
    _layer("core.payload.encode_decode_ns.small", "ns", _COST, "local_cycle"),
    _layer("core.payload.encode_decode_us.frame", "us", _COST, "remote_frames"),
    # -- runtime -------------------------------------------------------
    _layer("runtime.space.put_ns", "ns", _COST_P50, "local_cycle"),
    _layer("runtime.space.get_ns", "ns", _COST_P50, "local_cycle"),
    _layer("runtime.space.consume_ns", "ns", _COST_P50, "local_cycle"),
    _layer("runtime.space.lock_acquires_per_cycle", "count", _COST_P50, "local_cycle"),
    _layer("runtime.space.park_wake_us", "us", _COST_P50, "aio_pingpong"),
    _layer("runtime.aio.park_wake_us", "us", _COST_P50, "aio_pingpong"),
    _layer("runtime.space.rpc_rtt_us", "us", _COST_P50, "gc_fanout"),
    _layer("runtime.procs.rpc_rtt_us", "us", _COST_P50, _REMOTE),
    _layer("runtime.procs.spawn_s", "s", "setup_s", _REMOTE),
    _layer("runtime.gc.epoch_ms_p50", "ms", "item_cost_cal, peak_rss_mb", "gc_fanout"),
    _layer("runtime.gc.reclaimed_per_epoch", "count", "item_cost_cal, peak_rss_mb",
           "gc_fanout", "higher"),
    _layer("runtime.gc.held_items_max", "count", "item_cost_cal, peak_rss_mb",
           "gc_fanout"),
    # -- transport -----------------------------------------------------
    _layer("transport.serialization.encode_us.frame", "us", _COST_P50, _REMOTE),
    _layer("transport.serialization.decode_us.frame", "us", _COST_P50, _REMOTE),
    _layer("transport.serialization.encode_ns.small", "ns", _COST_P50, _REMOTE),
    _layer("transport.serialization.decode_ns.small", "ns", _COST_P50, _REMOTE),
    _layer("transport.serialization.copies_per_byte", "count", _COST_P50, _REMOTE),
    _layer("transport.packets.fragment_us.frame", "us", _COST_P50, "gc_fanout"),
    _layer("transport.packets.reassemble_us.frame", "us", _COST_P50, "gc_fanout"),
    _layer("transport.shm_ring.write_read_us.small", "us", _COST_P50, _REMOTE),
    _layer("transport.shm_ring.write_read_us.frame", "us", _COST_P50, _REMOTE),
    _layer("transport.sockets.oneway_us.small", "us", _COST_P50, _REMOTE),
    _layer("transport.sockets.oneway_us.frame", "us", _COST_P50, _REMOTE),
    _layer("transport.wire_bytes_per_item", "B", _COST_P50, _REMOTE),
    _layer("transport.clf.oneway_us.small", "us", _COST_P50, "gc_fanout"),
    _layer("transport.clf.oneway_us.frame", "us", _COST_P50, "gc_fanout"),
    # -- stm -----------------------------------------------------------
    _layer("stm.api.facade_ns_per_cycle", "ns", _COST, "local_cycle"),
    _layer("stm.aio.facade_ns_per_cycle", "ns", _COST, "aio_pingpong"),
    # -- kiosk ---------------------------------------------------------
    _layer("kiosk.render_ms", "ms", "setup_s", "kiosk"),
    _layer("kiosk.analyze_ms", "ms", _COST_P50, "kiosk"),
    _layer("kiosk.decide_us", "us", _COST_P50, "kiosk"),
    _layer("kiosk.inline_ms_per_frame", "ms", _COST_P50, "kiosk"),
    _layer("kiosk.stm_overhead_share", "ratio", _COST_P50, "kiosk"),
    *(
        _layer(f"kiosk.{kind}_share.{stage}", "ratio", _COST_P50, "kiosk")
        for kind in ("busy", "blocked")
        for stage in ("digitizer", "tracker", "decision")
    ),
    _layer("kiosk.threads_item_cost_cal", "cal/item", _COST, "kiosk"),
    # -- sim, obs: move no end-to-end metric ------------------------------
    _layer("sim.fig10_cycle_us.b8", "us", "-", "-"),
    _layer("sim.engine.events_per_s", "1/s", "-", "-", "higher"),
    _layer("sim.kiosk_wall_ms_per_frame", "ms", "-", "-"),
    _layer("obs.enabled_overhead_pct", "%", "-", "-"),
    # -- bench: the harness's own raw numbers, per workload -----------------
    _layer("bench.cal_unit_ns", "ns", "-", "-"),
    _layer("bench.items_per_s", "1/s", "-", "-", "higher"),
    _layer("bench.item_cost_us", "us", "-", "-"),
    _layer("bench.item_latency_p50_us", "us", "-", "-"),
    _layer("bench.item_latency_p95_us", "us", "-", "-"),
    _layer("bench.payload_mb_per_s", "MB/s", "-", "-", "higher"),
    _layer("bench.cpu_us_per_item", "us", "-", "-"),
    _layer("bench.generator_late_p99_us", "us", "-", "-"),
    _layer("bench.skipped_share", "ratio", "-", "-"),
    _layer("bench.failed_share", "ratio", "-", "-"),
    _layer("bench.held_items_after", "count", "-", "-"),
    _layer("bench.windows", "count", "-", "-", "higher"),
    _layer("bench.samples", "count", "-", "-", "higher"),
    _layer("bench.trace_overhead_pct", "%", "-", "-"),
    # -- budget: self time per item from the traced run ---------------------
    *(
        _layer(f"budget.{layer}.self_us", "us", _COST_P50, "the workload run")
        for layer in (
            "stm", "runtime.space", "runtime.rpc", "runtime.gc", "core.kernel",
            "core.payload", "transport.serialization", "transport.packets",
            "transport.medium", "kiosk.compute",
        )
    ),
    _layer("budget.wait_us", "us", "item_latency_p50_cal", "the workload run"),
    _layer("budget.unattributed_us", "us", "-", "-"),
    _layer("budget.spans_per_item", "count", "-", "-"),
    _layer("budget.core.kernel.calls_per_item", "count", _COST, "the workload run"),
    _layer("budget.runtime.rpc.calls_per_item", "count", _COST, "the workload run"),
    _layer("budget.transport.medium.calls_per_item", "count", _COST,
           "the workload run"),
)

_UNITS = {m.name: m.unit for m in (*END_TO_END, *PER_LAYER)}


def unit_of(metric: str) -> str:
    return _UNITS[metric]


#: how long one contract run measures.  The driver makes 4 + 22 x 5 runs and
#: all of them, set-ups included, must end within 3 420 s, i.e. 30 s a run;
#: at 20 s a run averages 22.5 s here.
RUN_SECONDS = 20


def benchmark_json(whys: dict[str, str]) -> dict:
    """The document ``BENCHMARK.json`` must hold (``whys``: name -> why)."""
    return {
        "command": ["python3", "benchmarks/spine/run.py"],
        "paths": ["benchmarks/spine"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": whys[n]} for n in WORKLOAD_NAMES],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
