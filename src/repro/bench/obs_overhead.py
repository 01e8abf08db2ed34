"""Overhead of the observability layer on the STM hot path (the PR-5 gate).

Three measurements:

1. the local put/get/consume micro-op cycle with tracing **disabled** — the
   default state every production run sees;
2. the same cycle with tracing **enabled** (per-thread ring buffers live);
3. the raw cost of one disabled-mode guard — the ``events.recorder``
   module-global read each instrumentation point performs before bailing.

The acceptance criterion ("<5% put/get overhead with STMOBS unset")
compares the disabled path against the pre-instrumentation baseline.  That
baseline no longer exists in the tree, so the check bounds the added cost
analytically: a disabled cycle pays exactly :data:`GUARDS_PER_CYCLE`
guard reads, so the overhead fraction is::

    guards_per_cycle * guard_ns  /  cycle_disabled_ns

which overestimates (the guard microbenchmark includes its own loop
bookkeeping).  Both the cycle and the guard run wholly on the calling
thread, so both are timed in that thread's CPU time
(``time.thread_time_ns``): time the thread spends descheduled on a busy
host does not count against either mode.  ``python -m repro.bench.obs_overhead --check`` exits
non-zero when the bound exceeds 5% — CI runs exactly that.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.obs import events as obs_events
from repro.runtime import Cluster
from repro.stm import STM

__all__ = [
    "GUARDS_PER_CYCLE",
    "measure_cycle_us",
    "measure_guard_ns",
    "run",
    "check",
]

#: Disabled-mode guard reads on one put + get + consume + set_virtual_time
#: cycle: one per facade op (3) and one in set_virtual_time.
GUARDS_PER_CYCLE = 4


def measure_cycle_us(items: int = 2000, *, payload_size: int = 128) -> float:
    """Microseconds of the calling thread's CPU time per local
    put/get/consume cycle (single address space).

    Mirrors ``benchmarks/test_micro_ops.py::test_facade_local_put_get_consume``
    — the workload the <5% criterion is defined over.  Tracing state is
    whatever the caller armed (or didn't).
    """
    with Cluster(n_spaces=1, gc_period=None) as cluster:
        me = cluster.space(0).adopt_current_thread(virtual_time=0)
        try:
            stm = STM(cluster.space(0))
            chan = stm.create_channel("obs-overhead")
            with chan.attach_output() as out, chan.attach_input() as inp:
                payload = bytes(payload_size)
                for i in range(min(100, items)):  # warmup
                    me.set_virtual_time(i)
                    out.put(i, payload)
                    inp.get(i)
                    inp.consume(i)
                base = min(100, items)
                t0 = time.thread_time_ns()
                for i in range(base, base + items):
                    me.set_virtual_time(i)
                    out.put(i, payload)
                    inp.get(i)
                    inp.consume(i)
                elapsed_ns = time.thread_time_ns() - t0
        finally:
            me.exit()
    return elapsed_ns / items / 1e3


def measure_guard_ns(reps: int = 200_000) -> float:
    """Nanoseconds per disabled-mode instrumentation guard.

    Times the exact disabled fast path — read the ``events.recorder``
    module global, compare against None — including the measuring loop's
    own bookkeeping, so the figure is an overestimate.
    """
    t0 = time.thread_time_ns()
    for _ in range(reps):
        if obs_events.recorder is not None:  # pragma: no cover - never armed
            raise RuntimeError("guard benchmark must run disarmed")
    return (time.thread_time_ns() - t0) / reps


def run(items: int = 2000, guard_reps: int = 200_000) -> dict:
    """Measure disabled/enabled cycles and the guard bound; return a report."""
    was_armed = obs_events.disable()
    try:
        guard_ns = min(measure_guard_ns(guard_reps) for _ in range(3))
        # Min-of-5 per mode, the modes interleaved: a slow spell of a loaded
        # host then lands on both modes alike, and one scheduler hiccup
        # inflating a single short run cannot trip the enabled-mode limit.
        disabled, enabled = [], []
        for _ in range(5):
            disabled.append(measure_cycle_us(items))
            obs_events.enable()
            try:
                enabled.append(measure_cycle_us(items))
            finally:
                obs_events.disable()
        disabled_us, enabled_us = min(disabled), min(enabled)
    finally:
        obs_events.disable()
        if was_armed is not None:  # pragma: no cover - caller had it armed
            obs_events.enable()
    disabled_ns = disabled_us * 1000.0
    return {
        "items": items,
        "cycle_disabled_us": disabled_us,
        "cycle_enabled_us": enabled_us,
        "guard_ns": guard_ns,
        "guards_per_cycle": GUARDS_PER_CYCLE,
        "disabled_overhead_bound_pct":
            100.0 * GUARDS_PER_CYCLE * guard_ns / disabled_ns,
        "enabled_overhead_pct":
            100.0 * (enabled_us - disabled_us) / disabled_us,
    }


def check(report: dict, limit_pct: float = 5.0) -> list[str]:
    """The CI gate; [] means the overhead criteria hold."""
    problems: list[str] = []
    bound = report["disabled_overhead_bound_pct"]
    if bound >= limit_pct:
        problems.append(
            f"disabled-mode overhead bound {bound:.3f}% >= {limit_pct}% "
            f"({report['guards_per_cycle']} guards x "
            f"{report['guard_ns']:.1f} ns on a "
            f"{report['cycle_disabled_us']:.1f} us cycle)"
        )
    # Sanity, not a hard perf gate: armed tracing must not wreck the cycle.
    # Nominal is well under 100% on idle hardware, but the measurement
    # swings tens of points with host load; the limit leaves that headroom
    # while still catching a real regression (a lock or an allocation per
    # ring append would blow far past it).
    if report["enabled_overhead_pct"] > 150.0:
        problems.append(
            f"enabled-mode tracing wrecks the cycle "
            f"({report['enabled_overhead_pct']:.1f}%, limit 150%)"
        )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.obs_overhead",
        description="Measure observability overhead on the STM micro-op cycle.",
    )
    parser.add_argument("--items", type=int, default=2000)
    parser.add_argument("--guard-reps", type=int, default=200_000)
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless the <5%% disabled bound holds")
    parser.add_argument("--limit-pct", type=float, default=5.0)
    args = parser.parse_args(argv)
    report = run(items=args.items, guard_reps=args.guard_reps)
    print(json.dumps(report, indent=2))
    if args.check:
        problems = check(report, args.limit_pct)
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        if problems:
            return 1
        print(
            f"OK: disabled-mode bound "
            f"{report['disabled_overhead_bound_pct']:.3f}% < "
            f"{args.limit_pct}%",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
