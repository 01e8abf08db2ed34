"""Measurement plumbing shared by every workload.

What makes the numbers repeat on a small shared host:

* **Pin** — :func:`pin` restricts the process (children inherit it) to one
  allowed CPU *before* any cluster exists.  On one CPU a closed loop's
  throughput is the inverse of total CPU work per item, so a saving in any
  layer shows, and cross-process cycles stop being bimodal on whether two
  sides happened to share a core.
* **Interleaved calibration** — :func:`cal_ns` times a fixed pure-Python
  kernel right before and right after every measurement window; the
  window's *cal unit* is the mean of the two.  Per-item cost and latency
  percentiles of a window are divided by its own cal unit, so a host that
  runs 1.5x slower for a few seconds cancels out.  The kernel is timed in
  thread CPU time, which stays meaningful while the workload's other
  processes share the pinned CPU.
* **Median over windows** — every reported metric is the median of the
  per-window values (:func:`summarize`), so a burst of host noise spoils a
  few windows, not the result.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from repro.obs.metrics import percentile

__all__ = [
    "CAL_UNITS_PER_KERNEL",
    "OpenWindow",
    "SPIN_ITERS",
    "TAIL_Q",
    "Windows",
    "cal_ns",
    "cluster_pids",
    "cpu_kept_awake",
    "cpu_ns",
    "fingerprint",
    "peak_rss_mb",
    "pin",
    "spin",
    "summarize",
    "tail_q",
]

#: iterations of the calibration kernel (~3 ms on the reference sandbox).
SPIN_ITERS = 20_000
#: the tail percentile every workload can support: the paced kiosk phase
#: holds 450 frames per run, and p95 is the highest round percentile that
#: still has ten samples beyond it there (p99 would have four).
TAIL_Q = 95.0

_TICK_NS = 1e9 / os.sysconf("SC_CLK_TCK")


def pin(cpus: int = 1) -> dict:
    """Restrict this process (and every child) to ``cpus`` allowed CPUs."""
    allowed = sorted(os.sched_getaffinity(0))
    chosen = allowed[-cpus:]
    os.sched_setaffinity(0, chosen)
    return {"cpu_count": os.cpu_count(), "cpus_used": len(chosen)}


def spin(iters: int = SPIN_ITERS) -> int:
    """The calibration kernel: the ``_spin`` LCG loop of ``bench/pr6_procs``.

    Pure Python and GIL-holding, like the program under test; no memory
    traffic to speak of, so it tracks the core's speed, not the cache's.
    """
    acc = 1
    for i in range(iters):
        acc = (acc * 1103515245 + i) % 2147483647
    return acc


def cal_ns() -> int:
    """Thread CPU nanoseconds one run of the calibration kernel takes now."""
    t0 = time.thread_time_ns()
    spin()
    return time.thread_time_ns() - t0


#: One *cal unit* is a thousandth of the kernel's time (~3 us here), which
#: puts a local put/get/consume cycle at ~6 cal units.
CAL_UNITS_PER_KERNEL = 1000.0


_IDLE_BURNER = (
    "import os\n"
    "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
    "parent = os.getppid()\n"
    "while os.getppid() == parent:  # outlive a killed harness by one lap\n"
    "    for _ in range(1_000_000): pass\n"
)


@contextlib.contextmanager
def cpu_kept_awake():
    """Keep the pinned CPU out of idle states while an open loop runs.

    A ``SCHED_IDLE`` busy loop in a child process (it inherits the pin) gets
    the CPU only when nothing else wants it and loses it the instant
    anything does.  Without it the CPU halts for ~25 ms between paced
    frames, and what a frame's latency then measures is the hypervisor's
    wake-up path and a cold cache: the paced kiosk p50 spread over ten
    same-code runs is 11-14 % without the burner and 4-5 % with it.
    """
    proc = subprocess.Popen([sys.executable, "-S", "-c", _IDLE_BURNER])
    try:
        yield
    finally:
        proc.kill()
        proc.wait()


def tail_q(n: int) -> float:
    """:data:`TAIL_Q`, lowered until ten samples lie beyond it."""
    if n <= 10:
        raise ValueError(f"{n} samples cannot support a tail percentile")
    return min(TAIL_Q, 100.0 * (1.0 - 10.0 / n))


@dataclass
class Windows:
    """Per-window rows of one measured phase.

    One row per window: items completed, wall nanoseconds they took, the
    window's cal unit, and the window's own latency percentiles (raw ns).
    """

    items: list[int] = field(default_factory=list)
    wall_ns: list[int] = field(default_factory=list)
    cal_unit_ns: list[float] = field(default_factory=list)
    p50_ns: list[float] = field(default_factory=list)
    tail_ns: list[float] = field(default_factory=list)
    samples: int = 0

    def add(self, items: int, wall_ns: int, cal0: int, cal1: int,
            latencies_ns: list[int]) -> None:
        """Close a window; ``latencies_ns`` may be empty (cost-only phase)."""
        if items <= 0 or wall_ns <= 0:
            return  # nothing completed: the window says nothing
        self.items.append(items)
        self.wall_ns.append(wall_ns)
        self.cal_unit_ns.append((cal0 + cal1) / 2.0 / CAL_UNITS_PER_KERNEL)
        n = len(latencies_ns)
        if n > 10:
            latencies_ns.sort()
            self.p50_ns.append(percentile(latencies_ns, 50.0))
            self.tail_ns.append(percentile(latencies_ns, tail_q(n)))
            self.samples += n
        else:
            self.p50_ns.append(float("nan"))
            self.tail_ns.append(float("nan"))

    def __len__(self) -> int:
        return len(self.items)


class OpenWindow:
    """One calibrated window over a stream of items stamped at creation.

    An item created before the window opened sat through the calibration
    kernel, so it counts for neither latency nor cost: the window's clock
    starts when the last such item completes.
    """

    __slots__ = ("cal0", "latencies", "t_end", "t_first", "t_last", "t_open")

    def __init__(self, length_ns: int):
        self.cal0 = cal_ns()
        self.latencies: list[int] = []
        self.t_open = self.t_first = self.t_last = time.perf_counter_ns()
        self.t_end = self.t_open + length_ns

    def item(self, stamp_ns: int, done_ns: int) -> bool:
        """Count an item completed at ``done_ns``; False once the window is over."""
        if stamp_ns >= self.t_open:
            self.latencies.append(done_ns - stamp_ns)
        else:
            self.t_first = done_ns
        self.t_last = done_ns
        return done_ns < self.t_end

    def close(self, windows: Windows, with_latency: bool = True) -> None:
        windows.add(
            len(self.latencies), self.t_last - self.t_first, self.cal0, cal_ns(),
            self.latencies if with_latency else [],
        )


def _median(values) -> float:
    clean = [v for v in values if v == v]  # drop NaN
    return statistics.median(clean) if clean else float("nan")


def summarize(cost: Windows, latency: Windows | None = None) -> dict[str, float]:
    """Median-over-windows metrics of a phase, normalised and raw.

    ``latency`` names the windows the latency metrics come from when they
    differ from the cost windows (the kiosk's paced phase); by default one
    set of windows yields both.
    """
    latency = cost if latency is None else latency
    per_item = [w / n for w, n in zip(cost.wall_ns, cost.items, strict=True)]
    seconds = sum(cost.wall_ns) / 1e9
    return {
        "item_cost_cal": _median(
            c / u for c, u in zip(per_item, cost.cal_unit_ns, strict=True)
        ),
        "item_latency_p50_cal": _median(
            p / u for p, u in zip(latency.p50_ns, latency.cal_unit_ns, strict=True)
        ),
        "item_latency_p95_cal": _median(
            p / u for p, u in zip(latency.tail_ns, latency.cal_unit_ns, strict=True)
        ),
        "bench.cal_unit_ns": _median(cost.cal_unit_ns),
        "bench.items_per_s": sum(cost.items) / seconds if seconds else 0.0,
        "bench.item_cost_us": _median(per_item) / 1e3,
        "bench.item_latency_p50_us": _median(latency.p50_ns) / 1e3,
        "bench.item_latency_p95_us": _median(latency.tail_ns) / 1e3,
        "bench.windows": float(len(cost)),
        "bench.samples": float(latency.samples),
    }


# ----------------------------------------------------------------------
# process accounting (the harness process plus the cluster's children)
# ----------------------------------------------------------------------
def cluster_pids() -> list[int]:
    """This process and every live multiprocessing child (the cluster)."""
    return [os.getpid(), *(p.pid for p in multiprocessing.active_children())]


def peak_rss_mb(pids: list[int]) -> float:
    """Sum over ``pids`` of peak resident set size (VmHWM), in MB."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0


def cpu_ns(pids: list[int]) -> float:
    """Sum over ``pids`` of user+system CPU time so far, in nanoseconds."""
    ticks = 0
    for pid in pids:
        with open(f"/proc/{pid}/stat") as fh:
            # fields after the parenthesised command name; utime, stime are
            # fields 14 and 15 of the line, i.e. 11 and 12 after the ")".
            rest = fh.read().rsplit(")", 1)[1].split()
        ticks += int(rest[11]) + int(rest[12])
    return ticks * _TICK_NS


def fingerprint() -> dict:
    """What a reader needs to judge whether two result files are comparable."""
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel": platform.release(),
        "machine": platform.machine(),
    }
