"""The event-tracing layer: thread-local ring buffers of structured events.

Design constraints (in priority order):

1. **Near-zero cost when off.**  Every instrumentation point in the runtime
   reads one module global (``events.recorder``) and tests it against
   ``None``; nothing else happens in the disabled path.  The overhead guard
   in ``tests/obs/test_overhead.py`` and the CI bench smoke keep this
   honest (<5% on the micro-op put/get cycle).
2. **No cross-thread contention when on.**  Each emitting thread writes to
   its own fixed-capacity ring buffer; the only lock is taken once per
   thread, at ring creation.  A full ring overwrites its oldest events and
   counts them (``Ring.overwritten``) — tracing never blocks the traced.
3. **Structured, exportable events.**  Events are plain tuples in the
   Chrome ``trace_event`` spirit: complete spans (``"X"``), instants
   (``"i"``), and counter samples (``"C"``), each carrying a category, a
   name, perf-counter nanoseconds, an address-space id (the trace "pid"),
   and a small args dict.  :mod:`repro.obs.export` turns them into
   Perfetto-loadable JSON, lag reports, and text dumps.

Arming: set ``STMOBS=1`` in the environment (read at import, like
``STMSAN``), call :func:`enable`/:func:`disable`, or use the :func:`trace`
context manager, which also writes the Chrome trace on exit::

    from repro.obs import trace
    with trace("out.json"):
        run_fleet(cluster)
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

__all__ = [
    "TraceEvent",
    "Ring",
    "Recorder",
    "recorder",
    "get_recorder",
    "armed",
    "enable",
    "disable",
    "trace",
    "DEFAULT_CAPACITY",
]

#: A recorded event: (phase, category, name, ts_ns, dur_ns, pid, args).
#: ``phase`` is "X" (complete span), "i" (instant), or "C" (counter sample);
#: ``ts_ns``/``dur_ns`` are perf-counter nanoseconds; ``pid`` is the address
#: space id (or -1 when unknown); ``args`` is a small dict or None.
TraceEvent = tuple

#: Events retained per thread before the ring wraps.
DEFAULT_CAPACITY = 1 << 16


class Ring:
    """Fixed-capacity per-thread event buffer (oldest overwritten first)."""

    __slots__ = ("capacity", "tid", "thread_name", "_buf", "_next",
                 "overwritten")

    def __init__(self, capacity: int, tid: int, thread_name: str):
        if capacity < 1:
            raise ValueError(f"ring capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.tid = tid
        self.thread_name = thread_name
        self._buf: list[TraceEvent] = []
        self._next = 0
        self.overwritten = 0

    def append(self, event: TraceEvent) -> None:
        buf = self._buf
        if len(buf) < self.capacity:
            buf.append(event)
        else:
            buf[self._next] = event
            self._next += 1
            if self._next == self.capacity:
                self._next = 0
            self.overwritten += 1

    def __len__(self) -> int:
        return len(self._buf)

    def events(self) -> list[TraceEvent]:
        """Buffered events in emission order."""
        if len(self._buf) < self.capacity or self._next == 0:
            return list(self._buf)
        return self._buf[self._next:] + self._buf[: self._next]


class Recorder:
    """Collects events from all threads into per-thread rings.

    ``clock`` returns nanoseconds (``time.perf_counter_ns`` by default);
    tests inject a deterministic counter to produce golden traces.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        clock: Callable[[], int] = time.perf_counter_ns,
    ):
        self.capacity = capacity
        self.clock = clock
        #: perf-counter origin: exported timestamps are relative to this.
        self.t0_ns = clock()
        #: wall-clock epoch seconds at the origin (for human-readable dumps).
        self.wall_t0 = time.time()
        self._tls = threading.local()
        self._rings: list[Ring] = []
        self._lock = threading.Lock()

    # -- hot path -----------------------------------------------------------
    def _ring(self) -> Ring:
        ring = getattr(self._tls, "ring", None)
        if ring is None:
            os_thread = threading.current_thread()
            ring = Ring(self.capacity, os_thread.ident or 0, os_thread.name)
            with self._lock:
                self._rings.append(ring)
            self._tls.ring = ring
        return ring

    def now(self) -> int:
        """Nanosecond timestamp for a span start (pair with :meth:`complete`)."""
        return self.clock()

    def complete(self, cat: str, name: str, t0_ns: int, pid: int = -1,
                 **args: Any) -> int:
        """Record a complete span started at ``t0_ns``; returns its ns duration."""
        dur = self.clock() - t0_ns
        self._ring().append(("X", cat, name, t0_ns, dur, pid, args or None))
        return dur

    def instant(self, cat: str, name: str, pid: int = -1, **args: Any) -> None:
        self._ring().append(
            ("i", cat, name, self.clock(), 0, pid, args or None)
        )

    def counter(self, cat: str, name: str, value: float, pid: int = -1,
                series: str = "value") -> None:
        """Record one sample of a per-thread counter track."""
        self._ring().append(
            ("C", cat, name, self.clock(), 0, pid, {series: value})
        )

    # -- inspection ---------------------------------------------------------
    def rings(self) -> list[Ring]:
        with self._lock:
            return list(self._rings)

    def events(self) -> list[TraceEvent]:
        """All buffered events, globally ordered by timestamp."""
        merged: list[TraceEvent] = []
        for ring in self.rings():
            merged.extend(ring.events())
        merged.sort(key=lambda ev: ev[3])
        return merged

    def spans(self, name: str | None = None, cat: str | None = None) -> list:
        return [
            ev for ev in self.events()
            if ev[0] == "X"
            and (name is None or ev[2] == name)
            and (cat is None or ev[1] == cat)
        ]

    def overwritten(self) -> int:
        return sum(ring.overwritten for ring in self.rings())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Recorder {len(self.rings())} threads, "
            f"{sum(len(r) for r in self.rings())} events>"
        )


#: The armed recorder, or None when tracing is off.  Instrumentation points
#: read this exact global: ``rec = events.recorder`` / ``if rec is not None``.
recorder: Recorder | None = None

_arm_lock = threading.Lock()


def armed() -> bool:
    return recorder is not None


def get_recorder() -> Recorder | None:
    """The currently armed recorder (None when tracing is off)."""
    return recorder


def enable(
    capacity: int = DEFAULT_CAPACITY,
    clock: Callable[[], int] = time.perf_counter_ns,
) -> Recorder:
    """Arm tracing; returns the (new or already-armed) recorder."""
    global recorder
    with _arm_lock:
        if recorder is None:
            recorder = Recorder(capacity=capacity, clock=clock)
        return recorder


def disable() -> Recorder | None:
    """Disarm tracing; returns the recorder so its events can be exported."""
    global recorder
    with _arm_lock:
        rec, recorder = recorder, None
        return rec


@contextmanager
def trace(
    path: str | os.PathLike | None = None,
    capacity: int = DEFAULT_CAPACITY,
) -> Iterator[Recorder]:
    """Arm tracing for a block; write a Chrome trace to ``path`` on exit.

    Yields the recorder, which stays readable after the block (e.g. to
    build a lag report from the same run).  Nested use shares the outer
    recorder and leaves it armed.
    """
    nested = recorder is not None
    rec = enable(capacity=capacity)
    try:
        yield rec
    finally:
        if not nested:
            disable()
        if path is not None:
            from repro.obs.export import write_chrome_trace

            write_chrome_trace(path, rec)


def _env_armed(value: str | None) -> bool:
    return (value or "").strip().lower() not in ("", "0", "false", "no", "off")


if _env_armed(os.environ.get("STMOBS")):  # pragma: no cover - env-dependent
    enable()
