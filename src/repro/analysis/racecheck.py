"""Vector-clock race detector (rules STM304/STM305).

A FastTrack-style happens-before detector layered on the STMSAN lock
instrumentation.  Every thread carries a vector clock; lock operations
induce the happens-before edges:

* ``release(L)`` publishes the releasing thread's clock into ``L`` and
  advances the thread's own component (the release starts a new epoch);
* ``acquire(L)`` joins ``L``'s clock into the acquiring thread's.

Monitored shared variables are the :class:`~repro.core.channel_state.
ChannelKernel` instances (every mutator is a *write*, ``unconsumed_min``
and friends are *reads* — wired in by :func:`~repro.analysis.sanitizer.
guard_kernel`) plus any state a test registers explicitly via
:func:`on_read`/:func:`on_write`.  (``unconsumed_min`` is monitored as a read
because it never changes what the channel holds, but it is not a pure one: it
repairs the kernel's watermark index, so it too belongs under the channel lock
— where every caller has it, and where an unlocked call shows up as STM304
against the next write.)  An access unordered with a previous
access of the same variable is a race:

* write/write unordered → **STM305** (the kernel's sequential state
  machine driven concurrently);
* read/write unordered  → **STM304** (classic data race).

This is *precise* for the monitored variables: a reported race is a real
absence of a happens-before edge, not a heuristic (no false positives from
lock-set approximations — a variable consistently protected by *different*
locks at different times is fine as long as the lock handoffs order the
accesses).  Thread start/join edges are not modeled; workloads must order
pre-fork initialization through a lock (the runtime does — every kernel
touch sits under the channel lock).

Like the sanitizer, the detector records findings and lets the workload
finish; harnesses assert ``findings() == []`` afterwards.  Enable with
:func:`enable` (implies the sanitizer) or ``STMSAN=race``.
"""

from __future__ import annotations

import itertools
import sys
import threading
from typing import Any

from repro.analysis.findings import Finding

__all__ = [
    "VectorClock",
    "enable",
    "disable",
    "enabled",
    "findings",
    "lock_acquired",
    "lock_released",
    "on_read",
    "on_write",
    "reset",
    "run_builtin_workload",
]

_enabled = False
_meta = threading.Lock()  # guards every table below; never held while
                          # taking a runtime lock (we run inside SanLock's
                          # own critical paths)
_findings: list[Finding] = []
_seen: set[tuple[str, str]] = set()


class VectorClock:
    """A sparse vector clock: logical thread id -> logical time."""

    __slots__ = ("clocks",)

    def __init__(self, clocks: dict[int, int] | None = None):
        self.clocks = dict(clocks) if clocks else {}

    def time_of(self, tid: int) -> int:
        return self.clocks.get(tid, 0)

    def tick(self, tid: int) -> None:
        self.clocks[tid] = self.clocks.get(tid, 0) + 1

    def join(self, other: "VectorClock") -> None:
        for tid, clock in other.clocks.items():
            if clock > self.clocks.get(tid, 0):
                self.clocks[tid] = clock

    def copy(self) -> "VectorClock":
        return VectorClock(self.clocks)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = ", ".join(f"T{t}:{c}" for t, c in sorted(self.clocks.items()))
        return f"<VC {inner}>"


class _Epoch:
    """One recorded access: (thread, clock at access, description)."""

    __slots__ = ("tid", "clock", "site")

    def __init__(self, tid: int, clock: int, site: str):
        self.tid = tid
        self.clock = clock
        self.site = site


class _VarState:
    """Per-variable race-detection state: last write + read map."""

    __slots__ = ("name", "last_write", "reads")

    def __init__(self, name: str):
        self.name = name
        self.last_write: _Epoch | None = None
        self.reads: dict[int, _Epoch] = {}


_thread_vc: dict[int, VectorClock] = {}
# Published lock clocks and per-variable states live *on* the instrumented
# objects (``_rc_vc`` / ``_rc_state`` attributes) so their lifetime matches
# the object's: an id()-keyed table would alias recycled ids across a long
# run and invent races between unrelated objects.  Objects that reject
# attributes (slotted classes outside our control) fall back to these maps
# — a deliberate precision/lifetime trade-off for foreign types.
_lock_vc_fallback: dict[int, VectorClock] = {}
_vars_fallback: dict[int, _VarState] = {}


def enabled() -> bool:
    return _enabled


def enable() -> None:
    """Turn race detection on (also enables the sanitizer, which owns the
    lock and kernel instrumentation the detector feeds on)."""
    global _enabled
    from repro.analysis import sanitizer

    if not sanitizer.enabled():
        sanitizer.enable()
    sanitizer.racecheck = sys.modules[__name__]  # SanLock and guard_kernel feed us
    _enabled = True


def disable() -> None:
    global _enabled
    _enabled = False


def reset() -> None:
    """Drop all clocks, variable states, and findings."""
    with _meta:
        _findings.clear()
        _seen.clear()
        _thread_vc.clear()
        _lock_vc_fallback.clear()
        _vars_fallback.clear()


def findings() -> list[Finding]:
    with _meta:
        return list(_findings)


_tid_tls = threading.local()
_next_tid = itertools.count(1)


def _my_tid() -> int:
    """A *logical* thread id: unique for the life of the process.

    ``threading.get_ident()`` is recycled when a thread exits; a recycled
    ident would hand a new thread the dead thread's clock — falsely
    ordering accesses that share no happens-before edge.  A thread-local
    counter can never be inherited.
    """
    tid = getattr(_tid_tls, "tid", None)
    if tid is None:
        tid = _tid_tls.tid = next(_next_tid)
    return tid


def _vc_of(tid: int) -> VectorClock:
    vc = _thread_vc.get(tid)
    if vc is None:
        vc = _thread_vc[tid] = VectorClock({tid: 1})
    return vc


# ---------------------------------------------------------------------------
# happens-before edges from lock operations (called by SanLock)
# ---------------------------------------------------------------------------


def lock_acquired(lock: Any) -> None:
    """acquire(L): thread clock joins L's clock."""
    if not _enabled:
        return
    tid = _my_tid()
    with _meta:
        published = getattr(lock, "_rc_vc", None)
        if published is None:
            published = _lock_vc_fallback.get(id(lock))
        if published is not None:
            _vc_of(tid).join(published)


def lock_released(lock: Any) -> None:
    """release(L): publish the thread clock into L, start a new epoch."""
    if not _enabled:
        return
    tid = _my_tid()
    with _meta:
        vc = _vc_of(tid)
        try:
            lock._rc_vc = vc.copy()
        except AttributeError:  # slotted foreign lock type
            _lock_vc_fallback[id(lock)] = vc.copy()
        vc.tick(tid)


# ---------------------------------------------------------------------------
# monitored accesses
# ---------------------------------------------------------------------------


def _ordered(prior: _Epoch, vc: VectorClock) -> bool:
    """prior happened-before now iff its epoch is covered by our clock."""
    return prior.clock <= vc.time_of(prior.tid)


def _record(rule_id: str, var: _VarState, prior: _Epoch, site: str) -> None:
    key = (rule_id, f"{var.name}|{prior.site}|{site}")
    if key in _seen:
        return
    _seen.add(key)
    kind = "write/write" if rule_id == "STM305" else "read/write"
    _findings.append(
        Finding(
            rule_id,
            file=f"racecheck/{var.name}",
            line=0,
            message=(
                f"{kind} race on {var.name}: '{site}' is unordered with "
                f"'{prior.site}' (no happens-before edge between the "
                "accessing threads)"
            ),
            detail=f"prior access: {prior.site} (thread T{prior.tid})\n"
            f"racing access: {site} (thread T{_my_tid()})",
        )
    )


def _var_state(var: Any, name: str) -> _VarState:
    state = getattr(var, "_rc_state", None)
    if state is None:
        state = _vars_fallback.get(id(var))
    if state is None:
        state = _VarState(name)
        try:
            var._rc_state = state
        except AttributeError:  # slotted foreign type
            _vars_fallback[id(var)] = state
    return state


def on_write(var: Any, name: str, site: str) -> None:
    """Record a write of ``var`` by the current thread; report races."""
    if not _enabled:
        return
    tid = _my_tid()
    with _meta:
        vc = _vc_of(tid)
        state = _var_state(var, name)
        if state.last_write is not None and not _ordered(state.last_write, vc):
            _record("STM305", state, state.last_write, site)
        for read in state.reads.values():
            if read.tid != tid and not _ordered(read, vc):
                _record("STM304", state, read, site)
        state.last_write = _Epoch(tid, vc.time_of(tid), site)
        state.reads.clear()


def on_read(var: Any, name: str, site: str) -> None:
    """Record a read of ``var`` by the current thread; report races."""
    if not _enabled:
        return
    tid = _my_tid()
    with _meta:
        vc = _vc_of(tid)
        state = _var_state(var, name)
        if (
            state.last_write is not None
            and state.last_write.tid != tid
            and not _ordered(state.last_write, vc)
        ):
            _record("STM304", state, state.last_write, site)
        state.reads[tid] = _Epoch(tid, vc.time_of(tid), site)


# ---------------------------------------------------------------------------
# the bundled real-thread workload (``python -m repro.analysis racecheck``)
# ---------------------------------------------------------------------------


def run_builtin_workload(
    pairs: int = 3, items: int = 150
) -> list[Finding]:
    """Drive a real-thread STM stress under the detector; return findings.

    ``pairs`` producer/consumer thread pairs hammer bounded channels while
    the periodic GC daemon races them, so every happens-before edge the
    runtime claims (channel locks, GC epochs) is exercised with genuine
    preemption.  Returns the combined racecheck + sanitizer findings of the
    run; on a correct runtime the list is empty.
    """
    from repro.analysis import sanitizer
    from repro.core.time import INFINITY
    from repro.runtime.cluster import Cluster
    from repro.runtime.threads import StampedeThread

    was_race = enabled()
    was_san = sanitizer.enabled()
    enable()
    sanitizer.reset()
    reset()
    errors: list[BaseException] = []
    try:
        with Cluster(n_spaces=1, gc_period=0.005) as cluster:
            space = cluster.space(0)

            def produce(handle, thread, out):
                for ts in range(items):
                    space.put(handle, out, ts, b"x" * 32, 32, refcount=1)
                    thread.set_virtual_time(ts + 1)
                space.detach(handle, out)
                thread.set_virtual_time(INFINITY)

            def consume(handle, thread, inp):
                for ts in range(items):
                    space.get(handle, inp, ts)
                    space.consume(handle, inp, ts)
                    thread.set_virtual_time(ts + 1)
                space.detach(handle, inp)
                thread.set_virtual_time(INFINITY)

            def trap(fn, *args):
                try:
                    fn(*args)
                except BaseException as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)

            workers = []
            for i in range(pairs):
                handle = space.create_channel(capacity=8)
                # Threads register + attach *before* any worker starts:
                # visibilities must pin the GC horizon from the first
                # daemon epoch, not from whenever a body gets scheduled.
                for fn, role, is_input in (
                    (produce, "prod", False),
                    (consume, "cons", True),
                ):
                    thread = StampedeThread(space, f"rc-{role}-{i}", 0)
                    space._threads[thread.name] = thread
                    conn = space.attach(handle, is_input=is_input, thread=thread)
                    worker = threading.Thread(
                        target=trap, args=(fn, handle, thread, conn), daemon=True
                    )
                    workers.append(worker)
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60.0)
        if errors:
            raise errors[0]
        return findings() + sanitizer.findings()
    finally:
        if not was_race:
            disable()
        if not was_san:
            sanitizer.disable()
