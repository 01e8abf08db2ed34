"""Stampede threads and their virtual-time state (paper §4.2).

Each application thread carries STM bookkeeping:

* its **virtual time** — an int or INFINITY, explicitly managed by source
  threads and usually INFINITY for interior pipeline threads;
* the set of items it currently holds **open** on its input connections;
* its **visibility** — ``min(virtual time, open item timestamps)`` — the
  smallest timestamp it could still attach to a produced item, and therefore
  its contribution to the global GC minimum.

The rules enforced here:

* ``put`` timestamps must be >= the putting thread's visibility;
* a child thread's initial virtual time must be >= the parent's visibility
  at spawn;
* a thread may change its own virtual time to any value >= its current
  visibility (including INFINITY);
* a new input connection implicitly consumes items below the visibility.
"""

from __future__ import annotations

import contextvars
import threading
from typing import TYPE_CHECKING, Callable

from repro.core.time import INFINITY, VirtualTime, vt_lt, vt_min
from repro.errors import StampedeError, VirtualTimeError, VisibilityError
from repro.obs import events as _obs
from repro.obs.metrics import REGISTRY

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.address_space import AddressSpace

__all__ = ["StampedeThread", "current_thread", "require_current_thread"]

_tls = threading.local()

#: Task-local binding for the asyncio runtime: every asyncio task carries its
#: own contextvars Context, so a StampedeThread bound here is visible to one
#: task only — the coroutine analogue of the thread-local slot above.  The
#: OS-thread slot stays authoritative for real threads; the context slot wins
#: inside a task (a task never sets the TLS slot, and the loop thread itself
#: is never an adopted Stampede thread while it hosts tasks).
_ctx_thread: contextvars.ContextVar["StampedeThread | None"] = contextvars.ContextVar(
    "stampede_thread", default=None
)


def current_thread() -> "StampedeThread | None":
    """The StampedeThread bound to the calling OS thread or asyncio task."""
    bound = _ctx_thread.get()
    if bound is not None and bound.alive:
        return bound
    return getattr(_tls, "stampede_thread", None)


def require_current_thread() -> "StampedeThread":
    thread = current_thread()
    if thread is None:
        raise StampedeError(
            "no Stampede thread is bound to this OS thread; run inside "
            "AddressSpace.spawn(...) or call AddressSpace.adopt_current_thread()"
        )
    return thread


class StampedeThread:
    """A dynamically created application thread with virtual-time state.

    Instances are created by :meth:`AddressSpace.spawn` (which runs ``fn`` on
    a new OS thread) or :meth:`AddressSpace.adopt_current_thread` (which
    binds STM state to an existing OS thread, e.g. the interpreter's main
    thread in the examples).

    Concurrency contract — single writer, one published value (DESIGN.md
    §5d).  The virtual time and the open set are written only by the owner,
    the OS thread or asyncio task that runs this Stampede thread
    (``set_virtual_time``; ``note_open`` / ``note_closed`` / ``note_closed_until``
    / ``note_conn_closed`` from the connection layer), so no lock guards them.
    After every change the owner publishes ``min(virtual time, open
    timestamps)`` as one attribute, ``_visibility``, which
    :meth:`visibility`, :meth:`check_put_timestamp` and the one foreign
    reader, :meth:`AddressSpace.gc_summary`, load: a value the owner held at
    some instant, never a half-updated set.  GC safety rests on order, not
    on a lock (none was ever held together with a channel lock): the
    published value rises only after the owner's consume was applied at the
    channel, drops only in ``note_open`` while the gotten item is still
    unconsumed on its connection, and the collector reads thread
    visibilities before channel minima.
    """

    def __init__(
        self,
        space: "AddressSpace",
        name: str,
        virtual_time: VirtualTime = INFINITY,
        parent: "StampedeThread | None" = None,
    ):
        if parent is not None and vt_lt(virtual_time, parent.visibility()):
            raise VirtualTimeError(
                f"child thread {name!r} initial virtual time {virtual_time!r} "
                f"is below parent visibility {parent.visibility()!r} (§4.2)"
            )
        self.space = space
        self.name = name
        self._virtual_time: VirtualTime = virtual_time
        #: (channel_id, conn_id, timestamp) triples currently open.
        self._open: set[tuple[int, int, int]] = set()
        #: published ``min(virtual time, open timestamps)``.
        self._visibility: VirtualTime = virtual_time
        self._alive = True
        self.os_thread: threading.Thread | None = None
        #: lazily fetched stm_virtual_time gauge — the labels are fixed for
        #: the thread's lifetime, and the registry get-or-create (label
        #: sort + dict lookup under a lock) is too slow for every tick.
        self._vt_gauge = None

    # ------------------------------------------------------------------
    # virtual time and visibility
    # ------------------------------------------------------------------
    @property
    def virtual_time(self) -> VirtualTime:
        return self._virtual_time

    def visibility(self) -> VirtualTime:
        """min(virtual time, timestamps of currently open items)."""
        return self._visibility

    def _publish(self) -> None:
        """Recompute the published visibility (owner only)."""
        self._visibility = vt_min(
            [self._virtual_time, *(ts for (_, _, ts) in self._open)]
        )

    def set_virtual_time(self, value: VirtualTime) -> None:
        """Set the thread's virtual time (the paper's explicit VT call).

        Any value >= the current *visibility* is legal — including values
        below the current virtual time, as long as an open item already
        holds the visibility down that far.
        """
        if vt_lt(value, self._visibility):
            raise VirtualTimeError(
                f"cannot set virtual time to {value!r}: below current "
                f"visibility {self._visibility!r}"
            )
        self._virtual_time = value
        self._publish()
        rec = _obs.recorder
        if rec is not None:
            if value is INFINITY:
                rec.instant("vt", "vt.infinity", self.space.space_id,
                            thread=self.name)
                vt_gauge = float("inf")
            else:
                rec.counter("vt", f"vt {self.name}", int(value),
                            self.space.space_id, series="virtual_time")
                vt_gauge = int(value)
            # The gauge is the live-snapshot view of the same signal the
            # counter track records over time: stmtop and the Prometheus
            # endpoint read it without touching the rings.
            gauge = self._vt_gauge
            if gauge is None:
                gauge = self._vt_gauge = REGISTRY.gauge(
                    "stm_virtual_time", space=self.space.space_id,
                    thread=self.name,
                )
            gauge.set(vt_gauge)

    def advance_virtual_time(self, value: VirtualTime) -> None:
        """Alias of :meth:`set_virtual_time`; the paper phrases the GC-progress
        obligation as "advancing" virtual time."""
        self.set_virtual_time(value)

    # ------------------------------------------------------------------
    # open-item tracking (called by the connection layer)
    # ------------------------------------------------------------------
    def note_open(self, channel_id: int, conn_id: int, timestamp: int) -> None:
        self._open.add((channel_id, conn_id, timestamp))
        if timestamp < self._visibility:
            self._visibility = timestamp

    def note_closed(self, channel_id: int, conn_id: int, timestamp: int) -> None:
        self._open.discard((channel_id, conn_id, timestamp))
        if timestamp == self._visibility:  # it may have been the minimum
            self._publish()

    def note_conn_closed(self, channel_id: int, conn_id: int) -> None:
        """Drop all open entries of a detached connection."""
        self._open = {entry for entry in self._open if entry[1] != conn_id}
        self._publish()

    def note_closed_until(self, conn_id: int, timestamp: int) -> None:
        """Drop ``conn_id``'s open entries up to ``timestamp`` (consume_until)."""
        self._open = {entry for entry in self._open
                      if entry[1] != conn_id or entry[2] > timestamp}
        self._publish()

    def open_items(self) -> set[tuple[int, int, int]]:
        return set(self._open)

    def check_put_timestamp(self, timestamp: int) -> None:
        """Enforce the §4.2 production rule: put timestamp >= visibility."""
        vis = self._visibility
        if timestamp < vis:
            raise VisibilityError(
                f"thread {self.name!r} cannot put timestamp {timestamp}: "
                f"below its visibility {vis!r} (virtual time "
                f"{self.virtual_time!r}, open items pin the rest)"
            )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self._alive

    def _bind(self) -> None:
        _tls.stampede_thread = self

    def _unbind(self) -> None:
        if getattr(_tls, "stampede_thread", None) is self:
            _tls.stampede_thread = None

    def _bind_context(self) -> None:
        """Bind via contextvars (asyncio-task runtime; one binding per task)."""
        _ctx_thread.set(self)

    def _unbind_context(self) -> None:
        if _ctx_thread.get() is self:
            _ctx_thread.set(None)

    def _run(self, fn: Callable, args: tuple, kwargs: dict) -> None:
        """Target wrapper for spawned OS threads."""
        self._bind()
        try:
            fn(*args, **kwargs)
        finally:
            self.exit()

    def exit(self) -> None:
        """Drop the binding and deregister (an adopted thread or task calls
        this; spawned threads and tasks exit through it automatically)."""
        self._unbind()
        self._unbind_context()
        self.space._thread_exited(self)
        self._alive = False

    def join(self, timeout: float | None = None) -> None:
        if self.os_thread is not None:
            self.os_thread.join(timeout)
            if self.os_thread.is_alive():
                raise TimeoutError(f"thread {self.name!r} did not exit in {timeout}s")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<StampedeThread {self.name!r} space={self.space.space_id} "
            f"vt={self.virtual_time!r} open={len(self._open)}>"
        )
