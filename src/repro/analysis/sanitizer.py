"""Runtime sanitizer (``STMSAN=1``): dynamic rules STM301-303.

Off by default and free when off — the runtime asks this module for its
locks (:func:`san_lock`) and gets plain ``threading.Lock`` objects unless
the sanitizer is enabled, in which case it gets :class:`SanLock` wrappers
that maintain per-thread held-lock sets and a global lock-order graph.

What the shim checks while enabled:

* **STM301** — two lock *classes* (e.g. ``LocalChannel.lock`` vs
  ``ClfNetwork.order``) acquired in both orders by any threads over the
  run, or a thread re-acquiring a non-reentrant lock it already holds
  (recorded *and* raised, since the real lock would deadlock).
* **STM302** — a :class:`~repro.core.channel_state.ChannelKernel` mutating
  method invoked by a thread that does not hold the owning channel lock
  (installed per-channel by the runtime via :func:`guard_kernel`).
* **STM303** — a payload reclaimed by the kernel (consumed to refcount
  zero, collected below the GC horizon, or destroyed with the channel) is
  touched afterwards.  Reclaimed payloads are replaced with a
  :class:`Tombstone` carrying the reclaiming stack, and zero-copy
  ``memoryview`` payloads from the framing path — a bare view, or every
  buffer of a multi-part :class:`~repro.core.payload.Parts` — are
  ``release()``-d so every alias dies loudly.

Dynamic findings are *recorded*, not raised (except lock re-entry and
tombstone access, which would otherwise hang or corrupt): a sanitizer run
finishes the workload, then the harness asserts ``findings() == []``.

Enable with the ``STMSAN=1`` environment variable (read at import) or
programmatically with :func:`enable` before building a Cluster.
"""

from __future__ import annotations

import os
import sys
import threading
import traceback
from typing import TYPE_CHECKING, Any

from repro.core.payload import Parts
from repro.errors import StmSanError

if TYPE_CHECKING:
    from repro.analysis.findings import Finding

__all__ = [
    "enabled",
    "enable",
    "disable",
    "reset",
    "findings",
    "san_lock",
    "SanLock",
    "guard_kernel",
    "Tombstone",
    "tombstone_payload",
]

_enabled = False
_meta = threading.Lock()          # guards the graph + findings (never held
                                  # while taking a SanLock)
_findings: list[Finding] = []
_seen: set[tuple[str, str, int]] = set()
_graph: dict[str, set[str]] = {}  # lock-class name -> names taken under it
_edge_site: dict[tuple[str, str], str] = {}
_tls = threading.local()
#: the race detector, :mod:`repro.analysis.racecheck`, once something enabled
#: it (its ``enable`` sets this): a process that never races does not load it.
racecheck: Any = None

#: ChannelKernel methods that mutate channel state (guarded by STM302).
KERNEL_MUTATORS = (
    "put",
    "get",
    "consume",
    "consume_until",
    "attach_input",
    "attach_output",
    "detach",
    "collect_below",
    "destroy",
)


def enabled() -> bool:
    return _enabled


def mode() -> str:
    """What this process runs under, as ``STMSAN`` spells it: ``""`` (off),
    ``"1"`` (the sanitizer) or ``"race"`` (the sanitizer + race detector)."""
    if not _enabled:
        return ""
    return "race" if racecheck is not None and racecheck.enabled() else "1"


def arm(mode: str) -> None:
    """Arm this process as ``STMSAN=<mode>`` would (``""`` / ``"0"``: leave
    it as it is)."""
    if mode == "race":
        from repro.analysis import racecheck

        racecheck.enable()
    elif mode not in ("", "0"):
        enable()


def enable() -> None:
    """Turn the sanitizer on for locks/channels created from now on."""
    global _enabled
    _enabled = True
    from repro.core import channel_state

    channel_state.set_reclaim_hook(_on_reclaim)


def disable() -> None:
    global _enabled
    _enabled = False
    from repro.core import channel_state

    channel_state.set_reclaim_hook(None)


def reset() -> None:
    """Clear accumulated findings and the lock-order graph."""
    with _meta:
        _findings.clear()
        _seen.clear()
        _graph.clear()
        _edge_site.clear()


def findings() -> list[Finding]:
    with _meta:
        return list(_findings)


def _call_site(skip_self: bool = True) -> tuple[str, int, str]:
    """(file, line, formatted-stack) of the nearest frame outside this
    module and the threading machinery."""
    frame = sys._getframe(1)
    here = __file__
    while frame is not None:
        fname = frame.f_code.co_filename
        if not (skip_self and fname == here) and "threading" not in fname:
            break
        frame = frame.f_back
    if frame is None:  # pragma: no cover - defensive
        return "<unknown>", 0, ""
    stack = "".join(traceback.format_stack(frame, limit=8))
    return frame.f_code.co_filename, frame.f_lineno, stack


def _record(rule_id: str, message: str, detail: str = "") -> None:
    from repro.analysis.findings import Finding

    file, line, stack = _call_site()
    with _meta:
        key = (rule_id, file, line)
        if key in _seen:
            return
        _seen.add(key)
        _findings.append(
            Finding(rule_id, file, line, message, detail=detail or stack)
        )


def _held() -> list["SanLock"]:
    held = getattr(_tls, "held", None)
    if held is None:
        held = _tls.held = []
    return held


def reaches(graph: dict[str, set[str]], start: str, goal: str) -> bool:
    """True if ``goal`` can be reached from ``start`` in a lock-order graph
    (lock class -> classes acquired while it was held)."""
    seen: set[str] = set()
    stack = [start]
    while stack:
        node = stack.pop()
        if node == goal:
            return True
        if node in seen:
            continue
        seen.add(node)
        stack.extend(graph.get(node, ()))
    return False


class SanLock:
    """A non-reentrant lock that records held sets and acquisition order.

    ``name`` identifies the lock *class* (``"LocalChannel.lock"``,
    ``"AddressSpace.channels"``, ...): the order graph is built over names,
    so an inversion between any two instances of two classes is caught no
    matter which instances exhibit it.
    """

    #: _rc_vc is the race detector's published clock (repro.analysis
    #: .racecheck); living on the lock keeps its lifetime exactly right.
    __slots__ = ("name", "_raw", "_owner", "_rc_vc")

    def __init__(self, name: str) -> None:
        self.name = name
        self._raw = threading.Lock()
        self._owner: int | None = None
        self._rc_vc = None

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        me = threading.get_ident()
        if self._owner == me:
            _record(
                "STM301",
                f"thread re-acquired non-reentrant lock '{self.name}' it "
                "already holds (certain deadlock)",
            )
            raise StmSanError(
                f"re-entrant acquire of non-reentrant lock '{self.name}'"
            )
        held = _held()
        if held:
            self._note_order(held)
        got = self._raw.acquire(blocking, timeout)
        if got:
            self._owner = me
            held.append(self)
            if racecheck is not None:
                racecheck.lock_acquired(self)
        return got

    def _note_order(self, held: list["SanLock"]) -> None:
        file, line, stack = _call_site()
        site = f"{file}:{line}"
        with _meta:
            for outer in held:
                edge = (outer.name, self.name)
                if self.name in _graph.get(outer.name, ()):
                    continue  # known edge
                # inversion iff the new lock already reaches the held one
                if outer.name == self.name or reaches(
                        _graph, self.name, outer.name):
                    other = _edge_site.get((self.name, outer.name), "?")
                    key = ("STM301", file, line)
                    if key not in _seen:
                        from repro.analysis.findings import Finding

                        _seen.add(key)
                        _findings.append(
                            Finding(
                                "STM301",
                                file,
                                line,
                                f"lock-order inversion: '{self.name}' "
                                f"acquired while holding '{outer.name}' "
                                f"here, but the opposite order was seen at "
                                f"{other}",
                                detail=stack,
                            )
                        )
                _graph.setdefault(outer.name, set()).add(self.name)
                _edge_site.setdefault(edge, site)

    def release(self) -> None:
        if racecheck is not None:
            racecheck.lock_released(self)
        self._owner = None
        held = _held()
        for i in range(len(held) - 1, -1, -1):
            if held[i] is self:
                del held[i]
                break
        self._raw.release()

    def locked(self) -> bool:
        return self._raw.locked()

    def held_by_current(self) -> bool:
        return self._owner == threading.get_ident()

    def __enter__(self) -> "SanLock":
        self.acquire()
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "locked" if self.locked() else "unlocked"
        return f"<SanLock {self.name!r} {state}>"


def san_lock(name: str) -> Any:
    """The runtime's lock factory: plain Lock when off, SanLock when on."""
    if _enabled:
        return SanLock(name)
    return threading.Lock()


# ---------------------------------------------------------------------------
# STM302: kernel mutations must hold the owning channel lock
# ---------------------------------------------------------------------------


#: kernel methods monitored as *reads* by the race detector (STM304);
#: ``unconsumed_min`` repairs the watermark index but leaves the channel's
#: observable state alone, and its callers hold the channel lock.
KERNEL_READERS = ("unconsumed_min", "timestamps", "oldest", "latest")


def guard_kernel(kernel: Any, lock: Any) -> None:
    """Wrap ``kernel``'s mutating methods (per instance) so each call
    asserts the owning channel lock is held, and feed every monitored
    access to the vector-clock race detector.  No-op unless the sanitizer
    created ``lock`` (i.e. it is a SanLock)."""
    if not isinstance(lock, SanLock):
        return
    var_name = f"ChannelKernel#{getattr(kernel, 'channel_id', '?')}"
    for name in KERNEL_MUTATORS:
        method = getattr(kernel, name, None)
        if method is None:
            continue

        def guarded(*args: Any, __m=method, __n=name, **kwargs: Any) -> Any:
            if not lock.held_by_current():
                _record(
                    "STM302",
                    f"ChannelKernel.{__n} called without holding "
                    f"'{lock.name}'",
                )
            if racecheck is not None and racecheck.enabled():
                file, line, _stack = _call_site()
                racecheck.on_write(
                    kernel, var_name, f"{__n} at {file}:{line}"
                )
            return __m(*args, **kwargs)

        setattr(kernel, name, guarded)
    for name in KERNEL_READERS:
        method = getattr(kernel, name, None)
        if method is None:
            continue

        def reading(*args: Any, __m=method, __n=name, **kwargs: Any) -> Any:
            if racecheck is not None and racecheck.enabled():
                file, line, _stack = _call_site()
                racecheck.on_read(
                    kernel, var_name, f"{__n} at {file}:{line}"
                )
            return __m(*args, **kwargs)

        setattr(kernel, name, reading)


# ---------------------------------------------------------------------------
# STM303: tombstone reclaimed payloads, poison zero-copy views
# ---------------------------------------------------------------------------


class Tombstone:
    """Replaces a reclaimed payload; any touch raises :class:`StmSanError`
    carrying the stack that reclaimed the item."""

    __slots__ = ("channel_id", "timestamp", "reclaim_stack")

    def __init__(self, channel_id: int, timestamp: int, stack: str) -> None:
        object.__setattr__(self, "channel_id", channel_id)
        object.__setattr__(self, "timestamp", timestamp)
        object.__setattr__(self, "reclaim_stack", stack)

    def _die(self, how: str) -> Any:
        message = (
            f"use-after-reclaim: payload of item ts={self.timestamp} in "
            f"channel {self.channel_id} was {how} after the kernel "
            "reclaimed it"
        )
        _record("STM303", message, detail=self.reclaim_stack)
        raise StmSanError(message, stack=self.reclaim_stack)

    def __getattr__(self, name: str) -> Any:
        return self._die(f"read (attribute {name!r})")

    def __getitem__(self, key: Any) -> Any:
        return self._die("indexed")

    def __iter__(self) -> Any:
        return self._die("iterated")

    def __len__(self) -> int:
        return self._die("len()-ed")

    def __bytes__(self) -> bytes:
        return self._die("serialized")

    def __reduce__(self) -> Any:  # pickling a tombstone = shipping freed data
        return self._die("pickled")

    def __repr__(self) -> str:
        return (
            f"<Tombstone channel={self.channel_id} ts={self.timestamp} "
            "(reclaimed payload)>"
        )


def tombstone_payload(channel_id: int, timestamp: int, payload: Any) -> Any:
    """Poison one reclaimed payload: release zero-copy views, return the
    tombstone that should replace the stored payload."""
    stack = "".join(traceback.format_stack(limit=10))
    # A payload that came over the wire is a view of the received message,
    # or a Parts holding several.
    views = payload.buffers if payload.__class__ is Parts else (payload,)
    for view in views:
        if isinstance(view, memoryview):
            try:
                view.release()
            except BufferError:  # still exported somewhere: leave it alive
                pass
    return Tombstone(channel_id, timestamp, stack)


def _on_reclaim(kernel: Any, timestamp: int, record: Any) -> None:
    """Reclaim hook installed into repro.core.channel_state on enable()."""
    if not _enabled:
        return
    # Never poison an item some connection still has open: the reader holds
    # a legitimate reference (e.g. a get reply in flight) by design.
    for view in getattr(kernel, "inputs", {}).values():
        if timestamp in getattr(view, "open_ts", ()):
            return
    record.payload = tombstone_payload(
        getattr(kernel, "channel_id", -1), timestamp, record.payload
    )


arm(os.environ.get("STMSAN", ""))
