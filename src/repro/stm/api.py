"""The Space-Time Memory public API (paper §4.1).

This facade binds the channel kernel + runtime into the object model an
application programmer sees:

* :class:`STM` — entry point bound to one address space;
* :class:`Channel` — a handle to a (possibly remote) channel;
* :class:`OutputConnection` / :class:`InputConnection` — per-thread
  attachments carrying the put/get/consume operations.

The paper's calls map directly::

    spd_attach_output_channel(chan)      -> channel.attach_output()
    spd_attach_input_channel(chan)       -> channel.attach_input()
    spd_channel_put_item(conn, ts, buf)  -> out_conn.put(ts, value)
    spd_channel_get_item(conn, ts, ...)  -> in_conn.get(ts_or_wildcard)
    spd_channel_consume_item(conn, ts)   -> in_conn.consume(ts)

(the literal ``spd_*`` spellings live in :mod:`repro.stm.spd`).

Copy semantics: ``put`` copies the value in (the caller may immediately
reuse its buffer) and ``get`` returns a private copy (the caller may mutate
it freely) — enforced by the channel's :class:`~repro.core.payload.CopyPolicy`.

Visibility discipline (§4.2) is enforced here: every put checks the calling
thread's visibility, every get opens the item on the calling thread, every
consume closes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.flags import (
    GetWildcard,
    STM_LATEST_UNSEEN,
    UNKNOWN_REFCOUNT,
)
from repro.core.payload import CopyPolicy, decode, encode
from repro.core.time import validate_timestamp
from repro.errors import ConnectionClosedError
from repro.obs import events as _obs
from repro.obs.metrics import REGISTRY as _METRICS
from repro.runtime.address_space import AddressSpace, ChannelHandle
from repro.runtime.threads import StampedeThread, require_current_thread

__all__ = ["Item", "STM", "Channel", "InputConnection", "OutputConnection"]


@dataclass(frozen=True)
class Item:
    """A gotten item: the private copy of the value plus its coordinates."""

    value: Any
    timestamp: int
    #: stored size in bytes (serialized size under the SERIALIZE policy).
    size: int


_new = object.__new__


def _item(value: Any, timestamp: int, size: int) -> Item:
    """``Item(value=value, timestamp=timestamp, size=size)``, built for the
    get path: the frozen ``__init__`` pays one ``object.__setattr__`` per
    field, this stores the fields straight into the instance dict.  The
    result is the same class with the same ``==``, hash, repr and
    frozenness."""
    item = _new(Item)
    fields = item.__dict__
    fields["value"] = value
    fields["timestamp"] = timestamp
    fields["size"] = size
    return item


# The asyncio facade (repro.stm.aio) keeps only its awaiting verbs and takes
# the rest from these bases.  They are private so that an ``AioChannel`` is
# not an ``isinstance`` of the ``Channel`` whose verbs it overrides.
class _STMBase:
    """The space an entry point is bound to."""

    def __init__(self, space: AddressSpace):
        self.space = space

    @classmethod
    def here(cls):
        """The facade of the calling Stampede thread's (or task's) space.

        The natural entry point inside a spawned thread function.  In the
        process runtime (:mod:`repro.runtime.procs`) such functions arrive
        by pickle with no cluster object in reach — they receive channel
        handles as arguments and bind to their hosting space with
        ``STM.here()``.
        """
        return cls(require_current_thread().space)


class STM(_STMBase):
    """Entry point to Space-Time Memory for threads of one address space."""

    def create_channel(
        self,
        name: str | None = None,
        capacity: int | None = None,
        home: int | None = None,
        copy_policy: CopyPolicy = CopyPolicy.SERIALIZE,
        push: bool = False,
    ) -> "Channel":
        """Create a channel (optionally named, bounded, and/or remotely homed).

        ``push=True`` enables the §9 connection-hint optimization: puts are
        eagerly forwarded to every space holding an input connection, so
        remote gets complete with a payload-free reply against the local
        push cache.
        """
        handle = self.space.create_channel(
            name=name, capacity=capacity, home=home, copy_policy=copy_policy,
            push=push,
        )
        return Channel(self.space, handle)

    def lookup(
        self, name: str, wait: bool = False, timeout: float | None = None
    ) -> "Channel":
        """Find a named channel; ``wait=True`` blocks until it is created."""
        handle = self.space.lookup_channel(name, wait=wait, timeout=timeout)
        return Channel(self.space, handle)

    def channel(self, handle: ChannelHandle) -> "Channel":
        """Wrap an existing handle (e.g. one received through a channel)."""
        return Channel(self.space, handle)


class _ChannelBase:
    """The handle a channel reference wraps, and what it names."""

    def __init__(self, space: AddressSpace, handle: ChannelHandle):
        self.space = space
        self.handle = handle

    @property
    def channel_id(self) -> int:
        return self.handle.channel_id

    @property
    def name(self) -> str | None:
        return self.handle.name

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        label = self.handle.name or self.handle.channel_id
        return f"<{type(self).__name__} {label!r} home={self.handle.home_space}>"


class Channel(_ChannelBase):
    """A (location-transparent) reference to one STM channel."""

    def attach_input(self, thread: StampedeThread | None = None) -> "InputConnection":
        """Attach an input connection for the calling Stampede thread.

        Items below the thread's current visibility are implicitly consumed
        on the new connection (§4.2).
        """
        thread = thread or require_current_thread()
        conn_id = self.space.attach(self.handle, is_input=True, thread=thread)
        return InputConnection(self, conn_id, thread)

    def attach_output(self, thread: StampedeThread | None = None) -> "OutputConnection":
        thread = thread or require_current_thread()
        conn_id = self.space.attach(self.handle, is_input=False, thread=thread)
        return OutputConnection(self, conn_id, thread)

    def destroy(self) -> None:
        self.space.destroy_channel(self.handle)


class _ConnectionBase:
    """The bindings an op passes on, the closed flag and an op's span."""

    def __init__(self, channel: _ChannelBase, conn_id: int, thread: StampedeThread):
        self.channel = channel
        self.conn_id = conn_id
        self.thread = thread
        self._closed = False
        # Decided once, at attach, so no op re-derives them: the space,
        # handle and channel id every op passes on, the channel's copy
        # policy, and whether a put must cross to another space — the one
        # case in which ``encode`` may hand out views of the caller's
        # buffers (the caller's own send has copied them before ``put``
        # returns or first awaits; see repro.core.payload).
        self._space = channel.space
        self._handle = channel.handle
        self._channel_id = channel.handle.channel_id
        self._policy = channel.handle.copy_policy
        self._remote_home = channel.handle.home_space != channel.space.space_id
        #: stable label for trace spans and metric keys.
        self._obs_label = channel.handle.name or f"#{self._channel_id}"
        self._histograms: dict = {}

    @property
    def closed(self) -> bool:
        return self._closed

    def _histogram(self, name: str):
        """This connection's latency histogram ``name``: resolved once, and
        again after ``REGISTRY.reset()``."""
        key = (_METRICS.epoch, name)
        hist = self._histograms.get(key)
        if hist is None:
            hist = self._histograms[key] = _METRICS.histogram(
                name, channel=self._obs_label
            )
        return hist

    def _check_open(self) -> None:
        """Raise on a detached connection.  The ops test ``_closed`` inline
        and call this only when it is set."""
        if self._closed:
            raise ConnectionClosedError(
                f"connection {self.conn_id} to channel "
                f"{self._channel_id} is detached"
            )

    def _stm_span(self, rec, op: str, t0: int, timestamp: int,
                  histogram: str | None = None, **args: Any) -> None:
        """Record an op's ``stm`` span and latency ``histogram`` (armed only)."""
        dur = rec.complete("stm", op, t0, self.thread.space.space_id,
                           channel=self._obs_label, timestamp=timestamp, **args)
        if histogram is not None:
            self._histogram(histogram).observe(dur)


class _Connection(_ConnectionBase):
    """Blocking detach and ``with`` of input and output connections."""

    def detach(self) -> None:
        """Release the connection (idempotent).

        Detaching an input connection drops its claim on all unconsumed
        items, letting GC advance past them.
        """
        if self._closed:
            return
        self._closed = True
        self.thread.note_conn_closed(self._channel_id, self.conn_id)
        self._space.detach(self._handle, self.conn_id)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.detach()


class OutputConnection(_Connection):
    """A thread's attachment for producing items into a channel."""

    def put(
        self,
        timestamp: int,
        value: Any,
        *,
        refcount: int = UNKNOWN_REFCOUNT,
        block: bool = True,
        timeout: float | None = None,
    ) -> None:
        """Copy ``value`` into the channel at ``timestamp``.

        ``refcount`` optionally declares how many consume operations the
        item expects, enabling eager reclamation (§6); leave it unknown when
        the consumer population is dynamic.  On a full bounded channel the
        call blocks (or raises :class:`ChannelFullError` with
        ``block=False`` — the paper's immediate-error flag).
        """
        if self._closed:
            self._check_open()
        if timestamp.__class__ is not int or timestamp < 0:
            validate_timestamp(timestamp)
        self.thread.check_put_timestamp(timestamp)
        stored, size = encode(value, self._policy, self._remote_home)
        rec = _obs.recorder
        t0 = rec.now() if rec is not None else 0
        self._space.put(
            self._handle,
            self.conn_id,
            timestamp,
            stored,
            size,
            refcount=refcount,
            block=block,
            timeout=timeout,
        )
        if rec is not None:
            self._stm_span(rec, "put", t0, timestamp, "stm_put_ns", size=size)


class InputConnection(_Connection):
    """A thread's attachment for getting and consuming items."""

    def get(
        self,
        request: int | GetWildcard = STM_LATEST_UNSEEN,
        *,
        block: bool = True,
        timeout: float | None = None,
    ) -> Item:
        """Get an item by timestamp or wildcard; the item becomes OPEN.

        While open, the item holds the thread's visibility down to its
        timestamp, licensing puts that *inherit* the timestamp (§4.2).
        Non-blocking misses raise :class:`ChannelEmptyError`; gets of
        collected or already-consumed timestamps raise immediately with the
        neighbouring available timestamps attached.
        """
        if self._closed:
            self._check_open()
        rec = _obs.recorder
        t0 = rec.now() if rec is not None else 0
        stored, ts, size = self._space.get(
            self._handle, self.conn_id, request, block=block, timeout=timeout
        )
        self.thread.note_open(self._channel_id, self.conn_id, ts)
        value = decode(stored, self._policy)
        if rec is not None:
            self._stm_span(rec, "get", t0, ts, "stm_get_ns", size=size)
        return _item(value, ts, size)

    def consume(self, timestamp: int) -> None:
        """Declare the item garbage from this connection's perspective."""
        if self._closed:
            self._check_open()
        rec = _obs.recorder
        t0 = rec.now() if rec is not None else 0
        self._space.consume(self._handle, self.conn_id, timestamp)
        # Order matters for GC safety: the channel stops counting the item
        # only once the consume is applied; only then may the thread's
        # visibility rise.
        self.thread.note_closed(self._channel_id, self.conn_id, timestamp)
        if rec is not None:
            self._stm_span(rec, "consume", t0, timestamp)

    def consume_until(self, timestamp: int) -> None:
        """Consume every item with timestamp <= ``timestamp`` (§4.2)."""
        if self._closed:
            self._check_open()
        rec = _obs.recorder
        t0 = rec.now() if rec is not None else 0
        self._space.consume(self._handle, self.conn_id, timestamp, until=True)
        self.thread.note_closed_until(self.conn_id, timestamp)
        if rec is not None:
            self._stm_span(rec, "consume", t0, timestamp, until=True)

    def get_consume(
        self,
        request: int | GetWildcard = STM_LATEST_UNSEEN,
        *,
        block: bool = True,
        timeout: float | None = None,
    ) -> Item:
        """Convenience: get an item and immediately consume it.

        Useful for strict stream consumers that never inherit timestamps;
        note that it forfeits the right to put at the item's timestamp.
        """
        item = self.get(request, block=block, timeout=timeout)
        self.consume(item.timestamp)
        return item
