"""The asyncio Space-Time Memory facade (awaitable twin of §4.1's API).

Everything here mirrors :mod:`repro.stm.api` one-for-one — same visibility
discipline, same copy semantics, same observability spans — with every
potentially blocking operation awaitable and attachments usable as async
context managers::

    stm = AioSTM(cluster.space(0))
    chan = await stm.create_channel("frames", capacity=4)
    async with chan.attach_output() as out:
        await out.put(0, frame)
    async with chan.attach_input() as inp:
        item = await inp.get(STM_LATEST_UNSEEN)
        await inp.consume(item.timestamp)

``attach_input()``/``attach_output()`` return an object that is *both*
awaitable and an async context manager (`conn = await chan.attach_input()`
works too); `async with` detaches on exit, releasing the connection's claim
on unconsumed items so GC can advance (§4.2).

The facade drives :class:`~repro.runtime.aio.AioAddressSpace`'s async entry
points, which share the thread runtime's kernel and parking code — only the
sleeping primitive differs.
"""

from __future__ import annotations

from typing import Any, Coroutine, Generator

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
from repro.runtime.address_space import ChannelHandle
from repro.runtime.aio import AioAddressSpace
from repro.runtime.threads import StampedeThread, require_current_thread
from repro.stm.api import Item, _item

__all__ = [
    "AioSTM",
    "AioChannel",
    "AioInputConnection",
    "AioOutputConnection",
]


class AioSTM:
    """Asyncio entry point to Space-Time Memory for one address space."""

    def __init__(self, space: AioAddressSpace):
        self.space = space

    @classmethod
    def here(cls) -> "AioSTM":
        """The facade of the calling Stampede task's own address space."""
        return cls(require_current_thread().space)

    async def create_channel(
        self,
        name: str | None = None,
        capacity: int | None = None,
        home: int | None = None,
        copy_policy: CopyPolicy = CopyPolicy.SERIALIZE,
        push: bool = False,
    ) -> "AioChannel":
        handle = await self.space.acreate_channel(
            name=name, capacity=capacity, home=home, copy_policy=copy_policy,
            push=push,
        )
        return AioChannel(self.space, handle)

    async def lookup(
        self, name: str, wait: bool = False, timeout: float | None = None
    ) -> "AioChannel":
        """Find a named channel; ``wait=True`` awaits its creation."""
        handle = await self.space.alookup_channel(
            name, wait=wait, timeout=timeout
        )
        return AioChannel(self.space, handle)

    def channel(self, handle: ChannelHandle) -> "AioChannel":
        return AioChannel(self.space, handle)


class _Attach:
    """Awaitable *and* async-context-manager attachment.

    Allows both spellings::

        conn = await chan.attach_input()
        async with chan.attach_input() as conn: ...
    """

    __slots__ = ("_conn", "_coro")

    def __init__(self, coro: Coroutine[Any, Any, "_AioConnection"]):
        self._coro = coro
        self._conn: _AioConnection | None = None

    def __await__(self) -> Generator[Any, None, "_AioConnection"]:
        return self._coro.__await__()

    async def __aenter__(self) -> "_AioConnection":
        self._conn = await self._coro
        return self._conn

    async def __aexit__(self, exc_type, exc, tb) -> None:
        if self._conn is not None:
            await self._conn.detach()


class AioChannel:
    """A (location-transparent) reference to one STM channel."""

    def __init__(self, space: AioAddressSpace, handle: ChannelHandle):
        self.space = space
        self.handle = handle

    @property
    def channel_id(self) -> int:
        return self.handle.channel_id

    @property
    def name(self) -> str | None:
        return self.handle.name

    def attach_input(self, thread: StampedeThread | None = None) -> _Attach:
        """Attach an input connection (items below the thread's visibility
        are implicitly consumed on it, §4.2)."""
        return _Attach(self._attach(is_input=True, thread=thread))

    def attach_output(self, thread: StampedeThread | None = None) -> _Attach:
        return _Attach(self._attach(is_input=False, thread=thread))

    async def _attach(
        self, *, is_input: bool, thread: StampedeThread | None
    ) -> "_AioConnection":
        thread = thread or require_current_thread()
        conn_id = await self.space.aattach(
            self.handle, is_input=is_input, thread=thread
        )
        cls = AioInputConnection if is_input else AioOutputConnection
        return cls(self, conn_id, thread)

    async def destroy(self) -> None:
        await self.space.adestroy_channel(self.handle)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        label = self.handle.name or self.handle.channel_id
        return f"<AioChannel {label!r} home={self.handle.home_space}>"


class _AioConnection:
    """Shared plumbing of async input and output connections."""

    def __init__(self, channel: AioChannel, conn_id: int, thread: StampedeThread):
        self.channel = channel
        self.conn_id = conn_id
        self.thread = thread
        self._closed = False
        # Bound once, at attach (as in repro.stm.api).
        self._space = channel.space
        self._handle = channel.handle
        self._channel_id = channel.handle.channel_id
        self._policy = channel.handle.copy_policy
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

    async def detach(self) -> None:
        """Release the connection (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.thread.note_conn_closed(self._channel_id, self.conn_id)
        await self._space.adetach(self._handle, self.conn_id)

    def _check_open(self) -> None:
        """Raise on a detached connection.  The ops test ``_closed`` inline
        and call this only when it is set."""
        if self._closed:
            raise ConnectionClosedError(
                f"connection {self.conn_id} to channel "
                f"{self._channel_id} is detached"
            )

    async def __aenter__(self):
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.detach()


class AioOutputConnection(_AioConnection):
    """A task's attachment for producing items into a channel."""

    async def put(
        self,
        timestamp: int,
        value: Any,
        *,
        refcount: int = UNKNOWN_REFCOUNT,
        block: bool = True,
        timeout: float | None = None,
    ) -> None:
        """Copy ``value`` into the channel at ``timestamp`` (awaitable)."""
        if self._closed:
            self._check_open()
        if timestamp.__class__ is not int or timestamp < 0:
            validate_timestamp(timestamp)
        self.thread.check_put_timestamp(timestamp)
        # Always the in-band (copied) form, also for a remote home: ``aput``
        # sends from an executor thread, which may still be reading while a
        # cancelled or timed-out ``await`` has already returned here.
        stored, size = encode(value, self._policy)
        rec = _obs.recorder
        t0 = rec.now() if rec is not None else 0
        await self._space.aput(
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
            dur = rec.complete(
                "stm", "put", t0, self.thread.space.space_id,
                channel=self._obs_label, timestamp=timestamp, size=size,
            )
            self._histogram("stm_put_ns").observe(dur)


class AioInputConnection(_AioConnection):
    """A task's attachment for getting and consuming items."""

    async def get(
        self,
        request: int | GetWildcard = STM_LATEST_UNSEEN,
        *,
        block: bool = True,
        timeout: float | None = None,
    ) -> Item:
        """Get an item by timestamp or wildcard; the item becomes OPEN."""
        if self._closed:
            self._check_open()
        rec = _obs.recorder
        t0 = rec.now() if rec is not None else 0
        stored, ts, size = await self._space.aget(
            self._handle, self.conn_id, request, block=block, timeout=timeout,
        )
        self.thread.note_open(self._channel_id, self.conn_id, ts)
        value = decode(stored, self._policy)
        if rec is not None:
            dur = rec.complete(
                "stm", "get", t0, self.thread.space.space_id,
                channel=self._obs_label, timestamp=ts, size=size,
            )
            self._histogram("stm_get_ns").observe(dur)
        return _item(value, ts, size)

    async def consume(self, timestamp: int) -> None:
        """Declare the item garbage from this connection's perspective."""
        if self._closed:
            self._check_open()
        rec = _obs.recorder
        t0 = rec.now() if rec is not None else 0
        await self._space.aconsume(self._handle, self.conn_id, timestamp)
        # Order matters for GC safety (same as the sync facade): the
        # channel stops counting the item before visibility may rise.
        self.thread.note_closed(self._channel_id, self.conn_id, timestamp)
        if rec is not None:
            rec.complete(
                "stm", "consume", t0, self.thread.space.space_id,
                channel=self._obs_label, timestamp=timestamp,
            )

    async def consume_until(self, timestamp: int) -> None:
        """Consume every item with timestamp <= ``timestamp`` (§4.2)."""
        if self._closed:
            self._check_open()
        rec = _obs.recorder
        t0 = rec.now() if rec is not None else 0
        await self._space.aconsume(
            self._handle, self.conn_id, timestamp, until=True
        )
        for chan_id, conn_id, ts in self.thread.open_items():
            if conn_id == self.conn_id and ts <= timestamp:
                self.thread.note_closed(chan_id, conn_id, ts)
        if rec is not None:
            rec.complete(
                "stm", "consume", t0, self.thread.space.space_id,
                channel=self._obs_label, timestamp=timestamp, until=True,
            )

    async def get_consume(
        self,
        request: int | GetWildcard = STM_LATEST_UNSEEN,
        *,
        block: bool = True,
        timeout: float | None = None,
    ) -> Item:
        """Get an item and immediately consume it."""
        item = await self.get(request, block=block, timeout=timeout)
        await self.consume(item.timestamp)
        return item
