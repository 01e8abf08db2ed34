"""The asyncio Space-Time Memory facade (awaitable twin of §4.1's API).

Only the verbs that await live here; the rest (bindings, ``here``,
``closed``, the detached-connection error, the ``stm`` spans) comes from
private bases shared with :mod:`repro.stm.api`, so the two facades cannot
drift.  Attachments are async context managers::

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
from repro.obs import events as _obs
from repro.runtime.address_space import ChannelHandle
from repro.runtime.threads import StampedeThread, require_current_thread
from repro.stm.api import Item, _ChannelBase, _ConnectionBase, _item, _STMBase

__all__ = [
    "AioSTM",
    "AioChannel",
    "AioInputConnection",
    "AioOutputConnection",
]


class AioSTM(_STMBase):
    """Asyncio entry point to Space-Time Memory for one address space
    (an :class:`~repro.runtime.aio.AioAddressSpace`)."""

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


class AioChannel(_ChannelBase):
    """A (location-transparent) reference to one STM channel."""

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


class _AioConnection(_ConnectionBase):
    """Awaitable detach and ``async with`` of input and output connections."""

    async def detach(self) -> None:
        """Release the connection (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.thread.note_conn_closed(self._channel_id, self.conn_id)
        await self._space.adetach(self._handle, self.conn_id)

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
        stored, size = encode(value, self._policy, self._remote_home)
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
            self._stm_span(rec, "put", t0, timestamp, "stm_put_ns", size=size)


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
            self._stm_span(rec, "get", t0, ts, "stm_get_ns", size=size)
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
            self._stm_span(rec, "consume", t0, timestamp)

    async def consume_until(self, timestamp: int) -> None:
        """Consume every item with timestamp <= ``timestamp`` (§4.2)."""
        if self._closed:
            self._check_open()
        rec = _obs.recorder
        t0 = rec.now() if rec is not None else 0
        await self._space.aconsume(
            self._handle, self.conn_id, timestamp, until=True
        )
        self.thread.note_closed_until(self.conn_id, timestamp)
        if rec is not None:
            self._stm_span(rec, "consume", t0, timestamp, until=True)

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
