"""Asyncio runtime driver: STM threads as coroutine tasks.

The paper treats a thread blocked in ``get``/``put`` as a *scheduling*
policy, not part of the STM semantics — so the same channel kernel can be
driven by coroutines instead of OS threads.  This module provides that
driver:

* :class:`AioCluster` — a :class:`~repro.runtime.cluster.Cluster` of
  :class:`AioAddressSpace` instances, run on its event loop's thread alone;
* :class:`AioAddressSpace` — an :class:`~repro.runtime.address_space
  .AddressSpace` whose blocking entry points have ``async`` twins that await
  the same steps (``aput``/``aget``/``acall``/``alookup_channel``/...) plus
  :meth:`~AioAddressSpace.spawn_task` to run an ``async def`` as a Stampede
  thread;
* :class:`AioEvent` — what everything in an asyncio space sleeps on: a
  flag plus one loop future, made only when a task awaits (or a
  one-sleeper thread event, made only when an OS thread parks here), set
  from either side.

Design notes
------------

**Exactly one kernel.**  The async paths run the thread runtime's start
functions (``_put_start``/``_get_start``/``_consume_apply``) and entry-point
steps (``_rpc_steps`` and those built on it, GC rounds included) and
substitute an ``await`` for the blocking event wait (:func:`_arun`), so
semantics cannot diverge between drivers.  A task cancelled mid-call sends
``RpcCancel`` and waits out the grace period as a timed-out caller does.

**One OS thread.**  A request that reaches a space is scheduled on the loop
(FIFO, so per-peer arrival order holds) and served there, never on the
deliverer's stack; replies and cache pushes complete where they land, as
on every driver (DESIGN.md section 5e).  Only the loop serves, so a
blocking call on its thread would wait for ever: :meth:`AioEvent.wait`
refuses it.  The default executor runs only what a caller hands over
blocking: the join of an OS thread.

**Locks stay real.**  Runtime-internal locks are held only across short
critical sections, never across an ``await``, so they remain ``threading``
locks, safe against OS threads a program ``spawn``s into an asyncio space.
Only the events are virtualized, and tasks bind their StampedeThread
through a ``contextvars.ContextVar`` (:func:`repro.runtime.threads
.current_thread`).
"""

from __future__ import annotations

import asyncio
from asyncio import _get_running_loop
from functools import update_wrapper
from typing import Any, Callable, Coroutine, Generator

from repro.core.flags import GetWildcard, UNKNOWN_REFCOUNT
from repro.core.time import VirtualTime
from repro.errors import StampedeError
from repro.obs import events as _obs
from repro.runtime import sync as _sync
from repro.runtime.address_space import (
    _CLOSED,
    AddressSpace,
    ChannelHandle,
    _Call,
    _Waiter,
)
from repro.runtime.cluster import Cluster
from repro.runtime.messages import ConsumeReq, GetReq
from repro.runtime.sync import OneSleeperEvent
from repro.runtime.threads import StampedeThread, current_thread

__all__ = ["AioEvent", "AioAddressSpace", "AioCluster"]


def _resolve(future: asyncio.Future) -> None:
    if not future.done():  # a cancelled await leaves nothing to wake
        future.set_result(None)


class AioEvent:
    """The event a parked operation or a call sleeps on in an asyncio space.

    One flag, which is the event's state, plus at most one sleeper: the
    loop future of the task that awaits (:meth:`wait_async`, or published
    by ``aput`` / ``aget`` themselves on their common park) or, for an OS
    thread parked in this space, a :class:`~repro.runtime.sync
    .OneSleeperEvent` (:meth:`wait`).  Both are made only when somebody
    actually sleeps, and the flag is re-checked after publishing them, so a
    ``set()`` from another thread landing in between is seen.  ``set()``
    writes the flag first and then wakes whichever sleeper it finds: a
    future inline on the loop, through ``call_soon_threadsafe`` from an OS
    thread.  Every event is fresh per wait, so there is no ``clear()``.
    """

    __slots__ = ("_flag", "_future", "_loop", "_sleeper")

    def __init__(self, loop: asyncio.AbstractEventLoop):
        self._loop = loop
        self._flag = False
        self._future: asyncio.Future | None = None
        self._sleeper: OneSleeperEvent | None = None

    def set(self) -> None:
        if self._flag:
            return
        self._flag = True
        sleeper = self._sleeper
        if sleeper is not None:
            sleeper.set()
        future = self._future
        if future is None:
            return
        if _get_running_loop() is self._loop:
            if not future.done():  # a cancelled await leaves nothing to wake
                future.set_result(None)
        else:
            try:
                self._loop.call_soon_threadsafe(_resolve, future)
            except RuntimeError:
                pass  # the loop has closed, and its tasks with it

    def is_set(self) -> bool:
        return self._flag

    def wait(self, timeout: float | None = None) -> bool:
        """Blocking wait, for an OS thread parked in an asyncio space;
        refused on the loop's thread, which alone could set it."""
        if self._flag:
            return True
        if _get_running_loop() is self._loop:
            raise StampedeError(
                "a blocking STM call on the event loop's thread waits for "
                "ever: await its twin (aput, aget, acall, agc_once, ...)")
        sleeper = self._sleeper
        if sleeper is None:
            sleeper = self._sleeper = OneSleeperEvent()
            if self._flag:  # set before the sleeper was published
                return True
        return sleeper.wait(timeout)

    async def wait_async(self, timeout: float | None = None) -> bool:
        if self._flag:
            return True
        future = self._future = self._loop.create_future()
        if self._flag:  # set off-loop before the future was published
            return True
        if timeout is None:
            await future
            return True
        # The timeout resolves the same future.  Not ``wait_for``: on
        # Python 3.11 it swallows a cancellation that arrives after the
        # future is done.
        timer = self._loop.call_later(timeout, _resolve, future)
        try:
            await future
        finally:
            timer.cancel()
        return self._flag  # a set that raced the timeout is honoured


async def _arun(steps: Generator) -> Any:
    """Await an entry point's steps on the loop (``_run``'s twin).  Before
    sleeping on an event, the task lets the loop make one pass, which
    serves a request the steps sent to a space of this loop and sets the
    event with its reply.  A cancellation is thrown into the steps at their
    wait, so that they withdraw what they were waiting for first."""
    advance, arg = steps.send, None
    try:
        while True:
            try:
                event, timeout = advance(arg)
            except StopIteration as done:
                return done.value
            try:
                if not event._flag:
                    await asyncio.sleep(0)  # one pass of the loop
                arg = event._flag or await event.wait_async(timeout)
                advance = steps.send
            except asyncio.CancelledError as exc:
                advance, arg = steps.throw, exc
    finally:
        steps.close()  # a wait that raised: the steps clean up now


def _awaiting(steps: Callable) -> Callable:
    """The awaitable twin of an entry point: awaits the same ``steps``
    method with :func:`_arun`."""

    async def entry(self: "AioAddressSpace", *args: Any, **kwargs: Any) -> Any:
        return await _arun(steps(self, *args, **kwargs))

    return update_wrapper(entry, steps)


class _LoopInbox:
    """An asyncio space's request queue: its loop.  ``put`` runs on the
    delivering thread (``AddressSpace._receive``), which may hold its
    channel and stream locks, so the request is scheduled, never served
    inline; the endpoint's close fails the calls outstanding."""

    __slots__ = ("space",)

    def __init__(self, space: "AioAddressSpace"):
        self.space = space

    def put(self, msg: Any) -> None:
        space = self.space
        if msg is _CLOSED:
            return space._fail_calls()
        loop = space.cluster.loop
        if _get_running_loop() is loop:
            loop.call_soon(space._serve, msg)
        else:
            try:
                loop.call_soon_threadsafe(space._serve, msg)
            except RuntimeError:
                pass  # the loop has closed, and nothing is served any more


class AioAddressSpace(AddressSpace):
    """An address space whose blocking entry points have ``async`` twins.
    The sync API keeps working off the loop's thread — threads and tasks can
    share one cluster — and both kinds of caller sleep on :class:`AioEvent`.
    """

    # The loop is read through the cluster, not stored: a 30th instance
    # attribute would demote every ``self.x`` of the class to a dict lookup.
    cluster: "AioCluster"

    def start(self) -> None:
        """Serve on the loop: no thread starts."""
        self._requests = _LoopInbox(self)
        self.endpoint.deliver_to(self._receive)

    def stop(self) -> None:
        self.endpoint.close()

    def _make_event(self) -> AioEvent:
        return AioEvent(self.cluster.loop)

    def _call_slot(self) -> _Call:
        # A fresh call on this space's event: a per-OS-thread slot would be
        # shared by every task of the loop.
        return _Call(self._make_event())

    # -- async facade entry points --------------------------------------
    acall = _awaiting(AddressSpace._rpc_steps)
    acreate_channel = _awaiting(AddressSpace._create_steps)
    alookup_channel = _awaiting(AddressSpace._lookup_steps)
    adestroy_channel = _awaiting(AddressSpace._destroy_steps)
    aattach = _awaiting(AddressSpace._attach_steps)
    adetach = _awaiting(AddressSpace._detach_steps)

    # ``aput`` and ``aget`` on a local channel await an untimed, unrecorded
    # park themselves: the event's loop future, in their own frame, then
    # the outcome the drain left in the waiter; other parks run
    # ``_parked_steps``.  A task cancelled while parked withdraws its op
    # under the channel lock, unless a drain completed it first, which
    # stands as it does against a timeout; ``CancelledError`` propagates.
    async def aput(
        self,
        handle: ChannelHandle,
        conn_id: int,
        timestamp: int,
        payload: Any,
        size: int,
        refcount: int = UNKNOWN_REFCOUNT,
        block: bool = True,
        timeout: float | None = None,
    ) -> None:
        """Awaitable twin of :meth:`AddressSpace.put`."""
        if handle.home_space != self.space_id:
            return await _arun(self._rpc_steps(
                handle.home_space, self._put_req(
                    handle, conn_id, timestamp, payload, size, refcount,
                    block), timeout))
        channel = (self._channels.get(handle.channel_id)
                   or self._channel(handle.channel_id))
        waiter = self._put_start(channel, conn_id, timestamp, payload, size,
                                 refcount, block)
        if waiter is None:
            return
        event = waiter.event
        if timeout is not None or _obs.recorder is not None:
            await _arun(self._parked_steps(waiter, timeout))
            return
        if not event._flag:
            future = event._future = self.cluster.loop.create_future()
            if not event._flag:  # not set off-loop meanwhile
                try:
                    await future
                except asyncio.CancelledError:
                    self._withdraw(waiter)
                    raise
        if waiter.error is not None:
            raise waiter.error

    async def aget(
        self,
        handle: ChannelHandle,
        conn_id: int,
        request: int | GetWildcard,
        block: bool = True,
        timeout: float | None = None,
    ) -> tuple[Any, int, int]:
        """Awaitable twin of :meth:`AddressSpace.get`."""
        if handle.home_space != self.space_id:  # as in ``get``
            got = GetReq(handle.channel_id, conn_id, request, block, handle.push)
            while got.__class__ is GetReq:
                got = self._got(handle, conn_id, block, await _arun(
                    self._rpc_steps(handle.home_space, got, timeout)))
            return got
        channel = (self._channels.get(handle.channel_id)
                   or self._channel(handle.channel_id))
        reply = self._get_start(channel, conn_id, request, block)
        if reply.__class__ is not _Waiter:
            return reply[:3]
        waiter, event = reply, reply.event
        if timeout is not None or _obs.recorder is not None:
            return (await _arun(self._parked_steps(waiter, timeout)))[:3]
        if not event._flag:  # as in ``aput``
            future = event._future = self.cluster.loop.create_future()
            if not event._flag:
                try:
                    await future
                except asyncio.CancelledError:
                    self._withdraw(waiter)
                    raise
        if waiter.error is not None:
            raise waiter.error
        return waiter.result[:3]

    async def aconsume(
        self,
        handle: ChannelHandle,
        conn_id: int,
        timestamp: int,
        until: bool = False,
    ) -> None:
        """Awaitable twin of :meth:`AddressSpace.consume`."""
        if handle.home_space != self.space_id:
            return await _arun(self._rpc_steps(
                handle.home_space,
                ConsumeReq(handle.channel_id, conn_id, timestamp, until)))
        channel = (self._channels.get(handle.channel_id)
                   or self._channel(handle.channel_id))
        self._consume_apply(channel, conn_id, timestamp, until)

    # -- coroutine Stampede threads --------------------------------------
    def spawn_task(
        self,
        coro_fn: Callable[..., Coroutine[Any, Any, Any]],
        args: tuple = (),
        kwargs: dict | None = None,
        *,
        name: str | None = None,
        virtual_time: VirtualTime | None = None,
    ) -> StampedeThread:
        """Run an ``async def`` as a Stampede thread (asyncio task).

        Mirrors :meth:`AddressSpace.spawn`: the child's initial virtual
        time defaults to the parent's current visibility (§4.2).  The
        returned StampedeThread carries the task as ``aio_task``; await
        :meth:`ajoin` (not ``join``) for completion and crash propagation.
        """
        parent = current_thread()
        if virtual_time is None:
            virtual_time = parent.visibility() if parent is not None else 0
        thread = self._register_thread(name, "aio", virtual_time, parent)
        task = self.cluster.loop.create_task(
            self._run_task(thread, coro_fn, args, kwargs or {}), name=thread.name
        )
        thread.aio_task = task
        return thread

    async def _run_task(
        self,
        thread: StampedeThread,
        coro_fn: Callable[..., Coroutine[Any, Any, Any]],
        args: tuple,
        kwargs: dict,
    ) -> Any:
        # The task runs in its own contextvars Context (copied at
        # create_task), so this binding is invisible to sibling tasks.
        thread._bind_context()
        try:
            return await coro_fn(*args, **kwargs)
        finally:
            thread.exit()

    async def ajoin(
        self, thread: StampedeThread, timeout: float | None = None
    ) -> Any:
        """Await a task-thread's completion; re-raises its exception."""
        task = getattr(thread, "aio_task", None)
        if task is None:  # an OS thread: joined off-loop
            return await self.cluster.loop.run_in_executor(
                None, thread.join, timeout)
        try:
            return await asyncio.wait_for(asyncio.shield(task), timeout)
        except asyncio.TimeoutError:
            raise TimeoutError(
                f"task thread {thread.name!r} did not exit in {timeout}s"
            ) from None

    def adopt_current_task(
        self, virtual_time: VirtualTime = 0, name: str | None = None
    ) -> StampedeThread:
        """Bind STM thread state to the calling asyncio task.

        The coroutine analogue of :meth:`AddressSpace
        .adopt_current_thread`, under the same adoption and naming rules —
        for driver coroutines that operate on STM directly instead of going
        through :meth:`spawn_task`.
        """
        thread = self._adopted_binding()
        if thread is None:
            thread = self._register_thread(name, "adopted-aio", virtual_time)
            thread._bind_context()
        return thread


class AioCluster(Cluster):
    """A Stampede cluster on an asyncio event loop's thread alone.

    Must be constructed while the loop is running (``async with`` it, or
    build it inside ``asyncio.run``).  Its spaces serve each other on the
    loop, where a task awaits the periodic GC rounds; :meth:`agc_once`
    awaits one.  A model checker's event factory is refused.
    """

    space_factory = AioAddressSpace

    def __init__(
        self,
        n_spaces: int = 1,
        *,
        gc_period: float | None = 0.05,
        loop: asyncio.AbstractEventLoop | None = None,
        **kwargs: Any,
    ):
        if _sync._event_factory is not None:
            raise StampedeError(
                "cannot start AioCluster while a model-checker event factory "
                "is installed: asyncio spaces park on AioEvent")
        self.loop = loop = loop or asyncio.get_running_loop()
        # The thread GcDaemon stays off; the loop drives GC instead.
        super().__init__(n_spaces, gc_period=None, **kwargs)
        self._gc_task = None if gc_period is None else loop.create_task(
            self._gc_loop(gc_period), name="stampede-aio-gc")

    async def _gc_loop(self, period: float) -> None:
        while True:
            await asyncio.sleep(period)
            if self._shut_down:
                return
            try:
                await self.agc_once()
            except Exception:  # pragma: no cover - GC must keep trying
                pass

    def space(self, space_id: int) -> AioAddressSpace:
        return self._spaces[space_id]  # narrowed return type

    async def agc_once(self) -> Any:
        """One GC round, awaited on the loop."""
        return await _arun(self._gc_rounds._round_steps())

    async def ashutdown(self) -> None:
        if self._gc_task is not None:
            self._gc_task.cancel()
            await asyncio.wait([self._gc_task])  # the round withdraws
        self.shutdown()

    async def __aenter__(self) -> "AioCluster":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.ashutdown()
