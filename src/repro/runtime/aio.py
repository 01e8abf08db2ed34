"""Asyncio runtime driver: STM threads as coroutine tasks.

The paper treats a thread blocked in ``get``/``put`` as a *scheduling*
policy, not part of the STM semantics — so the same channel kernel can be
driven by coroutines instead of OS threads.  This module provides that
driver:

* :class:`AioCluster` — a :class:`~repro.runtime.cluster.Cluster` whose
  address spaces are :class:`AioAddressSpace` instances and whose GC daemon
  is an asyncio task;
* :class:`AioAddressSpace` — an :class:`~repro.runtime.address_space
  .AddressSpace` with ``async`` variants of every blocking entry point
  (``aput``/``aget``/``acall``/``alookup_channel``/...) plus
  :meth:`~AioAddressSpace.spawn_task` to run an ``async def`` as a Stampede
  thread;
* :class:`AioEvent` — the per-space end of the PR 3 sync-factory seam: a
  flag plus one loop future, made only when a task awaits (or a
  one-sleeper thread event, made only when an OS thread parks here), set
  from either side.

Design notes
------------

**Exactly one kernel.**  The async paths run the thread runtime's start
functions (``_put_start``/``_get_start``/``_consume_apply``) and substitute
an ``await`` for the blocking event wait.  Put/get/consume semantics — §4.2
visibility rules, wildcards, GC horizons — cannot diverge between drivers
because there is no second implementation.

**Locks stay real.**  Runtime-internal locks (channel lock, registry lock,
...) are held only across short critical sections and never across an
``await``, so they remain ``threading`` locks: cheap, STMSAN-guardable, and
safe against the *other* threads that still exist in an asyncio cluster
(GC executor rounds, dispatcher threads of multi-space clusters).  Only the
*events* — the things a logical thread sleeps on — are virtualized.

**Task-local thread identity.**  All tasks share one OS thread, so the
per-OS-thread StampedeThread binding would collide; tasks bind through a
``contextvars.ContextVar`` instead (see :func:`repro.runtime.threads
.current_thread`).

**Remote operations.**  An operation on a channel homed elsewhere runs the
synchronous entry point on the default executor (the dispatcher reply path
is unchanged); the expected asyncio regime — many sparse connections, one
space — never leaves the local path.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import time
from asyncio import _get_running_loop
from typing import Any, Callable, Coroutine

from repro.core.flags import GetWildcard, UNKNOWN_REFCOUNT
from repro.core.time import VirtualTime
from repro.obs import events as _obs
from repro.runtime import sync as _sync
from repro.runtime.address_space import (
    AddressSpace,
    ChannelHandle,
    JoinReq,
    _Waiter,
)
from repro.runtime.cluster import Cluster
from repro.runtime.messages import LookupNameReq
from repro.runtime.sync import OneSleeperEvent
from repro.runtime.threads import StampedeThread, current_thread

__all__ = ["AioEvent", "AioAddressSpace", "AioCluster"]


def _resolve(future: asyncio.Future) -> None:
    if not future.done():  # a cancelled await leaves nothing to wake
        future.set_result(None)


class AioEvent:
    """The event a parked operation sleeps on in an asyncio space.

    One flag, which is the event's state, plus at most one sleeper: the
    loop future of the task that awaits (:meth:`wait_async`, or published
    by ``aput`` / ``aget`` themselves on their common park) or, for an OS
    thread parked in this space, a :class:`~repro.runtime.sync
    .OneSleeperEvent` (:meth:`wait`).  Both are made only when somebody
    actually sleeps, and the flag is re-checked after publishing them, so a
    ``set()`` from another thread landing in between is seen.  ``set()``
    writes the flag first and then wakes whichever sleeper it finds: a
    future inline when the setter runs on the loop (a task's put draining a
    task's get), through ``call_soon_threadsafe`` when a real thread (GC
    round, dispatcher) completes the waiter.  Every waiter is fresh per
    park, so there is no ``clear()``.
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
        """Blocking wait, for an OS thread parked in an asyncio space."""
        if self._flag:
            return True
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


class AioAddressSpace(AddressSpace):
    """An address space whose blocking entry points have ``async`` twins.

    The sync API (``put``/``get``/``spawn``/...) keeps working — threads
    and tasks can share one cluster — but threads of *this* space park on
    :class:`AioEvent` waiters so either kind of caller can sleep on them.
    """

    cluster: "AioCluster"

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        # Read through the cluster, not stored: a 30th instance attribute
        # would demote every ``self.x`` of the class to a dict lookup.
        return self.cluster.loop

    # -- the event seam -------------------------------------------------
    def _make_event(self) -> Any:
        # The factory global and the cluster's loop read directly: this runs
        # on every park.
        if _sync._event_factory is not None:  # model checker: its events
            return _sync.make_event()
        return AioEvent(self.cluster.loop)

    # -- async RPC client ----------------------------------------------
    async def acall(
        self, dst_space: int, body: Any, timeout: float | None = None
    ) -> Any:
        """Awaitable twin of :meth:`AddressSpace.call`."""
        if dst_space == self.space_id:
            return await self._ahandle_blocking_locally(body, timeout)
        return await self._in_executor(self.call, dst_space, body, timeout)

    async def _in_executor(self, fn: Callable, *args: Any) -> Any:
        return await self.loop.run_in_executor(None, lambda: fn(*args))

    async def _ahandle_blocking_locally(
        self, body: Any, timeout: float | None
    ) -> Any:
        """Awaitable twin of ``_handle_blocking_locally``."""
        if isinstance(body, LookupNameReq) and body.wait:
            return await self._alocal_lookup_wait(body, timeout)
        if isinstance(body, JoinReq):
            return await self._in_executor(self._local_join, body, timeout)
        result = self._handle(body, self.space_id, None)
        if result.__class__ is _Waiter:
            return await self._await_parked(result, timeout)
        return result

    # -- sleeping on a parked local operation ---------------------------
    #
    # ``aput`` and ``aget`` await the common park themselves: no timeout, no
    # recorder, an AioEvent — the event's loop future, awaited in their own
    # frame, then the outcome the drain left in the waiter.  Everything else
    # (a timeout, the ``block(put|get)`` span, a model-checker event) goes
    # through ``_await_parked``.  On either path a task cancelled while
    # parked withdraws its operation under the channel lock before
    # ``CancelledError`` propagates; if a drain completed the operation
    # first, that completion stands — as it does against a timeout — and
    # ``CancelledError`` propagates all the same.
    async def _await_parked(
        self, waiter: _Waiter, timeout: float | None
    ) -> Any:
        """Awaitable twin of ``_await_local`` (same completion contract)."""
        rec = _obs.recorder
        t0 = rec.now() if rec is not None else None
        event = waiter.event
        wait_async = getattr(event, "wait_async", None)
        try:
            if wait_async is not None:
                woke = await wait_async(timeout)
            else:  # model-checker factories: plain event, wait off-loop
                woke = await self._in_executor(event.wait, timeout)
        except asyncio.CancelledError:
            self._withdraw(waiter)
            raise
        return self._parked_outcome(waiter, woke, t0)

    def _withdraw(self, waiter: _Waiter) -> None:
        """Take a cancelled task's operation out of its wait set, unless a
        drain completed it first."""
        with waiter.channel.lock:
            if self._unpark(waiter):
                waiter.event.set()  # releases an executor thread still waiting

    async def _alocal_lookup_wait(
        self, body: LookupNameReq, timeout: float | None
    ) -> ChannelHandle:
        deadline = (time.monotonic() + timeout) if timeout is not None else None
        while True:
            handle, event = self._local_lookup_start(body)
            if handle is not None:
                return handle
            remaining = self._local_lookup_left(body, event, deadline)
            wait_async = getattr(event, "wait_async", None)
            if wait_async is not None:
                await wait_async(remaining)
            else:  # pragma: no cover - model-checker factories
                await self._in_executor(event.wait, remaining)
            self._local_lookup_withdraw(body, event)

    # -- async facade entry points --------------------------------------
    async def acreate_channel(self, *args: Any, **kwargs: Any) -> ChannelHandle:
        return await self._in_executor(
            lambda: self.create_channel(*args, **kwargs)
        )

    async def alookup_channel(
        self, name: str, wait: bool = False, timeout: float | None = None
    ) -> ChannelHandle:
        handle = self.cluster._named_handle(name)
        if handle is not None:
            return handle
        handle = await self.acall(
            self.cluster.registry_space, LookupNameReq(name, wait),
            timeout=timeout,
        )
        self.cluster._note_named_handle(handle)
        return handle

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
            return await self._in_executor(
                self.put, handle, conn_id, timestamp, payload, size, refcount,
                block, timeout,
            )
        channel = (self._channels.get(handle.channel_id)
                   or self._channel(handle.channel_id))
        waiter = self._put_start(channel, conn_id, timestamp, payload, size,
                                 refcount, block)
        if waiter is None:
            return
        event = waiter.event
        if (timeout is not None or _obs.recorder is not None
                or event.__class__ is not AioEvent):
            await self._await_parked(waiter, timeout)
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
        if handle.home_space != self.space_id:
            return await self._in_executor(
                self.get, handle, conn_id, request, block, timeout
            )
        channel = (self._channels.get(handle.channel_id)
                   or self._channel(handle.channel_id))
        reply = self._get_start(channel, conn_id, request, block)
        if reply.__class__ is not _Waiter:
            return reply[:3]
        waiter, event = reply, reply.event
        if (timeout is not None or _obs.recorder is not None
                or event.__class__ is not AioEvent):
            return (await self._await_parked(waiter, timeout))[:3]
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
            return await self._in_executor(
                self.consume, handle, conn_id, timestamp, until
            )
        channel = (self._channels.get(handle.channel_id)
                   or self._channel(handle.channel_id))
        self._consume_apply(channel, conn_id, timestamp, until)

    async def aattach(
        self, handle: ChannelHandle, *, is_input: bool, thread: StampedeThread
    ) -> int:
        return await self._in_executor(
            lambda: self.attach(handle, is_input=is_input, thread=thread)
        )

    async def adetach(self, handle: ChannelHandle, conn_id: int) -> None:
        await self._in_executor(self.detach, handle, conn_id)

    async def adestroy_channel(self, handle: ChannelHandle) -> None:
        await self._in_executor(self.destroy_channel, handle)

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
        task = self.loop.create_task(
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
        if task is None:
            # An OS-thread Stampede thread: join it off-loop.
            return await self._in_executor(thread.join, timeout)
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
    """A Stampede cluster driven by an asyncio event loop.

    Must be constructed while the loop is running (``async with`` it, or
    build it inside ``asyncio.run``).  The periodic GC daemon is an asyncio
    task that off-loads each scatter/gather round to the default executor,
    so GC never stalls the loop; ``gc_once()`` keeps working synchronously
    for tests.
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
        if loop is None:
            loop = asyncio.get_running_loop()
        self.loop = loop
        # The thread GcDaemon stays off; the loop drives GC instead.
        super().__init__(n_spaces, gc_period=None, **kwargs)
        self._gc_task: asyncio.Task | None = None
        self._aio_gc_period = gc_period
        if gc_period is not None:
            self._gc_task = loop.create_task(
                self._gc_loop(gc_period), name="stampede-aio-gc"
            )

    async def _gc_loop(self, period: float) -> None:
        while not self._shut_down:
            await asyncio.sleep(period)
            if self._shut_down:
                return
            try:
                await self.loop.run_in_executor(None, self.gc_once)
            except concurrent.futures.CancelledError:  # pragma: no cover
                return
            except Exception:  # pragma: no cover - GC must keep trying
                if self._shut_down:
                    return

    def space(self, space_id: int) -> AioAddressSpace:
        return self._spaces[space_id]  # narrowed return type

    async def agc_once(self) -> Any:
        """One GC round without blocking the loop."""
        return await self.loop.run_in_executor(None, self.gc_once)

    async def ashutdown(self) -> None:
        if self._gc_task is not None:
            self._gc_task.cancel()
            try:
                await self._gc_task
            except asyncio.CancelledError:
                pass
            self._gc_task = None
        await self.loop.run_in_executor(None, self.shutdown)

    def shutdown(self) -> None:
        if self._gc_task is not None and not self.loop.is_closed():
            self._gc_task.cancel()
            self._gc_task = None
        super().shutdown()

    async def __aenter__(self) -> "AioCluster":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.ashutdown()
