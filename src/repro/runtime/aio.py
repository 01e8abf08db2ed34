"""Asyncio runtime driver: STM threads as coroutine tasks.

The paper treats a thread blocked in ``get``/``put`` as a *scheduling*
policy, not part of the STM semantics — so the same channel kernel can be
driven by coroutines instead of OS threads.  This module provides that
driver:

* :class:`AioCluster` — a :class:`~repro.runtime.cluster.Cluster` whose
  address spaces are :class:`AioAddressSpace` instances and whose GC daemon
  is an asyncio task;
* :class:`AioAddressSpace` — an :class:`~repro.runtime.address_space
  .AddressSpace` whose blocking entry points have ``async`` twins that await
  the same steps (``aput``/``aget``/``acall``/``alookup_channel``/...) plus
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
``await`` — steps yield their waits outside them — so they remain
``threading`` locks: cheap, STMSAN-guardable, and safe against the OS
threads an asyncio cluster still runs: each space's dispatcher
(``stampede-dispatch-N``), which serves requests and delivers replies, and
the GC round that the loop hands to the default executor.  Only the
*events* — the things a logical thread sleeps on — are virtualized.

**Task-local thread identity.**  All tasks share one OS thread, so the
per-OS-thread StampedeThread binding would collide; tasks bind through a
``contextvars.ContextVar`` instead (see :func:`repro.runtime.threads
.current_thread`).

**Remote operations.**  An operation on a channel homed elsewhere, and
every create / lookup / attach / detach / destroy, runs the blocking entry
point's own steps (``AddressSpace._rpc_steps`` and those built on it),
awaited on the loop by :meth:`AioAddressSpace._arun`.  A task cancelled
mid-call sends ``RpcCancel`` and waits out the grace period as a timed-out
caller does.  The default executor runs only what is handed over blocking:
the join of an OS thread, a model checker's events, a GC round, shutdown.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
from asyncio import _get_running_loop
from functools import update_wrapper
from typing import Any, Callable, Coroutine, Generator

from repro.core.flags import GetWildcard, UNKNOWN_REFCOUNT
from repro.core.time import VirtualTime
from repro.obs import events as _obs
from repro.runtime import sync as _sync
from repro.runtime.address_space import (
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


def _awaiting(steps: Callable) -> Callable:
    """The awaitable twin of an entry point: awaits the same ``steps``
    method with :meth:`AioAddressSpace._arun`."""

    async def entry(self: "AioAddressSpace", *args: Any, **kwargs: Any) -> Any:
        return await self._arun(steps(self, *args, **kwargs))

    return update_wrapper(entry, steps)


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

    def _call_slot(self) -> _Call:
        # A fresh call on this space's event: a per-OS-thread slot would be
        # shared by every task of the loop.
        return _Call(self._make_event())

    # -- the awaiting driver -------------------------------------------
    async def _arun(self, steps: Generator) -> Any:
        """Await an entry point's steps on the loop (``_run``'s twin).  A
        cancellation is thrown into the steps at their wait, so that they
        withdraw what they were waiting for before it propagates."""
        advance, arg = steps.send, None
        try:
            while True:
                try:
                    event, timeout = advance(arg)
                except StopIteration as done:
                    return done.value
                wait_async = getattr(event, "wait_async", None)
                try:
                    if wait_async is not None:
                        arg = await wait_async(timeout)
                    else:  # model-checker events: a blocking wait, off-loop
                        arg = await self.loop.run_in_executor(
                            None, event.wait, timeout)
                    advance = steps.send
                except asyncio.CancelledError as exc:
                    advance, arg = steps.throw, exc
        finally:
            steps.close()  # a wait that raised: the steps clean up now

    # -- async facade entry points --------------------------------------
    acall = _awaiting(AddressSpace._rpc_steps)
    acreate_channel = _awaiting(AddressSpace._create_steps)
    alookup_channel = _awaiting(AddressSpace._lookup_steps)
    adestroy_channel = _awaiting(AddressSpace._destroy_steps)
    aattach = _awaiting(AddressSpace._attach_steps)
    adetach = _awaiting(AddressSpace._detach_steps)

    # ``aput`` and ``aget`` on a local channel await the common park
    # themselves: no timeout, no recorder, an AioEvent — the event's loop
    # future, awaited in their own frame, then the outcome the drain left
    # in the waiter.  A timed or recorded park runs ``_parked_steps``.  On
    # either path a task cancelled while parked withdraws its operation
    # under the channel lock before ``CancelledError`` propagates; if a
    # drain completed the operation first, that completion stands — as it
    # does against a timeout — and ``CancelledError`` propagates all the
    # same.
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
            return await self._arun(self._rpc_steps(
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
        if (timeout is not None or _obs.recorder is not None
                or event.__class__ is not AioEvent):
            await self._arun(self._parked_steps(waiter, timeout))
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
                got = self._got(handle, conn_id, block, await self._arun(
                    self._rpc_steps(handle.home_space, got, timeout)))
            return got
        channel = (self._channels.get(handle.channel_id)
                   or self._channel(handle.channel_id))
        reply = self._get_start(channel, conn_id, request, block)
        if reply.__class__ is not _Waiter:
            return reply[:3]
        waiter, event = reply, reply.event
        if (timeout is not None or _obs.recorder is not None
                or event.__class__ is not AioEvent):
            return (await self._arun(self._parked_steps(waiter, timeout)))[:3]
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
            return await self._arun(self._rpc_steps(
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
            return await self.loop.run_in_executor(None, thread.join, timeout)
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
