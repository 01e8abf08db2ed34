"""Unit tests of the asyncio runtime driver (AioEvent, AioAddressSpace,
AioCluster, and the async STM facade).

Cross-runtime *semantics* live in tests/conformance; this file covers the
asyncio-only machinery: the wake event (one flag, one loop future or one
thread sleeper), task identity binding, crash
propagation through ajoin, async context-manager attachments, and
thread/task interop on one cluster.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import sys
import threading
import time

import pytest

from repro.core import INFINITY, STM_OLDEST
from repro.errors import StampedeError
from repro.runtime import Cluster
from repro.runtime.aio import AioCluster, AioEvent
from repro.runtime.gc_daemon import GcDaemon
from repro.runtime.sync import clear_factories, install_factories
from repro.runtime.threads import current_thread
from repro.stm import STM
from repro.stm.aio import AioSTM


def run(coro):
    return asyncio.run(coro)


class TestAioEvent:
    def test_set_on_loop_wakes_async_waiter(self):
        async def main():
            event = AioEvent(asyncio.get_running_loop())

            async def setter():
                event.set()

            waiter = asyncio.create_task(event.wait_async(5.0))
            await setter()
            assert await waiter is True
            assert event.is_set()

        run(main())

    def test_set_from_foreign_thread_wakes_async_waiter(self):
        """The GC daemon / dispatcher path: set() off-loop must wake an
        awaiting task via call_soon_threadsafe."""

        async def main():
            event = AioEvent(asyncio.get_running_loop())
            threading.Timer(0.01, event.set).start()
            t0 = time.monotonic()
            assert await asyncio.wait_for(event.wait_async(), 10.0) is True
            # woken by the set's own wakeup, not by the loop's next timer
            assert time.monotonic() - t0 < 5.0
            other = AioEvent(asyncio.get_running_loop())
            threading.Timer(0.01, other.set).start()
            assert await other.wait_async(10.0) is True

        run(main())

    def test_sync_wait_sees_set_from_loop(self):
        async def main():
            event = AioEvent(asyncio.get_running_loop())
            seen = {}

            def blocker():
                seen["woke"] = event.wait(5.0)

            thread = threading.Thread(target=blocker)
            thread.start()
            event.set()
            await asyncio.get_running_loop().run_in_executor(
                None, thread.join
            )
            assert seen["woke"] is True

        run(main())

    def test_wait_async_timeout_returns_false(self):
        async def main():
            event = AioEvent(asyncio.get_running_loop())
            assert await event.wait_async(0.01) is False
            assert await event.wait_async(0) is False

        run(main())

    def test_foreign_set_between_flag_check_and_future_creation_is_seen(self):
        """A set() from another thread that lands after ``wait_async`` saw
        the flag clear but before its future exists finds no future to
        resolve; the re-check of the flag is what wakes the task."""

        async def main():
            loop = _SetWhileCreatingFuture(asyncio.get_running_loop())
            event = loop.event = AioEvent(loop)
            assert await asyncio.wait_for(event.wait_async(), 5.0) is True
            assert loop.sets == 1

        run(main())

    def test_set_off_loop_before_the_await(self):
        async def main():
            event = AioEvent(asyncio.get_running_loop())
            setter = threading.Thread(target=event.set)
            setter.start()
            setter.join()
            assert event.is_set()
            assert await event.wait_async() is True
            assert await event.wait_async(0) is True

        run(main())

    def test_timeout_honours_a_set_whose_wakeup_has_not_run(self):
        """The flag is set off-loop, but the call_soon_threadsafe that would
        resolve the future runs only after the timeout fired: the timed wait
        still reports the set, exactly like ``Event.wait``."""

        async def main():
            loop = _SlowWakeups(asyncio.get_running_loop(), delay=0.5)
            event = AioEvent(loop)
            threading.Timer(0.01, event.set).start()
            t0 = time.monotonic()
            assert await event.wait_async(0.1) is True
            assert time.monotonic() - t0 < 0.45  # the timeout, not the wake

        run(main())

    def test_os_thread_sleeps_on_an_aio_event(self):
        """A real thread parked in an asyncio space: timed out, then woken by
        a late set, then woken by a set from another thread."""

        async def main():
            loop = asyncio.get_running_loop()
            late = AioEvent(loop)
            assert await loop.run_in_executor(None, late.wait, 0.01) is False
            late.set()
            assert late.is_set()
            assert await loop.run_in_executor(None, late.wait, 0) is True
            assert await loop.run_in_executor(None, late.wait, None) is True

            event = AioEvent(loop)
            threading.Timer(0.02, event.set).start()
            assert await loop.run_in_executor(None, event.wait, 5.0) is True

        run(main())

    def test_foreign_set_while_an_os_thread_publishes_its_sleeper_is_seen(
        self, monkeypatch
    ):
        """The thread twin of the future race: the set lands after ``wait``
        saw the flag clear, before its sleeper exists."""
        from repro.runtime import aio

        loop = asyncio.new_event_loop()
        try:
            event = AioEvent(loop)
            real = aio.OneSleeperEvent

            def sleeper_after_a_set():
                setter = threading.Thread(target=event.set)
                setter.start()
                setter.join()
                return real()

            monkeypatch.setattr(aio, "OneSleeperEvent", sleeper_after_a_set)
            assert event.wait(1.0) is True
        finally:
            loop.close()

    def test_foreign_set_after_the_loop_closed(self):
        """The awaiting task is gone with its loop; a late set from a thread
        must neither raise nor lose the flag."""
        loop = asyncio.new_event_loop()
        event = AioEvent(loop)
        task = loop.create_task(event.wait_async())
        loop.run_until_complete(asyncio.sleep(0))  # the task now awaits
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            loop.run_until_complete(task)
        loop.close()
        errors: list[BaseException] = []

        def setter():
            try:
                event.set()
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        thread = threading.Thread(target=setter)
        thread.start()
        thread.join(timeout=5.0)
        assert errors == [] and event.is_set() and event.wait(0) is True


class _LoopProxy:
    """An event loop that delegates everything but what a test overrides."""

    def __init__(self, loop):
        self._real = loop

    def __getattr__(self, name):
        return getattr(self._real, name)


class _SetWhileCreatingFuture(_LoopProxy):
    """``create_future`` first lets a foreign thread set the event."""

    event: AioEvent
    sets = 0

    def create_future(self):
        setter = threading.Thread(target=self.event.set)
        setter.start()
        setter.join()
        self.sets += 1
        return self._real.create_future()


class _SlowWakeups(_LoopProxy):
    """Cross-thread wakeups are delivered ``delay`` seconds late."""

    def __init__(self, loop, delay):
        super().__init__(loop)
        self.delay = delay

    def call_soon_threadsafe(self, callback, *args):
        return self._real.call_soon_threadsafe(
            self._real.call_later, self.delay, callback, *args
        )


class TestSpawnAndIdentity:
    def test_spawn_task_binds_stampede_identity(self):
        async def main():
            async with AioCluster(n_spaces=1, gc_period=None) as cluster:
                space = cluster.space(0)
                names = []

                async def body():
                    names.append(current_thread().name)

                t1 = space.spawn_task(body, name="one")
                t2 = space.spawn_task(body, name="two")
                await space.ajoin(t1, timeout=10.0)
                await space.ajoin(t2, timeout=10.0)
                assert sorted(names) == ["one", "two"]
                # the driver itself is not bound
                assert current_thread() is None

        run(main())

    def test_concurrent_tasks_have_independent_identities(self):
        """Tasks interleave on one OS thread; the contextvar binding must
        never leak across an await."""

        async def main():
            async with AioCluster(n_spaces=1, gc_period=None) as cluster:
                space = cluster.space(0)
                observed = {}

                async def body(key):
                    me = current_thread()
                    await asyncio.sleep(0)   # force an interleave
                    observed[key] = current_thread() is me

                tasks = [
                    space.spawn_task(body, (k,), name=f"task-{k}")
                    for k in range(4)
                ]
                for t in tasks:
                    await space.ajoin(t, timeout=10.0)
                assert all(observed.values())

        run(main())

    def test_child_inherits_parent_visibility(self):
        async def main():
            async with AioCluster(n_spaces=1, gc_period=None) as cluster:
                space = cluster.space(0)
                me = space.adopt_current_task(virtual_time=7)
                vts = []

                async def child():
                    vts.append(current_thread().virtual_time)

                task = space.spawn_task(child)
                await space.ajoin(task, timeout=10.0)
                me.exit()
                assert vts == [7]

        run(main())

    def test_duplicate_task_name_rejected(self):
        async def main():
            async with AioCluster(n_spaces=1, gc_period=None) as cluster:
                space = cluster.space(0)

                async def body():
                    pass

                t = space.spawn_task(body, name="dup")
                with pytest.raises(StampedeError):
                    space.spawn_task(body, name="dup")
                await space.ajoin(t, timeout=10.0)

        run(main())

    def test_ajoin_propagates_crash(self):
        async def main():
            async with AioCluster(n_spaces=1, gc_period=None) as cluster:
                space = cluster.space(0)

                async def doomed():
                    raise ValueError("task exploded")

                task = space.spawn_task(doomed)
                with pytest.raises(ValueError, match="task exploded"):
                    await space.ajoin(task, timeout=10.0)

        run(main())

    def test_ajoin_times_out_on_stuck_task(self):
        async def main():
            async with AioCluster(n_spaces=1, gc_period=None) as cluster:
                space = cluster.space(0)
                release = asyncio.Event()

                async def stuck():
                    await release.wait()

                task = space.spawn_task(stuck)
                with pytest.raises(TimeoutError):
                    await space.ajoin(task, timeout=0.05)
                release.set()
                await space.ajoin(task, timeout=10.0)

        run(main())


class TestAsyncFacade:
    def test_async_with_attach(self):
        """TUTORIAL spelling: ``async with chan.attach_output() as out``."""

        async def main():
            async with AioCluster(n_spaces=1, gc_period=None) as cluster:
                space = cluster.space(0)
                me = space.adopt_current_task()
                stm = AioSTM(space)
                chan = await stm.create_channel("aio.ctx")
                async with chan.attach_output() as out:
                    await out.put(0, b"frame")
                    assert not out.closed
                assert out.closed
                async with chan.attach_input() as inp:
                    item = await inp.get(STM_OLDEST)
                    assert (item.timestamp, item.value) == (0, b"frame")
                    await inp.consume(0)
                assert inp.closed
                me.exit()

        run(main())

    def test_lookup_wait_woken_by_later_create(self):
        async def main():
            async with AioCluster(n_spaces=1, gc_period=None) as cluster:
                space = cluster.space(0)
                me = space.adopt_current_task()
                stm = AioSTM(space)

                async def late_creator():
                    await asyncio.sleep(0.01)
                    await stm.create_channel("aio.late", home=0)

                creator = asyncio.create_task(late_creator())
                chan = await stm.lookup("aio.late", wait=True, timeout=10.0)
                assert chan.name == "aio.late"
                await creator
                me.exit()

        run(main())

    def test_lookup_wait_timeout(self):
        async def main():
            async with AioCluster(n_spaces=1, gc_period=None) as cluster:
                space = cluster.space(0)
                me = space.adopt_current_task()
                stm = AioSTM(space)
                with pytest.raises(TimeoutError):
                    await stm.lookup("aio.never", wait=True, timeout=0.05)
                me.exit()

        run(main())

    def test_get_timeout_withdraws_waiter(self):
        async def main():
            async with AioCluster(n_spaces=1, gc_period=None) as cluster:
                space = cluster.space(0)
                me = space.adopt_current_task()
                stm = AioSTM(space)
                chan = await stm.create_channel()
                inp = await chan.attach_input()
                out = await chan.attach_output()
                with pytest.raises(TimeoutError):
                    await inp.get(5, timeout=0.05)
                # The parked waiter must be gone: a later put at another
                # timestamp should not complete (or crash into) it.
                await out.put(6, "v6")
                item = await inp.get(6)
                assert item.value == "v6"
                await inp.detach()
                await out.detach()
                me.exit()

        run(main())

    def test_remote_space_ops_and_gc(self):
        """Two spaces: puts/gets traverse the dispatcher from a task, and
        an explicit agc_once advances the horizon."""

        async def main():
            async with AioCluster(n_spaces=2, gc_period=None) as cluster:
                space = cluster.space(0)
                me = space.adopt_current_task(virtual_time=0)
                stm = AioSTM(space)
                chan = await stm.create_channel("aio.remote", home=1)
                out = await chan.attach_output()
                inp = await chan.attach_input()
                await out.put(0, b"abc")
                item = await inp.get(0)
                assert item.value == b"abc"
                await inp.consume(0)
                me.set_virtual_time(INFINITY)
                horizon = await cluster.agc_once()
                assert horizon is INFINITY
                await inp.detach()
                await out.detach()
                me.exit()

        run(main())


@contextlib.contextmanager
def _counting_executor(loop: asyncio.AbstractEventLoop):
    """Count the loop's ``run_in_executor`` calls while the block runs."""
    calls = [0]
    run_in_executor = loop.run_in_executor

    def counting(*args):
        calls[0] += 1
        return run_in_executor(*args)

    loop.run_in_executor = counting
    try:
        yield calls
    finally:
        del loop.run_in_executor


def _executor_threads() -> list[str]:
    """The default executor's worker threads (``asyncio_N``) now alive."""
    return [t.name for t in threading.enumerate()
            if t.name.startswith("asyncio_")]


def _timed_out_remote_ops(cluster, stm, run_op):
    """What a remote put on a full channel and a remote get of an absent
    item raise when their ``timeout`` expires, and what stays parked at the
    home; ``run_op`` runs (or awaits) one facade call."""

    async def ops():
        chan = await run_op(stm.create_channel, "timed", capacity=1, home=1)
        out = await run_op(chan.attach_output)
        inp = await run_op(chan.attach_input)
        await run_op(out.put, 0, b"zero")
        raised = []
        for op, args in ((out.put, (1, b"one")), (inp.get, (7,))):
            try:
                await run_op(op, *args, timeout=0.05)
            except Exception as exc:  # noqa: BLE001 - compared below
                raised.append((type(exc), str(exc)))
        parked = cluster.space(1)._channel(chan.channel_id).parked
        await run_op(inp.detach)
        await run_op(out.detach)
        return raised, parked

    return ops()


class TestRemoteOpsAwaitOnTheLoop:
    """A task's operations on another space are awaited on the loop: no
    executor thread, and the sync op's timeout outcome."""

    def test_timed_out_remote_ops_raise_what_the_sync_ops_raise(self):
        async def blocking(fn, *args, **kwargs):
            return fn(*args, **kwargs)

        async def awaiting(fn, *args, **kwargs):
            return await fn(*args, **kwargs)

        with Cluster(n_spaces=2, gc_period=None) as cluster:
            me = cluster.space(0).adopt_current_thread(virtual_time=0)
            try:
                # nothing suspends on the blocking facade: one send ends it
                with pytest.raises(StopIteration) as done:
                    _timed_out_remote_ops(
                        cluster, STM(cluster.space(0)), blocking).send(None)
                want, parked = done.value.value
            finally:
                me.exit()
        assert [kind for kind, _ in want] == [TimeoutError, TimeoutError]
        assert parked == []

        async def main():
            async with AioCluster(n_spaces=2, gc_period=None) as cluster:
                me = cluster.space(0).adopt_current_task(virtual_time=0)
                with _counting_executor(asyncio.get_running_loop()) as calls:
                    got = await _timed_out_remote_ops(
                        cluster, AioSTM(cluster.space(0)), awaiting)
                me.exit()
                return got, calls[0]

        (got, parked), executor_calls = run(main())
        assert got == want
        assert parked == []
        assert executor_calls == 0

    def test_channel_life_and_remote_ops_use_no_executor_thread(self):
        """Create, lookup, attach, put, get, consume, detach and destroy on
        a channel homed in the other space of a ``gc_period=None`` cluster:
        the loop's default executor is never asked for a thread."""

        async def main():
            async with AioCluster(n_spaces=2, gc_period=None) as cluster:
                space = cluster.space(0)
                me = space.adopt_current_task(virtual_time=0)
                stm = AioSTM(space)
                with _counting_executor(asyncio.get_running_loop()) as calls:
                    # a lookup parked at the registry (space 0) from space 1
                    lookup = asyncio.ensure_future(AioSTM(
                        cluster.space(1)).lookup("no.executor", wait=True))
                    while not space._name_waiters.get("no.executor"):
                        await asyncio.sleep(0.001)
                    chan = await stm.create_channel("no.executor", home=1)
                    assert (await lookup).handle == chan.handle
                    async with chan.attach_output() as out, \
                            chan.attach_input() as inp:
                        for ts in range(3):
                            await out.put(ts, bytes(ts + 1))
                            item = await inp.get(ts)
                            assert item.value == bytes(ts + 1)
                            await inp.consume(ts)
                    await chan.destroy()
                    threads = _executor_threads()
                me.exit()
                return calls[0], threads

        executor_calls, threads = run(main())
        assert executor_calls == 0
        assert threads == []

    def test_a_remote_name_wait_is_withdrawn_on_timeout_and_cancel(self):
        """A ``lookup(wait=True)`` parked at the registry from another space
        is withdrawn by the caller's ``RpcCancel`` and acknowledged, as a
        parked put or get is: a timeout raises the cancellation (not the
        unacknowledged-cancel error after the grace period), on both
        drivers, and a cancelled task leaves no waiter at the registry."""
        with Cluster(n_spaces=2, gc_period=None) as cluster:
            with pytest.raises(TimeoutError, match="cancelled by caller"):
                STM(cluster.space(1)).lookup("absent", wait=True, timeout=0.05)
            assert not cluster.space(0)._name_waiters.get("absent")

        async def main():
            async with AioCluster(n_spaces=2, gc_period=None) as cluster:
                registry = cluster.space(0)._name_waiters
                stm = AioSTM(cluster.space(1))
                with pytest.raises(TimeoutError, match="cancelled by caller"):
                    await stm.lookup("absent", wait=True, timeout=0.05)
                assert not registry.get("absent")
                lookup = asyncio.ensure_future(stm.lookup("late", wait=True))
                while not registry.get("late"):
                    await asyncio.sleep(0.001)
                lookup.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await lookup
                assert not registry.get("late")

        run(main())

    #: ``repro`` calls on every thread per remote put → get → consume of a
    #: 64 B item on ``AioCluster(2)``: 173 while each space served on a
    #: dispatcher thread, 164 since they serve on the loop.
    REMOTE_CYCLE_CALLS = 164
    #: the same cycle on ``Cluster(2)``
    THREADS_REMOTE_CYCLE_CALLS = 146

    @pytest.mark.usefixtures("bare_op_path")
    def test_python_calls_of_one_remote_cycle_on_every_thread(self):
        """``call`` events in ``repro`` code, coroutine resumes included,
        over 100 cycles on a channel homed in the other space, counted on
        every thread, as the thread driver's cycle is: the facade, the steps
        of three RPCs, the send and the home's receive of each request
        (in-process delivery runs on the sender), its serving and each
        reply's wakeup.  The event loop's own calls are not counted: how
        many it makes depends on when a wakeup lands.  A call that strays
        into a neighbouring cycle (a dispatcher thread's last) is tolerated,
        one more call per cycle on either driver is not.  The asyncio cycle
        makes more calls than the thread one: every await level counts its
        resume as a call, and a task's RPC has three (the facade, the
        space's entry point, the steps' driver) beside the steps' generator.
        """
        aio = _repro_calls_per_cycle(_aio_remote_cycles)
        threads = _repro_calls_per_cycle(_threads_remote_cycles)
        assert aio < self.REMOTE_CYCLE_CALLS + 1, aio
        assert threads < self.THREADS_REMOTE_CYCLE_CALLS + 1, threads


#: the cycles the remote-cycle counts average over, after 10 warm ones
_CYCLES = 100


def _repro_calls_per_cycle(run_cycles) -> float:
    """``call`` events in ``repro`` code per cycle on every thread while
    ``run_cycles`` holds its counting window open: the profile function is
    installed on this thread and, before ``run_cycles`` builds its cluster,
    for every thread started after, each thread counting into a cell of
    its own."""
    window = [False]
    cells: dict[int, list[int]] = {}
    get_ident = threading.get_ident

    def profile(frame, event, arg):
        if window[0] and event == "call" and "/repro/" in frame.f_code.co_filename:
            cell = cells.get(get_ident())
            if cell is None:
                cell = cells[get_ident()] = [0]
            cell[0] += 1

    gc.collect()  # no earlier test's garbage collected while counting
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        run_cycles(window)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return sum(cell[0] for cell in cells.values()) / _CYCLES


def _aio_remote_cycles(window: list) -> None:
    async def main():
        async with AioCluster(n_spaces=2, gc_period=None) as cluster:
            space = cluster.space(0)
            me = space.adopt_current_task(virtual_time=0)
            chan = await AioSTM(space).create_channel("rcycle", home=1)
            async with chan.attach_output() as out, chan.attach_input() as inp:
                for ts in range(10 + _CYCLES):
                    window[0] = ts >= 10
                    await out.put(ts, bytes(64), refcount=1)
                    await inp.get(ts)
                    await inp.consume(ts)
                window[0] = False
            me.exit()

    asyncio.run(main(), debug=False)  # debug mode adds calls


def _threads_remote_cycles(window: list) -> None:
    with Cluster(n_spaces=2, gc_period=None) as cluster:
        space = cluster.space(0)
        me = space.adopt_current_thread(virtual_time=0)
        chan = STM(space).create_channel("rcycle", home=1)
        with chan.attach_output() as out, chan.attach_input() as inp:
            for ts in range(10 + _CYCLES):
                window[0] = ts >= 10
                out.put(ts, bytes(64), refcount=1)
                inp.get(ts)
                inp.consume(ts)
            window[0] = False
        me.exit()


class TestOneOsThread:
    """An asyncio cluster runs on its loop's thread alone: its spaces serve
    each other there and its GC rounds are awaited there."""

    @pytest.mark.parametrize("gc_period", [None, 0.01])
    @pytest.mark.parametrize("n_spaces", [1, 2, 4])
    def test_no_thread_starts_whatever_the_size_and_gc(self, n_spaces, gc_period):
        """The threads alive before the cluster is built are all there are
        after a put → get → consume on the farthest space, after awaited GC
        rounds (periodic ones too, when on) and after ``ashutdown``."""

        async def main():
            before = set(threading.enumerate())

            def new_threads() -> list[str]:
                return sorted(t.name for t in set(threading.enumerate())
                              - before)

            async with AioCluster(n_spaces=n_spaces, gc_period=gc_period) as cluster:
                space = cluster.space(0)
                me = space.adopt_current_task(virtual_time=0)
                chan = await AioSTM(space).create_channel(home=n_spaces - 1)
                async with chan.attach_output() as out, \
                        chan.attach_input() as inp:
                    await out.put(0, b"x")
                    assert (await inp.get(0)).value == b"x"
                    await inp.consume(0)
                assert new_threads() == []
                rounds = cluster._gc_rounds.stats
                deadline = time.monotonic() + 10
                while gc_period is not None and rounds.epochs < 2:
                    assert time.monotonic() < deadline
                    await asyncio.sleep(gc_period)
                me.set_virtual_time(INFINITY)
                assert await cluster.agc_once() is INFINITY
                assert new_threads() == []
                me.exit()
            assert new_threads() == []

        run(main())

    def test_a_blocking_call_on_the_loop_thread_raises(self):
        """Only the loop serves an asyncio cluster, so a blocking call made
        on its thread would wait for ever: ``gc_once()`` and a remote sync
        ``put`` raise, naming the awaitable to use, and the loop goes on
        serving — the aborted GC round has passed its turn on."""

        async def main():
            async with AioCluster(n_spaces=2, gc_period=None) as cluster:
                space = cluster.space(0)
                me = space.adopt_current_task(virtual_time=0)
                chan = await AioSTM(space).create_channel(home=1)
                async with chan.attach_output() as out:
                    with pytest.raises(StampedeError, match="agc_once"):
                        cluster.gc_once()
                    with pytest.raises(StampedeError, match="aput"):
                        space.put(chan.handle, out.conn_id, 0, b"x", 1)
                    me.set_virtual_time(INFINITY)
                    assert await asyncio.wait_for(
                        cluster.agc_once(), 10) is INFINITY
                me.exit()

        run(main())

    def test_gc_rounds_take_turns(self, monkeypatch):
        """Rounds awaited on the loop and one run from an OS thread never
        interleave: no round starts while another waits for its replies, so
        each broadcasts under its own epoch.  A round cancelled while
        waiting for its turn gives up its place, and one cancelled as the
        turn is handed to it passes the turn on."""
        broadcast_epochs_current = []
        real_broadcast = GcDaemon._broadcast_steps

        def broadcast(self, coordinator, epoch, horizon):
            broadcast_epochs_current.append(epoch == self._epoch)
            return (yield from real_broadcast(self, coordinator, epoch, horizon))

        monkeypatch.setattr(GcDaemon, "_broadcast_steps", broadcast)
        handed = []
        real_pass = GcDaemon._pass_turn

        def pass_turn(self):
            real_pass(self)
            if len(handed) == 1:  # the first hand-over: cancel its taker
                handed[0].cancel()
            handed.append(None)

        monkeypatch.setattr(GcDaemon, "_pass_turn", pass_turn)

        async def main():
            async with AioCluster(n_spaces=3, gc_period=None) as cluster:
                rounds = [asyncio.ensure_future(cluster.agc_once())
                          for _ in range(5)]
                handed.append(rounds[1])
                await asyncio.sleep(0)  # one round runs, four wait their turn
                rounds[3].cancel()
                done = await asyncio.wait_for(asyncio.gather(
                    *rounds, asyncio.get_running_loop().run_in_executor(
                        None, cluster.gc_once),
                    return_exceptions=True), 30)
                return [type(r) if isinstance(r, BaseException) else r
                        for r in done]

        outcomes = run(main())
        cancelled = asyncio.CancelledError
        assert outcomes == [INFINITY, cancelled, INFINITY, cancelled,
                            INFINITY, INFINITY]
        assert broadcast_epochs_current == [True] * 4

    def test_refuses_a_model_checker_event_factory(self):
        """As ``ProcCluster`` refuses model-checker factories
        (``test_refuses_model_checker_sync_factories``): an asyncio space
        parks on ``AioEvent`` alone.  A lock factory alone is allowed
        (``test_parked_path.py``)."""

        async def build():
            AioCluster(n_spaces=2)

        install_factories(lambda name: threading.Lock(), threading.Event)
        try:
            with pytest.raises(StampedeError, match="event factory"):
                run(build())
        finally:
            clear_factories()


class TestThreadTaskInterop:
    def test_os_thread_and_task_share_a_channel(self):
        """A synchronous producer on a spawned OS thread feeds an awaiting
        task — the AioEvent's dual nature end-to-end."""

        async def main():
            async with AioCluster(n_spaces=1, gc_period=None) as cluster:
                space = cluster.space(0)
                me = space.adopt_current_task()
                stm = AioSTM(space)
                chan = await stm.create_channel("interop")
                inp = await chan.attach_input()

                def producer():
                    from repro.stm import STM

                    sync_chan = STM(space).lookup("interop")
                    out = sync_chan.attach_output()
                    out.put(0, "from-thread")
                    out.detach()

                thread = space.spawn(producer, (), virtual_time=0)
                item = await inp.get(0)   # parks as a task, woken by thread
                assert item.value == "from-thread"
                await inp.consume(0)
                await space.ajoin(thread, timeout=10.0)
                await inp.detach()
                me.exit()

        run(main())

    def test_periodic_gc_task_drains_bounded_put(self):
        """The asyncio GC daemon must reclaim consumed-unknown-refcount
        items and wake a parked bounded put without any manual gc call."""

        async def main():
            async with AioCluster(n_spaces=1, gc_period=0.01) as cluster:
                space = cluster.space(0)
                me = space.adopt_current_task(virtual_time=0)
                stm = AioSTM(space)
                chan = await stm.create_channel(capacity=1)
                out = await chan.attach_output()
                inp = await chan.attach_input()
                await out.put(0, "v0")
                item = await inp.get(0)
                assert item.value == "v0"
                await inp.consume(0)
                me.set_virtual_time(1)
                # capacity=1 and ts=0 consumed: only a GC round (horizon 1)
                # reclaims the slot and completes this parked put.
                await out.put(1, "v1", timeout=10.0)
                await inp.get_consume(1)
                await inp.detach()
                await out.detach()
                me.exit()

        run(main())
