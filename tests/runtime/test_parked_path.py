"""The parked path: what a blocked put, get or synchronous RPC sleeps on.

Each has exactly one sleeper, so each sleeps on one primitive: an OS thread
on a ``OneSleeperEvent`` (a raw lock held while unset), an asyncio task on
one loop future.  Neither goes through ``threading.Condition`` (the heart of
``threading.Event``) or ``asyncio.Event``.  These tests count; they do not
time.
"""

import asyncio
import gc
import sys
import threading
import time

import pytest

from repro.obs import events as obs_events
from repro.runtime import Cluster, sync
from repro.runtime.address_space import AddressSpace
from repro.runtime.aio import AioAddressSpace, AioCluster
from repro.runtime.messages import ClockProbeReq
from repro.stm.aio import AioSTM

N = 1_000


@pytest.fixture
def counted(monkeypatch):
    """Counts ``threading.Condition`` constructions, waits and notifies, and
    ``asyncio.Event`` constructions, from the moment of the patch."""
    counts = {"condition": 0, "asyncio.Event": 0}

    class Condition(threading.Condition):
        def __init__(self, *args, **kwargs):
            counts["condition"] += 1
            super().__init__(*args, **kwargs)

        def wait(self, *args, **kwargs):
            counts["condition"] += 1
            return super().wait(*args, **kwargs)

        def notify(self, *args, **kwargs):
            counts["condition"] += 1
            return super().notify(*args, **kwargs)

    class Event(asyncio.Event):
        def __init__(self, *args, **kwargs):
            counts["asyncio.Event"] += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(threading, "Condition", Condition)
    monkeypatch.setattr(asyncio, "Event", Event)
    return counts


def _parked_channel(space, me):
    handle = space.create_channel(capacity=1)
    out = space.attach(handle, is_input=False, thread=me)
    inp = space.attach(handle, is_input=True, thread=me)
    return handle, out, inp, space._channel(handle.channel_id)


class TestNoConditionOnTheParkedPath:
    """A thousand parked puts (every one of them parks: the consumer frees
    the slot only once the next put is in the wait set) and a thousand RPCs
    use no ``Condition`` and no ``asyncio.Event``."""

    def test_parked_thread_puts(self, counted):
        with Cluster(n_spaces=1, gc_period=None) as cluster:
            space = cluster.space(0)
            me = space.adopt_current_thread(virtual_time=0)
            handle, out, inp, channel = _parked_channel(space, me)

            def produce():
                for ts in range(N + 1):
                    space.put(handle, out, ts, b"x", 1, refcount=1)

            producer = threading.Thread(target=produce)
            producer.start()
            counted.update(dict.fromkeys(counted, 0))  # Thread.start's own
            for ts in range(N + 1):
                while ts < N and not channel.put_waiters:
                    time.sleep(0)
                assert space.get(handle, inp, ts)[0] == b"x"
                space.consume(handle, inp, ts)
            seen = dict(counted)
            producer.join(timeout=10.0)
            me.exit()
        assert channel.waiters_woken == N
        assert seen == {"condition": 0, "asyncio.Event": 0}

    def test_parked_task_puts(self, counted):
        async def main():
            async with AioCluster(n_spaces=1, gc_period=None) as cluster:
                space = cluster.space(0)
                me = space.adopt_current_task(virtual_time=0)
                handle, out, inp, channel = _parked_channel(space, me)

                async def produce():
                    for ts in range(N + 1):
                        await space.aput(handle, out, ts, b"x", 1, refcount=1)

                counted.update(dict.fromkeys(counted, 0))  # setup's own
                producer = asyncio.ensure_future(produce())
                for ts in range(N + 1):
                    while ts < N and not channel.put_waiters:
                        await asyncio.sleep(0)
                    assert (await space.aget(handle, inp, ts))[0] == b"x"
                    await space.aconsume(handle, inp, ts)
                await producer
                seen = dict(counted)
                me.exit()
                return channel.waiters_woken, seen

        woken, seen = asyncio.run(main())
        assert woken == N
        assert seen == {"condition": 0, "asyncio.Event": 0}

    def test_in_process_rpcs(self, counted):
        with Cluster(n_spaces=2, gc_period=None) as cluster:
            space = cluster.space(0)
            counted.update(dict.fromkeys(counted, 0))  # setup's own
            for _ in range(N):
                space.call(1, ClockProbeReq(), timeout=10.0)
            seen = dict(counted)
        assert seen == {"condition": 0, "asyncio.Event": 0}


def _parked_aio_put_calls() -> tuple[list[int], int]:
    """``sys.setprofile`` ``call`` events (coroutine resumes included) of
    four parked asyncio puts, each from its start to its return after the
    consume that wakes it, and how often the loop's default executor was
    asked for a thread meanwhile."""
    executor_calls = [0]

    async def main():
        async with AioCluster(n_spaces=1, gc_period=None) as cluster:
            space = cluster.space(0)
            loop = asyncio.get_running_loop()
            run_in_executor = loop.run_in_executor

            def counting_run_in_executor(*args):
                executor_calls[0] += 1
                return run_in_executor(*args)

            me = space.adopt_current_task(virtual_time=0)
            handle, out, inp, _ = _parked_channel(space, me)
            counts = []
            for ts in range(0, 8, 2):
                space.put(handle, out, ts, b"x", 1, refcount=1)
                calls = [0]

                def profile(frame, event, arg):
                    if event == "call":
                        calls[0] += 1

                loop.run_in_executor = counting_run_in_executor
                sys.setprofile(profile)
                try:
                    put = asyncio.ensure_future(
                        space.aput(handle, out, ts + 1, b"y", 1, refcount=1))
                    await asyncio.sleep(0)  # the put parks
                    await space.aconsume(handle, inp, ts)  # and is woken
                    await put
                finally:
                    sys.setprofile(None)
                    del loop.run_in_executor
                counts.append(calls[0])
                await space.aget(handle, inp, ts + 1)
                await space.aconsume(handle, inp, ts + 1)
            me.exit()
            return counts

    # Earlier tests' cyclic garbage (closed event loops) is collected now,
    # not by a collection that happens to fall inside the counted window,
    # where ``BaseEventLoop.__del__`` would count as the item's own calls.
    gc.collect()
    counts = asyncio.run(main(), debug=False)  # debug mode adds calls
    return counts, executor_calls[0]


@pytest.mark.usefixtures("bare_op_path")
def test_python_calls_of_one_parked_aio_put_and_its_wake():
    """With a ``threading.Event`` + ``asyncio.Event`` pair awaited through
    ``wait_for`` this was 118 calls and one loop future awaited directly made
    it 104; later trims of the op path brought it to 91, and a kernel put /
    consume that no longer calls into the item index and the connection's
    state to 80.  Awaiting the loop future in ``aput``'s own frame, a park
    that builds only the waiter and a wake that resolves the future inline
    made it 70.  The bound is that count: one more call fails it.
    ``STMOBS=1`` / ``STMSAN`` add their own calls, so ``bare_op_path``
    disarms them."""
    counts, executor_calls = _parked_aio_put_calls()
    assert max(counts[1:]) < 71, counts
    assert executor_calls == 0


@pytest.mark.usefixtures("bare_op_path")
def test_a_lock_factory_alone_keeps_tasks_on_their_loop_future():
    """Installing only a lock factory changes no event: a parked task still
    awaits one loop future, not a thread ``OneSleeperEvent`` waited on
    through the default executor (136 calls when it did)."""
    sync.install_factories(lambda name: threading.Lock(), None)
    try:
        counts, executor_calls = _parked_aio_put_calls()
    finally:
        sync.clear_factories()
    assert max(counts[1:]) < 71, counts
    assert executor_calls == 0


def _pingpong_item_calls(warm: int = 64, items: int = 16) -> float:
    """``sys.setprofile`` ``call`` events per item of two tasks on a
    capacity-1 channel through ``repro.stm.aio``: a producer task putting,
    this task getting and consuming, every item parking one side.  Counted
    over ``items`` items after ``warm`` untimed ones, both tasks included."""

    async def main():
        async with AioCluster(n_spaces=1, gc_period=None) as cluster:
            space = cluster.space(0)
            me = space.adopt_current_task(virtual_time=0)
            chan = await AioSTM(space).create_channel(capacity=1)
            inp = await chan.attach_input()

            async def produce():
                async with chan.attach_output() as out:
                    for ts in range(warm + items + 1):
                        await out.put(ts, b"x", refcount=1)

            producer = space.spawn_task(produce, virtual_time=0)
            calls = [0]

            def profile(frame, event, arg):
                if event == "call":
                    calls[0] += 1

            for ts in range(warm + items + 1):
                if ts == warm:
                    sys.setprofile(profile)
                elif ts == warm + items:
                    sys.setprofile(None)
                await inp.get(ts)
                await inp.consume(ts)
            await space.ajoin(producer, timeout=10.0)
            await inp.detach()
            me.exit()
            return calls[0] / items

    gc.collect()  # as in ``_parked_aio_put_calls``
    return asyncio.run(main(), debug=False)


@pytest.mark.usefixtures("bare_op_path")
def test_python_calls_of_one_pingpong_item():
    """The ``aio_pingpong`` benchmark's item: 60 calls while a parked op
    awaited its loop future through two nested coroutines, built a
    request body beside its waiter and read the event factory and the loop
    through calls; 49 since.  The bound is that count."""
    assert _pingpong_item_calls() <= 49


@pytest.mark.usefixtures("bare_op_path")
@pytest.mark.parametrize("armed", [False, True], ids=["timeout", "recorder"])
@pytest.mark.parametrize("op", ["put", "get"])
def test_a_timed_or_recorded_park_still_withdraws_and_records(
        monkeypatch, op, armed):
    """A park given ``timeout=``, with a recorder armed or not, leaves the
    loop-future fast path: it still withdraws on timeout, and with a
    recorder armed still records ``block(put)`` / ``block(get)`` for a
    park that timed out and for one a drain completed."""
    recorder = obs_events.Recorder() if armed else None
    monkeypatch.setattr(obs_events, "recorder", recorder)

    async def main():
        async with AioCluster(n_spaces=1, gc_period=None) as cluster:
            space = cluster.space(0)
            me = space.adopt_current_task(virtual_time=0)
            handle, out, inp, channel = _parked_channel(space, me)
            if op == "put":
                await space.aput(handle, out, 0, b"x", 1, refcount=1)
                parked = space.aput(handle, out, 1, b"y", 1, refcount=1,
                                    timeout=0.01)
            else:
                parked = space.aget(handle, inp, 0, timeout=0.01)
            with pytest.raises(TimeoutError, match=f"blocking {op} timed out"):
                await parked
            assert not channel.put_waiters and not channel.get_waiters
            # Parked again, now completed by the other side's op.
            if op == "put":
                task = asyncio.ensure_future(space.aput(
                    handle, out, 1, b"y", 1, refcount=1, timeout=10.0))
                await asyncio.sleep(0)
                await space.aget(handle, inp, 0)
                await space.aconsume(handle, inp, 0)
                await task
                assert (await space.aget(handle, inp, 1))[0] == b"y"
            else:
                task = asyncio.ensure_future(
                    space.aget(handle, inp, 0, timeout=10.0))
                await asyncio.sleep(0)
                await space.aput(handle, out, 0, b"x", 1, refcount=1)
                assert (await task)[0] == b"x"
            me.exit()

    asyncio.run(main())
    if armed:
        spans = recorder.spans(f"block({op})")
        assert [span[6]["woke"] for span in spans] == [False, True]


def test_both_space_classes_keep_their_attributes_inline():
    """CPython 3.11 keeps at most 29 instance attributes in an object's
    inline values; a 30th turns every ``self.x`` of the class into a dict
    lookup (measured on ``AddressSpace``: the ``local_cycle`` benchmark
    +3.4 %).  ``AioAddressSpace`` reads its loop through the cluster for
    this reason."""
    with Cluster(n_spaces=2, gc_period=None) as cluster:
        assert all(type(s) is AddressSpace for s in cluster.spaces)
        assert max(len(vars(s)) for s in cluster.spaces) <= 29

    async def main():
        async with AioCluster(n_spaces=2, gc_period=None) as cluster:
            assert all(type(s) is AioAddressSpace for s in cluster.spaces)
            return max(len(vars(s)) for s in cluster.spaces)

    assert asyncio.run(main()) <= 29
