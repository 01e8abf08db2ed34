"""The local operation path: one lock per op, lock-free channel lookup.

A local put, get or consume is one kernel call under the channel lock and
nothing else: the channel table is a copy-on-write snapshot read without a
lock and the calling thread's virtual-time state is single-writer.  The
spine counts the acquisitions too (``runtime.space.lock_acquires_per_cycle``)
but runs outside tier-1; the budget test here keeps the count from rotting.
"""

import asyncio
import itertools
import sys
import threading
import time

import pytest

from repro.analysis import sanitizer
from repro.errors import ChannelDestroyedError, NoSuchChannelError
from repro.runtime import Cluster, sync
from repro.runtime.aio import AioCluster
from repro.runtime.messages import GetReq, PutReq
from repro.stm import STM
from repro.stm.aio import AioSTM


class _CountingLock:
    """A ``make_lock`` product that logs the name of every acquisition."""

    log: list[str] = []

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()

    def acquire(self, *args, **kwargs):
        _CountingLock.log.append(self.name)
        return self._lock.acquire(*args, **kwargs)

    def release(self):
        self._lock.release()

    def locked(self):
        return self._lock.locked()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc):
        self._lock.release()


@pytest.fixture
def counting_locks():
    sync.install_factories(_CountingLock, None)
    try:
        yield _CountingLock.log
    finally:
        sync.clear_factories()
        _CountingLock.log.clear()


@pytest.mark.usefixtures("bare_op_path")
class TestCallBudget:
    """Python calls per warm local put → get → consume, on both facades.

    ``sys.setprofile`` ``call`` events (coroutine starts included) over
    100 cycles, each cycle one call of a small driver function.  It read
    56 on both facades when every op re-ran its argument, liveness and
    attachment helpers and built its results through keyword dataclass
    constructors; with those checks made inline tests it read 34, and with
    the kernel's put / get / consume no longer calling into the item index,
    the connection's state and the wait set it reads 22.
    ``STMOBS=1`` / ``STMSAN`` would add their own calls to every op, so the
    ``bare_op_path`` fixture disarms them for the count.
    """

    CYCLES = 100
    BUDGET = 24

    @staticmethod
    def _profiler(calls: list[int]):
        def profile(frame, event, arg):
            if event == "call":
                calls[0] += 1
        return profile

    def test_thread_facade(self):
        with Cluster(n_spaces=1, gc_period=None) as cluster:
            me = cluster.space(0).adopt_current_thread(virtual_time=0)
            try:
                chan = STM(cluster.space(0)).create_channel("calls")
                with chan.attach_output() as out, chan.attach_input() as inp:
                    def cycle(ts):
                        out.put(ts, b"x", refcount=1)
                        inp.get(ts)
                        inp.consume(ts)

                    for ts in range(10):  # warm
                        cycle(ts)
                    calls = [0]
                    sys.setprofile(self._profiler(calls))
                    try:
                        for ts in range(10, 10 + self.CYCLES):
                            cycle(ts)
                    finally:
                        sys.setprofile(None)
            finally:
                me.exit()
        assert calls[0] / self.CYCLES <= self.BUDGET, calls[0] / self.CYCLES

    def test_aio_facade(self):
        async def main() -> int:
            async with AioCluster(n_spaces=1, gc_period=None) as cluster:
                space = cluster.space(0)
                me = space.adopt_current_task(virtual_time=0)
                chan = await AioSTM(space).create_channel("acalls")
                async with chan.attach_output() as out, \
                        chan.attach_input() as inp:
                    async def cycle(ts):
                        await out.put(ts, b"x", refcount=1)
                        await inp.get(ts)
                        await inp.consume(ts)

                    for ts in range(10):  # warm
                        await cycle(ts)
                    calls = [0]
                    # nothing parks, so the loop runs nothing in between
                    sys.setprofile(self._profiler(calls))
                    try:
                        for ts in range(10, 10 + self.CYCLES):
                            await cycle(ts)
                    finally:
                        sys.setprofile(None)
                me.exit()
                return calls[0]

        calls = asyncio.run(main(), debug=False)  # debug mode adds calls
        assert calls / self.CYCLES <= self.BUDGET, calls / self.CYCLES

    #: a remote put round trip, caller and home dispatcher together
    #: (64 while a 1-byte item crossed as an out-of-band ``Frame``, 60 while
    #: the kernel's put called into the item index, 57 while the put called
    #: ``call`` and the dispatcher ``_serve_request``, ``_reply_value``,
    #: ``_channel`` and ``_unframed``)
    REMOTE_PUT_CALLS = 56

    def test_remote_put_round_trip(self, monkeypatch):
        """Python calls per put to a channel homed in the other space of a
        thread-driver cluster: the caller encodes and sends, the home's
        dispatcher serves and replies, the reply completes the call on the
        delivering thread.  Every thread started from here on is profiled
        (``threading.setprofile``), so the count covers both sides; a call
        that strays into some other cycle is tolerated, one more call per
        cycle is not."""
        monkeypatch.setattr(sanitizer, "_enabled", False)  # plain CLF locks
        counter = itertools.count()
        counting = False

        def profile(frame, event, arg):
            if counting and event == "call":
                next(counter)

        threading.setprofile(profile)
        try:
            with Cluster(n_spaces=2, gc_period=None) as cluster:
                me = cluster.space(0).adopt_current_thread(virtual_time=0)
                try:
                    chan = STM(cluster.space(0)).create_channel("rcalls", home=1)
                    with chan.attach_output() as out:
                        for ts in range(10):  # warm
                            out.put(ts, b"x", refcount=1)
                        sys.setprofile(profile)
                        counting = True
                        try:
                            for ts in range(10, 10 + self.CYCLES):
                                out.put(ts, b"x", refcount=1)
                        finally:
                            counting = False
                            sys.setprofile(None)
                finally:
                    me.exit()
        finally:
            threading.setprofile(None)
        calls = next(counter) / self.CYCLES
        assert calls < self.REMOTE_PUT_CALLS + 1, calls


class TestLockBudget:
    """Exactly three acquisitions per warm local cycle, all the channel's."""

    def test_sync_facade_cycle_takes_three_channel_locks(self, counting_locks):
        with Cluster(n_spaces=1, gc_period=None) as cluster:
            me = cluster.space(0).adopt_current_thread(virtual_time=0)
            try:
                chan = STM(cluster.space(0)).create_channel("budget")
                with chan.attach_output() as out, chan.attach_input() as inp:
                    out.put(0, b"warm", refcount=1)
                    inp.get(0)
                    inp.consume(0)
                    counting_locks.clear()
                    out.put(1, b"x", refcount=1)
                    assert inp.get(1).value == b"x"
                    inp.consume(1)
                    assert counting_locks == ["LocalChannel.lock"] * 3
            finally:
                me.exit()

    def test_aio_facade_cycle_takes_three_channel_locks(self, counting_locks):
        async def main() -> list[str]:
            async with AioCluster(n_spaces=1, gc_period=None) as cluster:
                space = cluster.space(0)
                space.adopt_current_task(virtual_time=0)
                chan = await AioSTM(space).create_channel("abudget")
                async with chan.attach_output() as out, \
                        chan.attach_input() as inp:
                    await out.put(0, b"warm", refcount=1)
                    await inp.get(0)
                    await inp.consume(0)
                    counting_locks.clear()
                    await out.put(1, b"x", refcount=1)
                    assert (await inp.get(1)).value == b"x"
                    await inp.consume(1)
                    return list(counting_locks)

        assert asyncio.run(main()) == ["LocalChannel.lock"] * 3


@pytest.fixture
def space():
    with Cluster(n_spaces=1, gc_period=None) as cluster:
        yield cluster.space(0)


@pytest.fixture
def me(space):
    thread = space.adopt_current_thread(virtual_time=0)
    yield thread
    if thread.alive:
        thread.exit()


class TestChannelTable:
    def test_table_is_replaced_not_mutated(self, space, me):
        before = space._channels
        handle = space.create_channel("cow")
        created = space._channels
        assert created is not before and handle.channel_id not in before
        space.destroy_channel(handle)
        assert space._channels is not created
        assert handle.channel_id in created  # an old snapshot is never edited
        assert handle.channel_id not in space._channels

    def test_op_on_a_stale_snapshot_fails_inside_the_channel_lock(self, space, me):
        """The channel was resolved, then destroyed: the kernel refuses."""
        handle = space.create_channel("doomed")
        out = space.attach(handle, is_input=False, thread=me)
        inp = space.attach(handle, is_input=True, thread=me)
        channel = space._channel(handle.channel_id)  # what a racing op holds
        space.destroy_channel(handle)
        with pytest.raises(ChannelDestroyedError):
            space._put_start(channel, out, 0, b"x", 1, 1, True)
        with pytest.raises(ChannelDestroyedError):
            space._get_start(channel, inp, 0, True)
        with pytest.raises(ChannelDestroyedError):
            space._consume_apply(channel, inp, 0, False)
        assert not channel.put_waiters and not channel.get_waiters
        with pytest.raises(NoSuchChannelError):
            space.put(handle, out, 0, b"x", 1)

    def test_creates_and_destroys_race_lookups(self, space, me):
        """Readers of the lock-free table never see a torn dict."""
        keep = space.create_channel("keep")
        stop = threading.Event()
        errors: list[BaseException] = []

        def churn() -> None:
            try:
                while not stop.is_set():
                    space.destroy_channel(space.create_channel())
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        churners = [threading.Thread(target=churn) for _ in range(3)]
        for t in churners:
            t.start()
        try:
            deadline = time.monotonic() + 0.5
            while time.monotonic() < deadline:
                assert space._channel(keep.channel_id).handle.name == "keep"
                assert keep.channel_id in {
                    ch.kernel.channel_id for ch in space.local_channels()
                }
        finally:
            stop.set()
            for t in churners:
                t.join(timeout=10.0)
        assert not errors and not any(t.is_alive() for t in churners)
        assert [ch.handle.name for ch in space.local_channels()] == ["keep"]


class TestChannelRequestThroughCall:
    """``call``/``acall`` on one's own space with a put or get that blocks."""

    def test_blocking_get_sleeps_until_the_put_then_times_out_clean(self, space, me):
        handle = space.create_channel("viacall")
        out = space.attach(handle, is_input=False, thread=me)
        inp = space.attach(handle, is_input=True, thread=me)
        channel = space._channel(handle.channel_id)
        putter = threading.Timer(
            0.05, space.call,
            (space.space_id, PutReq(handle.channel_id, out, 3, b"x", 1, 1)),
        )
        putter.start()
        reply = space.call(space.space_id, GetReq(handle.channel_id, inp, 3))
        putter.join()
        assert reply == (b"x", 3, 1, False)
        with pytest.raises(TimeoutError):
            space.call(space.space_id, GetReq(handle.channel_id, inp, 4),
                       timeout=0.01)
        assert not channel.get_waiters  # withdrawn, not orphaned

    def test_acall_blocking_put_completes_on_the_consume(self):
        async def main() -> None:
            async with AioCluster(n_spaces=1, gc_period=None) as cluster:
                space = cluster.space(0)
                me = space.adopt_current_task(virtual_time=0)
                handle = space.create_channel("aviacall", capacity=1)
                out = space.attach(handle, is_input=False, thread=me)
                inp = space.attach(handle, is_input=True, thread=me)
                space.put(handle, out, 0, b"a", 1, refcount=1)
                blocked = asyncio.ensure_future(space.acall(
                    space.space_id, PutReq(handle.channel_id, out, 1, b"b", 1, 1)
                ))
                await asyncio.sleep(0.01)
                assert not blocked.done()
                space.consume(handle, inp, 0)
                assert await asyncio.wait_for(blocked, 5.0) is None
                assert space.get(handle, inp, 1)[0] == b"b"

        asyncio.run(main())


class TestWithdrawIsConstantTime:
    """A timed-out get leaves by identity, whatever is parked beside it."""

    @staticmethod
    def _timeout_cost(space, me, parked: int) -> float:
        handle = space.create_channel()
        inp = space.attach(handle, is_input=True, thread=me)
        channel = space._channel(handle.channel_id)
        for ts in range(parked):  # parks without blocking the caller
            space._get_start(channel, inp, ts, True)
        assert len(channel.get_waiters) == parked
        best = float("inf")
        for _ in range(30):
            t0 = time.perf_counter()
            with pytest.raises(TimeoutError):
                space.get(handle, inp, parked, timeout=0)
            best = min(best, time.perf_counter() - t0)
        assert len(channel.get_waiters) == parked
        space.destroy_channel(handle)
        return best

    def test_timeout_at_10k_parked_getters_costs_like_one_at_10(self, space, me):
        self._timeout_cost(space, me, 10)  # warm-up
        small = self._timeout_cost(space, me, 10)
        large = self._timeout_cost(space, me, 10_000)
        assert large <= 5 * small, (
            f"timeout with 10k parked getters {large * 1e6:.1f} us vs "
            f"{small * 1e6:.1f} us with 10"
        )

    def test_remote_cancel_removes_only_its_waiter(self):
        with Cluster(n_spaces=2, gc_period=None) as cluster:
            client = cluster.space(0)
            me = client.adopt_current_thread(virtual_time=0)
            try:
                handle = client.create_channel("far", home=1)
                inp = client.attach(handle, is_input=True, thread=me)
                channel = cluster.space(1)._channel(handle.channel_id)
                for ts in range(100):
                    cluster.space(1)._get_start(channel, inp, ts, True)
                with pytest.raises(TimeoutError):
                    client.get(handle, inp, 100, timeout=0.05)
                assert len(channel.get_waiters) == 100
                assert not cluster.space(1)._parked_index
            finally:
                me.exit()


class TestArrivalIsConstantTime:
    """A put retries only the parked gets its timestamp can satisfy.

    The get wait set is striped by requested timestamp, so an item landing
    at T wakes T's getter without touching the thousands parked beside it.
    """

    PUTS = 30

    @classmethod
    def _put_cost(cls, space, me, parked: int) -> float:
        handle = space.create_channel()
        out = space.attach(handle, is_input=False, thread=me)
        inp = space.attach(handle, is_input=True, thread=me)
        channel = space._channel(handle.channel_id)
        for ts in range(parked + cls.PUTS):  # parks without blocking the caller
            space._get_start(channel, inp, ts, True)
        best = float("inf")
        for ts in range(cls.PUTS):
            woken = channel.waiters_woken
            t0 = time.perf_counter()
            space.put(handle, out, ts, b"x", 1)
            best = min(best, time.perf_counter() - t0)
            assert channel.waiters_woken == woken + 1
        assert len(channel.get_waiters) == parked
        space.destroy_channel(handle)
        return best

    @classmethod
    def _assert_flat(cls, space, me) -> None:
        cls._put_cost(space, me, 40)  # warm-up
        small = cls._put_cost(space, me, 40)
        large = cls._put_cost(space, me, 10_000)
        assert large <= 5 * small, (
            f"put with 10k parked getters {large * 1e6:.1f} us vs "
            f"{small * 1e6:.1f} us with 40"
        )

    def test_put_at_10k_parked_getters_costs_like_one_at_40(self, space, me):
        self._assert_flat(space, me)

    def test_put_at_10k_parked_tasks_costs_like_one_at_40(self):
        async def main() -> None:
            async with AioCluster(n_spaces=1, gc_period=None) as cluster:
                space = cluster.space(0)
                self._assert_flat(space, space.adopt_current_task(virtual_time=0))

        asyncio.run(main())
