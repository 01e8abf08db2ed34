"""Integration tests for the distributed GC daemon (paper §4.2, §6)."""

import time

import pytest

from repro.core import INFINITY, STM_OLDEST
from repro.runtime import Cluster
from repro.stm import STM


@pytest.fixture
def cluster():
    with Cluster(n_spaces=2, gc_period=None) as c:
        yield c


@pytest.fixture
def me(cluster):
    t = cluster.space(0).adopt_current_thread(virtual_time=0)
    yield t
    if t.alive:
        t.exit()


def kernel_of(cluster, channel):
    return cluster.space(channel.handle.home_space)._channel(
        channel.handle.channel_id
    ).kernel


class TestGlobalMinimum:
    def test_thread_visibility_pins_horizon(self, cluster, me):
        stm = STM(cluster.space(0))
        chan = stm.create_channel(home=1)
        out = chan.attach_output()
        inp = chan.attach_input()
        me.set_virtual_time(5)
        out.put(5, b"five")
        inp.get_consume(5)
        horizon = cluster.gc_once()
        assert horizon == 5  # my VT holds the horizon at 5
        # collection is strictly below the horizon: ts 5 survives
        time.sleep(0.1)
        assert kernel_of(cluster, chan).timestamps() == [5]
        me.set_virtual_time(6)
        assert cluster.gc_once() == 6

    def test_unconsumed_item_pins_horizon(self, cluster, me):
        stm = STM(cluster.space(0))
        chan = stm.create_channel(home=1)
        out = chan.attach_output()
        inp = chan.attach_input()
        for ts in range(4):
            me.set_virtual_time(ts)
            out.put(ts, bytes([ts]))
        me.set_virtual_time(INFINITY)
        horizon = cluster.gc_once()
        assert horizon == 0  # everything unconsumed on inp
        inp.get_consume(0)
        inp.get_consume(1)
        assert cluster.gc_once() == 2
        assert kernel_of(cluster, chan).timestamps() == [2, 3]

    def test_open_item_pins_horizon(self, cluster, me):
        stm = STM(cluster.space(0))
        chan = stm.create_channel(home=1)
        out = chan.attach_output()
        inp = chan.attach_input()
        me.set_virtual_time(3)
        out.put(3, b"x")
        me.set_virtual_time(INFINITY)
        item = inp.get(3)  # OPEN, not consumed
        assert cluster.gc_once() == 3
        assert kernel_of(cluster, chan).timestamps() == [3]
        inp.consume(item.timestamp)
        assert cluster.gc_once() is INFINITY
        assert kernel_of(cluster, chan).timestamps() == []

    def test_horizon_infinity_when_idle(self, cluster, me):
        me.set_virtual_time(INFINITY)
        assert cluster.gc_once() is INFINITY

    def test_collection_happens_on_remote_spaces(self, cluster, me):
        """Items live at the channel home; the broadcast must reach it."""
        stm = STM(cluster.space(0))
        chan = stm.create_channel(home=1)  # homed remotely
        out = chan.attach_output()
        inp = chan.attach_input()
        me.set_virtual_time(0)
        out.put(0, b"dead")
        inp.get_consume(0)
        me.set_virtual_time(INFINITY)
        cluster.gc_once()
        deadline = time.monotonic() + 5
        while kernel_of(cluster, chan).timestamps() and time.monotonic() < deadline:
            time.sleep(0.01)  # broadcast to space 1 is asynchronous
        assert kernel_of(cluster, chan).timestamps() == []

    def test_detach_releases_for_gc(self, cluster, me):
        stm = STM(cluster.space(0))
        chan = stm.create_channel(home=0)
        out = chan.attach_output()
        inp = chan.attach_input()
        me.set_virtual_time(0)
        out.put(0, b"x")
        me.set_virtual_time(INFINITY)
        assert cluster.gc_once() == 0
        inp.detach()
        assert cluster.gc_once() is INFINITY


class TestDaemonThread:
    def test_periodic_collection(self):
        with Cluster(n_spaces=2, gc_period=0.01) as cluster:
            me = cluster.space(0).adopt_current_thread(virtual_time=0)
            stm = STM(cluster.space(0))
            chan = stm.create_channel(home=1)
            out = chan.attach_output()
            inp = chan.attach_input()
            for ts in range(10):
                me.set_virtual_time(ts)
                out.put(ts, bytes(100))
                inp.get_consume(ts)
            me.set_virtual_time(INFINITY)
            deadline = time.monotonic() + 5
            kernel = kernel_of(cluster, chan)
            while kernel.timestamps() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert kernel.timestamps() == []
            assert cluster.gc_daemon.stats.epochs > 0
            me.exit()

    def test_stats_track_horizons(self, cluster, me):
        me.set_virtual_time(17)
        assert cluster.gc_once() == 17

    def test_horizon_history_is_bounded(self, cluster, me):
        # one entry per epoch, 20/s with the default daemon: only the most
        # recent ones are kept
        from repro.runtime import GcDaemon

        daemon = GcDaemon(cluster, period=1.0)  # driven by hand, never started
        stats = daemon.stats
        keep = stats.horizons.maxlen
        for epoch in range(keep + 6):
            me.set_virtual_time(epoch)
            daemon.run_once()
        assert stats.epochs == keep + 6
        assert list(stats.horizons) == list(range(6, keep + 6))


class TestSteadyStateEpoch:
    def test_epoch_over_explicitly_consumed_items_scans_nothing(self, cluster, me):
        """Every item consumed above a pinned watermark: the skip-scan's
        worst case.  The first epoch walks each channel once; the channels
        have not changed since, so the next epochs walk no item at all."""
        from repro.runtime import GcDaemon

        me.set_virtual_time(50)  # pins the horizon below every item
        stm = STM(cluster.space(0))
        for i in range(8):  # the inputs stay attached: their state is the load
            chan = stm.create_channel(home=i % 2)
            out, inp = chan.attach_output(), chan.attach_input()
            for ts in range(100, 164):
                out.put(ts, b"")
            for ts in range(100, 164):
                inp.consume(ts)
        kernels = [
            channel.kernel
            for space in cluster.spaces
            for channel in space.local_channels()
        ]
        daemon = GcDaemon(cluster, period=1.0)  # driven by hand, never started
        daemon.run_once()
        first = sum(k.min_scan_steps for k in kernels)
        assert first >= 8 * 64  # the load really is a skip-scan
        for _ in range(3):
            daemon.run_once()
        assert sum(k.min_scan_steps for k in kernels) == first
        assert all(len(k.timestamps()) == 64 for k in kernels)


class TestGcUnblocksBoundedPuts:
    def test_blocked_put_proceeds_after_collection(self, cluster, me):
        import threading

        stm = STM(cluster.space(0))
        chan = stm.create_channel(home=1, capacity=1)
        out = chan.attach_output()
        inp = chan.attach_input()
        me.set_virtual_time(0)
        out.put(0, b"first")
        inp.get_consume(0)
        me.set_virtual_time(1)
        done = {}

        def blocked_put():
            t = cluster.space(0).adopt_current_thread(virtual_time=1)
            conn = chan.attach_output(thread=t)
            conn.put(1, b"second")
            done["ok"] = True
            conn.detach()
            t.exit()

        thread = threading.Thread(target=blocked_put)
        thread.start()
        time.sleep(0.05)
        assert "ok" not in done
        cluster.gc_once()  # horizon 1: frees the slot at the home space
        thread.join(timeout=10)
        assert done.get("ok")
