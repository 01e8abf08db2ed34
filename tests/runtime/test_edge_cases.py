"""Edge cases of the runtime: destroy-with-waiters, registry placement,
multi-space-per-node topologies, auto-detach, and error surfaces."""

import asyncio
import threading
import time

import pytest

from repro.core import INFINITY, STM_OLDEST
from repro.errors import (
    NoSuchChannelError,
    StampedeError,
)
from repro.runtime import Cluster
from repro.runtime.aio import AioCluster
from repro.stm import STM


class TestChannelDestroy:
    def test_destroy_fails_blocked_remote_get(self):
        with Cluster(n_spaces=2, gc_period=None) as cluster:
            me = cluster.space(0).adopt_current_thread(virtual_time=0)
            stm = STM(cluster.space(0))
            chan = stm.create_channel("doomed", home=1)
            inp = chan.attach_input()
            outcome = {}

            def blocked_get():
                t = cluster.space(0).adopt_current_thread(virtual_time=1)
                try:
                    cluster.space(0).get(chan.handle, inp.conn_id, 5)
                except StampedeError as exc:
                    outcome["error"] = type(exc).__name__
                t.exit()

            thread = threading.Thread(target=blocked_get)
            thread.start()
            time.sleep(0.05)
            chan.destroy()
            thread.join(timeout=10)
            assert "error" in outcome  # surfaced, not hung
            me.exit()

    def test_ops_after_destroy_raise(self):
        with Cluster(n_spaces=1, gc_period=None) as cluster:
            me = cluster.space(0).adopt_current_thread(virtual_time=0)
            stm = STM(cluster.space(0))
            chan = stm.create_channel()
            out = chan.attach_output()
            chan.destroy()
            with pytest.raises(StampedeError):
                out.put(0, b"x")
            me.exit()


class TestRegistryPlacement:
    def test_registry_on_non_zero_space(self):
        with Cluster(n_spaces=3, gc_period=None, registry_space=2) as cluster:
            me = cluster.space(0).adopt_current_thread(virtual_time=0)
            chan = STM(cluster.space(0)).create_channel("elsewhere", home=1)
            found = STM(cluster.space(1)).lookup("elsewhere")
            assert found.channel_id == chan.channel_id
            assert cluster.space(2).is_registry
            assert not cluster.space(0).is_registry
            me.exit()

    def test_invalid_registry_space_rejected(self):
        with pytest.raises(ValueError):
            Cluster(n_spaces=2, registry_space=5)


class TestMultiSpacePerNode:
    def test_same_node_spaces_work_end_to_end(self):
        """Two address spaces on one SMP node (shared-memory medium)."""
        with Cluster(n_spaces=2, spaces_per_node=2, gc_period=None) as cluster:
            assert cluster.network.topology.medium(0, 1).intra_node
            me = cluster.space(0).adopt_current_thread(virtual_time=0)
            chan = STM(cluster.space(0)).create_channel("samenode", home=1)
            out, inp = chan.attach_output(), chan.attach_input()
            out.put(0, b"over-shared-memory")
            assert inp.get_consume(0).value == b"over-shared-memory"
            me.exit()

    def test_mixed_topology(self):
        """Four spaces on two nodes: 0-1 share memory, 0-2 cross the wire."""
        with Cluster(n_spaces=4, spaces_per_node=2, gc_period=None) as cluster:
            topo = cluster.network.topology
            assert topo.medium(0, 1).intra_node
            assert not topo.medium(0, 2).intra_node
            me = cluster.space(0).adopt_current_thread(virtual_time=0)
            chan = STM(cluster.space(0)).create_channel(home=3)
            out, inp = chan.attach_output(), chan.attach_input()
            out.put(0, b"cross-node")
            assert inp.get_consume(0).value == b"cross-node"
            me.exit()


class TestAutoDetach:
    def test_thread_exit_releases_connections_for_gc(self):
        with Cluster(n_spaces=1, gc_period=None) as cluster:
            me = cluster.space(0).adopt_current_thread(virtual_time=0)
            stm = STM(cluster.space(0))
            chan = stm.create_channel("leaky")
            out = chan.attach_output()
            out.put(0, b"x")

            def sloppy_consumer():
                # attaches but neither consumes nor detaches
                stm.lookup("leaky").attach_input()

            handle = cluster.space(0).spawn(sloppy_consumer, virtual_time=0)
            handle.join(10)
            me.set_virtual_time(INFINITY)
            # the exited thread's connection no longer pins the minimum:
            assert cluster.gc_once() is INFINITY
            kernel = cluster.space(0)._channel(chan.channel_id).kernel
            assert kernel.timestamps() == []
            me.exit()

    def test_adopted_exit_releases_connections(self):
        with Cluster(n_spaces=1, gc_period=None) as cluster:
            me = cluster.space(0).adopt_current_thread(virtual_time=0)
            stm = STM(cluster.space(0))
            chan = stm.create_channel()
            out = chan.attach_output()
            out.put(0, b"x")
            inp = chan.attach_input()  # unconsumed claim
            me.exit()  # auto-detaches both
            kernel = cluster.space(0)._channel(chan.channel_id).kernel
            assert not kernel.inputs and not kernel.outputs


class TestAdoptConflicts:
    def test_adopting_second_space_of_same_cluster_rejected(self):
        with Cluster(n_spaces=2, gc_period=None) as cluster:
            me = cluster.space(0).adopt_current_thread(virtual_time=0)
            with pytest.raises(StampedeError, match="already adopted"):
                cluster.space(1).adopt_current_thread()
            me.exit()

    def test_stale_binding_from_dead_cluster_rebinds(self):
        old = Cluster(n_spaces=1, gc_period=None)
        stale = old.space(0).adopt_current_thread(virtual_time=0)
        old.shutdown()
        with Cluster(n_spaces=1, gc_period=None) as fresh:
            adopted = fresh.space(0).adopt_current_thread(virtual_time=0)
            assert adopted is not stale
            assert adopted.space is fresh.space(0)
            adopted.exit()

    # The asyncio driver adopts through the same code, so the same rule holds
    # for a task: a second space of its cluster is refused (the first thread
    # would stay registered and pin that space's GC horizon), a stale binding
    # into a dead cluster is dropped.
    def test_aio_adopting_second_space_of_same_cluster_rejected(self):
        async def main():
            async with AioCluster(n_spaces=2, gc_period=None) as cluster:
                me = cluster.space(0).adopt_current_task(virtual_time=0)
                with pytest.raises(StampedeError, match="already adopted"):
                    cluster.space(1).adopt_current_task()
                assert cluster.space(1).threads() == []
                assert cluster.space(0).threads() == [me]
                me.exit()
                other = cluster.space(1).adopt_current_task()
                assert other.space is cluster.space(1)
                other.exit()

        asyncio.run(main())

    def test_aio_stale_binding_from_dead_cluster_rebinds(self):
        async def main():
            old = AioCluster(n_spaces=1, gc_period=None)
            stale = old.space(0).adopt_current_task(virtual_time=0)
            await old.ashutdown()
            async with AioCluster(n_spaces=1, gc_period=None) as fresh:
                adopted = fresh.space(0).adopt_current_task(virtual_time=0)
                assert adopted is not stale
                assert adopted.space is fresh.space(0)
                assert not stale.alive
                adopted.exit()

        asyncio.run(main())


class _LateRegistration:
    """An injected name-wait event: the name is registered while the waiter
    sleeps, but the sleep runs past the timeout and reports one."""

    _flag = False  # what the asyncio driver reads of an AioEvent's state

    def __init__(self, space, name):
        self.space, self.name = space, name

    def set(self):
        pass

    def is_set(self):
        return False

    def wait(self, timeout=None):
        self.space.create_channel(self.name)
        time.sleep(timeout + 0.05)
        return False

    async def wait_async(self, timeout=None):
        self.space.create_channel(self.name)
        await asyncio.sleep(timeout + 0.05)
        return False


class TestLookupAtItsDeadline:
    """A blocking lookup on the registry space whose wait times out after
    the name was registered returns the handle on both drivers: each checks
    the registry once more and raises only from its deadline test."""

    def test_threads(self, monkeypatch):
        with Cluster(n_spaces=1, gc_period=None) as cluster:
            space = cluster.space(0)
            monkeypatch.setattr(space, "_make_event",
                                lambda: _LateRegistration(space, "late"))
            handle = space.lookup_channel("late", wait=True, timeout=0.05)
            assert handle.name == "late"

    def test_aio(self, monkeypatch):
        async def main():
            async with AioCluster(n_spaces=1, gc_period=None) as cluster:
                space = cluster.space(0)
                monkeypatch.setattr(space, "_make_event",
                                    lambda: _LateRegistration(space, "late"))
                return await space.alookup_channel("late", wait=True, timeout=0.05)

        assert asyncio.run(main()).name == "late"


class TestWildcardOverRpc:
    def test_oldest_unseen_across_spaces(self):
        from repro.core import STM_OLDEST_UNSEEN

        with Cluster(n_spaces=2, gc_period=None) as cluster:
            me = cluster.space(0).adopt_current_thread(virtual_time=0)
            chan = STM(cluster.space(0)).create_channel(home=1)
            out, inp = chan.attach_output(), chan.attach_input()
            for ts in [4, 1, 9]:
                out.put(ts, ts)
            walked = [
                inp.get(STM_OLDEST_UNSEEN).timestamp for _ in range(3)
            ]
            assert walked == [1, 4, 9]
            me.exit()


class TestLookupErrors:
    def test_probe_requires_existing_channel(self):
        from repro.stm import ChannelProbe

        with Cluster(n_spaces=1, gc_period=None) as cluster:
            with pytest.raises(NoSuchChannelError):
                ChannelProbe(cluster, 12345)

    def test_lookup_cached_after_first_hit(self):
        with Cluster(n_spaces=2, gc_period=None) as cluster:
            me = cluster.space(0).adopt_current_thread(virtual_time=0)
            STM(cluster.space(0)).create_channel("cached", home=1)
            first = cluster.space(1).lookup_channel("cached")
            second = cluster.space(1).lookup_channel("cached")
            assert first.channel_id == second.channel_id
            assert cluster._named_handle("cached") is not None
            me.exit()


class TestSmallMtuCluster:
    def test_every_rpc_fragments_and_still_works(self):
        """A 256-byte MTU forces multi-packet fragmentation on every RPC;
        semantics must be unchanged."""
        with Cluster(n_spaces=2, gc_period=0.02, mtu=256) as cluster:
            me = cluster.space(0).adopt_current_thread(virtual_time=0)
            chan = STM(cluster.space(0)).create_channel("tiny-mtu", home=1)
            out, inp = chan.attach_output(), chan.attach_input()
            payload = bytes(range(256)) * 40  # ~10 KB -> ~45 packets
            out.put(0, payload)
            item = inp.get_consume(0)
            assert item.value == payload
            # fragmentation actually happened:
            assert cluster.space(0).endpoint.stats.packets_sent > 40
            me.exit()

    def test_image_payload_over_tiny_mtu(self):
        import numpy as np

        with Cluster(n_spaces=2, gc_period=None, mtu=512) as cluster:
            me = cluster.space(0).adopt_current_thread(virtual_time=0)
            chan = STM(cluster.space(0)).create_channel(home=1)
            out, inp = chan.attach_output(), chan.attach_input()
            frame = np.arange(230_400, dtype=np.uint8).reshape(240, 320, 3)
            out.put(0, frame)
            got = inp.get_consume(0).value
            np.testing.assert_array_equal(got, frame)
            me.exit()


class TestDocstringExample:
    def test_package_docstring_doctest(self):
        """The quickstart in repro/__init__ must actually run."""
        import doctest

        import repro

        results = doctest.testmod(repro, verbose=False)
        assert results.failed == 0
        assert results.attempted >= 1
