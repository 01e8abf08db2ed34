"""Integration tests for the multi-process cluster runtime.

Each test boots a real :class:`~repro.runtime.procs.ProcCluster` — spawned
child processes, Unix-domain control sockets carrying RPC bodies inline and
the doorbells of frames that cross shared-memory rings — so they cover the
whole bootstrap (rings → name service → mesh) plus the STM data plane over
real media.  Worker functions are module-level: the ``spawn`` start method
ships them to children by import reference.  ``test_medium.py`` pins which
medium each message takes.
"""

import os

import pytest

from repro.core import INFINITY
from repro.errors import StampedeError
from repro.obs.metrics import REGISTRY
from repro.runtime.procs import ProcCluster
from repro.runtime.sync import clear_factories, install_factories
from repro.stm import STM
from tests.runtime._remote_join import assert_join_cancel_is_withdrawn


def _wire_bytes(medium: str, direction: str):
    return REGISTRY.counter(
        "clf_wire_bytes_total", space=0, medium=medium, direction=direction
    ).value


def _echo_worker(n_rounds: int) -> int:
    """Get from pr.work, double, put to pr.result (timestamps inherited)."""
    from repro.runtime.threads import require_current_thread

    stm = STM.here()
    me = require_current_thread()
    inp = stm.lookup("pr.work", wait=True).attach_input()
    out = stm.lookup("pr.result", wait=True).attach_output()
    me.set_virtual_time(INFINITY)
    try:
        for ts in range(n_rounds):
            item = inp.get(ts)
            out.put(ts, item.value * 2, refcount=1)
            inp.consume(ts)
    finally:
        inp.detach()
        out.detach()
    return n_rounds


class TestDataPlane:
    def test_remote_put_get_through_shm_ring(self):
        payload = os.urandom(1 << 20)
        with ProcCluster(n_spaces=3, gc_period=None) as cluster:
            me = cluster.space(0).adopt_current_thread(virtual_time=0)
            stm = STM(cluster.space(0))
            chan = stm.create_channel("pr.frames", home=1)
            out, inp = chan.attach_output(), chan.attach_input()
            shm_tx_before = _wire_bytes("shm", "tx")
            out.put(0, payload, refcount=1)
            item = inp.get_consume(0)
            assert item.value == payload
            # The megabyte went through the ring, not the inline fallback.
            assert _wire_bytes("shm", "tx") - shm_tx_before >= len(payload)
            # The remote space's own counters are visible over RPC.
            child = cluster.endpoint_stats(1)
            assert child["clf"]["messages_received"] >= 1
            assert child["frames"]["frames_decoded"] >= 1
            out.detach()
            inp.detach()
            me.exit()

    def test_oversized_message_falls_back_to_inline_unix(self):
        """A message larger than the ring goes inline on the same-node
        pair's Unix-domain socket."""
        payload = os.urandom(256 * 1024)
        with ProcCluster(n_spaces=2, gc_period=None, ring_bytes=64 * 1024) as cluster:
            me = cluster.space(0).adopt_current_thread(virtual_time=0)
            stm = STM(cluster.space(0))
            chan = stm.create_channel("pr.big", home=1)
            out, inp = chan.attach_output(), chan.attach_input()
            unix_tx_before = _wire_bytes("unix", "tx")
            shm_tx_before = _wire_bytes("shm", "tx")
            out.put(0, payload, refcount=1)
            assert inp.get_consume(0).value == payload
            assert _wire_bytes("unix", "tx") - unix_tx_before >= len(payload)
            assert _wire_bytes("shm", "tx") == shm_tx_before
            out.detach()
            inp.detach()
            me.exit()

    def test_one_payload_memcpy_per_side(self):
        """1 MB put → get cycles: each side copies the payload exactly once.

        Send side: scatter/gather segments → ring.  Receive side: ring →
        message buffer; decode and the kernel hold zero-copy memoryviews.
        The ``frame_stats`` byte counters (one per process, fetched over
        RPC) are the proof.
        """
        payload_bytes = 1 << 20
        iters = 5
        payload = bytes(payload_bytes)
        with ProcCluster(n_spaces=2, gc_period=None) as cluster:
            me = cluster.space(0).adopt_current_thread(virtual_time=0)
            stm = STM(cluster.space(0))
            chan = stm.create_channel("pr.copies", home=1)
            out, inp = chan.attach_output(), chan.attach_input()
            out.put(0, payload, refcount=1)  # warm-up cycle
            inp.get_consume(0)
            cluster.endpoint_stats(0, reset_frames=True)
            cluster.endpoint_stats(1, reset_frames=True)
            for ts in range(1, 1 + iters):
                me.set_virtual_time(ts)
                out.put(ts, payload, refcount=1)
                inp.get_consume(ts)
            parent = cluster.endpoint_stats(0)
            child = cluster.endpoint_stats(1)
            out.detach()
            inp.detach()
            me.exit()
        transfers = 2 * iters  # each cycle: put frame out + get reply back
        for side in (parent, child):
            copies = side["frames"]["payload_bytes_copied"] / (
                transfers * payload_bytes
            )
            assert copies <= 1.01, side["frames"]

    def test_spawned_worker_pipeline_and_gc(self):
        n_rounds = 5
        with ProcCluster(n_spaces=2, gc_period=None) as cluster:
            me = cluster.space(0).adopt_current_thread(virtual_time=0)
            stm = STM(cluster.space(0))
            work = stm.create_channel("pr.work", home=1)
            result = stm.create_channel("pr.result", home=0)
            out, inp = work.attach_output(), result.attach_input()
            handle = cluster.spawn(_echo_worker, (n_rounds,), on_space=1)
            for ts in range(n_rounds):
                me.set_virtual_time(ts)
                out.put(ts, ts + 10, refcount=1)
                assert inp.get_consume(ts).value == (ts + 10) * 2
            handle.join(timeout=30.0)
            stats = cluster.gc_once()  # a distributed round over the wire
            assert stats is not None
            cluster.check_failure()  # nothing failed along the way
            out.detach()
            inp.detach()
            me.exit()


class TestRemoteJoin:
    def test_timed_out_join_withdraws_its_parked_request(self, monkeypatch):
        """As on threads (``tests/runtime/test_cluster.py``): the child's
        dispatcher answers the cancel, and its thread's exit only the
        second join."""
        with ProcCluster(n_spaces=2, gc_period=None) as cluster:
            assert_join_cancel_is_withdrawn(cluster, monkeypatch)


class TestLifecycle:
    def test_single_space_cluster_has_no_children(self):
        with ProcCluster(n_spaces=1, gc_period=None) as cluster:
            assert cluster._procs == {}
            me = cluster.space(0).adopt_current_thread(virtual_time=0)
            stm = STM(cluster.space(0))
            chan = stm.create_channel("pr.solo")
            out, inp = chan.attach_output(), chan.attach_input()
            out.put(0, b"x", refcount=1)
            assert inp.get_consume(0).value == b"x"
            out.detach()
            inp.detach()
            me.exit()

    def test_shutdown_leaves_no_orphans_or_segments(self):
        cluster = ProcCluster(n_spaces=3, gc_period=None)
        pids = [proc.pid for proc in cluster._procs.values()]
        session = cluster.session
        assert len(pids) == 2
        cluster.shutdown()
        for pid in pids:
            with pytest.raises(OSError):
                os.kill(pid, 0)  # ESRCH: the process is gone
        leftovers = [
            name for name in os.listdir("/dev/shm")
            if session in name
        ]
        assert leftovers == []

    def test_shutdown_is_idempotent(self):
        cluster = ProcCluster(n_spaces=2, gc_period=None)
        cluster.shutdown()
        cluster.shutdown()

    def test_refuses_model_checker_sync_factories(self):
        import threading

        install_factories(lambda name: threading.Lock(), threading.Event)
        try:
            with pytest.raises(StampedeError, match="sync factories"):
                ProcCluster(n_spaces=2)
        finally:
            clear_factories()

    def test_only_space_zero_is_addressable(self):
        with ProcCluster(n_spaces=2, gc_period=None) as cluster:
            assert cluster.space(0) is not None
            with pytest.raises(StampedeError, match="another process"):
                cluster.space(1)
