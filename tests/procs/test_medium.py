"""Which medium a process cluster's traffic takes, and what it leaves behind.

Spaces on one node talk over an ``AF_UNIX`` socket in the abstract
namespace: RPC bodies inline, frames through the pair's shared-memory ring.
Spaces on different nodes talk TCP.  A killed child must still fail a
blocked caller, two clusters must not collide, and a cluster must take its
sockets, segments and descriptors with it when it shuts down.
"""

import os
import signal
import socket
import threading
import time

import pytest

from repro.errors import TransportClosedError
from repro.obs.metrics import REGISTRY
from repro.runtime.procs import ProcCluster
from repro.stm import STM


def _wire_bytes(medium: str, direction: str = "tx") -> int:
    return REGISTRY.counter(
        "clf_wire_bytes_total", space=0, medium=medium, direction=direction
    ).value


def _abstract_sockets(session: str) -> list[str]:
    with open("/proc/net/unix") as table:
        return [line.split()[-1] for line in table if f"@stm-{session}-" in line]


def _segments(session: str) -> list[str]:
    return [name for name in os.listdir("/dev/shm") if name.startswith(f"stm-{session}-")]


def _round_trip(cluster: ProcCluster, name: str, payload) -> None:
    """One remote put and get of ``payload`` through a channel homed at 1."""
    me = cluster.space(0).adopt_current_thread(virtual_time=0)
    try:
        chan = STM(cluster.space(0)).create_channel(name, home=1)
        out, inp = chan.attach_output(), chan.attach_input()
        out.put(0, payload, refcount=1)
        assert inp.get_consume(0).value == payload
        out.detach()
        inp.detach()
    finally:
        me.exit()


class TestMedium:
    def test_same_node_spaces_talk_unix_and_send_frames_through_the_ring(self):
        frame = os.urandom(230_400)
        with ProcCluster(n_spaces=2, gc_period=None) as cluster:
            sock = cluster.endpoint._peers[1].sock
            assert sock.family == socket.AF_UNIX
            assert sock.getpeername() == f"\0stm-{cluster.session}-s1".encode()
            assert cluster.endpoint.port == 0  # space 0 is dialled by nobody
            before = {medium: _wire_bytes(medium) for medium in ("unix", "shm", "tcp")}
            _round_trip(cluster, "medium.unix", frame)
            sent = {m: _wire_bytes(m) - before[m] for m in before}
            assert len(frame) < sent["shm"] < len(frame) + 1024  # the PutReq
            assert 0 < sent["unix"] < 8 * 1024  # only RPC bodies went inline
            assert sent["tcp"] == 0

    def test_inter_node_spaces_talk_tcp(self):
        with ProcCluster(n_spaces=2, spaces_per_node=1, gc_period=None) as cluster:
            sock = cluster.endpoint._peers[1].sock
            assert sock.family == socket.AF_INET
            assert cluster.endpoint._send_rings == {}
            before = _wire_bytes("tcp")
            _round_trip(cluster, "medium.tcp", os.urandom(100_000))
            assert _wire_bytes("tcp") - before > 100_000

    def test_two_clusters_run_at_once(self):
        with ProcCluster(n_spaces=2, gc_period=None) as one, \
                ProcCluster(n_spaces=2, gc_period=None) as two:
            assert one.session != two.session
            errors = []

            def drive(cluster, name):
                try:
                    _round_trip(cluster, name, os.urandom(50_000))
                except BaseException as exc:  # pragma: no cover - reported below
                    errors.append(exc)

            workers = [threading.Thread(target=drive, args=(c, f"medium.{i}"))
                       for i, c in enumerate((one, two))]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
            assert errors == []
            one.check_failure()
            two.check_failure()

    def test_a_killed_child_fails_an_outstanding_call(self):
        """The child's end of the Unix socket closes with its process, and
        the parent's reader fails the call blocked on it — long before the
        heartbeat or the supervisor's liveness poll would notice."""
        with ProcCluster(
            n_spaces=2, gc_period=None,
            heartbeat_interval=0.2, heartbeat_timeout=20.0,
        ) as cluster:
            assert cluster.endpoint._peers[1].sock.family == socket.AF_UNIX
            me = cluster.space(0).adopt_current_thread(virtual_time=0)
            inp = STM(cluster.space(0)).create_channel(
                "medium.kill", home=1).attach_input()
            killer = threading.Timer(0.3, os.kill, (cluster._procs[1].pid, signal.SIGKILL))
            killer.start()
            t0 = time.monotonic()
            try:
                with pytest.raises(TransportClosedError):
                    inp.get(0, timeout=15.0)  # nothing is ever put
                assert time.monotonic() - t0 < 3.0
                assert "connection to space 1 lost" in str(cluster.failure)
            finally:
                killer.cancel()
                me.exit()


def test_start_and_shutdown_leave_nothing_behind():
    """Twenty clusters come and go: descriptors in this process stay flat,
    and no abstract socket or shm segment of theirs outlives them."""
    ProcCluster(n_spaces=2, gc_period=None).shutdown()  # process-wide fds opened once
    fds_before = len(os.listdir("/proc/self/fd"))
    sessions = []
    for _ in range(20):
        cluster = ProcCluster(n_spaces=2, gc_period=None)
        sessions.append(cluster.session)
        assert set(_abstract_sockets(cluster.session)) == {f"@stm-{cluster.session}-s1"}
        assert len(_segments(cluster.session)) == 2
        cluster.shutdown()
    assert len(os.listdir("/proc/self/fd")) == fds_before
    for session in sessions:
        assert _abstract_sockets(session) == []
        assert _segments(session) == []
