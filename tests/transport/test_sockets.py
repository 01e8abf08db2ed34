"""SocketEndpoint over loopback TCP: the per-message bookkeeping.

The process-cluster suite (``tests/procs``) drives these endpoints through
whole STM operations; here two endpoints in one process pin down what a
single send and receive account for.
"""

import threading

import pytest

from repro.obs.metrics import REGISTRY
from repro.transport.clf import ClusterTopology
from repro.transport.sockets import SocketEndpoint, _sendall_sg


@pytest.fixture
def pair():
    topology = ClusterTopology(2, spaces_per_node=1)  # inter-node: TCP only
    a = SocketEndpoint(0, topology, session="test-sockets")
    b = SocketEndpoint(1, topology, session="test-sockets")
    directory = {0: a.port, 1: b.port}
    dialer = threading.Thread(target=a.connect_mesh, args=(directory,))
    dialer.start()
    b.connect_mesh(directory)
    dialer.join(timeout=30)
    assert not dialer.is_alive()
    yield a, b
    a.close()
    b.close()


def _wire(space: int, direction: str) -> int:
    counter = REGISTRY.find(
        "clf_wire_bytes_total", space=space, medium="tcp", direction=direction
    )
    return 0 if counter is None else counter.value


class TestSendReceive:
    def test_contiguous_and_gathered_messages_arrive_whole_and_in_order(self, pair):
        a, b = pair
        body = bytes(range(256)) * 40
        a.send(1, b"one")
        a.send(1, [b"two-", memoryview(b"halves")])
        a.send(1, (body[:100], bytearray(body[100:5000]), memoryview(body)[5000:]))
        a.send(1, b"")
        got = [b.recv(timeout=5) for _ in range(4)]
        assert [src for src, _ in got] == [0, 0, 0, 0]
        assert [bytes(msg) for _, msg in got] == [b"one", b"two-halves", body, b""]
        assert a.stats.messages_sent == 4 and b.stats.messages_received == 4
        assert a.stats.bytes_sent == b.stats.bytes_received == 13 + len(body)

    def test_wire_counters_survive_a_registry_reset(self, pair):
        """The endpoint keeps its counter handles; a reset must not leave it
        counting into handles the registry no longer knows."""
        a, b = pair
        REGISTRY.reset()
        a.send(1, b"x" * 100)
        b.recv(timeout=5)
        assert (_wire(0, "tx"), _wire(1, "rx")) == (100, 100)
        REGISTRY.reset()
        assert (_wire(0, "tx"), _wire(1, "rx")) == (0, 0)
        a.send(1, b"y" * 7)
        b.recv(timeout=5)
        assert (_wire(0, "tx"), _wire(1, "rx")) == (7, 7)


class _TricklingSocket:
    """A socket whose ``sendmsg`` takes at most ``limit`` bytes per call."""

    def __init__(self, limit: int):
        self.limit = limit
        self.wire = bytearray()
        self.calls = 0

    def sendmsg(self, buffers) -> int:
        self.calls += 1
        room = self.limit
        for buf in buffers:
            chunk = bytes(memoryview(buf)[:room])
            self.wire += chunk
            room -= len(chunk)
            if room == 0:
                break
        return self.limit - room


@pytest.mark.parametrize("limit", [1, 3, 7, 64, 10_000])
def test_partial_sends_resume_where_they_stopped(limit):
    segments = [b"header---", b"", memoryview(b"payload" * 9), bytearray(b"tail")]
    total = sum(len(s) for s in segments)
    sock = _TricklingSocket(limit)
    _sendall_sg(sock, segments, total)
    assert bytes(sock.wire) == b"".join(segments)
    assert sock.calls == -(-total // limit)
