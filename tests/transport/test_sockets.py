"""SocketEndpoint pairs in one process: the medium and the bookkeeping.

The process-cluster suite (``tests/procs``) drives these endpoints through
whole STM operations; here two endpoints in one process pin down which
medium a message takes — TCP between nodes; on one node an abstract
``AF_UNIX`` socket for what fits one CLF packet and the shm ring for the
rest — and what a single send and receive account for.
"""

import os
import socket
import threading

import pytest

from repro.obs.metrics import REGISTRY
from repro.transport.clf import ClusterTopology
from repro.transport.media import CLF_MTU
from repro.transport.packets import max_payload
from repro.transport.shm_ring import ShmRing
from repro.transport.sockets import SocketEndpoint, _sendall_sg, ring_name

RING_BYTES = 64 * 1024


def _mesh(spaces_per_node: int, session: str):
    """Two connected endpoints (space 0 dials space 1) plus their rings."""
    topology = ClusterTopology(2, spaces_per_node=spaces_per_node)
    rings = []
    if spaces_per_node == 2:
        rings = [ShmRing.create(ring_name(session, src, dst), RING_BYTES)
                 for src, dst in ((0, 1), (1, 0))]
    a = SocketEndpoint(0, topology, session=session)
    b = SocketEndpoint(1, topology, session=session)
    directory = {0: a.port, 1: b.port}
    dialer = threading.Thread(target=a.connect_mesh, args=(directory,))
    dialer.start()
    b.connect_mesh(directory)
    dialer.join(timeout=30)
    assert not dialer.is_alive()
    return a, b, rings


def _teardown(a, b, rings) -> None:
    a.close()
    b.close()
    for ring in rings:
        ring.close()
        ring.unlink()


def _session() -> str:
    return f"t{os.getpid():x}{os.urandom(3).hex()}"


@pytest.fixture
def pair():
    a, b, rings = _mesh(1, "test-sockets")  # inter-node: TCP only
    yield a, b
    _teardown(a, b, rings)


@pytest.fixture
def same_node_pair():
    a, b, rings = _mesh(2, _session())
    yield a, b
    _teardown(a, b, rings)


def _wire(space: int, direction: str, medium: str = "tcp") -> int:
    counter = REGISTRY.find(
        "clf_wire_bytes_total", space=space, medium=medium, direction=direction
    )
    return 0 if counter is None else counter.value


def _abstract_sockets(session: str) -> list[str]:
    with open("/proc/net/unix") as table:
        return [line.split()[-1] for line in table if f"@stm-{session}-" in line]


class TestMedium:
    def test_a_same_node_pair_is_af_unix_and_an_inter_node_pair_is_tcp(
        self, pair, same_node_pair
    ):
        for (a, b), family in ((same_node_pair, socket.AF_UNIX),
                               (pair, socket.AF_INET)):
            assert a._peers[1].sock.family == family
            assert b._peers[0].sock.family == family
        a, b = same_node_pair
        # one listener, on the dialled side, in the abstract namespace
        assert (a.port, b.port) == (0, 0)
        assert set(_abstract_sockets(b.session)) == {f"@stm-{b.session}-s1"}
        # the inter-node pair keeps its TCP port directory
        a, b = pair
        assert a.port == 0 and b.port > 0

    def test_a_dialled_connection_blocks_without_a_timeout(self, pair, same_node_pair):
        """A reader waits for as long as its peer is quiet: a timeout left
        over from dialling would fail an idle connection."""
        for a, b in (pair, same_node_pair):
            assert a._peers[1].sock.gettimeout() is None
            assert b._peers[0].sock.gettimeout() is None

    @pytest.mark.parametrize("nbytes, medium", [
        (max_payload(CLF_MTU), "unix"),      # one CLF packet: inline
        (max_payload(CLF_MTU) + 1, "shm"),   # a byte more: the ring
        (RING_BYTES, "shm"),                 # the ring's whole capacity
        (RING_BYTES + 1, "unix"),            # larger than the ring: inline
    ])
    def test_the_inline_limit_is_one_clf_packet(self, same_node_pair, nbytes, medium):
        a, b = same_node_pair
        body = os.urandom(nbytes)
        before = {m: (_wire(0, "tx", m), _wire(1, "rx", m)) for m in ("unix", "shm")}
        a.send(1, [body[:10], memoryview(body)[10:]])
        assert b.recv(timeout=5) == (0, body)
        for m in ("unix", "shm"):
            moved = (_wire(0, "tx", m) - before[m][0], _wire(1, "rx", m) - before[m][1])
            assert moved == ((nbytes, nbytes) if m == medium else (0, 0)), m

    def test_inline_and_ring_messages_keep_send_order(self, same_node_pair):
        """1 000 messages alternating between the socket and the ring, with
        the ring wrapping and filling, arrive in the order they were sent."""
        a, b = same_node_pair
        sizes = (16, 20_000, max_payload(CLF_MTU), max_payload(CLF_MTU) + 1, 0, 50_000)
        got = []
        reader = threading.Thread(
            target=lambda: got.extend(b.recv(timeout=30)[1] for _ in range(1000)))
        reader.start()
        sent = []
        for i in range(1000):
            size = sizes[i % len(sizes)]
            body = i.to_bytes(4, "little") * (size // 4) + bytes(size % 4)
            sent.append(body)
            a.send(1, body)
        reader.join(timeout=60)
        assert not reader.is_alive()
        assert len(got) == 1000
        assert all(bytes(g) == s for g, s in zip(got, sent))

    def test_a_second_close_returns_once_the_first_is_done(self, same_node_pair):
        """A reader that loses its peer closes its endpoint; a ``close`` from
        another thread meanwhile must not return before that one is done."""
        a, b = same_node_pair
        entered, release = threading.Event(), threading.Event()

        def sink(src, message):
            if message is None:  # the last step of close
                entered.set()
                release.wait(5)

        b.deliver_to(sink)
        a.close()  # b's reader sees the end of its stream and closes b
        assert entered.wait(5)
        closer = threading.Thread(target=b.close)
        closer.start()
        closer.join(0.2)
        assert closer.is_alive()
        release.set()
        closer.join(5)
        assert not closer.is_alive()

    def test_start_and_close_leave_nothing_behind(self):
        """Twenty same-node pairs come and go: descriptors, threads and
        abstract sockets stay flat."""
        _teardown(*_mesh(2, _session()))  # warm-up
        fds_before = len(os.listdir("/proc/self/fd"))
        threads_before = threading.active_count()
        sessions = []
        for _ in range(20):
            sessions.append(_session())
            _teardown(*_mesh(2, sessions[-1]))
        assert len(os.listdir("/proc/self/fd")) == fds_before
        assert threading.active_count() <= threads_before
        for session in sessions:
            assert _abstract_sockets(session) == []


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
