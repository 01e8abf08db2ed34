"""Who finishes a message: the receive path of DESIGN.md section 5e.

A message that only *completes* something (``RpcReply``, ``CachePushMsg``)
is finished by the thread that delivers it; a message that asks for work
(``RpcRequest``, ``RpcCancel``, ``ShutdownMsg``) is queued, in per-peer
arrival order, for the space's dispatcher — on asyncio, for the loop.  The
same rule on the in-process ``ClfNetwork`` (threads and asyncio drivers)
and on ``SocketEndpoint`` (process driver) — so most tests here run on all
three.
"""

from __future__ import annotations

import asyncio
import contextlib
import sys
import threading
from dataclasses import dataclass

import pytest

from repro.errors import AddressSpaceError, TransportClosedError
from repro.obs import events as obs_events
from repro.runtime import AioCluster, Cluster, ProcCluster
from repro.runtime.address_space import AddressSpace
from repro.runtime.messages import (
    AttachReq,
    ClockProbeReq,
    CreateChannelReq,
    GetReq,
    RpcCancel,
    RpcReply,
    RpcRequest,
)
from repro.runtime.procs import _SpaceHost
from repro.transport.clf import ClfNetwork
from repro.transport.serialization import decode_message, encode_message_sg
from tests.transport.test_sockets import pair as socket_pair  # noqa: F401 - fixture

DRIVERS = ["threads", "aio", "procs"]


@contextlib.contextmanager
def _aio_cluster(n_spaces: int):
    """An AioCluster on a loop of its own, driven through the sync API."""
    loop = asyncio.new_event_loop()
    runner = threading.Thread(target=loop.run_forever, daemon=True)
    runner.start()

    async def build():
        return AioCluster(n_spaces=n_spaces, gc_period=None)

    cluster = asyncio.run_coroutine_threadsafe(build(), loop).result(30)
    try:
        yield cluster
    finally:
        asyncio.run_coroutine_threadsafe(cluster.ashutdown(), loop).result(30)
        loop.call_soon_threadsafe(loop.stop)
        runner.join(timeout=10)
        loop.close()


@pytest.fixture(params=DRIVERS)
def cluster(request):
    """A two-space cluster; space 0 is the caller on every driver."""
    if request.param == "threads":
        ctx = Cluster(n_spaces=2, gc_period=None)
    elif request.param == "aio":
        ctx = _aio_cluster(2)
    else:
        ctx = ProcCluster(n_spaces=2, gc_period=None)
    with ctx as running:
        yield running


@dataclass
class _HoldReq:
    """Test request: its handler keeps the serving dispatcher busy."""


class _Hold:
    """Installs a ``_HoldReq`` handler that blocks until released."""

    def __init__(self, monkeypatch):
        self.entered = threading.Event()
        self.release = threading.Event()

        def handler(space, body, src, call_id):
            self.entered.set()
            assert self.release.wait(60), "the test never released the handler"

        monkeypatch.setitem(AddressSpace._HANDLERS, _HoldReq, handler)


def _remote_input(space, name: str = "reply.path"):
    """A channel homed at space 1 with one input connection of space 0."""
    me = space.adopt_current_thread(virtual_time=0)
    handle = space.create_channel(name, home=1)
    return me, handle, space.attach(handle, is_input=True, thread=me)


class TestRepliesDoNotPassThroughTheDispatcher:
    # Not on asyncio: one loop serves every space of an AioCluster, so a
    # handler that blocks holds the server as well as the caller's space.
    @pytest.mark.parametrize("cluster", ["threads", "procs"], indirect=True)
    def test_a_call_returns_while_its_own_dispatcher_is_held_busy(
        self, cluster, monkeypatch
    ):
        """Space 0's dispatcher sits inside a handler; a call *out of* space
        0 still completes, because whoever delivers the reply finishes it."""
        hold = _Hold(monkeypatch)
        space = cluster.space(0)
        # a request to oneself over the wire is queued for the dispatcher
        # like any peer's (the reply to call id -1 will match nothing)
        space.endpoint.send(0, encode_message_sg(RpcRequest(-1, 0, _HoldReq())))
        assert hold.entered.wait(10)
        try:
            assert isinstance(space.call(1, ClockProbeReq(), timeout=10), int)
        finally:
            hold.release.set()

    def test_replies_never_enter_the_request_queue_and_counters_stay_exact(
        self, cluster
    ):
        """1 000 remote consumes from 4 threads: the calling space's
        dispatcher serves nothing, and both sides count every message."""
        space = cluster.space(0)
        me, handle, _conn = _remote_input(space)
        conns = [space.attach(handle, is_input=True, thread=me) for _ in range(4)]
        served = []
        serve = space._serve
        space._serve = lambda msg: (served.append(msg), serve(msg))[1]

        def server_received() -> int:
            if isinstance(cluster, ProcCluster):  # counts this very request
                return cluster.endpoint_stats(1)["clf"]["messages_received"]
            return cluster.space(1).endpoint.stats.messages_received

        def consumer(conn):
            for ts in range(250):
                space.consume(handle, conn, ts)

        server_before = server_received()
        caller_before = space.endpoint.stats.messages_received
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=consumer, args=(c,)) for c in conns]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert space.endpoint.stats.messages_received - caller_before == 1000
        extra = 1 if isinstance(cluster, ProcCluster) else 0
        assert server_received() - server_before == 1000 + extra
        if isinstance(cluster, AioCluster):
            # anything scheduled on the loop before this has run by now
            asyncio.run_coroutine_threadsafe(
                asyncio.sleep(0), cluster.loop).result(10)
        else:
            assert space._requests.empty()
        assert served == []
        me.exit()


class TestRequestsKeepPerPeerOrder:
    def test_a_timed_out_get_is_cancelled_behind_its_own_request(self, cluster):
        """Request, then cancel, from one thread: served in that order, so
        the reply is the cancellation — not a cancel that found nothing and
        a get left parked for ever."""
        space = cluster.space(0)
        me, handle, conn = _remote_input(space)
        with pytest.raises(TimeoutError, match="cancelled by caller"):
            space.get(handle, conn, 0, timeout=0.05)
        if isinstance(cluster, Cluster):
            assert cluster.space(1)._channel(handle.channel_id).parked == []
        # the connection is usable: nothing stale answers the next get
        out = space.attach(handle, is_input=False, thread=me)
        space.put(handle, out, 0, b"fresh", 5)
        assert bytes(space.get(handle, conn, 0, timeout=10)[0]) == b"fresh"
        me.exit()

    @pytest.mark.parametrize("medium", ["clf", "sockets"])
    def test_backlog_from_before_start_is_served_first_and_in_order(
        self, medium, request
    ):
        """Peers may send once the mesh is up, before the address space
        exists.  Every early request is handed over ahead of what readers
        deliver directly afterwards: each get is parked before the cancel
        behind it arrives, so each is answered with the cancellation."""
        n_early, n_late = 40, 40
        with contextlib.ExitStack() as stack:
            if medium == "clf":
                cluster = stack.enter_context(
                    Cluster(n_spaces=2, gc_period=None, dispatchers=False))
                sender, target = cluster.space(0).endpoint, cluster.space(1)
            else:
                sender, receiver = request.getfixturevalue("socket_pair")
                target = AddressSpace(_SpaceHost(2, 0), 1, receiver)
                stack.callback(target.stop)

            def send(msg):
                sender.send(1, encode_message_sg(msg))

            def get_then_cancel(call_id):
                send(RpcRequest(call_id, 0, GetReq(1, 100, call_id, True, False)))
                send(RpcCancel(call_id))

            send(RpcRequest(0, 0, CreateChannelReq(None, None, False)))
            send(RpcRequest(1, 0, AttachReq(1, 100, True, 0)))
            for k in range(n_early):
                get_then_cancel(10 + k)
            late = threading.Thread(target=lambda: [
                get_then_cancel(10 + n_early + k) for k in range(n_late)])
            late.start()
            target.start()  # while the late half is still arriving
            late.join(timeout=30)
            replies = [decode_message(sender.recv(timeout=10)[1])
                       for _ in range(2 + n_early + n_late)]
        assert [r.call_id for r in replies] == [
            0, 1, *range(10, 10 + n_early + n_late)]
        assert replies[0].value.channel_id == 1 and replies[1].error is None
        for reply in replies[2:]:
            assert isinstance(reply.error, TimeoutError)
            assert "cancelled by caller" in str(reply.error)


class TestBareEndpoints:
    """No address space, no sink: ``send`` -> ``recv()`` as ever."""

    def test_clf_pair(self):
        network = ClfNetwork.create(2)
        a, b = network.endpoint(0), network.endpoint(1)
        a.send(1, [b"scatter/", b"gather"])
        a.send(1, bytes(50_000))
        assert b.recv(timeout=5) == (0, b"scatter/gather")
        assert b.recv(timeout=5) == (0, bytes(50_000))
        assert b.stats.per_peer_recv == {0: 2} and b.stats.packets_received > 2
        network.close()
        with pytest.raises(TransportClosedError):
            b.recv(timeout=5)

    def test_socket_pair(self, socket_pair):  # noqa: F811 - the fixture
        a, b = socket_pair
        a.send(1, [b"scatter/", b"gather"])
        a.send(1, bytes(50_000))
        assert b.recv(timeout=5) == (0, b"scatter/gather")
        assert b.recv(timeout=5) == (0, bytes(50_000))
        assert b.stats.per_peer_recv == {0: 2}
        b.close()
        with pytest.raises(TransportClosedError):
            b.recv(timeout=5)


class TestOutstandingCallsFailWhenTheEndpointGoes:
    def test_close_or_failure_with_nothing_in_flight(self, cluster):
        """The fail-outstanding epilogue runs on close or failure alone: no
        message has to arrive to wake the dispatcher for it."""
        space = cluster.space(0)
        me, handle, conn = _remote_input(space)
        outcome = []

        def blocked():
            try:
                space.get(handle, conn, 0, timeout=30)
            except Exception as exc:  # noqa: BLE001 - the assertion below
                outcome.append(exc)

        sent = space.endpoint.stats.messages_sent
        thread = threading.Thread(target=blocked)
        thread.start()
        while space.endpoint.stats.messages_sent == sent:  # request on the wire
            threading.Event().wait(0.005)
        if isinstance(cluster, ProcCluster):
            cluster.endpoint.fail(TransportClosedError("link cut by the test"))
        else:
            space.stop()
        thread.join(timeout=10)
        assert not thread.is_alive() and len(outcome) == 1
        if isinstance(cluster, ProcCluster):
            assert isinstance(outcome[0], TransportClosedError)
            assert "link cut by the test" in str(outcome[0])
        else:
            assert isinstance(outcome[0], AddressSpaceError)
            assert "shut down with the call outstanding" in str(outcome[0])
        me.exit()


class TestUndeliverableReplies:
    """A reply that cannot be delivered is dropped and counted; the thread
    that tried to send it is serving somebody else and carries on."""

    def test_a_dispatcher_outlives_a_caller_that_went_away(self, monkeypatch):
        hold = _Hold(monkeypatch)
        with Cluster(n_spaces=3, gc_period=None) as cluster, \
                obs_events.trace() as rec:
            gone = cluster.space(2)
            caller = threading.Thread(
                target=lambda: pytest.raises(AddressSpaceError, gone.call, 1,
                                             _HoldReq(), 30))
            caller.start()
            assert hold.entered.wait(10)
            gone.stop()  # its endpoint closes with the request being served
            hold.release.set()
            caller.join(timeout=10)
            server = cluster.space(1)
            # space 1's dispatcher is alive and serving
            assert isinstance(
                cluster.space(0).call(1, ClockProbeReq(), timeout=10), int)
            assert server.endpoint.stats.snapshot()["replies_dropped"] == 1
        dropped = [ev for ev in rec.events() if ev[2] == "clf.reply_dropped"]
        assert len(dropped) == 1 and dropped[0][5] == 1
        assert dropped[0][6]["error"] == "TransportError"

    def test_a_local_put_survives_a_parked_getter_that_went_away(self):
        with Cluster(n_spaces=2, gc_period=None) as cluster:
            home, away = cluster.space(0), cluster.space(1)
            me = home.adopt_current_thread(virtual_time=0)
            handle = home.create_channel("reply.drain")
            out = home.attach(handle, is_input=False, thread=me)
            local_conn = home.attach(handle, is_input=True, thread=me)
            remote_conn = away.attach(handle, is_input=True, thread=me)
            channel = home._channel(handle.channel_id)
            got = []

            def remote_getter():
                with pytest.raises(AddressSpaceError):
                    away.get(handle, remote_conn, 5, timeout=30)

            def local_getter():
                got.append(home.get(handle, local_conn, 5, timeout=30))

            # park order is drain order: the remote getter first
            threads = []
            for parked, getter in enumerate((remote_getter, local_getter), 1):
                threads.append(threading.Thread(target=getter))
                threads[-1].start()
                while len(channel.get_waiters) < parked:
                    threading.Event().wait(0.005)
            away.stop()
            home.put(handle, out, 5, b"landed", 6)  # must not raise
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
            assert 5 in channel.kernel.items
            # the rest of the drain ran: the local getter behind it woke
            assert [bytes(reply[0]) for reply in got] == [b"landed"]
            assert not channel.get_waiters and not home._parked_index
            assert home.endpoint.stats.replies_dropped == 1
            me.exit()


def test_a_late_reply_to_nobody_is_dropped_on_the_delivering_thread():
    """``_receive`` on the sender's thread: a reply that matches no call."""
    with Cluster(n_spaces=2, gc_period=None) as cluster:
        a, b = cluster.space(0), cluster.space(1)
        a.endpoint.send(1, encode_message_sg(RpcReply(12345, value="nobody")))
        assert b._requests.empty() and not b._calls
        assert b.endpoint.stats.messages_received == 1
