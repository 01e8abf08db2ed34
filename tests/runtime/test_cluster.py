"""Integration tests for cluster management, naming, and cross-space RPC."""

import threading
import time

import pytest

from repro.core import STM_OLDEST, UNKNOWN_REFCOUNT
from repro.core.flags import GetWildcard
from repro.errors import (
    ChannelEmptyError,
    ChannelFullError,
    NameInUseError,
    NoSuchChannelError,
)
from repro.runtime import Cluster
from repro.runtime.address_space import AddressSpace
from repro.runtime.messages import (
    ClockProbeReq,
    GetReq,
    PutReq,
    RpcCancel,
    RpcReply,
    RpcRequest,
)
from repro.transport.serialization import decode_message
from tests.runtime._remote_join import assert_join_cancel_is_withdrawn


@pytest.fixture
def cluster():
    with Cluster(n_spaces=3, gc_period=None) as c:
        yield c


@pytest.fixture
def me(cluster):
    t = cluster.space(0).adopt_current_thread(virtual_time=0)
    yield t
    t.exit()


class TestChannels:
    def test_create_local(self, cluster, me):
        handle = cluster.space(0).create_channel("a")
        assert handle.home_space == 0
        assert handle.name == "a"

    def test_create_remotely_homed(self, cluster, me):
        handle = cluster.space(0).create_channel("b", home=2)
        assert handle.home_space == 2
        assert cluster.space(2)._channel(handle.channel_id) is not None

    def test_channel_ids_unique_across_spaces(self, cluster, me):
        ids = {
            cluster.space(0).create_channel(home=s).channel_id
            for s in range(3)
            for _ in range(5)
        }
        assert len(ids) == 15

    def test_lookup_from_any_space(self, cluster, me):
        created = cluster.space(0).create_channel("shared", home=1)
        found = cluster.space(2).lookup_channel("shared")
        assert found.channel_id == created.channel_id
        assert found.home_space == 1

    def test_lookup_unknown_raises(self, cluster):
        with pytest.raises(NoSuchChannelError):
            cluster.space(1).lookup_channel("nope")

    def test_duplicate_name_rejected(self, cluster, me):
        cluster.space(0).create_channel("dup")
        with pytest.raises(NameInUseError):
            cluster.space(1).create_channel("dup")

    def test_lookup_wait_blocks_until_created(self, cluster, me):
        found = {}

        def late_consumer():
            found["handle"] = cluster.space(2).lookup_channel(
                "late", wait=True, timeout=10
            )

        t = threading.Thread(target=late_consumer)
        t.start()
        time.sleep(0.05)
        cluster.space(0).create_channel("late")
        t.join(timeout=10)
        assert found["handle"].name == "late"

    def test_lookup_wait_timeout(self, cluster):
        with pytest.raises(TimeoutError):
            cluster.space(1).lookup_channel("never", wait=True, timeout=0.1)


class TestRemoteOps:
    def put(self, space, handle, conn, ts, data=b"x", **kw):
        space.put(handle, conn, ts, data, len(data), **kw)

    def test_put_get_consume_roundtrip(self, cluster, me):
        space0 = cluster.space(0)
        handle = space0.create_channel(home=2)
        out = space0.attach(handle, is_input=False, thread=me)
        inp = space0.attach(handle, is_input=True, thread=me)
        self.put(space0, handle, out, 0, b"payload")
        payload, ts, size = space0.get(handle, inp, 0)
        assert (payload, ts, size) == (b"payload", 0, 7)
        space0.consume(handle, inp, 0)
        assert cluster.space(2)._channel(handle.channel_id).kernel.unconsumed_min().__repr__() == "INFINITY"

    def test_blocking_remote_get_parks_until_put(self, cluster, me):
        space0 = cluster.space(0)
        handle = space0.create_channel(home=1)
        inp = space0.attach(handle, is_input=True, thread=me)
        out = space0.attach(handle, is_input=False, thread=me)
        result = {}

        def getter():
            t = cluster.space(0).adopt_current_thread(virtual_time=0)
            result["got"] = space0.get(handle, inp, 5)
            t.exit()

        thread = threading.Thread(target=getter)
        thread.start()
        time.sleep(0.05)
        assert "got" not in result
        self.put(space0, handle, out, 5, b"late")
        thread.join(timeout=10)
        assert result["got"][0] == b"late"

    def test_nonblocking_remote_get_raises_empty(self, cluster, me):
        space0 = cluster.space(0)
        handle = space0.create_channel(home=1)
        inp = space0.attach(handle, is_input=True, thread=me)
        with pytest.raises(ChannelEmptyError):
            space0.get(handle, inp, 5, block=False)

    def test_remote_get_timeout_cancels(self, cluster, me):
        space0 = cluster.space(0)
        handle = space0.create_channel(home=1)
        inp = space0.attach(handle, is_input=True, thread=me)
        with pytest.raises(TimeoutError):
            space0.get(handle, inp, 5, timeout=0.1)
        # the parked request is gone: a later put is not consumed by it
        channel = cluster.space(1)._channel(handle.channel_id)
        assert not channel.parked

    def test_bounded_remote_put_parks_until_space(self, cluster, me):
        space0 = cluster.space(0)
        handle = space0.create_channel(home=1, capacity=1)
        out = space0.attach(handle, is_input=False, thread=me)
        inp = space0.attach(handle, is_input=True, thread=me)
        self.put(space0, handle, out, 0)
        unblocked = {}

        def second_put():
            # VT=1, not 0: a VT-0 thread would itself pin the GC horizon at
            # 0 and keep the slot occupied forever (§4.2 discipline).
            t = cluster.space(0).adopt_current_thread(virtual_time=1)
            self.put(space0, handle, out, 1)
            unblocked["done"] = True
            t.exit()

        thread = threading.Thread(target=second_put)
        thread.start()
        time.sleep(0.05)
        assert "done" not in unblocked
        # Unknown refcount: only the reachability GC can free the slot, and
        # it can't until this thread's virtual time moves past 0 (§4.2).
        space0.consume(handle, inp, 0)
        me.set_virtual_time(1)
        cluster.gc_once()
        thread.join(timeout=10)
        assert unblocked.get("done")

    def test_nonblocking_bounded_put_raises_full(self, cluster, me):
        space0 = cluster.space(0)
        handle = space0.create_channel(home=1, capacity=1)
        out = space0.attach(handle, is_input=False, thread=me)
        self.put(space0, handle, out, 0)
        with pytest.raises(ChannelFullError):
            self.put(space0, handle, out, 1, block=False)

    def test_wildcard_get_over_rpc(self, cluster, me):
        space0 = cluster.space(0)
        handle = space0.create_channel(home=2)
        out = space0.attach(handle, is_input=False, thread=me)
        inp = space0.attach(handle, is_input=True, thread=me)
        for ts in [3, 9, 6]:
            self.put(space0, handle, out, ts)
        _, ts, _ = space0.get(handle, inp, GetWildcard.LATEST)
        assert ts == 9
        _, ts, _ = space0.get(handle, inp, STM_OLDEST)
        assert ts == 3

    def test_detach_over_rpc(self, cluster, me):
        space0 = cluster.space(0)
        handle = space0.create_channel(home=1)
        inp = space0.attach(handle, is_input=True, thread=me)
        space0.detach(handle, inp)
        kernel = cluster.space(1)._channel(handle.channel_id).kernel
        assert not kernel.inputs


class TestSpawn:
    def test_remote_spawn_and_join(self, cluster, me):
        _EVIDENCE.clear()
        handle = cluster.space(0).spawn(
            _remote_probe, on_space=2, virtual_time=5
        )
        handle.join(timeout=10)
        assert _EVIDENCE and _EVIDENCE[0][0] == 2  # ran on space 2
        assert _EVIDENCE[0][1] == 5  # with the requested virtual time

    def test_join_already_exited_thread(self, cluster, me):
        handle = cluster.space(0).spawn(_remote_probe, on_space=1)
        time.sleep(0.2)
        handle.join(timeout=5)  # immediate: thread long gone

    def test_timed_out_join_withdraws_its_parked_request(self, monkeypatch):
        """The cancel of a timed-out join is answered with ``TimeoutError``
        at once, and the thread's exit later answers only the second join."""
        with Cluster(n_spaces=2, gc_period=None) as cluster:
            assert_join_cancel_is_withdrawn(cluster, monkeypatch)


#: spawn RPC pickles args, so mutations to passed lists would be lost —
#: cross-space evidence goes through module state instead (one process).
_EVIDENCE: list = []


def _remote_probe():
    """Module-level so it pickles for cross-space spawn."""
    from repro.runtime.threads import current_thread

    t = current_thread()
    _EVIDENCE.append((t.space.space_id, t.virtual_time))


class TestShutdown:
    def test_shutdown_idempotent(self):
        cluster = Cluster(n_spaces=2, gc_period=None)
        cluster.shutdown()
        cluster.shutdown()

    def test_outstanding_call_fails_on_shutdown(self):
        cluster = Cluster(n_spaces=2, gc_period=None)
        me = cluster.space(0).adopt_current_thread(virtual_time=0)
        handle = cluster.space(0).create_channel(home=1)
        inp = cluster.space(0).attach(handle, is_input=True, thread=me)
        failures = []

        def blocked_get():
            t = cluster.space(0).adopt_current_thread(virtual_time=0)
            try:
                cluster.space(0).get(handle, inp, 5)
            except Exception as exc:  # noqa: BLE001
                failures.append(type(exc).__name__)

        thread = threading.Thread(target=blocked_get)
        thread.start()
        time.sleep(0.05)
        me.exit()
        cluster.shutdown()
        thread.join(timeout=10)
        assert failures  # the blocked call surfaced an error, not a hang


class TestReusedCallSlot:
    """``call`` keeps one completion slot per calling thread."""

    def test_late_reply_to_a_timed_out_call_cannot_complete_the_next_call(
        self, monkeypatch
    ):
        """Call N times out; the same thread issues N+1; the reply to N
        lands after N+1 took the slot over — N+1 still gets its own value."""
        monkeypatch.setattr(AddressSpace, "_CANCEL_GRACE_S", 0.05)
        # no dispatchers: this test is the server, and the reply pump
        with Cluster(n_spaces=2, gc_period=None, dispatchers=False) as cluster:
            space, server = cluster.space(0), cluster.space(1).endpoint
            outcome = {}

            def caller():
                try:
                    space.call(1, ClockProbeReq(), timeout=0.05)
                except TimeoutError as exc:
                    outcome["first"] = exc
                outcome["slot"] = space._call_slot()
                outcome["second"] = space.call(1, ClockProbeReq(), timeout=10)

            thread = threading.Thread(target=caller, daemon=True)
            thread.start()
            received = [decode_message(server.recv(timeout=5)[1]) for _ in range(3)]
            first, cancel, second = received
            assert isinstance(first, RpcRequest) and isinstance(second, RpcRequest)
            assert isinstance(cancel, RpcCancel) and cancel.call_id == first.call_id
            # N+1 is registered (its request is here) on the slot N used
            slot = space._calls[second.call_id]
            assert slot.call_id == second.call_id
            space._complete_call(RpcReply(first.call_id, value="stale"))
            assert not slot.done and not slot.event.is_set()
            space._complete_call(RpcReply(second.call_id, value="fresh"))
            thread.join(timeout=5)
            assert isinstance(outcome["first"], TimeoutError)
            assert outcome["second"] == "fresh"
            assert outcome["slot"] is slot  # one slot, reused
            assert not space._calls

    def test_concurrent_callers_each_get_their_own_reply(self):
        """More callers than cores, a short switch interval: every reply
        lands in the slot of the thread that asked, and async calls keep a
        slot of their own per request."""
        import sys

        from repro.runtime.messages import LookupNameReq

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with Cluster(n_spaces=2, gc_period=None, registry_space=1) as cluster:
                space = cluster.space(0)
                names = [f"slot-{i}" for i in range(6)]
                for name in names:
                    space.create_channel(name)
                slots, wrong = [], []

                def worker(name):
                    for _ in range(50):
                        handle = space.call(1, LookupNameReq(name), timeout=10)
                        if handle.name != name:
                            wrong.append((name, handle.name))
                    slots.append(space._call_slot())

                workers = [threading.Thread(target=worker, args=(n,)) for n in names]
                for w in workers:
                    w.start()
                for w in workers:
                    w.join(timeout=30)
                assert not any(w.is_alive() for w in workers)
                assert wrong == [] and len({id(s) for s in slots}) == len(names)
                pending = [space.call_async(1, LookupNameReq(n)) for n in names]
                assert len({id(c) for c in pending}) == len(names)
                got = space.gather(pending, timeout=10)
                assert [h.name for h in got] == names
                assert not space._calls
        finally:
            sys.setswitchinterval(interval)
