"""Fault-injection tests: broken transport promises must fail LOUDLY."""

import pytest

from repro.errors import TransportError
from repro.transport.clf import ClfNetwork
from repro.transport.faults import FaultPlan, FaultyNetwork


@pytest.fixture
def net():
    network = ClfNetwork.create(2)
    with FaultyNetwork(network) as faulty:
        yield faulty
    network.close()


def pump(dst, n=1, timeout=2.0):
    """Receive up to n messages; returns (messages, first TransportError)."""
    import queue

    messages, error = [], None
    try:
        for _ in range(n):
            messages.append(dst.recv(timeout=timeout)[1])
    except TransportError as exc:
        error = exc
    except queue.Empty:
        pass
    return messages, error


class TestFaultPlans:
    def test_clean_link_passes_through(self, net):
        a, b = net.network.endpoint(0), net.network.endpoint(1)
        a.send(1, b"untouched")
        messages, error = pump(b)
        assert messages == [b"untouched"] and error is None

    def test_corruption_detected_by_crc(self, net):
        net.fault_link(0, 1, FaultPlan(corrupt=1.0, seed=7))
        a, b = net.network.endpoint(0), net.network.endpoint(1)
        a.send(1, b"these bytes will be flipped")
        _messages, error = pump(b)
        assert error is not None  # CRC or header damage surfaced loudly
        assert net.injected["corrupted"] >= 1

    def test_drop_detected_on_multifragment_message(self, net):
        net.fault_link(0, 1, FaultPlan(drop=0.5, seed=3))
        a, b = net.network.endpoint(0), net.network.endpoint(1)
        a.send(1, bytes(60_000))  # ~8 fragments: some will vanish
        messages, error = pump(b)
        assert net.injected["dropped"] >= 1
        # either the message never completes (missing fragment at the end)
        # or the gap is detected as a stream violation
        assert error is not None or messages == []

    def test_duplicate_detected(self, net):
        net.fault_link(0, 1, FaultPlan(duplicate=1.0, seed=5))
        a, b = net.network.endpoint(0), net.network.endpoint(1)
        a.send(1, bytes(20_000))  # 3 fragments, each duplicated
        _messages, error = pump(b, n=2)
        assert error is not None
        assert "violation" in str(error) or "began at" in str(error)

    def test_reorder_detected(self, net):
        net.fault_link(0, 1, FaultPlan(reorder=1.0, seed=9))
        a, b = net.network.endpoint(0), net.network.endpoint(1)
        a.send(1, bytes(30_000))  # 4 fragments, pairwise swapped
        _messages, error = pump(b)
        assert net.injected["reordered"] >= 1
        assert error is not None

    def test_faults_are_deterministic(self):
        def run_once():
            network = ClfNetwork.create(2)
            with FaultyNetwork(network) as faulty:
                faulty.fault_link(0, 1, FaultPlan(drop=0.3, corrupt=0.2, seed=11))
                a = network.endpoint(0)
                for i in range(5):
                    a.send(1, bytes(9000))
                counts = dict(faulty.injected)
            network.close()
            return counts

        assert run_once() == run_once()

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(drop=1.5)

    def test_uninstall_restores_clean_send(self):
        network = ClfNetwork.create(2)
        faulty = FaultyNetwork(network)
        faulty.fault_link(0, 1, FaultPlan(drop=1.0))
        faulty.uninstall()
        a, b = network.endpoint(0), network.endpoint(1)
        a.send(1, b"back to normal")
        assert b.recv(timeout=2)[1] == b"back to normal"
        network.close()


class TestDispatcherResilience:
    def test_dispatcher_survives_corrupt_message(self):
        """A corrupt *decoded message* is dropped; the space keeps serving."""
        from repro.runtime import Cluster
        from repro.stm import STM

        with Cluster(n_spaces=2, gc_period=None) as cluster:
            me = cluster.space(0).adopt_current_thread(virtual_time=0)
            # garbage on the wire to space 1:
            cluster.space(0).endpoint.send(1, b"\xff\xffnot-a-message")
            # the dispatcher must shrug it off and still serve RPCs:
            chan = STM(cluster.space(0)).create_channel("resilient", home=1)
            out, inp = chan.attach_output(), chan.attach_input()
            out.put(0, b"still alive")
            assert inp.get_consume(0).value == b"still alive"
            me.exit()

    def test_corrupted_request_is_counted_and_its_caller_times_out(
        self, monkeypatch
    ):
        """One bit-flipped request: the server cannot know whose it was, so
        the caller learns through its own timeout — and the drop is counted
        (it used to vanish), while the dispatcher goes on serving."""
        import threading
        import time

        from repro.obs import events as obs_events
        from repro.runtime import Cluster
        from repro.runtime.address_space import AddressSpace
        from repro.runtime.messages import EndpointStatsReq

        monkeypatch.setattr(AddressSpace, "_CANCEL_GRACE_S", 0.2)
        with Cluster(n_spaces=2, gc_period=None) as cluster:
            space = cluster.space(0)
            me = space.adopt_current_thread(virtual_time=0)
            handle = space.create_channel("lossy", home=1)
            conn = space.attach(handle, is_input=True, thread=me)
            stats = lambda: space.call(1, EndpointStatsReq())["clf"]  # noqa: E731
            assert stats()["decode_errors"] == 0

            with FaultyNetwork(cluster.network) as faulty, obs_events.trace() as rec:
                faulty.fault_link(0, 1, FaultPlan(corrupt=1.0, seed=1))

                def heal():  # exactly one packet is damaged: the request
                    while faulty.injected["corrupted"] < 1:
                        time.sleep(0.001)
                    faulty.uninstall()

                healer = threading.Thread(target=heal, daemon=True)
                healer.start()
                with pytest.raises(TimeoutError, match="timed out"):
                    space.call(1, EndpointStatsReq(), timeout=0.3)
                healer.join(timeout=5)
            assert faulty.injected["corrupted"] == 1

            assert stats()["decode_errors"] == 1
            dropped = [ev for ev in rec.events() if ev[2] == "clf.decode_error"]
            assert len(dropped) == 1
            assert dropped[0][5] == 1 and dropped[0][6]["error"] == "TransportError"
            # still serving: a real operation on the channel homed there
            space.consume(handle, conn, 1)
            space.detach(handle, conn)
            me.exit()

    def test_corrupted_reply_is_counted_at_the_caller_and_it_times_out(
        self, monkeypatch
    ):
        """The mirror case: the request is served, its reply is bit-flipped
        on the way back.  The reply is finished on the *server's* thread, in
        the caller's space — that is where the drop is counted; the server,
        whose send succeeded, sees nothing, and the caller times out clean."""
        import threading
        import time

        from repro.runtime import Cluster
        from repro.runtime.address_space import AddressSpace
        from repro.runtime.messages import ClockProbeReq

        monkeypatch.setattr(AddressSpace, "_CANCEL_GRACE_S", 0.2)
        with Cluster(n_spaces=2, gc_period=None) as cluster:
            space = cluster.space(0)
            with FaultyNetwork(cluster.network) as faulty:
                faulty.fault_link(1, 0, FaultPlan(corrupt=1.0, seed=1))

                def heal():  # exactly one packet is damaged: the reply
                    while faulty.injected["corrupted"] < 1:
                        time.sleep(0.001)
                    faulty.uninstall()

                healer = threading.Thread(target=heal, daemon=True)
                healer.start()
                with pytest.raises(TimeoutError, match="not acknowledged"):
                    space.call(1, ClockProbeReq(), timeout=0.3)
                healer.join(timeout=5)
            assert faulty.injected["corrupted"] == 1
            assert space.endpoint.stats.decode_errors == 1
            server = cluster.space(1).endpoint.stats
            assert server.decode_errors == 0 and server.replies_dropped == 0
            assert not space._calls
            # both directions work again, the server never stopped serving
            assert isinstance(space.call(1, ClockProbeReq(), timeout=5), int)

    def test_undecodable_message_is_counted(self):
        from repro.runtime import Cluster
        from repro.runtime.messages import EndpointStatsReq

        with Cluster(n_spaces=2, gc_period=None) as cluster:
            space = cluster.space(0)
            space.endpoint.send(1, b"\xff\xffnot-a-message")  # unknown tag
            space.endpoint.send(1, b"\x01\x00not-a-pickle")   # RpcRequest tag
            snap = space.call(1, EndpointStatsReq())["clf"]
            assert snap["decode_errors"] == 2
