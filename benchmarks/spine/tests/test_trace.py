"""Self time, item timestamps, the budget, and install/uninstall."""

import numpy as np
import pytest

from spine import trace


def _spans(rows):
    """Rows of (name, start, end, parent, ts); the CPU clock mirrors wall."""
    spans = np.array(rows, dtype=np.int64).reshape(-1, 5)
    return np.hstack([spans, spans[:, [trace.START, trace.END]]])


def _id(label):
    return trace.NAME_LABELS.index(label)


def test_self_time_on_a_nested_span_list():
    # name, start, end, parent, ts
    spans = _spans([
        [0, 0, 100, -1, 7],    # root: 100 long, children cover 30 + 40
        [1, 10, 40, 0, -1],    # child a: 30 long, grandchild covers 10
        [2, 15, 25, 1, -1],    # grandchild: 10
        [3, 50, 90, 0, -1],    # child b: 40
        [4, 200, 0, -1, -1],   # still open at dump time
    ])
    assert trace.self_times(spans).tolist() == [30, 20, 10, 40, 0]


def test_self_time_gives_back_the_wrappers_own_cost():
    spans = _spans([[0, 0, 100, -1, -1], [1, 10, 40, 0, -1], [2, 50, 90, 0, -1]])
    # each span loses 2 inside; the root also loses 5 around each of 2 children
    own = trace.self_times(spans, inside_ns=2, outside_ns=5)
    assert own.tolist() == [100 - 30 - 40 - 10 - 2, 28, 38]


def test_item_timestamps_inherit_from_parent_then_thread():
    spans = _spans([
        [0, 0, 10, -1, 5],     # has its own
        [1, 1, 2, 0, -1],      # parent's
        [2, 20, 30, -1, -1],   # top-level without one: the thread's last
        [3, 40, 50, -1, 6],
        [4, 41, 42, 3, -1],
    ])
    assert trace.item_timestamps(spans).tolist() == [5, 5, 5, 6, 6]


def test_cpu_self_time_ignores_time_spent_descheduled():
    spans = _spans([[0, 0, 100, -1, -1], [1, 10, 90, 0, -1]])
    # the child was on the CPU for 5 of its 80 wall nanoseconds
    spans[1, trace.CPU_START], spans[1, trace.CPU_END] = 10, 15
    spans[0, trace.CPU_START], spans[0, trace.CPU_END] = 0, 25
    own = trace.self_times(spans, start=trace.CPU_START, end=trace.CPU_END)
    assert own.tolist() == [20, 5]
    assert trace.self_times(spans).tolist() == [20, 80]


def test_budget_sums_layers_and_attributes_dispatch_gaps():
    put, space_put, kernel_put = (
        _id("OutputConnection.put"), _id("AddressSpace.put"), _id("ChannelKernel.put")
    )
    recv, decode = _id("ClfEndpoint.recv"), _id("decode_message")
    client = _spans([
        [put, 1000, 9000, -1, 1],        # stm self 8000 - 6000 = 2000
        [space_put, 2000, 8000, 0, 1],   # runtime.space self 6000 - 2000 = 4000
        [kernel_put, 3000, 5000, 1, 1],  # core.kernel 2000
        [put, 20000, 21000, -1, 2],      # outside the phase: ignored
    ])
    dispatcher = _spans([
        [recv, 1000, 2000, -1, -1],      # wait: not a layer
        [decode, 2500, 3500, -1, -1],    # serialization 1000
        [recv, 4500, 6000, -1, -1],
    ])  # gaps 500 + 1000 -> runtime.rpc
    out = trace.budget(
        [("MainThread", client), ("stampede-dispatch-1", dispatcher)],
        t_begin=0, t_end=10_000, items=2,
    )
    assert out["budget.stm.self_us"] == pytest.approx(2000 / 2 / 1e3)
    assert out["budget.runtime.space.self_us"] == pytest.approx(4000 / 2 / 1e3)
    assert out["budget.core.kernel.self_us"] == pytest.approx(2000 / 2 / 1e3)
    assert out["budget.transport.serialization.self_us"] == pytest.approx(0.5)
    assert out["budget.runtime.rpc.self_us"] == pytest.approx(1500 / 2 / 1e3)
    assert out["budget.core.kernel.calls_per_item"] == 0.5
    assert out["budget.spans_per_item"] == 6 / 2


def test_budget_takes_the_tracing_overhead_back_out(monkeypatch):
    monkeypatch.setattr(trace, "probe_inside_share", lambda: 0.25)
    put, kernel_put = _id("OutputConnection.put"), _id("ChannelKernel.put")
    spans = _spans([[put, 0, 1000, -1, 1], [kernel_put, 100, 500, 0, 1]])
    # 2 spans, 1 item, 400 ns of overhead: 200 a span, 50 inside + 150 outside
    out = trace.budget([("MainThread", spans)], 0, 2000, items=1,
                       overhead_ns_per_item=400.0)
    assert out["budget.core.kernel.self_us"] == pytest.approx((400 - 50) / 1e3)
    assert out["budget.stm.self_us"] == pytest.approx((600 - 150 - 50) / 1e3)


def test_boundaries_resolve_and_install_is_reversible():
    from repro.core.channel_state import ChannelKernel
    from repro.stm import api

    before = (ChannelKernel.__dict__["put"], api.encode)
    trace.install()
    try:
        assert ChannelKernel.__dict__["put"] is not before[0]
        assert api.encode is not before[1]  # patched where it is looked up
    finally:
        trace.uninstall()
    assert (ChannelKernel.__dict__["put"], api.encode) == before


def test_a_traced_local_cycle_nests_facade_space_kernel():
    from repro.runtime import Cluster
    from repro.stm import STM

    trace.install()
    try:
        with Cluster(n_spaces=1, gc_period=None) as cluster:
            space = cluster.space(0)
            me = space.adopt_current_thread(virtual_time=0)
            chan = STM(space).create_channel("spine.test.trace")
            with chan.attach_output() as out, chan.attach_input() as inp:
                out.put(41, b"x", refcount=1)
                inp.get(41)
                inp.consume(41)
            me.exit()
    finally:
        trace.uninstall()
    spans = trace._tls.buf.spans()
    labels = [trace.NAME_LABELS[n] for n in spans[:, trace.NAME]]
    i = labels.index("ChannelKernel.put")
    chain = []
    while i >= 0:  # walk up the parents of the kernel put
        chain.append(labels[i])
        i = spans[i, trace.PARENT]
    assert chain == ["ChannelKernel.put", "AddressSpace.call", "AddressSpace.put",
                     "OutputConnection.put"]
    tagged = trace.item_timestamps(spans)
    assert tagged[labels.index("payload.encode")] == 41  # inherited from put(41)
    assert all(trace.self_times(spans) >= 0)
    assert all(spans[:, trace.CPU_END] >= spans[:, trace.CPU_START])
