"""Microbenchmarks of individual STM operations on this host.

These are pure pytest-benchmark measurements (no paper table): the per-call
cost of the kernel and of the full local facade path, for profiling
regressions in the hot path.
"""

import pytest

from repro.core import STM_LATEST_UNSEEN
from repro.core.channel_state import ChannelKernel
from repro.runtime import Cluster
from repro.stm import STM


@pytest.fixture
def kernel():
    k = ChannelKernel(1)
    k.attach_output(0)
    k.attach_input(1, visibility=0)
    return k


def test_kernel_put_get_consume_cycle(benchmark, kernel):
    state = {"ts": 0}

    def cycle():
        ts = state["ts"]
        kernel.put(0, ts, b"x" * 64, 64)
        kernel.get(1, ts)
        kernel.consume(1, ts)
        state["ts"] = ts + 1
        if ts % 1000 == 999:
            kernel.collect_below(kernel.unconsumed_min())

    benchmark(cycle)


def test_kernel_latest_unseen_resolution(benchmark, kernel):
    for ts in range(500):
        kernel.put(0, ts, b"", 0)
    kernel.consume_until(1, 498)

    def resolve():
        from repro.core.channel_state import Status

        result = kernel.get(1, STM_LATEST_UNSEEN)
        # reset so the next iteration resolves again
        view = kernel.inputs[1]
        view.open_ts.discard(499)
        view.last_gotten = 0
        return result

    benchmark(resolve)


def test_kernel_unconsumed_min(benchmark, kernel):
    for ts in range(1000):
        kernel.put(0, ts, b"", 0)
    kernel.consume_until(1, 900)
    benchmark(kernel.unconsumed_min)


@pytest.fixture
def local_cluster():
    with Cluster(n_spaces=1, gc_period=None) as cluster:
        me = cluster.space(0).adopt_current_thread(virtual_time=0)
        yield cluster
        me.exit()


def test_facade_local_put_get_consume(benchmark, local_cluster):
    stm = STM(local_cluster.space(0))
    chan = stm.create_channel()
    out, inp = chan.attach_output(), chan.attach_input()
    payload = bytes(1024)
    state = {"ts": 0}

    def cycle():
        ts = state["ts"]
        # refcount=1: the item is eagerly reclaimed at its consume, so the
        # channel stays small across the thousands of benchmark iterations
        # (no GC daemon runs in this fixture).
        out.put(ts, payload, refcount=1)
        inp.get(ts)
        inp.consume(ts)
        state["ts"] = ts + 1

    benchmark(cycle)


def test_facade_serialize_image_payload(benchmark, local_cluster):
    import numpy as np

    stm = STM(local_cluster.space(0))
    chan = stm.create_channel()
    out, inp = chan.attach_output(), chan.attach_input()
    frame = np.zeros((240, 320, 3), dtype=np.uint8)
    state = {"ts": 0}

    def cycle():
        ts = state["ts"]
        out.put(ts, frame, refcount=1)  # eager reclamation: bounded memory
        inp.get_consume(ts)
        state["ts"] = ts + 1

    benchmark(cycle)
