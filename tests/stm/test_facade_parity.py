"""The sync and asyncio facades are one STM surface with two ways to wait.

The same ops record the same ``stm`` spans (names and args) and the same
per-channel latency histograms on either facade, and each connection kind
keeps only its own context-manager protocol: ``with`` on an asyncio
connection and ``async with`` on a sync one are a ``TypeError``.  The
asyncio classes share private bases with the sync ones, so they are not
``isinstance`` of the sync classes whose verbs they override.
"""

import asyncio

import pytest

from repro.obs import events as obs_events
from repro.obs.metrics import REGISTRY
from repro.runtime import Cluster
from repro.runtime.aio import AioCluster
from repro.stm import STM
from repro.stm.aio import AioSTM
from repro.stm.api import Channel, InputConnection, OutputConnection

HISTOGRAMS = ("stm_put_ns", "stm_get_ns")


def _sync_ops() -> None:
    with Cluster(n_spaces=1, gc_period=None) as cluster:
        me = cluster.space(0).adopt_current_thread(virtual_time=0)
        try:
            chan = STM(cluster.space(0)).create_channel("parity")
            with chan.attach_output() as out, chan.attach_input() as inp:
                for ts, value in enumerate((b"zero", b"one", b"two!")):
                    out.put(ts, value)
                inp.consume(inp.get(0).timestamp)
                inp.get(1)
                inp.get(2)
                inp.consume_until(2)
        finally:
            me.exit()


async def _aio_ops() -> None:
    async with AioCluster(n_spaces=1, gc_period=None) as cluster:
        me = cluster.space(0).adopt_current_task(virtual_time=0)
        try:
            chan = await AioSTM(cluster.space(0)).create_channel("parity")
            async with chan.attach_output() as out, chan.attach_input() as inp:
                for ts, value in enumerate((b"zero", b"one", b"two!")):
                    await out.put(ts, value)
                await inp.consume((await inp.get(0)).timestamp)
                await inp.get(1)
                await inp.get(2)
                await inp.consume_until(2)
        finally:
            me.exit()


def _traced(run) -> tuple[list, dict]:
    """``run()`` under a fresh recorder and registry: its ``stm`` spans as
    (name, args) and the count of each per-channel latency histogram."""
    obs_events.disable()
    REGISTRY.reset()
    rec = obs_events.enable()
    try:
        run()
    finally:
        obs_events.disable()
    spans = [(ev[2], ev[6]) for ev in rec.spans(cat="stm")]
    counts = {}
    for name in HISTOGRAMS:
        hist = REGISTRY.find(name, channel="parity")
        counts[name] = None if hist is None else hist.count
    REGISTRY.reset()
    return spans, counts


def test_both_facades_record_the_same_spans_and_histograms():
    sync = _traced(_sync_ops)
    aio = _traced(lambda: asyncio.run(_aio_ops()))
    assert sync == aio
    spans, counts = sync
    assert [name for name, _ in spans] == [
        "put", "put", "put", "get", "consume", "get", "get", "consume",
    ]
    assert spans[0][1] == {"channel": "parity", "timestamp": 0,
                           "size": spans[0][1]["size"]}
    assert spans[-1][1] == {"channel": "parity", "timestamp": 2, "until": True}
    assert counts == {"stm_put_ns": 3, "stm_get_ns": 3}


class TestContextManagers:
    def test_with_on_an_aio_connection_is_a_type_error(self):
        async def main():
            async with AioCluster(n_spaces=1, gc_period=None) as cluster:
                me = cluster.space(0).adopt_current_task(virtual_time=0)
                chan = await AioSTM(cluster.space(0)).create_channel()
                out = await chan.attach_output()
                inp = await chan.attach_input()
                assert not isinstance(chan, Channel)
                assert not isinstance(out, OutputConnection)
                assert not isinstance(inp, InputConnection)
                for conn in (out, inp):
                    with pytest.raises(TypeError):
                        with conn:
                            pass
                    assert not conn.closed
                    await conn.detach()
                me.exit()

        asyncio.run(main())

    def test_async_with_on_a_sync_connection_is_a_type_error(self):
        with Cluster(n_spaces=1, gc_period=None) as cluster:
            me = cluster.space(0).adopt_current_thread(virtual_time=0)
            try:
                chan = STM(cluster.space(0)).create_channel()
                for conn in (chan.attach_output(), chan.attach_input()):

                    async def enter(conn=conn):
                        async with conn:
                            pass

                    with pytest.raises(TypeError):
                        asyncio.run(enter())
                    assert not conn.closed
                    conn.detach()
            finally:
                me.exit()
