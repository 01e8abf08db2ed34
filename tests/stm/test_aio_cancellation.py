"""A cancelled parked asyncio put or get is withdrawn (DESIGN.md section 5d).

A task whose ``put`` waits on a full bounded channel, or whose ``get`` waits
for an item not yet put, is parked at the channel (§4.1).  Cancelling the
task withdraws the operation under the channel lock before
``CancelledError`` reaches the caller, so nothing the caller saw fail
happens later: no consume lands a cancelled put, no put completes a
cancelled get into an item OPEN on the connection with no holder.  If a
drain completed the operation before the cancellation reached the task,
that completion stands (as it does against a timeout) and
``CancelledError`` propagates all the same.

Each case runs on the three ways a task can sleep: the plain park (no
timeout, no recorder), a park given ``timeout=`` and a park with a trace
recorder armed.
"""

from __future__ import annotations

import asyncio
import contextlib

import pytest

from repro.core.flags import STM_LATEST_UNSEEN
from repro.errors import ChannelEmptyError
from repro.obs import events as obs_events
from repro.runtime.aio import AioCluster
from repro.stm.aio import AioSTM

PATHS = ["plain", "timeout", "recorder"]


@pytest.fixture(params=PATHS)
def sleep_kwargs(request, monkeypatch):
    """The keyword arguments of the parked call, with the recorder armed or
    disarmed whatever the environment (``STMOBS=1``) arms."""
    recorder = obs_events.Recorder() if request.param == "recorder" else None
    monkeypatch.setattr(obs_events, "recorder", recorder)
    return {"timeout": 30.0} if request.param == "timeout" else {}


@contextlib.asynccontextmanager
async def _capacity_one():
    """One task's output and input connections on a capacity-1 channel, and
    the channel's home state.  Puts pass ``refcount=1``: a consume frees
    the slot with no GC round."""
    async with AioCluster(n_spaces=1, gc_period=None) as cluster:
        space = cluster.space(0)
        me = space.adopt_current_task(virtual_time=0)
        try:
            chan = await AioSTM(space).create_channel(capacity=1)
            async with chan.attach_output() as out, chan.attach_input() as inp:
                yield out, inp, space._channel(chan.channel_id)
        finally:
            me.exit()


async def _parked(coro, channel):
    """Start ``coro`` as a task and let it run until it parks."""
    task = asyncio.ensure_future(coro)
    await asyncio.sleep(0)
    assert not task.done()
    assert len(channel.put_waiters) + len(channel.get_waiters) == 1
    return task


# ----------------------------------------------------------------------
# cancelled while parked: withdrawn
# ----------------------------------------------------------------------
def test_a_cancelled_parked_put_is_withdrawn(sleep_kwargs):
    async def main():
        async with _capacity_one() as (out, inp, channel):
            await out.put(0, b"zero", refcount=1)
            put = await _parked(
                out.put(1, b"one", refcount=1, **sleep_kwargs), channel)
            put.cancel()
            with pytest.raises(asyncio.CancelledError):
                await put
            assert not channel.put_waiters
            # The consume frees the slot; the cancelled put must not land.
            await inp.get_consume(0)
            with pytest.raises(ChannelEmptyError):
                await inp.get(1, block=False)
            await out.put(1, b"again", refcount=1)
            assert (await inp.get_consume(1)).value == b"again"

    asyncio.run(main())


def test_a_cancelled_parked_get_is_withdrawn(sleep_kwargs):
    async def main():
        async with _capacity_one() as (out, inp, channel):
            get = await _parked(inp.get(0, **sleep_kwargs), channel)
            get.cancel()
            with pytest.raises(asyncio.CancelledError):
                await get
            assert not channel.get_waiters
            # The put must not complete the cancelled get: item 0 is still
            # unseen on the connection, not OPEN with no holder.
            await out.put(0, b"zero", refcount=1)
            item = await inp.get(STM_LATEST_UNSEEN, block=False)
            assert (item.timestamp, item.value) == (0, b"zero")
            await inp.consume(0)

    asyncio.run(main())


@pytest.mark.parametrize("op", ["put", "get"])
def test_wait_for_around_a_parked_op_withdraws_it(op):
    """``asyncio.wait_for`` cancels the operation it times out."""

    async def main():
        async with _capacity_one() as (out, inp, channel):
            if op == "put":
                await out.put(0, b"zero", refcount=1)
                coro = out.put(1, b"one", refcount=1)
            else:
                coro = inp.get(0)
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(coro, 0.01)
            assert not channel.put_waiters and not channel.get_waiters
            if op == "put":
                await inp.get_consume(0)
                with pytest.raises(ChannelEmptyError):
                    await inp.get(1, block=False)
            else:
                await out.put(0, b"zero", refcount=1)
                item = await inp.get(STM_LATEST_UNSEEN, block=False)
                assert item.timestamp == 0

    asyncio.run(main())


# ----------------------------------------------------------------------
# completed by a drain before the cancellation reached the task: stands
# ----------------------------------------------------------------------
def test_a_put_completed_before_its_cancellation_stands(sleep_kwargs):
    async def main():
        async with _capacity_one() as (out, inp, channel):
            await out.put(0, b"zero", refcount=1)
            put = await _parked(
                out.put(1, b"one", refcount=1, **sleep_kwargs), channel)
            await inp.get_consume(0)  # the drain lands item 1 ...
            put.cancel()  # ... before the parked task runs again
            with pytest.raises(asyncio.CancelledError):
                await put
            assert (await inp.get_consume(1, block=False)).value == b"one"

    asyncio.run(main())


def test_a_get_completed_before_its_cancellation_stands(sleep_kwargs):
    async def main():
        async with _capacity_one() as (out, inp, channel):
            get = await _parked(inp.get(0, **sleep_kwargs), channel)
            await out.put(0, b"zero", refcount=1)  # the drain completes it ...
            get.cancel()  # ... before the parked task runs again
            with pytest.raises(asyncio.CancelledError):
                await get
            # The get happened: item 0 is OPEN on the connection, seen.
            with pytest.raises(ChannelEmptyError):
                await inp.get(STM_LATEST_UNSEEN, block=False)
            await inp.consume(0)

    asyncio.run(main())
