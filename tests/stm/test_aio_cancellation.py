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

A channel homed in another space gets the same rule: the task's request
is parked at the home, and a cancelled task sends ``RpcCancel`` and waits
for the home's answer before ``CancelledError`` propagates, so the home
has either withdrawn the operation or completed it first.

Each case runs on the three ways a task can sleep: the plain park (no
timeout, no recorder), a park given ``timeout=`` and a park with a trace
recorder armed; and with the channel homed in the task's space or in the
other space of a two-space cluster.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from types import SimpleNamespace

import pytest

from repro.core.flags import STM_LATEST_UNSEEN
from repro.errors import ChannelEmptyError
from repro.obs import events as obs_events
from repro.runtime.aio import AioCluster
from repro.stm.aio import AioSTM

PATHS = ["plain", "timeout", "recorder"]
#: each sleep on a channel homed in the task's space, then (``remote-``) in
#: the other space
PARKS = PATHS + [f"remote-{path}" for path in PATHS]


@pytest.fixture(params=PARKS)
def park(request, monkeypatch):
    """The channel's home and the keyword arguments of the parked call, with
    the recorder armed or disarmed whatever the environment (``STMOBS=1``)
    arms."""
    where, _, path = request.param.rpartition("-")
    recorder = obs_events.Recorder() if path == "recorder" else None
    monkeypatch.setattr(obs_events, "recorder", recorder)
    return (1 if where else 0), ({"timeout": 30.0} if path == "timeout" else {})


@contextlib.asynccontextmanager
async def _capacity_one(home: int):
    """One task's output and input connections on a capacity-1 channel
    homed at ``home``, the channel's home state, and an output and input
    connection of the same task attached through the home space, whose
    operations run at the home without the task suspending.  Puts pass
    ``refcount=1``: a consume frees the slot with no GC round."""
    async with AioCluster(n_spaces=2, gc_period=None) as cluster:
        space = cluster.space(0)
        me = space.adopt_current_task(virtual_time=0)
        try:
            chan = await AioSTM(space).create_channel(capacity=1, home=home)
            at_home = AioSTM(cluster.space(home)).channel(chan.handle)
            async with chan.attach_output() as out, \
                    chan.attach_input() as inp, \
                    at_home.attach_output() as home_out, \
                    at_home.attach_input() as home_inp:
                yield SimpleNamespace(
                    out=out, inp=inp, home_out=home_out, home_inp=home_inp,
                    channel=cluster.space(home)._channel(chan.channel_id),
                    channel_home=cluster.space(home))
        finally:
            me.exit()


async def _parked(coro, channel):
    """Start ``coro`` as a task and let it run until its operation is
    parked at the channel's home."""
    task = asyncio.ensure_future(coro)
    deadline = time.monotonic() + 30
    await asyncio.sleep(0)
    while not channel.put_waiters and not channel.get_waiters:
        assert not task.done() and time.monotonic() < deadline
        await asyncio.sleep(0.001)  # a remote request is on its way
    assert not task.done()
    assert len(channel.put_waiters) + len(channel.get_waiters) == 1
    return task


# ----------------------------------------------------------------------
# cancelled while parked: withdrawn
# ----------------------------------------------------------------------
def test_a_cancelled_parked_put_is_withdrawn(park):
    home, sleep_kwargs = park

    async def main():
        async with _capacity_one(home) as c:
            out, inp, channel = c.out, c.inp, c.channel
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


def test_a_cancelled_parked_get_is_withdrawn(park):
    home, sleep_kwargs = park

    async def main():
        async with _capacity_one(home) as c:
            out, inp, channel = c.out, c.inp, c.channel
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


@pytest.mark.parametrize("op, home", [("put", 0), ("get", 0), ("put", 1), ("get", 1)],
                         ids=["put", "get", "remote-put", "remote-get"])
def test_wait_for_around_a_parked_op_withdraws_it(op, home):
    """``asyncio.wait_for`` cancels the operation it times out."""

    async def main():
        async with _capacity_one(home) as c:
            out, inp, channel = c.out, c.inp, c.channel
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
def test_a_put_completed_before_its_cancellation_stands(park):
    home, sleep_kwargs = park

    async def main():
        async with _capacity_one(home) as c:
            out, inp, channel = c.out, c.inp, c.channel
            await out.put(0, b"zero", refcount=1)
            put = await _parked(
                out.put(1, b"one", refcount=1, **sleep_kwargs), channel)
            await c.home_inp.get_consume(0)  # the drain lands item 1 ...
            put.cancel()  # ... before the parked task runs again
            with pytest.raises(asyncio.CancelledError):
                await put
            assert (await inp.get_consume(1, block=False)).value == b"one"

    asyncio.run(main())


def test_a_get_completed_before_its_cancellation_stands(park):
    home, sleep_kwargs = park

    async def main():
        async with _capacity_one(home) as c:
            out, inp, channel = c.out, c.inp, c.channel
            get = await _parked(inp.get(0, **sleep_kwargs), channel)
            await c.home_out.put(0, b"zero", refcount=1)  # the drain ...
            get.cancel()  # ... completes it before the parked task runs again
            with pytest.raises(asyncio.CancelledError):
                await get
            # The get happened: item 0 is OPEN on the connection, seen.
            with pytest.raises(ChannelEmptyError):
                await inp.get(STM_LATEST_UNSEEN, block=False)
            await inp.consume(0)

    asyncio.run(main())


# ----------------------------------------------------------------------
# the reply-vs-cancel race on the loop
# ----------------------------------------------------------------------
# A task cancelled while its operation is parked in the other space sends
# ``RpcCancel``, which the loop serves in its turn.  The home's state
# change that completes the operation lands either before that cancel is
# served (the home's reply goes out first: the operation stands) or after
# it (withdrawn: the state change completes nothing and sends no reply).
# Both orders are made on the one loop, and each test checks it got the
# order it names.
ORDERS = ["reply-first", "cancel-first"]


async def _cancel_in_order(task, order: str, parked) -> None:
    """Cancel ``task``; return once its ``RpcCancel`` has been sent but not
    served (``reply-first``) or once it has been served (``cancel-first``).
    ``parked()`` tells whether the operation is still parked at its home."""
    task.cancel()
    await asyncio.sleep(0)  # the task sends its RpcCancel
    if order == "reply-first":
        assert parked(), "the cancel was served before the home's reply"
        return
    deadline = time.monotonic() + 30
    while parked():
        assert time.monotonic() < deadline
        await asyncio.sleep(0)


def _home_sent(c) -> int:
    """Messages the channel's home space has sent so far."""
    return c.channel_home.endpoint.stats.messages_sent


@pytest.mark.parametrize("order", ORDERS)
def test_a_remote_put_on_a_full_channel_in_either_order(order):
    async def main():
        async with _capacity_one(1) as c:
            out, inp, channel = c.out, c.inp, c.channel
            await out.put(0, b"zero", refcount=1)
            put = await _parked(out.put(1, b"one", refcount=1), channel)
            await _cancel_in_order(put, order, lambda: channel.put_waiters)
            sent = _home_sent(c)
            await c.home_inp.get_consume(0)  # frees the slot
            with pytest.raises(asyncio.CancelledError):
                await put
            if order == "reply-first":  # landed, and answered
                assert _home_sent(c) == sent + 1
                assert (await inp.get_consume(1, block=False)).value == b"one"
            else:  # withdrawn: nothing lands, nobody is answered
                assert _home_sent(c) == sent
                with pytest.raises(ChannelEmptyError):
                    await inp.get(1, block=False)

    asyncio.run(main())


@pytest.mark.parametrize("order", ORDERS)
def test_a_remote_get_in_either_order(order):
    async def main():
        async with _capacity_one(1) as c:
            out, inp, channel = c.out, c.inp, c.channel
            get = await _parked(inp.get(0), channel)
            await _cancel_in_order(get, order, lambda: channel.get_waiters)
            sent = _home_sent(c)
            await c.home_out.put(0, b"zero", refcount=1)
            with pytest.raises(asyncio.CancelledError):
                await get
            if order == "reply-first":  # the get happened: item 0 is seen
                assert _home_sent(c) == sent + 1
                with pytest.raises(ChannelEmptyError):
                    await inp.get(STM_LATEST_UNSEEN, block=False)
            else:  # withdrawn: item 0 is still unseen on the connection
                assert _home_sent(c) == sent
                item = await inp.get(STM_LATEST_UNSEEN, block=False)
                assert (item.timestamp, item.value) == (0, b"zero")
            await inp.consume(0)

    asyncio.run(main())


@pytest.mark.parametrize("order", ORDERS)
def test_a_parked_remote_lookup_in_either_order(order):
    """A ``lookup(wait=True)`` from space 1, parked at the registry (space
    0), against the registration that answers it."""

    async def main():
        async with AioCluster(n_spaces=2, gc_period=None) as cluster:
            registry = cluster.space(0)
            waiting = registry._name_waiters
            lookup = asyncio.ensure_future(
                AioSTM(cluster.space(1)).lookup("raced", wait=True))
            deadline = time.monotonic() + 30
            while not waiting.get("raced"):
                assert time.monotonic() < deadline
                await asyncio.sleep(0.001)
            await _cancel_in_order(lookup, order, lambda: waiting.get("raced"))
            sent = registry.endpoint.stats.messages_sent
            await AioSTM(registry).create_channel("raced")
            with pytest.raises(asyncio.CancelledError):
                await lookup
            assert not waiting.get("raced")
            answered = 1 if order == "reply-first" else 0
            assert registry.endpoint.stats.messages_sent == sent + answered

    asyncio.run(main())
