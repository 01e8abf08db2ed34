"""What an op does with a bad argument, and what a get hands back.

The local op path tests its common case inline (an exact non-negative
``int``, a live kernel, an attached connection, an open handle) and calls
the raising helper only when that test fails; these tests pin that every
bad timestamp still raises the helper's exception and message, on a local
home, a remote home and the asyncio facade.  A declared refcount is
validated the same way before anything is stored, and an op on a detached
connection raises the same error text on both facades.  A gotten ``Item`` is
built without its frozen ``__init__`` and must still be indistinguishable
from one built by it.
"""

import asyncio
import dataclasses

import pytest

from repro.core.channel_state import ChannelKernel, Status
from repro.errors import ConnectionClosedError
from repro.runtime import Cluster
from repro.runtime.aio import AioCluster
from repro.stm import STM
from repro.stm.aio import AioSTM
from repro.stm.api import Item

#: (bad timestamp, exception type, message), as ``validate_timestamp`` says
#: (a list: ``True == 1.0``, so they cannot both be dict keys)
BAD_TIMESTAMPS = [
    (True, TypeError, "timestamp must be an int, got bool"),
    (-1, ValueError, "timestamp must be >= 0, got -1"),
    (1.0, TypeError, "timestamp must be an int, got float"),
]

#: bad refcount -> (exception type, message)
BAD_REFCOUNTS = {
    1.5: (TypeError, "refcount must be an int, got float"),
    True: (TypeError, "refcount must be an int, got bool"),
    "2": (TypeError, "refcount must be an int, got str"),
    -2: (ValueError, "refcount must be >= 0 or UNKNOWN_REFCOUNT, got -2"),
}

OPS = ("put", "get", "consume", "consume_until")


def _call(op: str, out, inp, ts):
    """Run facade op ``op`` with timestamp (or get request) ``ts``."""
    if op == "put":
        return out.put(ts, b"x")
    return getattr(inp, op)(ts)


def _outcome(run) -> tuple[type, str]:
    try:
        run()
    except Exception as exc:  # noqa: BLE001 - the outcome is the subject
        return type(exc), str(exc)
    return type(None), "returned"


@pytest.fixture(params=["local", "remote"])
def conns(request):
    """An output and an input connection on a channel homed at space 0
    (local) or space 1 (remote), used from space 0's thread."""
    with Cluster(n_spaces=2, gc_period=None) as cluster:
        me = cluster.space(0).adopt_current_thread(virtual_time=0)
        try:
            home = 0 if request.param == "local" else 1
            chan = STM(cluster.space(0)).create_channel("args", home=home)
            with chan.attach_output() as out, chan.attach_input() as inp:
                kernel = cluster.space(home)._channel(chan.channel_id).kernel
                yield out, inp, kernel
        finally:
            me.exit()


async def _aio_conns(body) -> None:
    """Run ``await body(out, inp, kernel)`` on a local asyncio channel."""
    async with AioCluster(n_spaces=1, gc_period=None) as cluster:
        space = cluster.space(0)
        me = space.adopt_current_task(virtual_time=0)
        chan = await AioSTM(space).create_channel("aargs")
        async with chan.attach_output() as out, chan.attach_input() as inp:
            await body(out, inp, space._channel(chan.channel_id).kernel)
        me.exit()


class TestBadTimestamps:
    @pytest.mark.parametrize("op", OPS)
    @pytest.mark.parametrize("ts, error, message", BAD_TIMESTAMPS,
                             ids=["bool", "negative", "float"])
    def test_threads(self, conns, op, ts, error, message):
        out, inp, kernel = conns
        assert _outcome(lambda: _call(op, out, inp, ts)) == (error, message)
        assert len(kernel) == 0

    def test_aio(self):
        seen = []

        async def body(out, inp, kernel):
            for op in OPS:
                for ts, _, _ in BAD_TIMESTAMPS:
                    try:
                        if op == "put":
                            await out.put(ts, b"x")
                        else:
                            await getattr(inp, op)(ts)
                    except Exception as exc:  # noqa: BLE001 - the subject
                        seen.append((op, ts, type(exc), str(exc)))
            assert len(kernel) == 0

        asyncio.run(_aio_conns(body))
        assert seen == [(op, *bad) for op in OPS for bad in BAD_TIMESTAMPS]


class TestBadRefcounts:
    """A refcount that is not an int >= 0 (or UNKNOWN_REFCOUNT) is refused
    before anything is stored: ``1.5`` used to be stored and never reach
    zero, ``True`` counted as 1, ``"2"`` failed on a bare ``<``."""

    @pytest.mark.parametrize("refcount", list(BAD_REFCOUNTS), ids=repr)
    def test_kernel(self, refcount):
        kernel = ChannelKernel(1, capacity=1)
        kernel.attach_output(0)
        version = kernel.version
        assert _outcome(
            lambda: kernel.put(0, 0, b"x", 1, refcount)
        ) == BAD_REFCOUNTS[refcount]
        assert len(kernel) == 0 and kernel.total_puts == 0
        assert kernel.version == version
        assert kernel.put(0, 0, b"x", 1, 1).status is Status.OK  # slot free

    @pytest.mark.parametrize("refcount", list(BAD_REFCOUNTS), ids=repr)
    def test_threads(self, conns, refcount):
        out, inp, kernel = conns
        assert _outcome(
            lambda: out.put(0, b"x", refcount=refcount)
        ) == BAD_REFCOUNTS[refcount]
        assert len(kernel) == 0 and kernel.total_puts == 0

    def test_aio(self):
        seen = {}

        async def body(out, inp, kernel):
            for refcount in BAD_REFCOUNTS:
                try:
                    await out.put(0, b"x", refcount=refcount)
                except Exception as exc:  # noqa: BLE001 - the subject
                    seen[refcount] = (type(exc), str(exc))
            assert len(kernel) == 0 and kernel.total_puts == 0

        asyncio.run(_aio_conns(body))
        assert seen == BAD_REFCOUNTS

    def test_good_refcounts_still_count_down(self, conns):
        out, inp, kernel = conns
        for ts, refcount in enumerate((0, 1, 2, -1)):
            out.put(ts, b"x", refcount=refcount)
            inp.consume(ts)
        # 0 is dead on arrival, 1 reached zero, 2 and UNKNOWN stay
        assert kernel.timestamps() == [2, 3]
        assert kernel.items.get(2).refcount == 1


def _detached(conn) -> tuple[type, str]:
    """What any op on ``conn`` raises once it is detached."""
    return ConnectionClosedError, (
        f"connection {conn.conn_id} to channel {conn.channel.channel_id} "
        "is detached"
    )


class TestDetachedConnection:
    def test_threads(self, conns):
        out, inp, kernel = conns
        out.detach()
        inp.detach()
        for op in OPS:
            conn = out if op == "put" else inp
            assert _outcome(lambda: _call(op, out, inp, 0)) == _detached(conn)
        assert len(kernel) == 0

    def test_aio(self):
        seen, expected = [], []

        async def body(out, inp, kernel):
            await out.detach()
            await inp.detach()
            for op in OPS:
                conn = out if op == "put" else inp
                expected.append(_detached(conn))
                try:
                    if op == "put":
                        await out.put(0, b"x")
                    else:
                        await getattr(inp, op)(0)
                except Exception as exc:  # noqa: BLE001 - the subject
                    seen.append((type(exc), str(exc)))
            assert len(kernel) == 0

        asyncio.run(_aio_conns(body))
        assert seen == expected and len(seen) == len(OPS)


class TestGottenItem:
    VALUE = ("frame", 3)  # hashable after the copy-out

    @staticmethod
    def _check(item: Item, ts: int) -> None:
        built = Item(value=TestGottenItem.VALUE, timestamp=ts, size=item.size)
        assert type(item) is Item
        assert item == built and hash(item) == hash(built)
        assert repr(item) == repr(built)
        assert list(vars(item)) == [f.name for f in dataclasses.fields(Item)]
        for name in ("value", "timestamp", "size"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(item, name, None)

    def test_threads(self, conns):
        out, inp, _ = conns
        out.put(4, self.VALUE)
        self._check(inp.get(4), 4)

    def test_aio(self):
        got = []

        async def body(out, inp, kernel):
            await out.put(4, self.VALUE)
            got.append(await inp.get(4))

        asyncio.run(_aio_conns(body))
        self._check(got[0], 4)


def test_the_shared_put_result_is_frozen():
    kernel = ChannelKernel(1)
    kernel.attach_output(0)
    first, second = kernel.put(0, 0, b"a", 1), kernel.put(0, 1, b"b", 1)
    assert first is second and first.status is Status.OK
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.status = Status.BLOCKED
    assert kernel.put(0, 2, b"c", 1).status is Status.OK
