"""Differential oracle for the kernel's GC-minimum index.

Hypothesis drives random op sequences against one :class:`ChannelKernel` and
against a brute-force reference that keeps, per connection, the plain set of
consumed timestamps and recomputes everything from scratch.  After every step
the two must agree on the op's outcome, on ``unconsumed_min()`` (reference:
min over connections of the smallest stored unconsumed timestamp), on
``total_consumes`` / ``total_collected`` / ``stored_bytes()``, on the
resident timestamp set and on the timestamps the reclaim hook was shown.
White-box alongside: the index's own invariant (one entry per live input
connection, never above its watermark) and each view's (its explicit
consumes all above a watermark they were folded into, its OPEN set and
``last_gotten`` as the reference's).
"""

import time

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import channel_state
from repro.core.channel_state import ChannelKernel, Status
from repro.core.flags import STM_LATEST_UNSEEN, UNKNOWN_REFCOUNT
from repro.core.time import INFINITY
from repro.errors import (
    AlreadyConsumedError,
    ChannelDestroyedError,
    ConnectionClosedError,
    DuplicateTimestampError,
    ItemGarbageCollectedError,
    NotOpenError,
)
from tests._hypothesis import examples

OUT = 0
CONNS = [1, 2, 3]
MAX_TS = 12
INF = "inf"  # stands for INFINITY in op tuples (keeps examples printable)


class Reference:
    """The kernel's observable behaviour, computed the slow obvious way."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.stored: dict[int, list[int]] = {}  # ts -> [size, refcount]
        self.consumed: dict[int, set[int]] = {}  # conn -> consumed timestamps
        self.open: dict[int, set[int]] = {}  # conn -> gotten, not consumed
        self.last_gotten: dict[int, int] = {}
        self.reclaimed: list[int] = []  # what the reclaim hook must be shown
        self.horizon = 0
        self.destroyed = False
        self.total_consumes = 0
        self.total_collected = 0

    # -- helpers --------------------------------------------------------
    def _alive(self):
        if self.destroyed:
            raise ChannelDestroyedError("destroyed")

    def _view(self, conn):
        if conn not in self.consumed:
            raise ConnectionClosedError("not attached")
        return self.consumed[conn]

    def _is_consumed(self, conn, ts):
        return ts < self.horizon or ts in self.consumed[conn]

    def _dec(self, timestamps):
        for ts in timestamps:
            entry = self.stored.get(ts)
            if entry is None or entry[1] == UNKNOWN_REFCOUNT:
                continue
            entry[1] = max(entry[1] - 1, 0)
            if entry[1] == 0:
                del self.stored[ts]
                self.total_collected += 1
                self.reclaimed.append(ts)

    # -- ops ------------------------------------------------------------
    def attach(self, conn, visibility):
        self._alive()
        if conn in self.consumed:
            raise ValueError("already attached")
        if visibility == INF:
            below = max(self.stored) + 1 if self.stored else self.horizon
        else:
            below = max(visibility, self.horizon)
        self.consumed[conn] = set(range(below))
        self.open[conn] = set()
        self.last_gotten.pop(conn, None)

    def detach(self, conn):
        self._view(conn)
        del self.consumed[conn]

    def put(self, ts, refcount):
        self._alive()
        if ts < self.horizon:
            raise ItemGarbageCollectedError("below horizon")
        if ts in self.stored:
            raise DuplicateTimestampError("duplicate")
        if self.capacity is not None and len(self.stored) >= self.capacity:
            return Status.BLOCKED
        if refcount == 0:
            self.total_collected += 1
        else:
            self.stored[ts] = [ts % 7 + 1, refcount]
        return Status.OK

    def get(self, conn, ts):
        self._alive()
        self._view(conn)
        if ts == "unseen":
            unconsumed = [t for t in self.stored if not self._is_consumed(conn, t)]
            floor = self.last_gotten.get(conn)
            if not unconsumed or (floor is not None and max(unconsumed) <= floor):
                return Status.BLOCKED
            ts = max(unconsumed)
        elif ts < self.horizon:
            raise ItemGarbageCollectedError("collected")
        elif ts in self.consumed[conn]:
            raise AlreadyConsumedError("consumed")
        elif ts not in self.stored:
            return Status.BLOCKED
        self.last_gotten[conn] = max(self.last_gotten.get(conn, -1), ts)
        self.open[conn].add(ts)
        return ts

    def consume(self, conn, ts, strict=False):
        self._alive()
        view = self._view(conn)
        if self._is_consumed(conn, ts):
            return
        if strict and ts not in self.open[conn]:
            raise NotOpenError("unseen")
        view.add(ts)
        self.open[conn].discard(ts)
        self.total_consumes += 1
        self._dec([ts])

    def consume_until(self, conn, ts):
        self._alive()
        view = self._view(conn)
        newly = sorted(
            t for t in self.stored if t <= ts and not self._is_consumed(conn, t)
        )
        view.update(range(ts + 1))
        self.open[conn] = {t for t in self.open[conn] if t > ts}
        self.total_consumes += len(newly)
        self._dec(newly)

    def collect(self, horizon):
        if horizon == INF:
            bound = max(self.stored) + 1 if self.stored else self.horizon
        else:
            bound = horizon
        dead = sorted(t for t in self.stored if t < bound)
        for t in dead:
            del self.stored[t]
        self.total_collected += len(dead)
        self.reclaimed.extend(dead)
        self.horizon = max(self.horizon, bound)
        return dead

    def destroy(self):
        self.destroyed = True
        self.reclaimed.extend(sorted(self.stored))
        self.stored.clear()
        self.consumed.clear()

    def unconsumed_min(self):
        owed = [
            t
            for conn in self.consumed
            for t in self.stored
            if not self._is_consumed(conn, t)
        ]
        return min(owed) if owed else INFINITY

    def stored_bytes(self):
        return sum(size for size, _ in self.stored.values())


def _vt(value):
    return INFINITY if value == INF else value


def _apply_kernel(kernel, op):
    kind, *args = op
    if kind == "attach":
        return kernel.attach_input(args[0], _vt(args[1]))
    if kind == "detach":
        return kernel.detach(args[0])
    if kind == "put":
        ts, refcount = args
        return kernel.put(OUT, ts, b"x", ts % 7 + 1, refcount).status
    if kind == "get":
        conn, ts = args
        result = kernel.get(conn, STM_LATEST_UNSEEN if ts == "unseen" else ts)
        return result.timestamp if result.status is Status.OK else result.status
    if kind == "consume":
        return kernel.consume(*args)
    if kind == "consume_strict":
        return kernel.consume(*args, strict=True)
    if kind == "consume_until":
        return kernel.consume_until(*args)
    if kind == "collect":
        return kernel.collect_below(_vt(args[0]))
    if kind == "collect_min":
        return kernel.collect_below(kernel.unconsumed_min())
    assert kind == "destroy"
    return kernel.destroy()


def _apply_reference(ref, op):
    kind, *args = op
    if kind == "collect_min":
        owed = ref.unconsumed_min()
        return ref.collect(INF if owed is INFINITY else owed)
    if kind == "consume_strict":
        return ref.consume(*args, strict=True)
    return getattr(ref, kind)(*args)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the class is the outcome being compared
        return type(exc)


def _check_index(kernel):
    """One heap entry per live input connection, never above its watermark."""
    live = [entry for entry in kernel._marks if kernel.inputs.get(entry[2].conn_id) is entry[2]]
    assert sorted(entry[2].conn_id for entry in live) == sorted(kernel.inputs)
    assert all(mark <= view.consumed_below for mark, _, view in live)
    assert len(kernel._marks) <= 2 * len(CONNS) + 64  # detached entries stay bounded


def _check_views(kernel, ref):
    """Each live view: explicit consumes folded into the watermark as far as
    they reach, and the OPEN set and ``last_gotten`` of the reference.  OPEN
    is compared at and above the GC horizon only: below it everything is
    consumed, and a view drops its stale entries at its next consume (a real
    horizon never passes an open item; the ``collect`` op forces one)."""
    for conn, view in kernel.inputs.items():
        assert all(t > view.consumed_below for t in view.consumed_explicit), view
        live = {t for t in view.open_ts if t >= kernel.gc_horizon}
        assert live == {t for t in ref.open[conn] if t >= ref.horizon}, view
        assert view.last_gotten == ref.last_gotten.get(conn), view


def run_differential(ops, capacity=None):
    kernel = ChannelKernel(1, capacity=capacity)
    kernel.attach_output(OUT)
    ref = Reference(capacity)
    hooked: list[int] = []
    armed = channel_state._reclaim_hook  # the sanitizer's, under STMSAN
    channel_state.set_reclaim_hook(lambda _kernel, ts, _record: hooked.append(ts))
    try:
        for step, op in enumerate(ops):
            where = f"step {step}: {op}"
            assert _outcome(_apply_kernel, kernel, op) == _outcome(_apply_reference, ref, op), where
            assert kernel.unconsumed_min() == ref.unconsumed_min(), where
            assert kernel.total_consumes == ref.total_consumes, where
            assert kernel.total_collected == ref.total_collected, where
            assert kernel.stored_bytes() == ref.stored_bytes(), where
            assert kernel.timestamps() == sorted(ref.stored), where
            assert hooked == ref.reclaimed, where
            _check_index(kernel)
            _check_views(kernel, ref)
    finally:
        channel_state.set_reclaim_hook(armed)


_conn = st.sampled_from(CONNS)
_ts = st.integers(0, MAX_TS)
_op = st.one_of(
    st.tuples(st.just("attach"), _conn, st.one_of(st.integers(0, MAX_TS + 2), st.just(INF))),
    st.tuples(st.just("detach"), _conn),
    st.tuples(st.just("put"), _ts, st.sampled_from([UNKNOWN_REFCOUNT, 0, 1, 2, 3])),
    st.tuples(st.just("get"), _conn, st.one_of(_ts, st.just("unseen"))),
    st.tuples(st.just("consume"), _conn, _ts),
    st.tuples(st.just("consume_strict"), _conn, _ts),
    st.tuples(st.just("consume_until"), _conn, _ts),
    st.tuples(st.just("collect"), st.one_of(_ts, st.just(INF))),
    st.tuples(st.just("collect_min")),
)
#: destroy ends the interesting part of a run, so it is drawn rarely
_ops = st.lists(st.one_of(*[_op] * 30, st.just(("destroy",))), max_size=80)


@given(_ops, st.one_of(st.none(), st.integers(1, 6)))
@settings(max_examples=examples(300), deadline=None)
@example(
    # detach of the connection that sets the minimum: its heap entry is at
    # the top and must be dropped, not answered from.
    ops=[
        ("attach", 1, 0), ("attach", 2, 0),
        ("put", 3, UNKNOWN_REFCOUNT), ("put", 7, UNKNOWN_REFCOUNT),
        ("consume_until", 2, 5),
        ("detach", 1),
        ("collect_min",),
        ("detach", 2),
    ],
    capacity=None,
)
@example(
    # re-attach churn on one conn id: dead entries pile up under a live one
    # with the same id and the same watermark until the index is rebuilt.
    ops=[("attach", 2, 0), ("put", 4, UNKNOWN_REFCOUNT)]
    + [("attach", 1, 0), ("detach", 1)] * 80
    + [("attach", 1, 9), ("consume_until", 2, 4), ("put", 12, UNKNOWN_REFCOUNT)],
    capacity=None,
)
@example(
    # consume_until across explicit entries: only the gaps count as newly
    # consumed, and the out-of-order connection stops being special.
    ops=[
        ("attach", 1, 0), ("attach", 2, 0),
        *[("put", ts, UNKNOWN_REFCOUNT) for ts in (0, 2, 4, 6, 8)],
        ("consume", 1, 4), ("consume", 1, 2), ("get", 1, 6),
        ("consume_until", 1, 6),
        ("consume", 2, 0),
    ],
    capacity=None,
)
@example(
    # refcount reclaim of the minimum: the last declared consumer removes
    # the item every connection's minimum pointed at.
    ops=[
        ("attach", 1, 0), ("attach", 2, 0), ("attach", 3, 0),
        ("put", 1, 2), ("put", 5, UNKNOWN_REFCOUNT),
        ("consume", 1, 1), ("consume", 2, 1),
        ("consume", 3, 5),
    ],
    capacity=None,
)
@example(
    # the out-of-order connection is the laggard and another connection
    # shares its watermark: the fallback scan must look past it.
    ops=[
        ("attach", 1, 0), ("attach", 2, 0),
        ("put", 0, UNKNOWN_REFCOUNT), ("put", 1, UNKNOWN_REFCOUNT),
        ("consume", 1, 1), ("consume", 1, 0), ("consume", 2, 1),
        ("put", 2, UNKNOWN_REFCOUNT), ("consume", 2, 3),
    ],
    capacity=None,
)
@example(
    # consume of a collected timestamp stays legal and silent; the horizon
    # folds into the watermark on the way.
    ops=[
        ("attach", 1, 0), ("put", 10, UNKNOWN_REFCOUNT), ("consume", 1, 10),
        ("collect", 15), ("consume", 1, 3), ("put", 20, UNKNOWN_REFCOUNT),
        ("consume", 1, 20),
    ],
    capacity=None,
)
@example(
    # the branches put / get / consume take inline: a refcount-0 put is
    # not stored; a get opens its item and moves LATEST_UNSEEN past it; a
    # strict consume refuses an UNSEEN item; the last declared consumer
    # reclaims an item that is not the oldest (and the reclaim hook sees
    # it), then the oldest; consumes that fill a gap fold into the mark.
    ops=[
        ("attach", 1, 0), ("put", 2, 0), ("get", 1, 2),
        ("put", 1, UNKNOWN_REFCOUNT), ("put", 4, 1), ("put", 6, UNKNOWN_REFCOUNT),
        ("consume_strict", 1, 1), ("get", 1, 4), ("get", 1, "unseen"),
        ("consume_strict", 1, 6),
        ("consume_strict", 1, 4), ("put", 0, 1), ("consume", 1, 0),
        ("consume", 1, 3), ("consume", 1, 2), ("consume", 1, 1),
    ],
    capacity=None,
)
@example(
    # a forced collect passes an open item: the view keeps it in its OPEN
    # set until its next consume folds the horizon in.
    ops=[
        ("attach", 1, 0), ("put", 3, UNKNOWN_REFCOUNT), ("get", 1, 3),
        ("collect", 5), ("consume", 1, 7), ("consume_strict", 1, 3),
    ],
    capacity=None,
)
def test_index_matches_brute_force_reference(ops, capacity):
    run_differential(ops, capacity)


def _churn_cost(n_conns: int) -> float:
    """Seconds for 1 000 put + consume_until rounds at 256+ resident, best of 3."""
    kernel = ChannelKernel(1)
    kernel.attach_output(OUT)
    for conn in range(1, n_conns + 1):
        kernel.attach_input(conn, 0)
    ts = 0
    for ts in range(256):
        kernel.put(OUT, ts, b"", 0)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for i in range(1000):
            ts += 1
            kernel.put(OUT, ts, b"", 0)
            kernel.consume_until(1 + i % n_conns, ts - 128)
            if i % 50 == 0:
                kernel.unconsumed_min()
        best = min(best, time.perf_counter() - t0)
        kernel.collect_below(ts - 255)  # back to 256 resident
    return best


def test_cost_does_not_grow_with_connections():
    """10 000 input connections cost about what one does.

    At the parent commit the same rounds took 55 ms on one connection
    (``consume_until`` filtered every resident key) and 447 ms on 10 000
    (``put`` patched a cache per connection); now both take ~2.4 ms.
    """
    one = _churn_cost(1)
    many = _churn_cost(10_000)
    assert many < 5 * one, f"1 conn {one * 1e3:.2f} ms, 10k conns {many * 1e3:.2f} ms"
