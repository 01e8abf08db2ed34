"""The bundled model-checking scenarios: clean suite + seeded bugs.

Each scenario is a tiny, real STM workload: the *clean* ones drive an
actual single-space :class:`~repro.runtime.cluster.Cluster` (no dispatcher
threads, no GC daemon — every operation runs inline on a model thread, so
the scheduler controls the complete thread set) and must hold their
invariants under **every** explored interleaving.  The *seeded* ones
(``expect_violation=True``) contain a deliberately broken synchronization
pattern — a check-then-act put, a GC that ignores thread visibilities, a
lost wakeup — and exist to prove the explorer finds such bugs and that
their schedule seeds replay deterministically.

Scenario fixtures are built on the controller thread (primitives touched
there bypass the scheduler); Stampede threads are registered directly so
their visibilities count toward GC from step zero, independent of when the
model schedules their bodies.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Callable

from repro.analysis.modelcheck.scheduler import InvariantViolation
from repro.core.channel_state import ChannelKernel, Status
from repro.core.time import INFINITY, vt_min
from repro.errors import ChannelDestroyedError, NoSuchChannelError
from repro.runtime.address_space import _unframed
from repro.runtime.cluster import Cluster
from repro.runtime.messages import (
    AttachReq,
    ClockProbeReq,
    GetReq,
    RpcCancel,
    RpcReply,
)
from repro.runtime.sync import make_event, make_lock
from repro.runtime.threads import StampedeThread
from repro.stm.api import STM
from repro.transport.serialization import encode_message_sg

__all__ = ["Scenario", "SCENARIOS"]


class Scenario:
    """Base scenario: subclasses define build/threads/invariants."""

    name: str = ""
    description: str = ""
    expect_violation: bool = False
    #: default max schedule executions for :func:`~..explorer.explore`.
    budget: int = 250

    def build(self) -> SimpleNamespace:
        raise NotImplementedError

    def threads(
        self, ctx: SimpleNamespace
    ) -> list[tuple[str, Callable[[SimpleNamespace], None]]]:
        raise NotImplementedError

    def step_invariant(self, ctx: SimpleNamespace) -> None:
        """Checked on the controller after every transition."""

    def final_invariant(self, ctx: SimpleNamespace) -> None:
        """Checked once every thread has finished."""

    def teardown(self, ctx: SimpleNamespace) -> None:
        cluster = getattr(ctx, "cluster", None)
        if cluster is not None:
            cluster.shutdown()


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvariantViolation(message)


def _cluster_ctx(capacity: int | None = None) -> SimpleNamespace:
    """A single-space cluster fixture fully under scheduler control."""
    cluster = Cluster(n_spaces=1, gc_period=None, dispatchers=False)
    space = cluster.space(0)
    handle = space.create_channel(capacity=capacity)
    return SimpleNamespace(
        cluster=cluster, space=space, handle=handle, results=[]
    )


def _register_thread(ctx, name: str, virtual_time) -> StampedeThread:
    """Create + register a Stampede thread without binding any OS thread.

    Registration in build() (not in the body) means the thread's visibility
    feeds gc_summary from the first transition — matching a real program,
    where a thread exists before any schedule-dependent work it performs.
    """
    thread = StampedeThread(ctx.space, name, virtual_time)
    ctx.space._threads[name] = thread
    return thread


def _kernel(ctx) -> ChannelKernel:
    # Raw (lock-free) access for controller-side invariant checks: safe
    # because invariants run between transitions, when no model thread is
    # mid-critical-section *running* — state is frozen.
    return ctx.space._channels[ctx.handle.channel_id].kernel


# ---------------------------------------------------------------------------
# clean scenarios
# ---------------------------------------------------------------------------


class PutGetConsume(Scenario):
    """Concurrent put/get/consume on one channel.

    Producer puts two refcount-1 items; consumer (blocking) gets and
    consumes both.  Invariants: the consumer sees exactly the payloads in
    timestamp order, and both items are eagerly reclaimed (§6).
    """

    name = "put-get-consume"
    description = "concurrent put/get/consume on one channel"

    def build(self):
        ctx = _cluster_ctx()
        producer = _register_thread(ctx, "producer", 0)
        consumer = _register_thread(ctx, "consumer", 0)
        ctx.out = ctx.space.attach(ctx.handle, is_input=False, thread=producer)
        ctx.inp = ctx.space.attach(ctx.handle, is_input=True, thread=consumer)
        return ctx

    def threads(self, ctx):
        def producer(ctx):
            ctx.space.put(ctx.handle, ctx.out, 0, b"a", 1, refcount=1)
            ctx.space.put(ctx.handle, ctx.out, 1, b"b", 1, refcount=1)

        def consumer(ctx):
            for ts in (0, 1):
                payload, got_ts, _size = ctx.space.get(ctx.handle, ctx.inp, ts)
                ctx.results.append((got_ts, payload))
                ctx.space.consume(ctx.handle, ctx.inp, ts)

        return [("producer", producer), ("consumer", consumer)]

    def final_invariant(self, ctx):
        _require(
            ctx.results == [(0, b"a"), (1, b"b")],
            f"consumer saw {ctx.results!r}, expected items 0:a and 1:b in order",
        )
        _require(
            len(_kernel(ctx)) == 0,
            "refcount-1 items not reclaimed after both consumes",
        )


class ConsumeVsGcEpoch(Scenario):
    """A consume racing a full GC epoch (GcDaemon.run_once).

    The §4.2 guarantee under test: the horizon folds thread visibilities
    and channel unconsumed-minima, so the GC round must never reclaim the
    item the consumer is entitled to get, at any interleaving point.
    """

    name = "consume-vs-gc-epoch"
    description = "consume racing a GC epoch (GcDaemon.run_once)"

    def build(self):
        ctx = _cluster_ctx()
        ctx.producer_t = _register_thread(ctx, "producer", 0)
        ctx.consumer_t = _register_thread(ctx, "consumer", 0)
        ctx.out = ctx.space.attach(ctx.handle, is_input=False, thread=ctx.producer_t)
        ctx.inp = ctx.space.attach(ctx.handle, is_input=True, thread=ctx.consumer_t)
        ctx.put_done = [False, False]
        ctx.consumed0 = False
        return ctx

    def threads(self, ctx):
        def producer(ctx):
            ctx.space.put(ctx.handle, ctx.out, 0, b"a", 1)
            ctx.put_done[0] = True
            ctx.space.put(ctx.handle, ctx.out, 1, b"b", 1)
            ctx.put_done[1] = True
            ctx.producer_t.set_virtual_time(INFINITY)

        def consumer(ctx):
            payload, ts, _size = ctx.space.get(ctx.handle, ctx.inp, 0)
            ctx.results.append((ts, payload))
            ctx.space.consume(ctx.handle, ctx.inp, 0)
            ctx.consumed0 = True
            ctx.consumer_t.set_virtual_time(1)

        def gc(ctx):
            ctx.horizon = ctx.cluster.gc_once()

        return [("producer", producer), ("consumer", consumer), ("gc", gc)]

    def step_invariant(self, ctx):
        kernel = _kernel(ctx)
        _require(
            not ctx.put_done[0] or ctx.consumed0 or 0 in kernel.items,
            "GC reclaimed item ts=0 while still unconsumed (§4.2 violation)",
        )
        _require(
            not ctx.put_done[1] or 1 in kernel.items,
            "GC reclaimed item ts=1 while still unconsumed (§4.2 violation)",
        )

    def final_invariant(self, ctx):
        _require(ctx.results == [(0, b"a")], f"consumer saw {ctx.results!r}")
        _require(
            1 in _kernel(ctx).items,
            "unconsumed item ts=1 missing after the GC epoch",
        )


class DetachVsReclaim(Scenario):
    """An input detach racing the eager refcount reclaim of §6.

    Consumer A's consume drops the declared refcount to zero and reclaims
    the item while consumer B detaches its own view of the same channel.
    Both orders must commute: no exception, empty channel, no input views.
    """

    name = "detach-vs-reclaim"
    description = "input detach racing eager refcount reclaim"

    def build(self):
        ctx = _cluster_ctx()
        producer = _register_thread(ctx, "producer", 0)
        thread_a = _register_thread(ctx, "a", 0)
        thread_b = _register_thread(ctx, "b", 0)
        out = ctx.space.attach(ctx.handle, is_input=False, thread=producer)
        ctx.conn_a = ctx.space.attach(ctx.handle, is_input=True, thread=thread_a)
        ctx.conn_b = ctx.space.attach(ctx.handle, is_input=True, thread=thread_b)
        ctx.space.put(ctx.handle, out, 0, b"x", 1, refcount=1)
        return ctx

    def threads(self, ctx):
        def consume_a(ctx):
            payload, ts, _size = ctx.space.get(ctx.handle, ctx.conn_a, 0)
            ctx.results.append((ts, payload))
            ctx.space.consume(ctx.handle, ctx.conn_a, 0)

        def detach_b(ctx):
            ctx.space.detach(ctx.handle, ctx.conn_b)

        return [("consume-a", consume_a), ("detach-b", detach_b)]

    def final_invariant(self, ctx):
        kernel = _kernel(ctx)
        _require(ctx.results == [(0, b"x")], f"consumer A saw {ctx.results!r}")
        _require(len(kernel) == 0, "refcount-0 item survived the consume")
        _require(
            ctx.conn_b not in kernel.inputs,
            "detached connection still attached",
        )


class BoundedPutVsGet(Scenario):
    """A blocking put on a full bounded channel racing the get/consume
    that makes room.

    Exercises the park/targeted-wakeup path: the blocked put parks on a
    CHANNEL_FULL waiter; the consume must complete it (and the completed
    put must then satisfy a parked get, the drain cascade).  Deadlock
    freedom across all interleavings is the implicit property.
    """

    name = "bounded-put-vs-get"
    description = "bounded-channel blocking put racing get/consume"

    def build(self):
        ctx = _cluster_ctx(capacity=1)
        producer = _register_thread(ctx, "producer", 0)
        consumer = _register_thread(ctx, "consumer", 0)
        ctx.out = ctx.space.attach(ctx.handle, is_input=False, thread=producer)
        ctx.inp = ctx.space.attach(ctx.handle, is_input=True, thread=consumer)
        return ctx

    def threads(self, ctx):
        def producer(ctx):
            ctx.space.put(ctx.handle, ctx.out, 0, b"a", 1, refcount=1)
            # Blocks whenever ts=0 still occupies the single slot.
            ctx.space.put(ctx.handle, ctx.out, 1, b"b", 1, refcount=1)

        def consumer(ctx):
            for ts in (0, 1):
                payload, got_ts, _size = ctx.space.get(ctx.handle, ctx.inp, ts)
                ctx.results.append((got_ts, payload))
                ctx.space.consume(ctx.handle, ctx.inp, ts)

        return [("producer", producer), ("consumer", consumer)]

    def step_invariant(self, ctx):
        _require(
            len(_kernel(ctx)) <= 1,
            "bounded channel exceeded its capacity of 1",
        )

    def final_invariant(self, ctx):
        _require(
            ctx.results == [(0, b"a"), (1, b"b")],
            f"consumer saw {ctx.results!r}, expected 0:a then 1:b",
        )
        _require(len(_kernel(ctx)) == 0, "items not reclaimed")


class GcHorizonMonotonic(Scenario):
    """Two concurrent horizon applies must keep the watermark monotone.

    Regression scenario for the ``_gc_horizon_applied`` lost-update race:
    an explicit gc_once round racing the periodic daemon's apply could
    write a *lower* watermark over a higher one (read-modify-write without
    a lock), making later rounds re-collect.  Fixed by
    ``AddressSpace._gc_horizon_lock``.
    """

    name = "gc-horizon-monotonic"
    description = "concurrent GC applies keep the horizon watermark monotone"

    def build(self):
        ctx = _cluster_ctx()
        ctx.max_seen = 0
        return ctx

    def threads(self, ctx):
        def apply_low(ctx):
            ctx.space.apply_gc_horizon(1)

        def apply_high(ctx):
            ctx.space.apply_gc_horizon(2)

        return [("apply-low", apply_low), ("apply-high", apply_high)]

    def step_invariant(self, ctx):
        applied = ctx.space._gc_horizon_applied
        _require(
            applied >= ctx.max_seen,
            f"gc horizon watermark went backwards: {ctx.max_seen} -> {applied}",
        )
        ctx.max_seen = max(ctx.max_seen, applied)

    def final_invariant(self, ctx):
        _require(
            ctx.space._gc_horizon_applied == 2,
            f"final watermark {ctx.space._gc_horizon_applied}, expected 2",
        )


class LateReplyVsNextCall(Scenario):
    """A late reply to a timed-out RPC racing the same thread's next call.

    ``AddressSpace.call`` reuses one completion slot per calling thread, so
    the slot call N used is re-armed for call N+1 the moment N ends.  The
    reply to N may land at *any* point — before N is registered, while it
    waits, after it timed out, after N+1 took the slot over — and must never
    be delivered as N+1's result.  Model time has no clocks, so the timed-out
    call is driven through the same begin/end halves ``call`` is made of
    (begin, then end without a reply); N+1 is a plain ``call``.  No
    dispatcher runs: the replies are injected straight into
    ``_complete_call``, the reply to N+1 only once its request is on the
    wire.
    """

    name = "late-reply-vs-next-call"
    description = "late reply to a timed-out RPC racing the thread's next call"

    def build(self):
        cluster = Cluster(n_spaces=2, gc_period=None, dispatchers=False)
        space = cluster.space(0)
        ctx = SimpleNamespace(cluster=cluster, space=space, results=[])
        # call ids are striped per space: 0, 2, ... on space 0 of 2
        ctx.stale_id, ctx.fresh_id = 0, 2
        ctx.fresh_sent = make_event()
        endpoint_send = space.endpoint.send

        def send(dst, data):
            endpoint_send(dst, data)
            if space._calls.get(ctx.fresh_id) is not None:
                ctx.fresh_sent.set()

        space.endpoint.send = send
        return ctx

    def threads(self, ctx):
        def caller(ctx):
            space = ctx.space
            timed_out = space._call_slot()
            space._begin_call(timed_out, 1, ClockProbeReq())
            space._end_call(timed_out)  # the wait timed out: no reply yet
            ctx.results.append(space.call(1, ClockProbeReq()))

        def late_reply(ctx):
            ctx.space._complete_call(RpcReply(ctx.stale_id, value="stale"))

        def server(ctx):
            ctx.fresh_sent.wait()
            ctx.space._complete_call(RpcReply(ctx.fresh_id, value="fresh"))

        return [("caller", caller), ("late-reply", late_reply), ("server", server)]

    def final_invariant(self, ctx):
        _require(
            ctx.results == ["fresh"],
            f"call N+1 returned {ctx.results!r}: the late reply to call N "
            f"completed the reused slot",
        )
        _require(not ctx.space._calls, "a call is still registered")


class DrainReplyVsCallerTimeout(Scenario):
    """A reply delivered by the draining thread racing its caller's timeout.

    Space 1 parks a blocking ``get`` at space 0, where the channel lives.  A
    thread of space 0 puts the item: under the channel lock its drain
    completes the parked get and sends the reply, and since a reply is
    finished by whoever delivers it, that same thread — still holding the
    channel lock and the ``0 -> 1`` stream lock — runs space 1's
    ``_complete_call``.  Meanwhile the caller times out, sends ``RpcCancel``,
    ends the call and re-arms its slot for the next one.  Neither space runs
    a dispatcher thread: both sinks are installed by hand and a scheduled
    thread serves space 0's request queue, one message per arrival.  Model
    time has no clocks, so the timed-out call is driven through the halves
    ``call`` is made of — begin, cancel, end — and *where* the timeouts fire
    is the scheduler's choice: the reply (the item, or the cancellation) may
    land before the cancel, inside the grace period, after the call ended
    unacknowledged, or after the next call took the slot over.

    Invariants: the first call ends in the item *or* in ``TimeoutError``
    (cancelled, or never acknowledged), never both, never half a reply;
    nothing stays parked or registered; the next call gets its own reply;
    and (scheduler-wide) no lock-order cycle.
    """

    name = "drain-reply-vs-caller-timeout"
    description = "reply delivered mid-drain racing the caller's timeout + next call"
    # The reduced tree is beyond 40 000 schedules, so it is sampled, fewest
    # context switches first; each mutant of the teeth test falls within 900.
    budget = 2000

    def build(self):
        cluster = Cluster(n_spaces=2, gc_period=None, dispatchers=False)
        home, remote = cluster.space(0), cluster.space(1)
        # The 0 -> 1 stream carries the replies, and a reply's sink takes
        # space 1's call lock inside the stream lock: the scheduler must own
        # that lock or a thread sending behind a parked deliverer would
        # block for real.  (1 -> 0 has one sender, so it cannot contend.)
        cluster.network._order_locks[(0, 1)] = make_lock("ClfNetwork.order")
        ctx = SimpleNamespace(cluster=cluster, home=home, remote=remote,
                              first=[], second=[])
        # one event per request space 1 will send: get, cancel, probe
        ctx.arrivals = [make_event() for _ in range(3)]
        pending = iter(ctx.arrivals)

        def home_sink(src, message):
            home._receive(src, message)
            if message is not None:  # None: the endpoint closed (teardown)
                next(pending).set()

        home.endpoint.deliver_to(home_sink)
        remote.endpoint.deliver_to(remote._receive)
        ctx.handle = home.create_channel()
        producer = StampedeThread(home, "producer", 0)
        home._threads["producer"] = producer
        ctx.out = home.attach(ctx.handle, is_input=False, thread=producer)
        # space 1's input connection, attached as its AttachReq would be
        ctx.inp = remote._conn_ids.next()
        home._h_attach(AttachReq(ctx.handle.channel_id, ctx.inp, True, 0), 1, None)
        return ctx

    def threads(self, ctx):
        home, remote = ctx.home, ctx.remote

        def putter(ctx):
            home.put(ctx.handle, ctx.out, 0, b"item", 4)

        def caller(ctx):
            call = remote._call_slot()
            remote._begin_call(
                call, 0, GetReq(ctx.handle.channel_id, ctx.inp, 0, True, False))
            # the wait timed out: cancel; the grace period ends whenever
            # the scheduler says, with or without a reply
            remote.endpoint.send(0, encode_message_sg(RpcCancel(call.call_id)))
            remote._end_call(call)
            ctx.first.append((call.done, call.value, call.error))
            call.value = call.error = None
            ctx.second.append(remote.call(0, ClockProbeReq()))

        def dispatcher(ctx):
            for arrived in ctx.arrivals:
                arrived.wait()
                home._serve(home._requests.get_nowait())

        return [("putter", putter), ("caller", caller), ("dispatcher", dispatcher)]

    def final_invariant(self, ctx):
        _require(len(ctx.first) == 1, f"the caller did not finish: {ctx.first!r}")
        done, value, error = ctx.first[0]
        # the reply's payload, whichever form it crossed in (a 4-byte item
        # rides in-band; a frame-sized one would arrive as a ``Frame``)
        got_item = value is not None and bytes(_unframed(value[0])) == b"item"
        cancelled = isinstance(error, TimeoutError)
        _require(
            (got_item + cancelled == 1) if done else (value is None and error is None),
            f"the timed-out call ended with done={done}, value {value!r} and "
            f"error {error!r}: it must be the item, the cancellation, or "
            f"(unacknowledged) nothing at all",
        )
        _require(
            len(ctx.second) == 1 and isinstance(ctx.second[0], int),
            f"the next call returned {ctx.second!r}, not its own clock reading",
        )
        channel = ctx.home._channel(ctx.handle.channel_id)
        _require(not channel.get_waiters and not ctx.home._parked_index,
                 "a cancelled or completed get is still parked at its home")
        _require(not ctx.remote._calls, "a call is still registered")
        _require(ctx.home._requests.empty(), "a request was left unserved")


class GcSummaryVsOpenItem(Scenario):
    """A GC epoch at every point of put -> get -> inherited put -> consume.

    Through the ``stm.api`` facade one thread puts item 5 at its virtual
    time, raises the virtual time to INFINITY, gets the item back, puts the
    inherited timestamp into a sink channel and consumes.  Its virtual-time
    state is single-writer and unlocked: the collector reads one published
    attribute.  Under test is what replaces the lock — the owner's program
    order (a put lands before virtual time rises, a consume is applied
    before the open item is closed) and ``gc_summary`` reading thread
    visibilities before channel minima — so no epoch may collect at or above
    a timestamp the thread still holds open or may still put at, nor the
    inherited item before its reader saw it.

    The source channel is created, and therefore scanned, before the sink:
    a summary is not an atomic snapshot, and scanned against the flow an
    item can leave the unread source for the already-read sink (DESIGN.md
    section 5d records this limit of the protocol).
    """

    name = "gc-summary-vs-open-item"
    description = "GC epoch racing put -> get -> inherited put -> consume"
    budget = 1000  # the reduced tree has 841 schedules

    def build(self):
        ctx = _cluster_ctx()
        ctx.source, ctx.sink = ctx.handle, ctx.space.create_channel()
        stm = STM(ctx.space)
        ctx.worker_t = _register_thread(ctx, "worker", 5)
        reader = _register_thread(ctx, "reader", INFINITY)
        ctx.feed = stm.channel(ctx.source).attach_output(ctx.worker_t)
        ctx.inp = stm.channel(ctx.source).attach_input(ctx.worker_t)
        ctx.out = stm.channel(ctx.sink).attach_output(ctx.worker_t)
        stm.channel(ctx.sink).attach_input(reader)  # never consumes
        ctx.fed = ctx.put_done = ctx.consumed = False
        return ctx

    def threads(self, ctx):
        def worker(ctx):
            ctx.feed.put(5, "frame")
            ctx.fed = True
            ctx.worker_t.set_virtual_time(INFINITY)
            item = ctx.inp.get(5)
            ctx.out.put(item.timestamp, item.value)
            ctx.put_done = True
            ctx.inp.consume(5)
            ctx.consumed = True

        def gc(ctx):
            summary = ctx.space.gc_summary()
            ctx.space.apply_gc_horizon(summary.local_min())

        return [("worker", worker), ("gc", gc)]

    def step_invariant(self, ctx):
        kernels = {
            name: ctx.space._channels[handle.channel_id].kernel
            for name, handle in (("source", ctx.source), ("sink", ctx.sink))
        }
        worker = ctx.worker_t
        held = vt_min([worker.virtual_time, *(ts for _, _, ts in worker.open_items())])
        _require(
            worker.visibility() == held,
            f"published visibility {worker.visibility()!r} is not "
            f"min(virtual time, open items) = {held!r}",
        )
        for name, kernel in kernels.items():
            _require(
                kernel.gc_horizon <= held,
                f"{name} channel collected up to {kernel.gc_horizon}, above "
                f"the worker's visibility {held!r}",
            )
        _require(
            not ctx.fed or ctx.consumed or 5 in kernels["source"].items,
            "GC reclaimed the item the worker had not consumed yet",
        )
        _require(
            not ctx.put_done or 5 in kernels["sink"].items,
            "GC reclaimed the inherited item before its reader saw it",
        )

    def final_invariant(self, ctx):
        _require(ctx.consumed, "worker did not finish")


class DestroyVsLocalOp(Scenario):
    """Channel destruction racing local operations on that channel.

    The channel table is copy-on-write and read without a lock, so a put
    or get can resolve the channel from the snapshot that still lists it
    and reach the channel lock only after the destroy.  Every operation
    must end as a success on the live kernel, ``ChannelDestroyedError``
    (resolved or parked before the destroy) or ``NoSuchChannelError``
    (table already replaced) — never a success on the dead kernel, never a
    getter left parked (that is a deadlock, which the scheduler reports).
    """

    name = "destroy-vs-local-op"
    description = "destroy racing a local put and a blocking get"
    budget = 1000  # the reduced tree has 842 schedules

    def build(self):
        ctx = _cluster_ctx()
        producer = _register_thread(ctx, "producer", 0)
        consumer = _register_thread(ctx, "consumer", 0)
        ctx.out = ctx.space.attach(ctx.handle, is_input=False, thread=producer)
        ctx.inp = ctx.space.attach(ctx.handle, is_input=True, thread=consumer)
        ctx.kernel = _kernel(ctx)
        ctx.outcome = {}
        return ctx

    def threads(self, ctx):
        def attempt(name, op):
            try:
                op()
                ctx.outcome[name] = "ok"
            except (ChannelDestroyedError, NoSuchChannelError) as exc:
                ctx.outcome[name] = type(exc).__name__

        def putter(ctx):
            attempt("put", lambda: ctx.space.put(ctx.handle, ctx.out, 0, b"a", 1))

        def getter(ctx):
            attempt("get", lambda: ctx.space.get(ctx.handle, ctx.inp, 0))

        def destroyer(ctx):
            ctx.space.destroy_channel(ctx.handle)

        return [("putter", putter), ("getter", getter), ("destroyer", destroyer)]

    def final_invariant(self, ctx):
        _require(
            set(ctx.outcome) == {"put", "get"},
            f"an operation ended outside the allowed outcomes: {ctx.outcome!r}",
        )
        _require(
            ctx.outcome["get"] != "ok" or ctx.outcome["put"] == "ok",
            "get returned an item nobody put",
        )
        _require(
            ctx.kernel.destroyed and len(ctx.kernel) == 0,
            "an operation succeeded on the destroyed kernel",
        )
        _require(
            ctx.handle.channel_id not in ctx.space._channels,
            "destroyed channel still listed in the table",
        )


# ---------------------------------------------------------------------------
# seeded-bug scenarios (expect_violation=True)
# ---------------------------------------------------------------------------


class SeededAtomicityBreak(Scenario):
    """Check-then-act put: capacity test and insert in separate critical
    sections.  Two producers race a capacity-1 kernel; the stale check
    lets the loser's put hit a full channel."""

    name = "seeded-atomicity-break"
    description = "two-phase capacity check/insert put (TOCTOU)"
    expect_violation = True
    budget = 100

    def build(self):
        kernel = ChannelKernel(0, capacity=1)
        kernel.attach_output(1)
        kernel.attach_output(2)
        return SimpleNamespace(kernel=kernel, lock=make_lock("LocalChannel.lock"))

    def threads(self, ctx):
        def producer(ctx, conn_id):
            with ctx.lock:
                full = len(ctx.kernel) >= 1
            if full:
                return
            # BUG: the capacity check above is stale by the time the put
            # runs — atomicity of check+insert is broken across the two
            # critical sections.
            with ctx.lock:
                result = ctx.kernel.put(conn_id, conn_id, b"x", 1)
                if result.status is not Status.OK:
                    raise InvariantViolation(
                        "put hit a full channel after the capacity check "
                        "passed: check-then-act atomicity break"
                    )

        return [
            ("producer-1", lambda c: producer(c, 1)),
            ("producer-2", lambda c: producer(c, 2)),
        ]

    def teardown(self, ctx):
        pass


class SeededGcReclaimsLive(Scenario):
    """A GC round that snapshots the channel minimum but ignores thread
    visibilities, then applies the stale horizon after a put landed —
    reclaiming an item its producer is still entitled to get (§4.2
    explains exactly why the real protocol folds visibilities)."""

    name = "seeded-gc-reclaims-live"
    description = "stale-horizon GC reclaims a live item"
    expect_violation = True
    # The violating interleaving needs three context switches (snapshot /
    # put / apply / get); deepest-first DFS reaches it around run ~64.
    budget = 600

    def build(self):
        ctx = _cluster_ctx()
        worker = _register_thread(ctx, "worker", 0)
        ctx.out = ctx.space.attach(ctx.handle, is_input=False, thread=worker)
        ctx.inp = ctx.space.attach(ctx.handle, is_input=True, thread=worker)
        return ctx

    def threads(self, ctx):
        def worker(ctx):
            ctx.space.put(ctx.handle, ctx.out, 5, b"frame", 5)
            payload, ts, _size = ctx.space.get(ctx.handle, ctx.inp, 5)
            ctx.results.append((ts, payload))
            ctx.space.consume(ctx.handle, ctx.inp, 5)

        def bad_gc(ctx):
            channel = ctx.space._channels[ctx.handle.channel_id]
            with channel.lock:
                # BUG: the horizon is just the channel's unconsumed min —
                # thread visibilities are ignored, so an empty channel
                # yields INFINITY ("collect everything")...
                horizon = channel.kernel.unconsumed_min()
            # ...and by the time it is applied, the worker's put (licensed
            # by its visibility of 0) may have landed below it.
            ctx.space.apply_gc_horizon(horizon)

        return [("worker", worker), ("bad-gc", bad_gc)]

    def final_invariant(self, ctx):
        _require(ctx.results == [(5, b"frame")], f"worker saw {ctx.results!r}")


class SeededLostWakeup(Scenario):
    """The classic lost wakeup: the waiter re-checks its condition outside
    the lock and clears the event *after* the producer may already have
    set it, then waits forever."""

    name = "seeded-lost-wakeup"
    description = "clear-after-check waiter loses the producer's wakeup"
    expect_violation = True
    budget = 100

    def build(self):
        return SimpleNamespace(
            lock=make_lock("lw.lock"), event=make_event(), items=[]
        )

    def threads(self, ctx):
        def waiter(ctx):
            with ctx.lock:
                have = bool(ctx.items)
            if not have:
                # BUG: the producer's set() can land between the check
                # above and this clear(), which then erases the only
                # wakeup the waiter will ever get.
                ctx.event.clear()
                ctx.event.wait()
            with ctx.lock:
                if not ctx.items:
                    raise InvariantViolation("woken without an item")

        def producer(ctx):
            with ctx.lock:
                ctx.items.append(1)
            ctx.event.set()

        return [("waiter", waiter), ("producer", producer)]

    def teardown(self, ctx):
        pass


SCENARIOS: dict[str, Scenario] = {
    s.name: s
    for s in [
        PutGetConsume(),
        ConsumeVsGcEpoch(),
        DetachVsReclaim(),
        BoundedPutVsGet(),
        GcHorizonMonotonic(),
        LateReplyVsNextCall(),
        DrainReplyVsCallerTimeout(),
        GcSummaryVsOpenItem(),
        DestroyVsLocalOp(),
        SeededAtomicityBreak(),
        SeededGcReclaimsLive(),
        SeededLostWakeup(),
    ]
}
