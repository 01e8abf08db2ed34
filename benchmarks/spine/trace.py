"""Spans recorded from outside the program: the per-layer latency budget.

One table (:data:`BOUNDARIES`) names the public function at each layer
boundary.  :func:`install` replaces each, *where the name is looked up*,
with a wrapper that records ``(name, start_ns, end_ns, parent, item
timestamp)`` plus the thread's CPU clock at start and end into a
preallocated per-thread buffer; :func:`uninstall` puts the originals back.
No file under ``src/`` is touched.

The budget is kept in **thread CPU time**.  On one pinned CPU a span's wall
time includes whatever ran while its thread was descheduled, and that is
systematic, not noise: ``SocketEndpoint.send`` wakes its peer, the peer
runs at once, and the sender's span stays open meanwhile (wall self time
put 3 ms of a kiosk frame into ``transport.medium``; its CPU time is
0.3 ms).  In CPU time, self times over all threads and processes add up to
the CPU the cluster burnt per item, which ``/proc`` measures independently.
Wall start and end are recorded too, for timelines.

The parent comes from a context variable, so it is right for threads and
for asyncio tasks sharing one thread.  A span records its own timestamp
argument when it has one; :func:`item_timestamps` fills in the rest, which
is what ties one item's spans together across processes (the clock,
``perf_counter_ns``, is the system-wide monotonic clock on Linux).

Every process of a traced run installs the same table (a spawned stage
does so at its entry point) and :func:`dump` writes its buffers to
``_out/``; :func:`collect` reads them all back and :func:`budget` turns
them into self time per layer per item.
"""

from __future__ import annotations

import array
import contextvars
import importlib
import os
import pathlib
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

__all__ = [
    "BOUNDARIES",
    "LAYERS",
    "OUT_DIR",
    "Boundary",
    "budget",
    "clear_dumps",
    "collect",
    "dump",
    "full",
    "install",
    "item_timestamps",
    "probe_inside_share",
    "self_times",
    "uninstall",
]

OUT_DIR = pathlib.Path(__file__).resolve().parent / "_out"

#: spans one thread can hold; a workload's traced phase ends early when a
#: buffer is nearly full (a local cycle is ~14 spans, so ~0.5 s of cycles).
CAPACITY = 200_000
#: columns of a span row
NAME, START, END, PARENT, ITEM, CPU_START, CPU_END = range(7)
_FIELDS = CPU_END + 1

WAIT = "wait"
RPC = "runtime.rpc"
#: layers of the budget, in report order.
LAYERS = (
    "stm",
    "runtime.space",
    RPC,
    "runtime.gc",
    "core.kernel",
    "core.payload",
    "transport.serialization",
    "transport.packets",
    "transport.medium",
    "kiosk.compute",
)
#: Threads whose CPU time *between* top-level spans belongs to a layer: the
#: loops in ``AddressSpace._dispatch_loop`` (with the private ``_h_*``
#: handlers) and ``SocketEndpoint._reader_loop`` have no public boundary of
#: their own.  In CPU time the gaps hold no blocking, only the loop's work.
_GAP_LAYERS = {"stampede-dispatch": RPC, "stm-reader": "transport.medium"}

pc = time.perf_counter_ns


def _arg(index: int) -> Callable[[tuple], Any]:
    return lambda args: args[index] if len(args) > index else -1


def _rpc_body_ts(args: tuple) -> Any:
    body = args[2] if len(args) > 2 else None
    return getattr(body, "timestamp", getattr(body, "request", -1))


def _message_ts(args: tuple) -> Any:
    return _rpc_body_ts((None, None, getattr(args[0], "body", None)))


@dataclass(frozen=True)
class Boundary:
    """One wrapped name: ``owner`` is a dotted module or ``module:Class``."""

    layer: str
    owner: str
    attr: str
    ts_of: Callable[[tuple], Any] | None = None
    is_async: bool = False
    #: label for the span; defaults to ``Class.attr`` / ``attr``.
    label: str | None = None
    #: a generator function: run it to exhaustion inside the span.
    materialize: bool = False

    @property
    def name(self) -> str:
        if self.label:
            return self.label
        cls = self.owner.partition(":")[2]
        return f"{cls}.{self.attr}" if cls else self.attr


def _facade(module: str, is_async: bool) -> list[Boundary]:
    out_cls, in_cls = (
        ("AioOutputConnection", "AioInputConnection") if is_async
        else ("OutputConnection", "InputConnection")
    )
    return [
        Boundary("stm", f"{module}:{out_cls}", "put", _arg(1), is_async),
        Boundary("stm", f"{module}:{in_cls}", "get", _arg(1), is_async),
        Boundary("stm", f"{module}:{in_cls}", "consume", _arg(1), is_async),
        Boundary("stm", f"{module}:{in_cls}", "consume_until", _arg(1), is_async),
        # core.payload is looked up by name in each facade module
        Boundary("core.payload", module, "encode", label="payload.encode"),
        Boundary("core.payload", module, "decode", label="payload.decode"),
    ]


_SPACE = "repro.runtime.address_space:AddressSpace"
_AIO_SPACE = "repro.runtime.aio:AioAddressSpace"
_KERNEL = "repro.core.channel_state:ChannelKernel"

BOUNDARIES: tuple[Boundary, ...] = (
    *_facade("repro.stm.api", False),
    *_facade("repro.stm.aio", True),
    Boundary("runtime.space", _SPACE, "put", _arg(3)),
    Boundary("runtime.space", _SPACE, "get", _arg(3)),
    Boundary("runtime.space", _SPACE, "consume", _arg(3)),
    # AddressSpace.call is runtime.space when it serves itself and
    # runtime.rpc when it crosses spaces; the wrapper picks.
    Boundary("runtime.space", _SPACE, "call", _rpc_body_ts),
    Boundary("runtime.space", _AIO_SPACE, "aput", _arg(3), True),
    Boundary("runtime.space", _AIO_SPACE, "aget", _arg(3), True),
    Boundary("runtime.space", _AIO_SPACE, "aconsume", _arg(3), True),
    Boundary("runtime.gc", "repro.runtime.gc_daemon:GcDaemon", "run_once"),
    Boundary("core.kernel", _KERNEL, "put", _arg(2)),
    Boundary("core.kernel", _KERNEL, "get", _arg(2)),
    Boundary("core.kernel", _KERNEL, "consume", _arg(2)),
    Boundary("core.kernel", _KERNEL, "consume_until", _arg(2)),
    Boundary("core.kernel", _KERNEL, "unconsumed_min"),
    Boundary("core.kernel", _KERNEL, "collect_below"),
    Boundary("transport.serialization", "repro.runtime.address_space",
             "encode_message_sg", _message_ts),
    Boundary("transport.serialization", "repro.runtime.address_space",
             "decode_message"),
    Boundary("transport.packets", "repro.transport.clf", "fragment_sg",
             materialize=True),
    Boundary("transport.packets", "repro.transport.packets:Reassembler", "feed"),
    Boundary("transport.medium", "repro.transport.clf:ClfEndpoint", "send"),
    Boundary(WAIT, "repro.transport.clf:ClfEndpoint", "recv"),
    Boundary("transport.medium", "repro.transport.sockets:SocketEndpoint", "send"),
    Boundary(WAIT, "repro.transport.sockets:SocketEndpoint", "recv"),
    Boundary("transport.medium", "repro.transport.shm_ring:ShmRing", "write"),
    Boundary("transport.medium", "repro.transport.shm_ring:ShmRing", "read"),
    Boundary("kiosk.compute", "repro.kiosk.blob_tracker:BlobTracker", "analyze",
             _arg(1)),
    Boundary("kiosk.compute", "repro.kiosk.decision:DecisionModule", "decide",
             _arg(1)),
    # the two primitives every parked operation sleeps on
    Boundary(WAIT, "threading:Event", "wait"),
    Boundary(WAIT, "repro.runtime.aio:AioEvent", "wait_async", is_async=True),
)

#: span name ids: one per boundary, plus the remote flavour of ``call``.
_CALL_INDEX = next(
    i for i, b in enumerate(BOUNDARIES) if b.owner == _SPACE and b.attr == "call"
)
_REMOTE_CALL_ID = len(BOUNDARIES)
NAME_LAYERS: tuple[str, ...] = (*(b.layer for b in BOUNDARIES), RPC)
NAME_LABELS: tuple[str, ...] = (
    *(b.name for b in BOUNDARIES), "AddressSpace.call(remote)",
)


# ----------------------------------------------------------------------
# recording
# ----------------------------------------------------------------------
class _Buffer:
    __slots__ = ("data", "n", "thread")

    def __init__(self) -> None:
        self.data = array.array("q", bytes(8 * _FIELDS * CAPACITY))
        self.n = 0
        self.thread = threading.current_thread().name

    def spans(self) -> np.ndarray:
        """The recorded rows as an ``[n, 7]`` view of the buffer."""
        rows = np.frombuffer(self.data, dtype=np.int64)[: self.n * _FIELDS]
        return rows.reshape(self.n, _FIELDS)


_tls = threading.local()
_current: contextvars.ContextVar[int] = contextvars.ContextVar(
    "spine_span", default=-1
)
_buffers: list[_Buffer] = []
_buffers_lock = threading.Lock()
_originals: list[tuple[Any, str, Any]] = []


def _buffer() -> _Buffer:
    buf = _Buffer()
    _tls.buf = buf
    with _buffers_lock:
        _buffers.append(buf)
    return buf


def _wrap(fn: Callable, name: int, boundary: Boundary) -> Callable:
    """The recording wrapper.

    Written out flat, with everything on the hot path bound to a local: a
    span costs ~2 us of wrapper, and a local cycle is a dozen spans.
    """
    ts_of = boundary.ts_of
    get_parent, set_parent, reset_parent = _current.get, _current.set, _current.reset
    tls, new_buffer, capacity, fields = _tls, _buffer, CAPACITY, _FIELDS
    clock, cpu_clock = pc, time.thread_time_ns
    is_call = name == _CALL_INDEX
    call = (lambda *a, **kw: iter(list(fn(*a, **kw)))) if boundary.materialize else fn

    def enter():
        """Reserve this thread's next row: (buffer, row) or (buffer, -1)."""
        try:
            buf = tls.buf
        except AttributeError:
            buf = new_buffer()
        i = buf.n
        if i >= capacity:
            return buf, -1  # dropped; full() ends the phase long before this
        buf.n = i + 1
        return buf, i

    def record(buf, i, parent, t0, c0, args):
        c1 = cpu_clock()
        t1 = clock()
        ts = ts_of(args) if ts_of is not None else -1
        data = buf.data
        j = i * fields
        # AddressSpace.call that crossed spaces is RPC, not local work
        data[j] = _REMOTE_CALL_ID if is_call and args[1] != args[0].space_id else name
        data[j + 1] = t0
        data[j + 2] = t1
        data[j + 3] = parent
        data[j + 4] = ts if ts.__class__ is int else -1
        data[j + 5] = c0
        data[j + 6] = c1

    if boundary.is_async:
        async def awrapper(*args, **kwargs):
            buf, i = enter()
            if i < 0:
                return await fn(*args, **kwargs)
            parent = get_parent()
            token = set_parent(i)
            t0 = clock()
            c0 = cpu_clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                record(buf, i, parent, t0, c0, args)
                reset_parent(token)

        return awrapper

    def wrapper(*args, **kwargs):
        buf, i = enter()
        if i < 0:
            return call(*args, **kwargs)
        parent = get_parent()
        token = set_parent(i)
        t0 = clock()
        c0 = cpu_clock()
        try:
            return call(*args, **kwargs)
        finally:
            record(buf, i, parent, t0, c0, args)
            reset_parent(token)

    return wrapper


def _resolve(owner: str) -> Any:
    module, _, cls = owner.partition(":")
    target = importlib.import_module(module)
    return getattr(target, cls) if cls else target


def install() -> None:
    """Wrap every boundary in this process (idempotent)."""
    if _originals:
        return
    for name, boundary in enumerate(BOUNDARIES):
        target = _resolve(boundary.owner)
        original = target.__dict__[boundary.attr]
        fn = original.__func__ if isinstance(original, staticmethod) else original
        _originals.append((target, boundary.attr, original))
        setattr(target, boundary.attr, _wrap(fn, name, boundary))


def uninstall() -> None:
    """Put the original functions back (recorded spans stay for dump)."""
    while _originals:
        target, attr, original = _originals.pop()
        setattr(target, attr, original)


def full() -> bool:
    """True once a buffer of this process is three-quarters used.

    Workloads ask between windows, so a traced phase ends before a window
    could overflow a buffer and complete items that left no spans.
    """
    return any(buf.n > CAPACITY * 3 // 4 for buf in _buffers)


def dump() -> None:
    """Write this process's span buffers to ``_out/spans-<pid>.npz``."""
    OUT_DIR.mkdir(exist_ok=True)
    with _buffers_lock:
        buffers = list(_buffers)
    arrays = {f"t{k}": buf.spans().copy() for k, buf in enumerate(buffers)}
    threads = np.array([buf.thread for buf in buffers], dtype=str)
    np.savez(OUT_DIR / f"spans-{os.getpid()}.npz", threads=threads, **arrays)


def clear_dumps() -> None:
    """Remove the span files an earlier traced run left in ``_out/``."""
    for path in OUT_DIR.glob("spans-*.npz"):
        path.unlink()


def collect() -> list[tuple[str, np.ndarray]]:
    """Read every dumped buffer back: ``[(thread name, spans[n, 7])]``."""
    out = []
    for path in sorted(OUT_DIR.glob("spans-*.npz")):
        with np.load(path) as doc:
            for k, thread in enumerate(doc["threads"]):
                out.append((str(thread), doc[f"t{k}"]))
    return out


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def item_timestamps(spans: np.ndarray) -> np.ndarray:
    """Each span's item: its own timestamp argument, else its parent's, else
    the last one seen on its thread (spans are in entry order).

    This is what ties one item's spans together across threads and
    processes: the reply a dispatcher encodes and sends has no timestamp
    argument, but the kernel call just before it on the same thread did.
    """
    ts = spans[:, ITEM].copy()
    last = -1
    for i in range(len(ts)):
        if ts[i] < 0:
            parent = spans[i, PARENT]
            ts[i] = ts[parent] if parent >= 0 else last
        last = ts[i] if ts[i] >= 0 else last
    return ts


def probe_inside_share(calls: int = 2_000) -> float:
    """The share of a wrapper's CPU cost that falls inside its own span.

    Measured on a wrapped no-op: the part between the two CPU-clock reads
    inflates the span itself, the rest inflates its parent.  How much a
    wrapper costs *in total* is taken from the run (traced minus untraced
    item cost, see :func:`budget`); a no-op under-reads that by half.
    """
    def nop() -> None:
        pass

    wrapped = _wrap(nop, 0, Boundary("stm", "", "nop"))
    # a scratch buffer, so the probe neither needs room in this thread's
    # real one nor leaves spans behind
    saved = _tls.__dict__.get("buf")
    _tls.buf = buf = _Buffer()
    c0 = time.thread_time_ns()
    for _ in range(calls):
        wrapped()
    total = time.thread_time_ns() - c0
    if saved is None:
        del _tls.buf
    else:
        _tls.buf = saved
    rows = buf.spans()
    inside = float((rows[:, CPU_END] - rows[:, CPU_START]).sum())
    return min(1.0, inside / total) if total else 0.0


def self_times(spans: np.ndarray, inside_ns: float = 0.0,
               outside_ns: float = 0.0,
               start: int = START, end: int = END) -> np.ndarray:
    """Self time of each span: duration minus what its child spans cover.

    ``spans[:, PARENT]`` is each span's parent as a row index into the same
    buffer (-1 for a top-level span).  A span still open when the buffer
    was dumped has end 0 and gets self time 0.  ``start``/``end`` choose the
    clock: wall by default, ``CPU_START``/``CPU_END`` for thread CPU time.
    ``inside_ns``/``outside_ns`` are the wrapper's own cost: each span gives
    back what its wrapper spent inside it and what each child's wrapper
    spent around the child.
    """
    closed = spans[:, END] > 0
    duration = np.where(closed, spans[:, end] - spans[:, start], 0)
    covered = np.zeros(len(spans))
    has_parent = (spans[:, PARENT] >= 0) & closed
    parents = spans[has_parent, PARENT]
    np.add.at(covered, parents, duration[has_parent] + outside_ns)
    own = duration - covered - inside_ns
    return np.where(closed, np.maximum(own, 0.0), 0.0)


def _in_phase(spans: np.ndarray, t_begin: int, t_end: int) -> np.ndarray:
    return (spans[:, START] >= t_begin) & (spans[:, END] <= t_end) & (spans[:, END] > 0)


def _gap_cpu(spans: np.ndarray, t_begin: int, t_end: int,
             outside_ns: float) -> float:
    """CPU a loop thread spent between its top-level spans."""
    top = spans[(spans[:, PARENT] < 0) & _in_phase(spans, t_begin, t_end)]
    if len(top) < 2:
        return 0.0
    top = top[np.argsort(top[:, START])]
    gaps = top[1:, CPU_START] - top[:-1, CPU_END] - outside_ns
    return float(np.maximum(gaps, 0).sum())


def budget(threads: list[tuple[str, np.ndarray]], t_begin: int, t_end: int,
           items: int, overhead_ns_per_item: float = 0.0) -> dict[str, float]:
    """Per-item CPU self time (us) and call counts per layer over a phase.

    Only spans that lie inside ``[t_begin, t_end]`` count, which leaves out
    set-up, warm-up and the drain.  Self times are summed over every thread
    of every process and divided by the items the phase completed.
    ``overhead_ns_per_item`` is what tracing itself cost per item (traced
    minus untraced item cost); spread over the phase's spans, it is taken
    back out of the self times.
    """
    keys = (*LAYERS, WAIT)
    layer_of = np.array([keys.index(layer) for layer in NAME_LAYERS])
    items = max(items, 1)
    n_spans = sum(int(_in_phase(sp, t_begin, t_end).sum()) for _, sp in threads if len(sp))
    per_span = max(overhead_ns_per_item, 0.0) * items / max(n_spans, 1)
    inside_ns = per_span * probe_inside_share()
    outside_ns = per_span - inside_ns
    self_ns = np.zeros(len(keys))
    calls = np.zeros(len(keys))
    for thread, spans in threads:
        if not len(spans):
            continue
        own = self_times(spans, inside_ns, outside_ns, CPU_START, CPU_END)
        inside = _in_phase(spans, t_begin, t_end)
        layers = layer_of[spans[inside, NAME]]
        self_ns += np.bincount(layers, weights=own[inside], minlength=len(keys))
        calls += np.bincount(layers, minlength=len(keys))
        for prefix, layer in _GAP_LAYERS.items():
            if thread.startswith(prefix):
                self_ns[keys.index(layer)] += _gap_cpu(spans, t_begin, t_end, outside_ns)
    out = {
        f"budget.{layer}.self_us": self_ns[k] / items / 1e3
        for k, layer in enumerate(LAYERS)
    }
    out["budget.spans_per_item"] = n_spans / items
    for layer in ("core.kernel", RPC, "transport.medium"):
        out[f"budget.{layer}.calls_per_item"] = calls[keys.index(layer)] / items
    return out
