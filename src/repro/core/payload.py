"""Copy-in / copy-out payload handling (paper §4.1).

STM semantics: "after a put, a thread may immediately safely re-use its
buffer.  Similarly, after a successful get, a client can safely modify the
copy of the object that it received."  The kernel stores opaque payloads and
never copies; this module decides *what* gets stored, under three policies:

``SERIALIZE``
    The payload is serialized at put and deserialized at get.  This is the
    only policy usable across address spaces (the representation is exactly
    what CLF ships over the wire), and it is the default because it makes
    local and remote channels behave identically.  Three stored forms exist:

    * **raw bytes** — an exact ``bytes`` payload is stored as the object
      itself.  It cannot change, so the putter's re-use and the getter's
      modification are both safe without a copy: a local get returns the
      very object put, and a remote put frames the caller's own ``bytes``.
      The exception is a payload whose first byte is ``0x80``, the pickle
      PROTO opcode that begins every stored pickle (the opcode
      ``transport.serialization`` tests to tell a framed message from a
      plain one): it is pickled like any other value, so a stored pickle and
      a stored raw payload never look alike.  A ``memoryview``, which pickle
      refuses, is copied into ``bytes`` at the put and stored by the same
      rule, so a get returns ``bytes``.  Subclasses of ``bytes``,
      ``bytearray`` and the rest take the pickle path.
    * **in-band** — plain ``bytes``, the whole pickle.  Every other local
      put stores this.  A frame's pickle grows to ~345 KB; while glibc's
      mmap threshold is at its default each put maps, faults in and frees a
      fresh buffer (~160 us, 58 minor faults per 230 400-byte frame, fresh
      process).  One free of a larger mapped block lifts the threshold for
      good: then ~19 us and 0 faults, as a running kiosk digitizer sees
      (EXPERIMENTS.md).
    * **out-of-band** — :class:`Parts`: the (small) pickle stream plus the
      value's buffers, collected with protocol 5's ``buffer_callback``
      (~8 us, 0 faults).  ``encode(value, policy, True)`` produces it with
      *views of the caller's own buffers*, so it is only for a caller that
      hands it to a transport that copies the bytes before the put returns:
      a put to a channel homed in another space, sent by the calling thread.
      The home stores the received views; get replies and cache pushes ship
      them on unjoined.  A value that exports no buffer stays in-band.

    A stored ``bytes`` may arrive at a home as a view of the received
    message; the first byte still tells the two ``bytes`` forms apart.
    ``decode`` returns a stored raw ``bytes`` as it is and a received view
    as one ``bytes(view)`` copy, unpickles an in-band pickle, and copies
    each part of a :class:`Parts` once into a fresh ``bytearray`` and
    unpickles over them — the one consumer-side memcpy, and what makes every
    get of a mutable value an independent writable copy.

``DEEPCOPY``
    The payload is deep-copied at put *and* at get.  Local-only; useful when
    payloads are unpicklable or when pickling is slower than copying.

``REFERENCE``
    The payload object itself is stored and returned; no copies.  This is
    the paper's explicit escape hatch ("an application can still pass a
    datum by reference — it merely passes a reference to the object through
    STM").  Local-only; the application takes over aliasing discipline.

The reported ``size`` feeds bandwidth accounting and the simulator's
transport cost model, so it must be faithful: serialized length for
SERIALIZE — for raw bytes, ``len(payload)``, which is what crosses the
wire — a recursive estimate otherwise.
"""

from __future__ import annotations

import copy
import enum
import pickle
import sys
from typing import Any

__all__ = ["CopyPolicy", "Parts", "encode", "decode", "estimate_size"]

#: the pickle PROTO opcode: the first byte of every stored pickle
_PROTO = b"\x80"


class CopyPolicy(enum.Enum):
    SERIALIZE = "serialize"
    DEEPCOPY = "deepcopy"
    REFERENCE = "reference"


def estimate_size(obj: Any, _seen: set[int] | None = None) -> int:
    """Approximate in-memory size in bytes of ``obj``.

    Exact for bytes-like and numpy payloads (the cases that matter for the
    paper's tables, whose payloads are byte buffers and video frames); a
    shallow ``sys.getsizeof`` plus one level of container recursion elsewhere
    — cost accounting needs the right magnitude, not byte-exactness.

    Self-referential containers (REFERENCE/DEEPCOPY payloads are arbitrary
    object graphs) are counted once: a container already on the current
    recursion path contributes 0 instead of recursing forever.
    """
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    nbytes = getattr(obj, "nbytes", None)  # numpy arrays and friends
    if isinstance(nbytes, int):
        return nbytes
    if isinstance(obj, (list, tuple, set, frozenset, dict)):
        if _seen is None:
            _seen = set()
        if id(obj) in _seen:
            return 0  # cycle: this container is already being counted
        _seen.add(id(obj))
        try:
            if isinstance(obj, dict):
                return sys.getsizeof(obj) + sum(
                    estimate_size(k, _seen) + estimate_size(v, _seen)
                    for k, v in obj.items()
                )
            return sys.getsizeof(obj) + sum(estimate_size(x, _seen) for x in obj)
        finally:
            _seen.discard(id(obj))
    return sys.getsizeof(obj)


class Parts:
    """A SERIALIZE payload in out-of-band form: pickle stream + its buffers.

    A type of its own, never a bare tuple: a REFERENCE / DEEPCOPY payload
    that happens to be a tuple must not be mistaken for one.  ``buffers``
    are flat byte views — of the putter's arrays on the sending side, of the
    received message at the home.  Pickled at protocol 5 each buffer is
    offered out-of-band again, so a message carrying a ``Parts`` gathers the
    bytes from wherever they lie, unjoined.
    """

    __slots__ = ("stream", "buffers")

    def __init__(self, stream: bytes, buffers: list):
        self.stream = stream
        self.buffers = buffers

    def __reduce_ex__(self, protocol: int):
        wrap = pickle.PickleBuffer if protocol >= 5 else bytes
        return (Parts, (self.stream, [wrap(b) for b in self.buffers]))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Parts {len(self.stream)}+{[len(b) for b in self.buffers]} bytes>"


def encode(
    payload: Any, policy: CopyPolicy, out_of_band: bool = False
) -> tuple[Any, int]:
    """Copy-in: produce the stored representation and its size in bytes.

    ``out_of_band`` (SERIALIZE only) returns a :class:`Parts` whose buffers
    are *views of the caller's memory*: pass it only when the bytes are
    copied onward before the caller gets control back.
    """
    if policy is CopyPolicy.SERIALIZE:
        if payload.__class__ is bytes and payload[:1] != _PROTO:
            return payload, len(payload)  # immutable: its own stored form
        if payload.__class__ is memoryview:
            # Copy-in: the exporter may change after the put.  The copy is
            # an exact ``bytes``, stored by that rule.
            payload = payload.tobytes()
            if payload[:1] != _PROTO:
                return payload, len(payload)
        if not out_of_band:
            data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            return data, len(data)
        buffers: list[pickle.PickleBuffer] = []
        data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL,
                            buffer_callback=buffers.append)
        if not buffers:  # the value exports no buffer: in-band as ever
            return data, len(data)
        views = [b.raw() for b in buffers]
        return Parts(data, views), len(data) + sum(map(len, views))
    if policy is CopyPolicy.DEEPCOPY:
        stored = copy.deepcopy(payload)
        return stored, estimate_size(stored)
    if policy is CopyPolicy.REFERENCE:
        return payload, estimate_size(payload)
    raise TypeError(f"unknown copy policy {policy!r}")  # pragma: no cover


def decode(stored: Any, policy: CopyPolicy) -> Any:
    """Copy-out: produce the caller's private copy from the stored form."""
    if policy is CopyPolicy.SERIALIZE:
        if stored.__class__ is Parts:
            return pickle.loads(
                stored.stream, buffers=[bytearray(b) for b in stored.buffers])
        if stored[:1] == _PROTO:
            return pickle.loads(stored)
        # raw bytes: the object put, or a view of the message it came in
        return stored if stored.__class__ is bytes else bytes(stored)
    if policy is CopyPolicy.DEEPCOPY:
        return copy.deepcopy(stored)
    if policy is CopyPolicy.REFERENCE:
        return stored
    raise TypeError(f"unknown copy policy {policy!r}")  # pragma: no cover
