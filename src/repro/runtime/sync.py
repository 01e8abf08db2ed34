"""Synchronization-primitive factories for the runtime.

Every lock and event the runtime creates goes through :func:`make_lock` /
:func:`make_event` instead of calling ``threading`` directly.  By default
:func:`make_lock` delegates to the sanitizer's :func:`~repro.analysis
.sanitizer.san_lock` (plain ``threading.Lock`` unless ``STMSAN=1``) and
:func:`make_event` returns a :class:`OneSleeperEvent`: every runtime event
has exactly one sleeper — a thread's RPC completion slot, a parked local
put/get, a local wait for a channel name — so none of them needs
``threading.Event``'s ``Condition`` and waiter list.

The indirection exists for :mod:`repro.analysis.modelcheck`: the model
checker installs factories that return cooperative ``ModelLock`` /
``ModelEvent`` objects whose acquire/release/wait/set calls are scheduler
yield points, which is what lets it explore thread interleavings of real
runtime code deterministically.
"""

from __future__ import annotations

from _thread import allocate_lock
from typing import Any, Callable

from repro.analysis.sanitizer import san_lock

__all__ = [
    "OneSleeperEvent",
    "make_lock",
    "make_event",
    "install_factories",
    "clear_factories",
    "factories_installed",
]

_lock_factory: Callable[[str], Any] | None = None
_event_factory: Callable[[], Any] | None = None


class OneSleeperEvent:
    """An event one thread sleeps on: a raw lock held while unset, a flag.

    The contract is ``threading.Event``'s, for a single sleeper:

    * ``set()`` is idempotent and safe from any thread, two at once included;
    * ``wait(timeout)``: ``None`` blocks, a timeout <= 0 polls; it returns
      True iff the event is set, and a set that races the timeout counts;
    * ``clear()`` re-arms the event.  Only its owner calls it, between uses,
      when no set of the previous use can still be in flight (the RPC slot
      re-arms under the same lock its replies are delivered under);
    * at most one thread waits at a time.

    ``_gate_lock`` is a sleep gate, not a mutex: it is held while the event
    is unset, released by the setter, and acquired by the sleeper to wake —
    one lock hand-off per sleep, where ``threading.Event`` builds a waiter
    lock and goes through a ``Condition`` on both sides.  Once the flag is
    set the gate may be held or free; ``clear()`` takes it if it is free.
    """

    __slots__ = ("_flag", "_gate_lock")

    def __init__(self) -> None:
        self._flag = False
        self._gate_lock = allocate_lock()
        self._gate_lock.acquire()  # stm-ok: STM101 -- a sleep gate: held while unset, released by the waker

    def is_set(self) -> bool:
        return self._flag

    def set(self) -> None:
        if self._flag:
            return
        self._flag = True
        try:
            self._gate_lock.release()
        except RuntimeError:
            pass  # a concurrent set() opened the gate first

    def clear(self) -> None:
        self._flag = False
        self._gate_lock.acquire(False)  # stm-ok: STM101 -- re-close the gate the waker opened

    def wait(self, timeout: float | None = None) -> bool:
        if self._flag or (timeout is not None and timeout <= 0):
            return self._flag
        limit = -1 if timeout is None else timeout
        if self._gate_lock.acquire(True, limit):  # stm-ok: STM101 -- acquired by the sleeper, released by the waker
            return True
        return self._flag  # a set that raced the timeout is honoured


def make_lock(name: str) -> Any:
    """A mutual-exclusion lock for runtime-internal state.

    ``name`` identifies the lock *class* (used by the sanitizer's
    lock-order graph and by the model checker's independence relation).
    """
    if _lock_factory is not None:
        return _lock_factory(name)
    return san_lock(name)


def make_event() -> Any:
    """The event a thread sleeps on (a :class:`OneSleeperEvent` by default)."""
    if _event_factory is not None:
        return _event_factory()
    return OneSleeperEvent()


def install_factories(
    lock_factory: Callable[[str], Any] | None,
    event_factory: Callable[[], Any] | None,
) -> None:
    """Override the primitive factories (model checker only).

    Affects primitives created *after* the call; live objects keep whatever
    implementation they were born with.
    """
    global _lock_factory, _event_factory
    _lock_factory = lock_factory
    _event_factory = event_factory


def clear_factories() -> None:
    """Restore the default (sanitizer-aware) factories."""
    install_factories(None, None)


def factories_installed() -> bool:
    """True while non-default factories are active (model checker running).

    The process runtime refuses to launch in this state: cooperative model
    locks only exist in the installing process, so spawned children could
    never honour them — the exploration would silently cover nothing.
    Child processes start from a fresh interpreter (spawn), so they always
    see the default factories regardless of the parent's state.
    """
    return _lock_factory is not None or _event_factory is not None
