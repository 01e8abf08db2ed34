"""Deterministic cooperative scheduler: the model checker's execution core.

Model threads are real OS threads gated by semaphores so that **exactly one
runs at a time**.  A thread runs until it reaches a *yield point* — a
:class:`ModelLock` acquire/release or a :class:`ModelEvent` wait/set/clear —
where it publishes the operation it is about to perform and parks.  The
controller (the thread driving :meth:`Scheduler.run`) then picks which
parked thread to resume among those whose pending operation is *enabled*
(lock free, event set, ...).  One transition = perform the pending
operation + run to the next yield point; code between yield points executes
atomically, which is exactly the granularity lock-based code is written
against.

The trace of choices (a list of thread ids) is the *schedule*.  Replaying a
schedule is forcing the same choices, which is deterministic because thread
ids are assigned in spawn order and everything between yield points is
sequential Python.

Blocked-state semantics:

* ``acquire`` is enabled iff the lock is free (model locks are
  non-reentrant, like ``threading.Lock``);
* ``wait`` is enabled iff the event is set — timeouts never fire in model
  time, so a wait that can only end by timeout counts as blocked and
  surfaces as a deadlock;
* ``release``/``set``/``clear`` are always enabled.

When no thread is enabled but some are unfinished, the run has deadlocked:
:meth:`Scheduler.run` raises :class:`DeadlockError` listing each blocked
thread's pending operation.

Lock order: every model-lock acquire adds "held class -> acquired class"
edges to the run's order graph (lock *classes* are the names the runtime
gives its locks, as in the sanitizer's STM301).  An acquire that closes a
cycle — some thread of this schedule took the two classes the other way
round, or nests two locks of one class — ends the run with an
:class:`InvariantViolation`, whether or not this schedule deadlocks on it.

Primitives touched by *unregistered* OS threads (the controller while it
builds the scenario fixture, pytest's main thread, ...) bypass the
scheduler entirely: the model only interleaves registered threads.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

from repro.analysis.sanitizer import reaches

__all__ = [
    "DeadlockError",
    "InvariantViolation",
    "ModelEvent",
    "ModelLock",
    "Op",
    "Scheduler",
    "SchedulerAbort",
]


class InvariantViolation(AssertionError):
    """A scenario invariant does not hold in the current state."""


class DeadlockError(RuntimeError):
    """No thread is enabled but some are unfinished."""

    def __init__(self, message: str, blocked: list[str]):
        super().__init__(message)
        self.blocked = blocked


class SchedulerAbort(BaseException):
    """Raised inside a model thread to unwind it during forced teardown.

    Derives from BaseException so scenario code cannot swallow it with a
    broad ``except Exception``.
    """


class Op:
    """A pending operation at a yield point: ``kind`` + target primitive.

    The target's ``id()`` is the operation's *footprint*; two operations
    are independent (commute) iff their footprints differ.  ``START`` ops
    have no footprint and are treated as dependent with everything.
    """

    __slots__ = ("kind", "target")

    def __init__(self, kind: str, target: Any = None):
        self.kind = kind
        self.target = target

    @property
    def footprint(self) -> int | None:
        return None if self.target is None else id(self.target)

    def describe(self) -> str:
        if self.target is None:
            return self.kind
        name = getattr(self.target, "name", None) or type(self.target).__name__
        return f"{self.kind}({name})"


_START = "start"


class _ModelThread:
    __slots__ = (
        "tid", "name", "os_thread", "sem", "pending", "finished", "error",
        "aborting", "held",
    )

    def __init__(self, tid: int, name: str):
        self.tid = tid
        self.name = name
        self.os_thread: threading.Thread | None = None
        self.sem = threading.Semaphore(0)
        self.pending: Op | None = Op(_START)
        self.finished = False
        self.error: BaseException | None = None
        self.aborting = False
        self.held: list[str] = []  # classes of the model locks it holds


class Scheduler:
    """One schedule execution: spawn model threads, then :meth:`run`."""

    def __init__(self) -> None:
        self._threads: list[_ModelThread] = []
        self._controller_sem = threading.Semaphore(0)
        self._tls = threading.local()
        self.trace: list[int] = []
        #: lock class -> classes acquired while it was held, over this run.
        self.lock_order: dict[str, set[str]] = {}
        self.order_violation: str | None = None

    # -- primitive factories (installed via repro.runtime.sync) ----------
    def make_lock(self, name: str) -> "ModelLock":
        return ModelLock(self, name)

    def make_event(self) -> "ModelEvent":
        return ModelEvent(self)

    # -- thread management ------------------------------------------------
    def spawn(self, name: str, fn: Callable[[], None]) -> int:
        """Register a model thread; it parks immediately (pending START)."""
        mt = _ModelThread(len(self._threads), name)
        self._threads.append(mt)

        def body() -> None:
            self._tls.model_thread = mt
            mt.sem.acquire()  # wait to be scheduled for the first time
            try:
                if not mt.aborting:
                    fn()
            except SchedulerAbort:
                pass
            except BaseException as exc:  # noqa: BLE001 - surfaced by run()
                mt.error = exc
            finally:
                mt.pending = None
                mt.finished = True
                self._controller_sem.release()

        mt.os_thread = threading.Thread(
            target=body, name=f"model-{name}", daemon=True
        )
        mt.os_thread.start()
        return mt.tid

    def _current(self) -> _ModelThread | None:
        return getattr(self._tls, "model_thread", None)

    # -- the yield protocol (called from model threads) -------------------
    def _yield_op(self, op: Op) -> None:
        """Park at a yield point until the controller schedules this op."""
        mt = self._current()
        assert mt is not None
        mt.pending = op
        self._controller_sem.release()
        mt.sem.acquire()
        if mt.aborting:
            raise SchedulerAbort()
        mt.pending = None

    # -- lock order ----------------------------------------------------------
    def _note_order(self, mt: _ModelThread, name: str) -> None:
        """Record ``held -> name`` edges; remember the first cycle closed."""
        for outer in mt.held:
            if name in self.lock_order.get(outer, ()):
                continue  # known edge
            if (outer == name or reaches(self.lock_order, name, outer)) \
                    and self.order_violation is None:
                self.order_violation = (
                    f"lock-order cycle (STM301): {mt.name} acquired "
                    f"'{name}' while holding '{outer}', and '{name}' already "
                    f"leads to '{outer}' in this schedule"
                )
            self.lock_order.setdefault(outer, set()).add(name)
        mt.held.append(name)

    # -- enabledness -------------------------------------------------------
    @staticmethod
    def _enabled(op: Op) -> bool:
        if op.kind == "acquire":
            return not op.target._locked
        if op.kind == "wait":
            return op.target._flag
        return True  # start / release / set / clear

    def snapshot(self) -> list[tuple[int, Op]]:
        """(tid, pending op) of every enabled, unfinished thread —
        deterministic order (spawn order)."""
        out = []
        for mt in self._threads:
            if not mt.finished and mt.pending is not None and self._enabled(mt.pending):
                out.append((mt.tid, mt.pending))
        return out

    # -- the controller loop ----------------------------------------------
    def run(
        self,
        choose: Callable[[list[tuple[int, Op]]], int] | None = None,
        after_step: Callable[[], None] | None = None,
    ) -> list[int]:
        """Drive the model threads to completion.

        ``choose`` maps the enabled snapshot to a tid (default: first
        enabled).  ``after_step`` runs on the controller after every
        transition (scenario step-invariants).  Returns the schedule.
        Raises :class:`DeadlockError` on deadlock, or re-raises the first
        model-thread exception.
        """
        while True:
            unfinished = [mt for mt in self._threads if not mt.finished]
            if not unfinished:
                break
            enabled = self.snapshot()
            if not enabled:
                blocked = [
                    f"{mt.name}: {mt.pending.describe()}"
                    for mt in unfinished
                    if mt.pending is not None
                ]
                raise DeadlockError(
                    f"deadlock after {len(self.trace)} steps: "
                    + "; ".join(blocked),
                    blocked,
                )
            tid = choose(enabled) if choose is not None else enabled[0][0]
            self.trace.append(tid)
            self._step(tid)
            for mt in self._threads:
                if mt.error is not None:
                    raise mt.error
            if self.order_violation is not None:
                raise InvariantViolation(self.order_violation)
            if after_step is not None:
                after_step()
        return self.trace

    def _step(self, tid: int) -> None:
        """Resume one thread and wait until it parks again (or finishes)."""
        mt = self._threads[tid]
        mt.sem.release()
        self._controller_sem.acquire()

    def abort(self) -> None:
        """Force-unwind every unfinished model thread (teardown after a
        deadlock): each is resumed with the abort flag, raising
        :class:`SchedulerAbort` out of its current yield point."""
        for mt in self._threads:
            while not mt.finished:
                mt.aborting = True
                mt.sem.release()
                self._controller_sem.acquire()

    def join_all(self, timeout: float = 5.0) -> None:
        for mt in self._threads:
            if mt.os_thread is not None:
                mt.os_thread.join(timeout)


class ModelLock:
    """A cooperative, non-reentrant lock; acquire/release are yield points.

    Duck-types the slice of the ``threading.Lock``/
    :class:`~repro.analysis.sanitizer.SanLock` interface the runtime uses.
    State is plain fields — safe because only one model thread runs at a
    time, and unregistered threads only touch primitives while no model
    thread is running (fixture setup/teardown).
    """

    __slots__ = ("name", "_sched", "_locked", "_owner")

    def __init__(self, sched: Scheduler, name: str):
        self.name = name
        self._sched = sched
        self._locked = False
        self._owner: Any = None

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        mt = self._sched._current()
        if mt is not None:
            self._sched._yield_op(Op("acquire", self))
            self._sched._note_order(mt, self.name)
        elif self._locked:  # pragma: no cover - defensive
            raise RuntimeError(
                f"unregistered thread would block on model lock {self.name!r}"
            )
        self._locked = True
        self._owner = mt.tid if mt is not None else threading.get_ident()
        return True

    def release(self) -> None:
        mt = self._sched._current()
        if mt is not None:
            self._sched._yield_op(Op("release", self))
            mt.held.remove(self.name)
        self._locked = False
        self._owner = None

    def locked(self) -> bool:
        return self._locked

    def held_by_current(self) -> bool:
        mt = self._sched._current()
        me = mt.tid if mt is not None else threading.get_ident()
        return self._locked and self._owner == me

    def __enter__(self) -> "ModelLock":
        self.acquire()
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "locked" if self._locked else "unlocked"
        return f"<ModelLock {self.name!r} {state}>"


class ModelEvent:
    """A cooperative event; wait/set/clear are yield points.

    ``wait`` blocks until the flag is set — model time has no clocks, so a
    timeout never fires (a wait that only a timeout could end is a
    deadlock, which is what the checker should report).
    """

    __slots__ = ("_sched", "_flag")

    def __init__(self, sched: Scheduler):
        self._sched = sched
        self._flag = False

    def wait(self, timeout: float | None = None) -> bool:
        mt = self._sched._current()
        if mt is not None:
            self._sched._yield_op(Op("wait", self))
            return True
        # Unregistered thread: behave like a real event (bounded spin).
        deadline = time.monotonic() + (timeout if timeout is not None else 5.0)
        while not self._flag:
            if time.monotonic() > deadline:
                return False
            time.sleep(0.001)
        return True

    def set(self) -> None:
        mt = self._sched._current()
        if mt is not None:
            self._sched._yield_op(Op("set", self))
        self._flag = True

    def clear(self) -> None:
        mt = self._sched._current()
        if mt is not None:
            self._sched._yield_op(Op("clear", self))
        self._flag = False

    def is_set(self) -> bool:
        return self._flag
