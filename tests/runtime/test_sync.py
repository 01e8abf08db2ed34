"""The thread wake primitive: ``OneSleeperEvent``'s contract, on real threads.

Every event the runtime makes by default (``sync.make_event``) has one
sleeper — a thread's RPC completion slot, a parked local put or get, a local
wait for a channel name — and is a ``OneSleeperEvent``: a raw lock held
while the event is unset, plus a flag.  Its contract is
``threading.Event``'s for one sleeper; these tests pin each clause.
"""

import linecache
import sys
import threading
import time

import pytest

from repro.runtime import sync
from repro.runtime.sync import OneSleeperEvent


def _bounded(fn, *args, limit: float = 5.0):
    """``fn(*args)`` on a helper thread: a call that should return at once
    fails the test instead of hanging it."""
    result = []
    thread = threading.Thread(target=lambda: result.append(fn(*args)), daemon=True)
    thread.start()
    thread.join(limit)
    assert result, f"{fn.__qualname__}{args} did not return in {limit} s"
    return result[0]


def test_make_event_builds_the_one_sleeper_event_by_default():
    assert not sync.factories_installed()
    assert isinstance(sync.make_event(), OneSleeperEvent)


class TestWait:
    def test_set_before_wait_returns_at_once(self):
        event = OneSleeperEvent()
        event.set()
        assert event.is_set()
        assert event.wait() is True
        assert event.wait(0) is True
        assert event.wait(5.0) is True  # and again: waking does not unset it

    def test_set_during_wait_wakes_the_sleeper(self):
        event = OneSleeperEvent()
        woke = {}

        def sleeper():
            woke["untimed"] = event.wait()

        thread = threading.Thread(target=sleeper)
        thread.start()
        time.sleep(0.02)  # let it block on the gate
        assert thread.is_alive()
        event.set()
        thread.join(timeout=5.0)
        assert not thread.is_alive() and woke["untimed"] is True

    def test_set_during_a_timed_wait_wakes_the_sleeper(self):
        event = OneSleeperEvent()
        threading.Timer(0.02, event.set).start()
        assert event.wait(5.0) is True

    @pytest.mark.parametrize("timeout", [0, 0.0, -1, -0.5])
    def test_zero_and_negative_timeouts_poll(self, timeout):
        event = OneSleeperEvent()
        assert _bounded(event.wait, timeout) is False  # -1 is no "forever"
        event.set()
        assert _bounded(event.wait, timeout) is True

    def test_a_set_landing_as_the_timeout_fires_is_honoured(self):
        event = OneSleeperEvent()
        gate = event._gate_lock

        class TimesOutAsTheSetLands:
            """The gate's timed acquire gives up just as a set() lands."""

            def acquire(self, blocking=True, timeout=-1):
                if timeout == -1:
                    return gate.acquire(blocking)
                setter = threading.Thread(target=event.set)
                setter.start()
                setter.join()
                return False

            def release(self):
                gate.release()

        event._gate_lock = TimesOutAsTheSetLands()
        assert event.wait(0.01) is True

    def test_a_timeout_then_a_late_set_is_seen_by_is_set_and_the_next_wait(self):
        event = OneSleeperEvent()
        assert event.wait(0.01) is False
        event.set()  # the reply lands after the caller gave up
        assert event.is_set()
        assert event.wait(0) is True
        assert event.wait() is True

    def test_set_is_idempotent(self):
        event = OneSleeperEvent()
        for _ in range(3):
            event.set()
        assert event.wait(0) is True
        event.clear()  # one clear re-arms after any number of sets
        assert not event.is_set()
        assert event.wait(0.01) is False  # the gate is closed again, too


class TestConcurrentSetters:
    @pytest.fixture(autouse=True)
    def _fine_switching(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # let both setters pass the flag check
        yield
        sys.setswitchinterval(interval)

    @pytest.mark.parametrize("sleeping", [False, True])
    def test_two_sets_that_both_pass_the_flag_check(self, sleeping):
        """Forced interleaving: set() A is held right after its flag check
        while set() B runs to the end (and, with a sleeper, wakes it)."""
        event = OneSleeperEvent()
        woke = []
        sleeper = threading.Thread(target=lambda: woke.append(event.wait(5.0)))
        if sleeping:
            sleeper.start()
            time.sleep(0.02)
        paused = []

        def tracer(frame, what, arg):
            if frame.f_code is not OneSleeperEvent.set.__code__:
                return None

            def on_line(frame, what, arg):
                line = linecache.getline(frame.f_code.co_filename, frame.f_lineno)
                if what == "line" and line.strip() == "self._flag = True" and not paused:
                    paused.append(True)
                    other = threading.Thread(target=event.set)
                    other.start()
                    other.join()
                    if sleeping:
                        sleeper.join(timeout=5.0)  # it took the gate B opened
                return on_line

            return on_line

        sys.settrace(tracer)
        try:
            event.set()
        finally:
            sys.settrace(None)
        assert paused, "set() no longer writes the flag after checking it"
        assert event.is_set() and event.wait(0) is True
        if sleeping:
            assert woke == [True]
        event.clear()
        assert event.wait(0.001) is False

    def test_two_concurrent_sets_wake_the_sleeper_once_and_raise_nothing(self):
        errors: list[BaseException] = []
        for _ in range(300):
            event = OneSleeperEvent()
            barrier = threading.Barrier(3)

            def setter():
                barrier.wait()
                try:
                    event.set()
                except BaseException as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)

            setters = [threading.Thread(target=setter) for _ in range(2)]
            for t in setters:
                t.start()
            barrier.wait()
            assert event.wait(5.0) is True
            for t in setters:
                t.join(timeout=5.0)
            assert event.is_set() and event.wait(0) is True
            event.clear()  # both sets are over: the gate closes cleanly
            assert not event.is_set() and event.wait(0.001) is False
        assert errors == []


class TestRearm:
    def test_ten_thousand_rearm_cycles_with_a_concurrent_setter(self):
        """The RPC slot's pattern: the owner re-arms, asks, sleeps; another
        thread answers.  Every wait ends woken by its own round's answer,
        whether the answer lands before the wait (odd rounds, forced) or
        during it."""
        import queue

        event = OneSleeperEvent()
        asks: queue.SimpleQueue = queue.SimpleQueue()
        answered: list[int] = []

        def answerer():
            while (n := asks.get()) is not None:
                answered.append(n)
                event.set()

        thread = threading.Thread(target=answerer)
        thread.start()
        try:
            for n in range(10_000):
                event.clear()
                if n % 1000 == 0:
                    assert event.wait(0.001) is False  # re-armed: nothing pending
                asks.put(n)
                if n % 2:
                    while not event.is_set():
                        time.sleep(0)
                assert event.wait(5.0) is True
                assert answered[-1] == n  # woken by this round's answer
        finally:
            asks.put(None)
            thread.join(timeout=5.0)
        assert len(answered) == 10_000 and not thread.is_alive()
