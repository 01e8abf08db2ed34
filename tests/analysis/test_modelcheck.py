"""The model checker: scheduler determinism, exploration, seeded bugs.

The regression seeds below were produced by the explorer itself (each is
the first violating schedule DFS finds); they are checked in so the bugs
they witness stay reproducible byte-for-byte without re-running the whole
exploration.
"""

from __future__ import annotations

import pytest

from repro.analysis.modelcheck import (
    SCENARIOS,
    DeadlockError,
    Scheduler,
    explore,
    replay,
)
from repro.analysis.modelcheck.explorer import decode_seed, encode_seed

CLEAN = [n for n, s in SCENARIOS.items() if not s.expect_violation]
SEEDED = [n for n, s in SCENARIOS.items() if s.expect_violation]

#: explorer-produced violating schedules, one per seeded scenario.
REGRESSION_SEEDS = {
    "seeded-atomicity-break": (
        "seeded-atomicity-break:0.0.0.1.1.1.1.1.0.0",
        "STM401",
    ),
    "seeded-gc-reclaims-live": (
        "seeded-gc-reclaims-live:0.1.1.1.1.1.1.1.0.0.1.1.0.0",
        "STM403",
    ),
    "seeded-lost-wakeup": (
        "seeded-lost-wakeup:0.0.0.1.1.1.1.0",
        "STM402",
    ),
}


# ---------------------------------------------------------------------------
# scheduler core
# ---------------------------------------------------------------------------


def test_one_thread_runs_at_a_time_and_trace_is_complete():
    sched = Scheduler()
    log = []
    lock = sched.make_lock("L")

    def worker(tag):
        with lock:
            log.append(tag)

    sched.spawn("a", lambda: worker("a"))
    sched.spawn("b", lambda: worker("b"))
    trace = sched.run()
    sched.join_all()
    assert sorted(log) == ["a", "b"]
    assert set(trace) == {0, 1}


def test_forced_schedule_is_deterministic():
    def run(schedule):
        sched = Scheduler()
        log = []
        lock = sched.make_lock("L")

        def worker(tag):
            with lock:
                log.append(tag)

        sched.spawn("a", lambda: worker("a"))
        sched.spawn("b", lambda: worker("b"))
        sched.run(lambda enabled: (
            schedule.pop(0) if schedule else enabled[0][0]
        ))
        sched.join_all()
        return log

    assert run([1, 1]) == run([1, 1])
    # [start b, b acquires] forces b through the lock first.
    assert run([1, 1])[0] == "b"
    assert run([0, 0])[0] == "a"


def test_unsatisfiable_wait_is_a_deadlock():
    sched = Scheduler()
    event = sched.make_event()
    sched.spawn("waiter", lambda: event.wait(timeout=0.01))
    with pytest.raises(DeadlockError) as err:
        sched.run()
    sched.abort()
    sched.join_all()
    assert "waiter" in str(err.value)


def test_lock_contention_disables_acquire():
    sched = Scheduler()
    lock = sched.make_lock("L")
    order = []

    def holder():
        with lock:
            order.append("holder-in")
        order.append("holder-out")

    def contender():
        with lock:
            order.append("contender-in")

    sched.spawn("holder", holder)
    sched.spawn("contender", contender)

    # Drive the holder into the critical section (two forced steps), then
    # insist on the contender: its acquire stays disabled until the
    # holder's release, so the contender cannot jump the critical section.
    forced = [0, 0]

    def choose(enabled):
        tids = [t for t, _ in enabled]
        if forced:
            return forced.pop(0)
        return 1 if 1 in tids else tids[0]

    sched.run(choose)
    sched.join_all()
    assert order.index("contender-in") > order.index("holder-in")


def test_opposite_lock_orders_are_reported_without_a_deadlock():
    """Two lock classes taken both ways round end the run even when this
    schedule happens not to deadlock on them (the sanitizer's STM301, in
    model time); nesting in one order only is fine."""
    from repro.analysis.modelcheck import InvariantViolation

    def run(second_order):
        sched = Scheduler()
        locks = {name: sched.make_lock(name) for name in "AB"}

        def nest(outer, inner):
            with locks[outer], locks[inner]:
                pass

        sched.spawn("first", lambda: nest("A", "B"))
        sched.spawn("second", lambda: nest(*second_order))
        try:
            sched.run()  # default choice: "first" runs to completion first
        finally:
            sched.abort()
            sched.join_all()

    run("AB")
    with pytest.raises(InvariantViolation, match="STM301.*'A' while holding 'B'"):
        run("BA")


# ---------------------------------------------------------------------------
# exploration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", CLEAN)
def test_clean_scenarios_have_no_violations(name):
    scenario = SCENARIOS[name]
    result = explore(scenario, budget=120)
    assert result.clean, result.finding.render()
    assert result.runs >= 1


def test_detach_vs_reclaim_tree_is_exhausted():
    """The sleep-set reduction finishes this scenario's whole (reduced)
    schedule tree well inside the budget — every interleaving is covered,
    not just a sample."""
    result = explore(SCENARIOS["detach-vs-reclaim"], budget=500)
    assert result.clean
    assert result.exhausted
    assert result.runs < 500


def test_late_reply_scenario_is_exhausted_and_has_teeth(monkeypatch):
    """Every interleaving of a late reply with the reused call slot is
    covered, and the scenario does catch the bug it exists for: a completion
    that looks the slot up under the lock but delivers after dropping it."""
    from repro.runtime.address_space import AddressSpace

    scenario = SCENARIOS["late-reply-vs-next-call"]
    result = explore(scenario, budget=5000)
    assert result.clean and result.exhausted, result.finding

    def check_then_deliver(self, reply):
        with self._calls_lock:
            call = self._calls.get(reply.call_id)
        if call is None or call.done:
            return
        call.value, call.error, call.done = reply.value, reply.error, True
        call.event.set()

    monkeypatch.setattr(AddressSpace, "_complete_call", check_then_deliver)
    result = explore(scenario, budget=5000)
    assert result.finding is not None
    _name, schedule = decode_seed(
        result.finding.message.split("[seed ")[1].rstrip("]"))
    assert replay(scenario, schedule) is not None


def test_drain_reply_scenario_has_teeth(monkeypatch):
    """A reply finished by the thread that delivers it — mid-drain, under the
    channel and stream locks — against the caller's timeout and next call:
    clean as shipped, and it catches a completion that delivers outside
    ``_calls_lock`` as well as one that takes a channel lock (the deliverer's
    own: a deadlock; another one: a lock-order cycle)."""
    from repro.runtime.address_space import AddressSpace

    scenario = SCENARIOS["drain-reply-vs-caller-timeout"]
    result = explore(scenario, budget=300)
    assert result.clean, result.finding
    complete_call = AddressSpace._complete_call

    def check_then_deliver(self, reply):
        with self._calls_lock:
            call = self._calls.get(reply.call_id)
            if call is None or call.done or call.call_id != reply.call_id:
                return
        call.value, call.error, call.done = reply.value, reply.error, True
        call.event.set()

    def under_the_home_channel_lock(self, reply):
        with self.cluster.space(0).local_channels()[0].lock:
            complete_call(self, reply)

    def under_an_own_channel_lock(self, reply):
        with self.local_channels()[0].lock:
            complete_call(self, reply)

    class CallerHomesAChannel(type(scenario)):
        def build(self):
            ctx = super().build()
            ctx.remote.create_channel()
            return ctx

    for mutant, checked, rule, text in [
        (check_then_deliver, scenario, "STM403", "not acknowledged"),
        (under_the_home_channel_lock, scenario, "STM402", "deadlock"),
        (under_an_own_channel_lock, CallerHomesAChannel(), "STM401", "STM301"),
    ]:
        monkeypatch.setattr(AddressSpace, "_complete_call", mutant)
        finding = explore(checked, budget=scenario.budget).finding
        assert finding is not None, mutant.__name__
        assert finding.rule_id == rule and text in finding.message, finding


def test_gc_summary_scenario_is_exhausted_and_has_teeth(monkeypatch):
    """Every interleaving of a GC epoch with put -> get -> inherited put ->
    consume is covered, and the scenario catches a summary that reads
    channel minima before thread visibilities (the order the unlocked
    thread state relies on)."""
    from repro.core.gc_state import LocalGCSummary
    from repro.runtime.address_space import AddressSpace

    scenario = SCENARIOS["gc-summary-vs-open-item"]
    result = explore(scenario, budget=scenario.budget)
    assert result.clean and result.exhausted, result.finding

    def channels_first(self, epoch=0):
        mins = {}
        for channel in self.local_channels():
            with channel.lock:
                mins[channel.kernel.channel_id] = channel.kernel.unconsumed_min()
        visibilities = [t.visibility() for t in self.threads()]
        return LocalGCSummary(self.space_id, visibilities, mins, epoch)

    monkeypatch.setattr(AddressSpace, "gc_summary", channels_first)
    result = explore(scenario, budget=scenario.budget)
    assert result.finding is not None and result.finding.rule_id == "STM401"


def test_destroy_scenario_is_exhausted_and_has_teeth(monkeypatch):
    """Destroy against operations that already resolved the channel from the
    lock-free table: all interleavings end in an allowed outcome, and the
    scenario notices a kernel that stops refusing work once destroyed."""
    from repro.core.channel_state import ChannelKernel

    scenario = SCENARIOS["destroy-vs-local-op"]
    result = explore(scenario, budget=scenario.budget)
    assert result.clean and result.exhausted, result.finding

    monkeypatch.setattr(ChannelKernel, "_check_alive", lambda self: None)
    assert explore(scenario, budget=scenario.budget).finding is not None


@pytest.mark.parametrize("name", SEEDED)
def test_seeded_bugs_are_found(name):
    scenario = SCENARIOS[name]
    result = explore(scenario, budget=scenario.budget)
    assert result.finding is not None, f"{name}: bug not found in budget"
    expected_rule = REGRESSION_SEEDS[name][1]
    assert result.finding.rule_id == expected_rule
    assert "seed" in result.finding.message


@pytest.mark.parametrize("name", SEEDED)
def test_regression_seeds_replay_deterministically(name):
    seed, rule = REGRESSION_SEEDS[name]
    sname, schedule = decode_seed(seed)
    assert sname == name
    for _ in range(2):  # twice: replay must not depend on leftover state
        finding = replay(SCENARIOS[name], schedule)
        assert finding is not None, f"seed {seed} no longer reproduces"
        assert finding.rule_id == rule


def test_found_seed_replays_what_explore_found():
    result = explore(SCENARIOS["seeded-lost-wakeup"], budget=100)
    seed = result.finding.message.split("[seed ")[1].rstrip("]")
    name, schedule = decode_seed(seed)
    finding = replay(SCENARIOS[name], schedule)
    assert finding is not None
    assert finding.rule_id == result.finding.rule_id


def test_replay_of_benign_schedule_is_clean():
    # An empty prefix replays with default (sticky) choices: each thread
    # runs until it blocks — the benign, quasi-sequential interleaving.
    assert replay(SCENARIOS["seeded-lost-wakeup"], []) is None


def test_seed_round_trip():
    seed = encode_seed("x", [0, 1, 1, 0])
    assert decode_seed(seed) == ("x", [0, 1, 1, 0])
    assert decode_seed("x:") == ("x", [])


def test_real_primitives_restored_after_exploration():
    """Exploration must uninstall the model factories even on violations."""
    from repro.analysis.modelcheck import ModelEvent, ModelLock
    from repro.runtime.sync import make_event, make_lock

    explore(SCENARIOS["seeded-lost-wakeup"], budget=50)
    # STMSAN may swap in SanLocks, but never model primitives.
    assert not isinstance(make_lock("after"), ModelLock)
    assert not isinstance(make_event(), ModelEvent)
