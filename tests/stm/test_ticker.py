"""Tests for ticker channels — the §6 alternative VT management, realized."""

import pytest

from repro.core import INFINITY, STM_OLDEST_UNSEEN
from repro.runtime import Cluster
from repro.stm import STM
from repro.stm.ticker import Ticker


@pytest.fixture
def cluster():
    with Cluster(n_spaces=1, gc_period=0.02) as c:
        yield c


@pytest.fixture
def me(cluster):
    t = cluster.space(0).adopt_current_thread(virtual_time=0)
    yield t
    if t.alive:
        t.exit()


class TestTicker:
    def test_produces_count_ticks_then_sentinel(self, cluster, me):
        stm = STM(cluster.space(0))
        ticker = Ticker.start(stm, "t1", period_s=0.001, count=5)
        inp = ticker.channel.attach_input()
        seen = []
        while True:
            item = inp.get(STM_OLDEST_UNSEEN)
            inp.consume(item.timestamp)
            if item.value is None:
                break
            seen.append((item.timestamp, item.value))
        ticker.join(10)
        inp.detach()
        assert seen == [(t, t) for t in range(5)]

    def test_source_thread_never_manages_vt(self, cluster, me):
        """The §6 demonstration: a producer whose ONLY time source is the
        ticker channel — it never calls set_virtual_time, yet puts legally
        timestamped items (inherited from the open tick)."""
        stm = STM(cluster.space(0))
        ticker = Ticker.start(stm, "t2", period_s=0.001, count=4)
        output = stm.create_channel("t2.out")

        produced = []

        def source():
            from repro.runtime import current_thread

            me_inner = current_thread()
            # Attach while visibility is still 0: the 1 ms ticker may have
            # produced tick 0 already, and attaching at INFINITY would
            # implicitly consume it (§4.2).
            ticks = ticker.channel.attach_input()
            out = output.attach_output()
            me_inner.set_virtual_time(INFINITY)  # ...where VT stays throughout
            while True:
                tick = ticks.get(STM_OLDEST_UNSEEN)
                if tick.value is None:
                    ticks.consume(tick.timestamp)
                    break
                out.put(tick.timestamp, f"item-{tick.timestamp}")
                produced.append(tick.timestamp)
                ticks.consume(tick.timestamp)
            assert me_inner.virtual_time is INFINITY  # untouched, as §6 wants
            ticks.detach()
            out.detach()

        handle = cluster.space(0).spawn(source, virtual_time=0)
        handle.join(15)
        ticker.join(10)
        assert produced == [0, 1, 2, 3]

    def test_refcounted_ticks_reclaimed_eagerly(self, cluster, me):
        stm = STM(cluster.space(0))
        ticker = Ticker.start(stm, "t3", period_s=0.001, count=4, refcount=1)
        inp = ticker.channel.attach_input()
        while True:
            item = inp.get(STM_OLDEST_UNSEEN)
            inp.consume(item.timestamp)
            if item.value is None:
                break
        ticker.join(10)
        kernel = cluster.space(0)._channel(ticker.channel.channel_id).kernel
        assert kernel.total_refcount_collected == 4
        inp.detach()

    def test_validation(self, cluster, me):
        stm = STM(cluster.space(0))
        with pytest.raises(ValueError):
            Ticker.start(stm, "bad", period_s=0.0, count=3)
        with pytest.raises(ValueError):
            Ticker.start(stm, "bad2", period_s=0.1, count=0)
