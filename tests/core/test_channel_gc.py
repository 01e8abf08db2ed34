"""Unit tests for consume semantics and kernel-level GC (paper §4.2, §6)."""

import sys

import pytest

from repro.core import channel_state
from repro.core.channel_state import ChannelKernel
from repro.core.flags import STM_OLDEST
from repro.core.item import ItemState
from repro.core.time import INFINITY
from repro.errors import ItemGarbageCollectedError, NotOpenError

OUT, A, B = 1, 2, 3


@pytest.fixture
def chan():
    k = ChannelKernel(1)
    k.attach_output(OUT)
    k.attach_input(A, visibility=0)
    return k


def fill(k, n, refcount=-1):
    for ts in range(n):
        k.put(OUT, ts, b"x", 1, refcount)


class TestConsume:
    def test_consume_is_idempotent(self, chan):
        fill(chan, 1)
        chan.consume(A, 0)
        chan.consume(A, 0)  # no error
        assert chan.total_consumes == 1  # second call was a no-op

    def test_strict_consume_requires_open(self, chan):
        fill(chan, 1)
        with pytest.raises(NotOpenError):
            chan.consume(A, 0, strict=True)
        chan.get(A, 0)
        chan.consume(A, 0, strict=True)
        assert chan.item_state(A, 0) is ItemState.CONSUMED

    def test_consume_absent_timestamp_allowed(self, chan):
        chan.consume(A, 42)  # may never be put; marking is what matters
        fill(chan, 1)
        assert chan.item_state(A, 42) is ItemState.CONSUMED

    def test_consume_until_sweeps_unseen(self, chan):
        fill(chan, 5)
        chan.consume_until(A, 3)
        for ts in range(4):
            assert chan.item_state(A, ts) is ItemState.CONSUMED
        assert chan.item_state(A, 4) is ItemState.UNSEEN


class TestUnconsumedMin:
    def test_empty_channel_is_infinity(self, chan):
        assert chan.unconsumed_min() is INFINITY

    def test_min_over_single_connection(self, chan):
        fill(chan, 4)
        assert chan.unconsumed_min() == 0
        chan.consume(A, 0)
        assert chan.unconsumed_min() == 1
        chan.consume_until(A, 3)
        assert chan.unconsumed_min() is INFINITY

    def test_open_items_still_count(self, chan):
        """An OPEN item is unconsumed and pins the minimum (§4.2)."""
        fill(chan, 3)
        chan.get(A, 0)
        chan.consume_until(A, 2)  # consumes everything including the open 0
        assert chan.unconsumed_min() is INFINITY
        # but a get that stays open pins:
        chan.put(OUT, 5, b"x", 1)
        chan.get(A, 5)
        assert chan.unconsumed_min() == 5

    def test_min_is_minimum_across_connections(self, chan):
        chan.attach_input(B, visibility=0)
        fill(chan, 4)
        chan.consume_until(A, 2)
        assert chan.unconsumed_min() == 0  # B has everything unconsumed
        chan.consume_until(B, 3)
        assert chan.unconsumed_min() == 3  # A still owes 3

    def test_no_input_connections_is_infinity(self):
        k = ChannelKernel(1)
        k.attach_output(OUT)
        k.put(OUT, 0, b"x", 1)
        assert k.unconsumed_min() is INFINITY

    def test_detach_releases_claims(self, chan):
        chan.attach_input(B, visibility=0)
        fill(chan, 3)
        chan.consume_until(A, 2)
        assert chan.unconsumed_min() == 0
        chan.detach(B)
        assert chan.unconsumed_min() is INFINITY


class TestAttachVisibility:
    def test_attach_consumes_below_visibility(self, chan):
        """§4.2: new input connections implicitly consume items < visibility."""
        fill(chan, 6)
        chan.attach_input(B, visibility=4)
        assert chan.item_state(B, 3) is ItemState.CONSUMED
        assert chan.item_state(B, 4) is ItemState.UNSEEN
        assert chan.unconsumed_min() == 0  # A's claims unaffected

    def test_attach_with_infinity_consumes_all_current(self, chan):
        fill(chan, 3)
        chan.attach_input(B, visibility=INFINITY)
        for ts in range(3):
            assert chan.item_state(B, ts) is ItemState.CONSUMED
        # B contributes nothing to the minimum:
        chan.consume_until(A, 2)
        assert chan.unconsumed_min() is INFINITY

    def test_attach_to_empty_with_infinity_sees_future_items(self, chan):
        chan.attach_input(B, visibility=INFINITY)
        chan.put(OUT, 7, b"x", 1)
        assert chan.item_state(B, 7) is ItemState.UNSEEN
        assert chan.get(B, 7).timestamp == 7


class TestCollectBelow:
    def test_collects_prefix_and_raises_horizon(self, chan):
        fill(chan, 6)
        chan.consume_until(A, 5)
        dead = chan.collect_below(4)
        assert dead == [0, 1, 2, 3]
        assert chan.gc_horizon == 4
        assert chan.timestamps() == [4, 5]

    def test_horizon_monotone(self, chan):
        fill(chan, 3)
        chan.consume_until(A, 2)
        chan.collect_below(3)
        chan.collect_below(1)  # lower horizon: no-op
        assert chan.gc_horizon == 3

    def test_collect_infinity_reclaims_everything(self, chan):
        fill(chan, 4)
        chan.consume_until(A, 3)
        dead = chan.collect_below(INFINITY)
        assert dead == [0, 1, 2, 3]
        assert len(chan) == 0

    def test_collect_counts(self, chan):
        fill(chan, 5)
        chan.consume_until(A, 4)
        chan.collect_below(5)
        assert chan.total_collected == 5

    @pytest.mark.parametrize("refcount", [-1, 2])
    def test_python_calls_do_not_grow_with_the_items_reclaimed(
            self, monkeypatch, refcount):
        """``sys.setprofile`` ``call`` events of one ``collect_below``: the
        same for 1 and for 15 reclaimed items (21 for 15 when the byte and
        refcount sums ran over generator expressions), with the refcounted
        count and the stored bytes kept right."""
        monkeypatch.setattr(channel_state, "_reclaim_hook", None)

        def calls_to_collect(d):
            k = ChannelKernel(1)
            k.attach_output(OUT)
            k.attach_input(A, visibility=0)
            fill(k, d + 1, refcount)
            calls = [0]

            def profile(frame, event, arg):
                if event == "call":
                    calls[0] += 1

            sys.setprofile(profile)
            try:
                dead = k.collect_below(d)
            finally:
                sys.setprofile(None)
            assert dead == list(range(d))
            assert k.stored_bytes() == 1
            assert k._refcounted == (1 if refcount > 0 else 0)
            return calls[0]

        assert calls_to_collect(1) == calls_to_collect(15) <= 4


class TestSparseTimestamps:
    """A frame-skipping consumer: one-by-one consumes at non-contiguous
    timestamps never fold into the watermark on their own (nothing fills the
    gaps), so the GC horizon has to."""

    def test_explicit_consumes_stay_bounded_by_resident_items(self, chan):
        view = chan.inputs[A]
        for cycle in range(2000):
            ts = cycle * 10
            chan.put(OUT, ts, b"x", 1)
            chan.get(A, ts)
            chan.consume(A, ts)
            assert len(view.consumed_explicit) <= len(chan)
            if cycle % 50 == 49:
                assert chan.unconsumed_min() is INFINITY
                chan.collect_below(ts - 9)  # the newest item stays resident
        assert chan.gc_horizon == 19_981
        assert view.consumed_below == 19_481  # the horizon before the last: folded at a consume
        assert chan.total_consumes == 2000

    def test_collected_timestamps_read_as_consumed(self, chan):
        chan.put(OUT, 10, b"x", 1)
        chan.consume(A, 10)
        chan.collect_below(15)
        # get below the horizon fails first, whatever the connection consumed
        with pytest.raises(ItemGarbageCollectedError):
            chan.get(A, 3)
        chan.consume(A, 3)  # legal and silent: nothing left to mark
        assert chan.total_consumes == 1
        assert chan.inputs[A].consumed_below == 15
        assert chan.inputs[A].consumed_explicit == set()


class TestRefcountGC:
    def test_item_dies_at_last_consume(self, chan):
        chan.attach_input(B, visibility=0)
        chan.put(OUT, 0, b"x", 1, 2)  # two declared consumers
        chan.get(A, 0)
        chan.consume(A, 0)
        assert 0 in chan.items  # B still owed
        chan.get(B, 0)
        chan.consume(B, 0)
        assert 0 not in chan.items
        assert chan.total_refcount_collected == 1

    def test_unknown_refcount_waits_for_reachability(self, chan):
        chan.put(OUT, 0, b"x", 1)
        chan.get(A, 0)
        chan.consume(A, 0)
        assert 0 in chan.items  # still stored: daemon must reclaim
        chan.collect_below(1)
        assert 0 not in chan.items

    def test_consume_until_decrements_covered_items(self, chan):
        for ts in range(3):
            chan.put(OUT, ts, b"x", 1, 1)
        chan.consume_until(A, 2)
        assert len(chan) == 0
        assert chan.total_refcount_collected == 3

    def test_version_bumps_on_mutations(self, chan):
        v0 = chan.version
        fill(chan, 1)
        assert chan.version > v0
        v1 = chan.version
        chan.get(A, 0)
        assert chan.version > v1
        v2 = chan.version
        chan.consume(A, 0)
        assert chan.version > v2
