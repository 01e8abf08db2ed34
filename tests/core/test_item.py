"""Unit tests for the per-connection item state machine (paper §4.2).

The UNSEEN -> OPEN -> CONSUMED transitions are made by the kernel's ``get``
and ``consume`` themselves, so they are driven through a
:class:`ChannelKernel` here and read back off its input connection's view.
"""

from repro.core.channel_state import ChannelKernel
from repro.core.flags import UNKNOWN_REFCOUNT
from repro.core.item import InputConnState, ItemRecord, ItemState


class TestItemRecord:
    def test_unknown_refcount_never_reaches_zero(self):
        rec = ItemRecord(timestamp=0, payload=b"", size=0)
        assert not rec.refcounted
        assert rec.dec_refcount() is False
        assert rec.refcount == UNKNOWN_REFCOUNT

    def test_declared_refcount_counts_down(self):
        rec = ItemRecord(timestamp=0, payload=b"", size=0, refcount=2)
        assert rec.refcounted
        assert rec.dec_refcount() is False
        assert rec.dec_refcount() is True

    def test_refcount_clamped_at_zero(self):
        rec = ItemRecord(timestamp=0, payload=b"", size=0, refcount=1)
        assert rec.dec_refcount() is True
        assert rec.dec_refcount() is True  # over-consumption doesn't wrap
        assert rec.refcount == 0


OUT, IN = 0, 1


def _channel(*timestamps):
    """A kernel holding ``timestamps`` and one input connection at 0."""
    kernel = ChannelKernel(1)
    kernel.attach_output(OUT)
    kernel.attach_input(IN, 0)
    for ts in timestamps:
        kernel.put(OUT, ts, b"", 0)
    return kernel, kernel.inputs[IN]


class TestStateMachine:
    def test_initially_unseen(self):
        kernel, view = _channel(5)
        assert kernel.item_state(IN, 5) is ItemState.UNSEEN
        assert not view.is_consumed(5)

    def test_get_opens(self):
        kernel, view = _channel(5)
        kernel.get(IN, 5)
        assert kernel.item_state(IN, 5) is ItemState.OPEN
        assert not view.is_consumed(5)  # open items are still unconsumed

    def test_consume_from_open(self):
        kernel, view = _channel(5)
        kernel.get(IN, 5)
        kernel.consume(IN, 5, strict=True)
        assert kernel.item_state(IN, 5) is ItemState.CONSUMED
        assert view.is_consumed(5)
        assert not view.open_ts

    def test_consume_direct_from_unseen(self):
        """The UNSEEN -> CONSUMED edge of a non-strict consume (§4.2)."""
        kernel, view = _channel(5)
        kernel.consume(IN, 5)
        assert kernel.item_state(IN, 5) is ItemState.CONSUMED

    def test_consume_upto_moves_everything_below(self):
        kernel, view = _channel(3, 8)
        kernel.get(IN, 3)
        kernel.consume_until(IN, 7)
        for ts in range(8):
            assert kernel.item_state(IN, ts) is ItemState.CONSUMED
        assert kernel.item_state(IN, 8) is ItemState.UNSEEN
        assert not view.open_ts

    def test_consume_upto_is_monotone(self):
        view = InputConnState(conn_id=1)
        view.consume_upto(10)
        view.consume_upto(5)  # lower bound: no-op
        assert view.consumed_below == 11

    def test_open_above_watermark_survives_consume_upto(self):
        kernel, view = _channel(20)
        kernel.get(IN, 20)
        kernel.consume_until(IN, 10)
        assert kernel.item_state(IN, 20) is ItemState.OPEN


class TestWatermarkCompaction:
    def test_in_order_consumes_fold_into_watermark(self):
        kernel, view = _channel(*range(100))
        for ts in range(100):
            kernel.get(IN, ts)
            kernel.consume(IN, ts)
        assert view.consumed_below == 100
        assert view.consumed_explicit == set()

    def test_out_of_order_explicit_until_gap_fills(self):
        kernel, view = _channel()
        kernel.consume(IN, 2)
        kernel.consume(IN, 1)
        assert view.consumed_below == 0
        assert view.consumed_explicit == {1, 2}
        kernel.consume(IN, 0)  # fills the gap: everything folds
        assert view.consumed_below == 3
        assert view.consumed_explicit == set()


class TestLatestUnseenTracking:
    def test_last_gotten_tracks_max(self):
        kernel, view = _channel(3, 5, 9)
        assert view.last_gotten is None
        kernel.get(IN, 5)
        kernel.get(IN, 3)  # re-get of an older item doesn't move the mark
        assert view.last_gotten == 5
        kernel.get(IN, 9)
        assert view.last_gotten == 9
