"""Unit tests for the size-or-linger micro-batch coalescer."""

import pytest

from repro.cluster.batching import BatchQueue
from repro.errors import ValidationError
from repro.serving.coalescer import MicroBatchCoalescer
from repro.serving.request import PricingRequest


def req(rid, arrival, *, deadline=None, priority=0, row=0) -> PricingRequest:
    return PricingRequest(
        request_id=rid,
        kind="quote",
        arrival_s=arrival,
        deadline_s=deadline if deadline is not None else arrival + 10.0,
        rows=(row,),
        option_index=0,
        priority=priority,
    )


def coalescer(max_batch=4, linger_s=1.0) -> MicroBatchCoalescer:
    return MicroBatchCoalescer(BatchQueue(max_batch=max_batch, linger_s=linger_s))


class TestSizeTrigger:
    def test_full_queue_dispatches_immediately(self):
        c = coalescer(max_batch=3)
        assert c.offer(req(0, 0.0)) == []
        assert c.offer(req(1, 0.1)) == []
        batches = c.offer(req(2, 0.2))
        assert len(batches) == 1
        assert batches[0].formed_s == 0.2
        assert [r.request_id for r in batches[0].requests] == [0, 1, 2]
        assert c.n_pending == 0

    def test_batch_ids_increment(self):
        c = coalescer(max_batch=1, linger_s=0.0)
        ids = [c.offer(req(i, i * 0.1))[0].batch_id for i in range(3)]
        assert ids == [0, 1, 2]


class TestLingerTrigger:
    def test_oldest_request_bounds_the_wait(self):
        c = coalescer(max_batch=100, linger_s=1.0)
        c.offer(req(0, 0.0))
        c.offer(req(1, 0.5))
        # Arrival at 2.0 fires the timer that expired at 0.0 + 1.0.
        batches = c.offer(req(2, 2.0))
        assert len(batches) == 1
        assert batches[0].formed_s == 1.0
        assert [r.request_id for r in batches[0].requests] == [0, 1]
        assert c.n_pending == 1

    def test_causality_of_linger_sweep(self):
        """A linger batch formed at t only carries requests arrived by t."""
        c = coalescer(max_batch=100, linger_s=1.0)
        c.offer(req(0, 0.0))
        batches = c.offer(req(1, 1.5))  # after the timer at 1.0 fired
        batches += c.offer(req(2, 3.0))
        # Two batches: {0} at t=1.0, {1} at t=2.5 — request 1 never rides
        # the timer that expired before it arrived.
        assert [b.formed_s for b in batches] == [1.0, 2.5]
        assert [r.request_id for b in batches for r in b.requests] == [0, 1]

    def test_flush_drains_at_linger_expiry(self):
        c = coalescer(max_batch=100, linger_s=1.0)
        c.offer(req(0, 0.0))
        c.offer(req(1, 0.2))
        batches = c.flush()
        assert len(batches) == 1
        assert batches[0].formed_s == 1.0
        assert c.n_pending == 0


class TestPriorityAndDeadline:
    def test_priority_orders_the_batch(self):
        c = coalescer(max_batch=2, linger_s=1.0)
        c.offer(req(0, 0.0, priority=0))
        batches = c.offer(req(1, 0.1, priority=5))
        assert len(batches) == 1
        assert [r.request_id for r in batches[0].requests] == [1, 0]

    def test_equal_priority_keeps_arrival_order(self):
        c = coalescer(max_batch=2, linger_s=1.0)
        c.offer(req(0, 0.0, priority=1))
        batches = c.offer(req(1, 0.1, priority=1))
        assert [r.request_id for r in batches[0].requests] == [0, 1]
        assert c.n_pending == 0

    def test_expired_requests_are_shed_not_priced(self):
        c = coalescer(max_batch=100, linger_s=1.0)
        c.offer(req(0, 0.0, deadline=0.5))  # expires before the timer
        c.offer(req(1, 0.1))
        batches = c.flush()
        assert [r.request_id for r in batches[0].requests] == [1]
        assert len(c.sheds) == 1
        assert c.sheds[0].request.request_id == 0
        assert c.sheds[0].reason == "deadline"

    def test_all_expired_forms_no_batch(self):
        c = coalescer(max_batch=100, linger_s=1.0)
        c.offer(req(0, 0.0, deadline=0.5))
        assert c.flush() == []
        assert len(c.sheds) == 1


class TestOrdering:
    def test_out_of_order_offer_rejected(self):
        c = coalescer()
        c.offer(req(0, 1.0))
        with pytest.raises(ValidationError, match="arrival order"):
            c.offer(req(1, 0.5))

    def test_advance_ratchets_the_time_guard(self):
        """offer() after advance(t) cannot rewind simulated time."""
        c = coalescer(max_batch=100, linger_s=1.0)
        c.advance(10.0)
        with pytest.raises(ValidationError, match="arrival order"):
            c.offer(req(0, 5.0))

    def test_reap_sheds_expired_pending(self):
        c = coalescer(max_batch=100, linger_s=10.0)
        c.offer(req(0, 0.0, deadline=1.0))
        c.offer(req(1, 0.0, deadline=100.0))
        assert c.reap(2.0) == 1
        assert c.n_pending == 1
        assert c.sheds[0].request.request_id == 0
        assert c.sheds[0].reason == "deadline"
        # The survivor still prices normally.
        batches = c.flush()
        assert [r.request_id for r in batches[0].requests] == [1]

    def test_advance_without_due_timers_is_empty(self):
        c = coalescer(max_batch=100, linger_s=5.0)
        c.offer(req(0, 0.0))
        assert c.advance(1.0) == []
        assert c.n_pending == 1


class TestWatermark:
    """``next_expiry_s`` tracks the earliest pending deadline exactly."""

    def test_empty_coalescer_has_nothing_due(self):
        c = coalescer()
        assert c.next_expiry_s == float("inf")
        assert c.next_linger_s == float("inf")

    def test_offer_takes_the_minimum(self):
        c = coalescer(max_batch=100, linger_s=1.0)
        c.offer(req(0, 0.0, deadline=5.0))
        assert c.next_expiry_s == 5.0
        c.offer(req(1, 0.1, deadline=3.0))
        assert c.next_expiry_s == 3.0
        c.offer(req(2, 0.2, deadline=4.0))
        assert c.next_expiry_s == 3.0
        assert c.next_linger_s == 1.0

    def test_size_trigger_empties_the_watermark(self):
        c = coalescer(max_batch=2, linger_s=1.0)
        c.offer(req(0, 0.0, deadline=9.0))
        batches = c.offer(req(1, 0.1, deadline=2.0, priority=5))
        assert [r.request_id for r in batches[0].requests] == [1, 0]
        assert c.n_pending == 0
        assert c.next_expiry_s == float("inf")

    def test_form_recomputes_over_what_stays_pending(self):
        # The earliest deadline (request 1) leaves in the linger batch at
        # 1.0; request 2 arrived after that timer and stays pending, so
        # the watermark rises to its deadline.
        c = coalescer(max_batch=100, linger_s=1.0)
        c.offer(req(0, 0.0, deadline=9.0))
        c.offer(req(1, 0.1, deadline=1.5))
        assert c.next_expiry_s == 1.5
        batches = c.offer(req(2, 1.2, deadline=4.0))
        assert [b.formed_s for b in batches] == [1.0]
        assert [r.request_id for r in batches[0].requests] == [0, 1]
        assert c.n_pending == 1
        assert c.next_expiry_s == 4.0
        assert c.next_linger_s == 2.2

    def test_reap_recomputes(self):
        c = coalescer(max_batch=100, linger_s=10.0)
        c.offer(req(0, 0.0, deadline=1.0))
        c.offer(req(1, 0.0, deadline=6.0))
        c.offer(req(2, 0.0, deadline=4.0))
        assert c.reap(2.0) == 1
        assert c.next_expiry_s == 4.0

    def test_flush_empties_the_watermark(self):
        c = coalescer(max_batch=100, linger_s=1.0)
        c.offer(req(0, 0.0, deadline=0.5))
        c.offer(req(1, 0.2, deadline=3.0))
        c.flush()
        assert c.n_pending == 0
        assert c.next_expiry_s == float("inf")
        assert c.next_linger_s == float("inf")

    def test_reap_below_the_watermark_is_a_no_op(self):
        c = coalescer(max_batch=100, linger_s=10.0)
        c.offer(req(0, 0.0, deadline=2.0))
        c.offer(req(1, 0.5, deadline=3.0))
        assert c.reap(1.999) == 0
        assert c.n_pending == 2
        assert c.n_sheds == 0 and c.sheds == ()

    def test_reap_at_the_watermark_sheds_in_pending_order(self):
        c = coalescer(max_batch=100, linger_s=10.0)
        c.offer(req(0, 0.0, deadline=3.0))
        c.offer(req(1, 0.1, deadline=2.0))
        c.offer(req(2, 0.2, deadline=9.0))
        c.offer(req(3, 0.3, deadline=3.0))
        assert c.reap(3.0) == 3
        assert [s.request.request_id for s in c.sheds] == [0, 1, 3]
        assert {s.time_s for s in c.sheds} == {3.0}
        assert c.next_expiry_s == 9.0

    def test_iter_sheds_reads_the_log_from_an_index(self):
        c = coalescer(max_batch=100, linger_s=10.0)
        for i in range(3):
            c.offer(req(i, 0.0, deadline=1.0 + i))
        c.reap(2.0)
        assert c.n_sheds == 2
        assert list(c.iter_sheds()) == list(c.sheds)
        assert [s.request.request_id for s in c.iter_sheds(1)] == [1]
        assert list(c.iter_sheds(2)) == []

    def test_out_of_order_offer_raises_after_skipped_ticks(self):
        """Skipping ``advance`` on idle ticks leaves the time guard on the
        last offered arrival, which still rejects a rewind."""
        c = coalescer(max_batch=100, linger_s=10.0)
        c.offer(req(0, 1.0))
        for now in (1.5, 2.0, 2.5):  # ticks with nothing due
            assert c.next_linger_s > now and c.next_expiry_s > now
        with pytest.raises(ValidationError, match="arrival order"):
            c.offer(req(1, 0.5))
