"""Unit tests for the host-side batching queue."""

import pytest

from repro.cluster import BatchQueue
from repro.core.types import CDSOption
from repro.errors import ValidationError
from repro.workloads.cluster import Arrival, make_burst_arrivals


def opt(maturity=5.0):
    return CDSOption(maturity=maturity, frequency=4, recovery_rate=0.4)


class TestBatchQueue:
    def test_validation(self):
        with pytest.raises(ValidationError):
            BatchQueue(max_batch=0)
        with pytest.raises(ValidationError):
            BatchQueue(linger_s=-1.0)

    def test_size_trigger(self):
        q = BatchQueue(max_batch=2, linger_s=10.0)
        batches = q.coalesce([Arrival(0.0, [opt()] * 5)])
        assert [b.n_options for b in batches] == [2, 2, 1]
        # Full batches dispatch at the arrival that filled them.
        assert batches[0].dispatch_time_s == 0.0

    def test_linger_trigger(self):
        q = BatchQueue(max_batch=100, linger_s=1e-3)
        batches = q.coalesce(
            [Arrival(0.0, [opt()]), Arrival(5e-3, [opt()])]
        )
        assert len(batches) == 2
        assert batches[0].dispatch_time_s == pytest.approx(1e-3)
        assert batches[1].dispatch_time_s == pytest.approx(5e-3 + 1e-3)

    def test_every_request_dispatched_once(self):
        arrivals = make_burst_arrivals(5, mean_batch=6, seed=9)
        total = sum(a.n_options for a in arrivals)
        q = BatchQueue(max_batch=8, linger_s=1e-3)
        batches = q.coalesce(arrivals)
        assert sum(b.n_options for b in batches) == total

    def test_unsorted_arrivals(self):
        q = BatchQueue(max_batch=100, linger_s=1e-3)
        batches = q.coalesce(
            [Arrival(5e-3, [opt()]), Arrival(0.0, [opt()])]
        )
        assert batches[0].arrival_times == [0.0]


class TestArrival:
    def test_validation(self):
        with pytest.raises(ValidationError):
            Arrival(-1.0, [opt()])
        with pytest.raises(ValidationError):
            Arrival(0.0, [])
