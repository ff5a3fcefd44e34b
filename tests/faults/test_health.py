"""ClusterHealth: the pure availability oracle over a fault plan."""

from __future__ import annotations

import math

import pytest

from repro.errors import ValidationError
from repro.faults import ClusterHealth, FaultPlan
from repro.sim import Resource, Simulation


def health(spec: str, n_cards: int = 4) -> ClusterHealth:
    return ClusterHealth(FaultPlan.from_spec(spec), n_cards)


class TestAvailability:
    def test_down_window_half_open(self):
        h = health("crash:card=1,at=0.1,repair=0.1")
        assert not h.card_down(1, 0.099)
        assert h.card_down(1, 0.1)
        assert h.card_down(1, 0.19)
        assert not h.card_down(1, 0.2)

    def test_permanent_crash_never_recovers(self):
        h = health("crash:card=0,at=0.5")
        assert h.card_down(0, 1e9)
        assert math.isinf(h.card_up_at(0, 0.5))

    def test_healthy_cards(self):
        h = health("crash:card=1,at=0.1,repair=0.1;crash:card=3,at=0.1,repair=0.1")
        assert h.healthy_cards(0.05) == (0, 1, 2, 3)
        assert h.healthy_cards(0.15) == (0, 2)
        assert h.capacity_reduced(0.15)
        assert not h.capacity_reduced(0.25)

    def test_plan_validated_against_cluster(self):
        with pytest.raises(ValidationError):
            health("crash:card=5,at=0.1", n_cards=4)


class TestCrashDuring:
    def test_mid_window_crash_detected(self):
        h = health("crash:card=2,at=0.5,repair=0.1")
        assert h.crash_during(2, 0.4, 0.6) == 0.5
        assert h.crash_during(2, 0.6, 0.7) is None  # window after crash
        assert h.crash_during(2, 0.2, 0.3) is None  # window before crash
        # Crash exactly at the window start is the reservation layer's
        # concern (start pushed past downtime), not a mid-flight death.
        assert h.crash_during(2, 0.5, 0.6) is None


class TestServiceFactor:
    def test_no_slowdown_is_unity(self):
        h = health("crash:card=0,at=1.0")
        assert h.service_factor(1, 0.0, 1.0) == 1.0

    def test_fully_inside_window(self):
        h = health("slow:card=1,at=0.0,for=10.0,factor=3")
        assert h.service_factor(1, 1.0, 2.0) == pytest.approx(3.0)

    def test_fully_outside_window(self):
        h = health("slow:card=1,at=5.0,for=1.0,factor=3")
        assert h.service_factor(1, 0.0, 1.0) == 1.0

    def test_partial_overlap_blends(self):
        # 1s nominal starting 0.5 before a factor-3 window that absorbs
        # the rest: 0.5 nominal + 0.5 * 3 stretched = 2.0 elapsed.
        h = health("slow:card=0,at=0.5,for=10.0,factor=3")
        assert h.service_factor(0, 0.0, 1.0) == pytest.approx(2.0)

    def test_window_exhausted_mid_service(self):
        # Factor-2 window [0, 1) absorbs 0.5 nominal in 1.0 elapsed;
        # remaining 0.5 nominal runs at speed → elapsed 1.5, factor 1.5.
        h = health("slow:card=0,at=0.0,for=1.0,factor=2")
        assert h.service_factor(0, 0.0, 1.0) == pytest.approx(1.5)

    def test_zero_service_is_unity(self):
        h = health("slow:card=0,at=0.0,for=1.0,factor=2")
        assert h.service_factor(0, 0.0, 0.0) == 1.0


class TestNominalUntil:
    def test_empty_plan_has_no_boundary(self):
        assert math.isinf(ClusterHealth(FaultPlan(), 2).nominal_until(0, 0.0))

    def test_next_crash_or_straggler_start(self):
        h = health(
            "crash:card=1,at=0.5,repair=0.1;slow:card=1,at=0.3,for=0.1,factor=2"
        )
        assert h.nominal_until(1, 0.0) == 0.3
        assert h.nominal_until(1, 0.35) == 0.35  # inside the slow window
        assert h.nominal_until(1, 0.4) == 0.5
        assert math.isinf(h.nominal_until(1, 0.6))  # every window is past
        assert math.isinf(h.nominal_until(0, 0.0))  # other cards unaffected

    def test_permanent_crash_is_a_boundary_forever(self):
        h = health("crash:card=0,at=0.2")
        assert h.nominal_until(0, 0.1) == 0.2
        assert h.nominal_until(0, 0.2) == 0.2
        assert h.nominal_until(0, 7.0) == 7.0  # never repaired

    def test_repaired_outage_then_straggler(self):
        h = health(
            "crash:card=2,at=0.1,repair=0.05;slow:card=2,at=0.3,for=0.1,factor=2"
        )
        assert h.nominal_until(2, 0.0) == 0.1
        assert h.nominal_until(2, 0.12) == 0.12  # inside the outage
        assert h.nominal_until(2, 0.2) == 0.3  # repaired, before the window
        assert math.isinf(h.nominal_until(2, 0.4))  # slow window is half-open


class TestLink:
    def test_link_factor_window(self):
        h = health("link:at=0.1,for=0.1,factor=2.5")
        assert h.link_factor(0.05) == 1.0
        assert h.link_factor(0.15) == 2.5
        assert h.link_factor(0.25) == 1.0

    def test_link_outage_blocks(self):
        h = health("linkout:at=0.1,for=0.05")
        assert h.link_blocked_until(0.12) == pytest.approx(0.15)
        assert h.link_blocked_until(0.2) == 0.2


class TestEnvelope:
    def test_fault_envelope(self):
        h = health("crash:card=0,at=0.3,repair=0.1;slow:card=1,at=0.1,for=0.05,factor=2")
        assert h.first_fault_s() == 0.1
        assert h.last_fault_end_s() == pytest.approx(0.4)

    def test_empty_plan_envelope(self):
        h = ClusterHealth(FaultPlan(), 2)
        assert math.isinf(h.first_fault_s())
        assert h.last_fault_end_s() == 0.0


class TestApplyDowntime:
    def test_reservations_pushed_past_outage(self):
        h = health("crash:card=0,at=1.0,repair=1.0", n_cards=1)
        sim = Simulation()
        card = Resource("card0", sim=sim)
        h.apply_downtime([card])
        # A start landing inside the outage is pushed to the repair
        # instant; windows *straddling* the crash are the dispatcher's
        # concern (crash_during), not the reservation layer's.
        assert card.peek_start(1.2) == pytest.approx(2.0)
        window = card.reserve(1.5, 0.5)
        assert window.start_s == pytest.approx(2.0)
        assert card.peek_start(2.2) == pytest.approx(2.5)  # busy_until wins
