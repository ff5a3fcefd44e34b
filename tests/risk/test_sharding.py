"""Unit tests for scenario-grid sharding and the cluster timing roll-up."""

import json

import pytest

from repro.cli import main
from repro.cluster.batching import BatchQueue
from repro.cluster.interconnect import HostLinkModel
from repro.errors import ValidationError
from repro.faults import FaultPlan
from repro.risk.sharding import (
    FaultedClusterTiming,
    shard_scenarios,
    simulate_grid_run,
)
from repro.telemetry import Telemetry


class TestShardScenarios:
    def test_partition_is_exact(self):
        assignment = shard_scenarios(17, 4)
        seen = sorted(i for chunk in assignment for i in chunk)
        assert seen == list(range(17))

    def test_uniform_costs_balance(self):
        assignment = shard_scenarios(16, 4)
        assert [len(c) for c in assignment] == [4, 4, 4, 4]

    def test_more_cards_than_scenarios(self):
        assignment = shard_scenarios(2, 5)
        assert sum(1 for c in assignment if c) == 2

    def test_policies_all_work(self):
        for policy in ("round-robin", "least-loaded", "work-stealing"):
            assignment = shard_scenarios(9, 3, policy)
            assert sum(len(c) for c in assignment) == 9

    def test_chunks_sorted(self):
        for chunk in shard_scenarios(20, 3, "work-stealing"):
            assert chunk == sorted(chunk)

    def test_bad_counts(self):
        with pytest.raises(ValidationError):
            shard_scenarios(0, 2)
        with pytest.raises(ValidationError):
            shard_scenarios(4, 0)


class TestSimulateGridRun:
    @pytest.fixture
    def grid(self, risk_scenario, book):
        assignment = shard_scenarios(12, 3)
        return assignment, book.options, risk_scenario

    def test_rollup_shape(self, grid, risk_scenario):
        assignment, options, sc = grid
        timing = simulate_grid_run(
            assignment,
            options,
            sc.yield_curve(),
            sc.hazard_curve(),
            scenario=sc,
            policy="least-loaded",
        )
        assert timing.n_scenarios == 12
        assert timing.n_positions == len(options)
        assert timing.n_cards == 3
        assert timing.n_active_cards == 3
        assert timing.repricings_per_second > 0
        assert timing.total_watts > 0
        assert len(timing.cards) == 3
        assert "repricings/s" in timing.summary()

    def test_busy_time_proportional_to_scenarios(self, grid):
        assignment, options, sc = grid
        timing = simulate_grid_run(
            assignment,
            options,
            sc.yield_curve(),
            sc.hazard_curve(),
            scenario=sc,
            policy="least-loaded",
        )
        for shard in timing.cards:
            assert shard.seconds == pytest.approx(
                shard.n_scenarios * timing.batch_seconds
            )

    def test_idle_cards_draw_shell_power(self, risk_scenario, book):
        assignment = shard_scenarios(2, 4)
        timing = simulate_grid_run(
            assignment,
            book.options,
            risk_scenario.yield_curve(),
            risk_scenario.hazard_curve(),
            scenario=risk_scenario,
            policy="least-loaded",
        )
        idle = [s for s in timing.cards if s.idle]
        active = [s for s in timing.cards if not s.idle]
        assert len(idle) == 2
        assert all(s.watts < active[0].watts for s in idle)
        assert all(s.utilisation == 0.0 for s in idle)

    def test_batch_queue_caps_dispatch_size(self, risk_scenario, book):
        assignment = shard_scenarios(10, 1)
        timing = simulate_grid_run(
            assignment,
            book.options,
            risk_scenario.yield_curve(),
            risk_scenario.hazard_curve(),
            scenario=risk_scenario,
            policy="least-loaded",
            queue=BatchQueue(max_batch=3),
        )
        assert timing.dispatches == 4  # ceil(10 / 3)

    def test_ideal_link_scales_with_cards(self, risk_scenario, book):
        """With an ideal host link, 4 cards cut the makespan 4x."""
        link = HostLinkModel(host_contention=0.0, dispatch_latency_s=0.0)
        yc, hc = risk_scenario.yield_curve(), risk_scenario.hazard_curve()
        runs = {
            cards: simulate_grid_run(
                shard_scenarios(16, cards),
                book.options,
                yc,
                hc,
                scenario=risk_scenario,
                policy="least-loaded",
                link=link,
            )
            for cards in (1, 4)
        }
        speedup = (
            runs[4].repricings_per_second / runs[1].repricings_per_second
        )
        assert speedup == pytest.approx(4.0, rel=1e-6)

    def test_empty_inputs_rejected(self, risk_scenario, book):
        yc, hc = risk_scenario.yield_curve(), risk_scenario.hazard_curve()
        with pytest.raises(ValidationError):
            simulate_grid_run(
                [[0]], [], yc, hc, scenario=risk_scenario, policy="x"
            )
        with pytest.raises(ValidationError):
            simulate_grid_run(
                [], book.options, yc, hc, scenario=risk_scenario, policy="x"
            )


class TestFaultedGridRun:
    """The failure-aware grid walk: re-partition on crash, straggler
    inflation, conservation, zero-fault identity."""

    def _run(self, risk_scenario, book, spec, *, n_scenarios=40, n_cards=4,
             seed=7, telemetry=None):
        assignment = shard_scenarios(n_scenarios, n_cards)
        return simulate_grid_run(
            assignment,
            book.options,
            risk_scenario.yield_curve(),
            risk_scenario.hazard_curve(),
            scenario=risk_scenario,
            policy="least-loaded",
            telemetry=telemetry,
            faults=FaultPlan.from_spec(spec, seed=seed) if spec else None,
        )

    def test_empty_plan_identity(self, risk_scenario, book):
        from repro.faults import FaultPlan
        from repro.risk.sharding import FaultedClusterTiming

        assignment = shard_scenarios(40, 4)
        kw = dict(scenario=risk_scenario, policy="least-loaded")
        yc, hc = risk_scenario.yield_curve(), risk_scenario.hazard_curve()
        legacy = simulate_grid_run(assignment, book.options, yc, hc, **kw)
        empty = simulate_grid_run(
            assignment, book.options, yc, hc, faults=FaultPlan(), **kw
        )
        assert empty == legacy
        assert not isinstance(empty, FaultedClusterTiming)

    def test_crash_with_repair_repartitions(self, risk_scenario, book):
        timing = self._run(
            risk_scenario, book, "crash:card=1,at=0.0005,repair=0.0005"
        )
        assert isinstance(timing, FaultedClusterTiming)
        assert timing.n_repartitions == 1
        assert timing.n_rescheduled > 0
        assert timing.n_failed_scenarios == 0
        assert timing.wasted_seconds >= 0.0

    def test_all_cards_dead_fails_remainder(self, risk_scenario, book):
        timing = self._run(
            risk_scenario, book, "correlated:cards=0+1,at=0.0002",
            n_cards=2, n_scenarios=24,
        )
        assert timing.n_failed_scenarios > 0
        assert timing.n_failed_scenarios <= 24

    def test_straggler_grows_makespan(self, risk_scenario, book):
        base = self._run(risk_scenario, book, "")
        slowed = self._run(
            risk_scenario, book, "slow:card=0,at=0.0,for=0.01,factor=4"
        )
        assert slowed.makespan_seconds > base.makespan_seconds

    def test_deterministic(self, risk_scenario, book):
        spec = "crash:card=2,at=0.0004,repair=0.0005"
        assert self._run(risk_scenario, book, spec) == self._run(
            risk_scenario, book, spec
        )

    def test_spec_carried_in_rollup(self, risk_scenario, book):
        spec = "crash:card=1,at=0.0005,repair=0.0005"
        timing = self._run(risk_scenario, book, spec)
        assert timing.fault_spec == spec

    def test_crash_mid_run_counts_completed_work(self, capsys):
        """Scenarios a card finished before it crashed stay in the
        makespan: a correlated crash can only lower throughput."""

        def risk_json(*extra):
            assert main(["risk", "--cards", "2", "--scenarios", "200",
                         *extra, "--json"]) == 0
            return json.loads(capsys.readouterr().out)["timing"]

        clean = risk_json()
        faulted = risk_json("--faults", "correlated:cards=0+1,at=0.002")
        assert faulted["n_failed_scenarios"] > 0
        assert (
            sum(c["n_scenarios"] for c in faulted["cards"])
            + faulted["n_failed_scenarios"]
            == faulted["n_scenarios"]
        )
        assert all(c["utilisation"] <= 1.0 for c in faulted["cards"])
        assert faulted["makespan_seconds"] >= 0.002
        assert (
            faulted["repricings_per_second"] < clean["repricings_per_second"]
        )

    def test_wasted_window_ends_the_makespan(self, risk_scenario, book):
        """A card that dies mid-scenario is busy up to the crash: the
        makespan counts the wasted window, not just completed work."""
        base = self._run(risk_scenario, book, "", n_cards=1, n_scenarios=10)
        b = base.batch_seconds
        crash_at = 5.5 * b
        timing = self._run(
            risk_scenario, book, f"crash:card=0,at={crash_at!r}",
            n_cards=1, n_scenarios=10,
        )
        assert timing.cards[0].n_scenarios == 5
        assert timing.n_failed_scenarios == 5
        assert timing.wasted_seconds == pytest.approx(0.5 * b)
        assert timing.cards[0].seconds == pytest.approx(crash_at)
        assert timing.makespan_seconds == pytest.approx(
            crash_at + HostLinkModel().dispatch_seconds(timing.dispatches)
        )
        assert 0.0 < timing.cards[0].utilisation <= 1.0

    def test_faults_after_the_run_change_nothing(self, risk_scenario, book):
        clean = self._run(risk_scenario, book, "")
        late = self._run(risk_scenario, book, "crash:card=1,at=1.0")
        assert isinstance(late, FaultedClusterTiming)
        assert late.cards == clean.cards
        assert late.makespan_seconds == clean.makespan_seconds
        assert late.dispatches == clean.dispatches
        assert late.repricings_per_second == clean.repricings_per_second
        assert (late.n_failed_scenarios, late.n_repartitions) == (0, 0)
        assert late.wasted_seconds == 0.0

    def test_busy_runs_stop_at_fault_boundaries(self, risk_scenario, book):
        """Nominal-speed work is one closed-form run; a straggler window
        only stretches the scenarios that overlap it."""
        base = self._run(risk_scenario, book, "", n_cards=1, n_scenarios=10)
        b = base.batch_seconds
        telemetry = Telemetry.recording()
        slowed = self._run(
            risk_scenario, book,
            f"slow:card=0,at={4.5 * b!r},for={3 * b!r},factor=3",
            n_cards=1, n_scenarios=10, telemetry=telemetry,
        )
        assert slowed.cards[0].n_scenarios == 10
        # Four scenarios fit before the window opens, two overlap it and
        # step alone, and the last four run after it in one window.
        assert [s.args["scenarios"] for s in telemetry.spans] == [4, 1, 1, 4]
        # The window's three quanta of wall time absorb one quantum of
        # work, so the card is busy two quanta longer.
        assert slowed.cards[0].seconds == pytest.approx(12 * b)
        assert slowed.makespan_seconds - base.makespan_seconds == (
            pytest.approx(2 * b)
        )


class TestGridTelemetry:
    """Faulted and fault-free grid runs publish the same telemetry."""

    def _run(self, risk_scenario, book, plan):
        telemetry = Telemetry.recording()
        timing = simulate_grid_run(
            shard_scenarios(24, 2),
            book.options,
            risk_scenario.yield_curve(),
            risk_scenario.hazard_curve(),
            scenario=risk_scenario,
            policy="least-loaded",
            telemetry=telemetry,
            faults=plan,
        )
        return timing, telemetry

    def test_both_modes_publish_grid_metrics_and_shard_spans(
        self, risk_scenario, book
    ):
        clean, clean_tel = self._run(risk_scenario, book, FaultPlan())
        crash_at = 5.5 * clean.batch_seconds
        faulted, fault_tel = self._run(
            risk_scenario, book,
            FaultPlan.from_spec(f"crash:card=1,at={crash_at!r}"),
        )
        clean_names = set(clean_tel.metrics.names())
        assert {n for n in clean_names if n.startswith("risk_grid_")} == (
            clean_names
        )
        assert "risk_grid_wasted_seconds" not in clean_names
        assert clean_names < set(fault_tel.metrics.names())

        for timing, telemetry in ((clean, clean_tel), (faulted, fault_tel)):
            metrics = telemetry.metrics
            completed = sum(c.n_scenarios for c in timing.cards)
            assert metrics.get("risk_grid_scenarios_total").value == completed
            assert metrics.get("risk_grid_makespan_seconds").value == (
                timing.makespan_seconds
            )
            shards = [s for s in telemetry.spans if s.name == "scenario_shard"]
            assert sum(s.args["scenarios"] for s in shards) == completed
            assert sum(
                s.args["dispatches"] for s in telemetry.spans
            ) <= timing.dispatches
            assert {s.kind for s in telemetry.spans} == {"grid"}

        assert not [s for s in clean_tel.spans if s.name != "scenario_shard"]
        (wasted,) = [s for s in fault_tel.spans if s.name == "scenario_wasted"]
        assert wasted.track == "card1"
        assert wasted.end_s == crash_at
        assert wasted.end_s - wasted.start_s == pytest.approx(
            faulted.wasted_seconds
        )
        assert fault_tel.metrics.get("risk_grid_wasted_seconds").value == (
            faulted.wasted_seconds
        )
        assert faulted.n_rescheduled == 12 - 5
