"""Tests for the discrete-event engine."""

import pytest

from repro.simcluster.events import DiscreteEventSimulator


class TestScheduling:
    def test_fires_in_time_order(self):
        sim = DiscreteEventSimulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append("b"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.run()
        assert fired == ["a", "b"]
        assert sim.now == 5.0

    def test_ties_break_by_insertion_order(self):
        sim = DiscreteEventSimulator()
        fired = []
        for tag in "abc":
            sim.schedule(2.0, lambda t=tag: fired.append(t))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_schedule_at_absolute(self):
        sim = DiscreteEventSimulator()
        sim.schedule_at(10.0, lambda: None)
        sim.run()
        assert sim.now == 10.0

    def test_negative_delay_rejected(self):
        sim = DiscreteEventSimulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_nan_delay_rejected(self):
        # A NaN delay used to pass the ``delay < 0`` check, fire out of
        # order ([1.0, 2.0, nan, 3.0] for 3, nan, 1, 2) and leave the
        # clock at NaN, so every later virtual time was NaN.
        sim = DiscreteEventSimulator()
        fired = []
        for delay in (3.0, 1.0, 2.0):
            sim.schedule(delay, lambda d=delay: fired.append(d))
        with pytest.raises(ValueError, match="delay must be >= 0, got nan"):
            sim.schedule(float("nan"), lambda: fired.append("nan"))
        sim.run()
        assert fired == [1.0, 2.0, 3.0]
        assert sim.now == 3.0

    def test_nan_time_rejected(self):
        sim = DiscreteEventSimulator()
        with pytest.raises(ValueError, match="past"):
            sim.schedule_at(float("nan"), lambda: None)
        with pytest.raises(ValueError):
            sim.advance_to(float("nan"))
        assert sim.now == 0.0 and sim.pending_events == 0

    def test_schedule_in_past_rejected(self):
        sim = DiscreteEventSimulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError, match="past"):
            sim.schedule_at(1.0, lambda: None)

    def test_events_can_schedule_events(self):
        sim = DiscreteEventSimulator()
        fired = []
        sim.schedule(1.0, lambda: sim.schedule(1.0, lambda: fired.append(sim.now)))
        sim.run()
        assert fired == [2.0]


class TestCancellation:
    def test_cancelled_event_skipped(self):
        sim = DiscreteEventSimulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append("x"))
        handle.cancel()
        sim.run()
        assert fired == []
        assert sim.pending_events == 0

    def test_cancel_releases_action(self):
        sim = DiscreteEventSimulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        assert handle.action is None


class TestRunControl:
    def test_run_until(self):
        sim = DiscreteEventSimulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        sim.run()
        assert fired == [1, 10]

    def test_step_returns_false_when_empty(self):
        assert DiscreteEventSimulator().step() is False

    def test_max_events_guard(self):
        sim = DiscreteEventSimulator()

        def reschedule():
            sim.schedule(1.0, reschedule)

        sim.schedule(1.0, reschedule)
        with pytest.raises(RuntimeError, match="max_events"):
            sim.run(max_events=100)

    def test_advance_to(self):
        sim = DiscreteEventSimulator()
        sim.advance_to(3.0)
        assert sim.now == 3.0
        with pytest.raises(ValueError):
            sim.advance_to(1.0)

    def test_processed_counter(self):
        sim = DiscreteEventSimulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.processed_events == 2
