"""Tests for repro.kernel.simulator."""

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.kernel.simulator import Simulator


class TestSimulator:
    def test_runs_actions_in_time_order(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(5, lambda: seen.append(sim.now))
        sim.schedule_after(2, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2, 5]

    def test_now_starts_at_zero(self):
        assert Simulator().now == 0

    def test_schedule_in_past_raises(self):
        sim = Simulator()
        sim.schedule_at(10, lambda: None)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.schedule_at(5, lambda: None)

    def test_negative_delay_raises(self):
        with pytest.raises(SchedulingError):
            Simulator().schedule_after(-1, lambda: None)

    def test_run_until_leaves_later_events_queued(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(3, lambda: seen.append(3))
        sim.schedule_at(30, lambda: seen.append(30))
        sim.run(until=10)
        assert seen == [3]
        assert sim.now == 10
        assert sim.pending == 1

    def test_actions_can_schedule_more_actions(self):
        sim = Simulator()
        seen = []

        def chain():
            seen.append(sim.now)
            if sim.now < 5:
                sim.schedule_after(1, chain)

        sim.schedule_at(0, chain)
        sim.run()
        assert seen == [0, 1, 2, 3, 4, 5]

    def test_stop_halts_run(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(1, lambda: (seen.append(1), sim.stop()))
        sim.schedule_at(2, lambda: seen.append(2))
        sim.run()
        assert seen == [1]

    def test_reset(self):
        sim = Simulator()
        sim.schedule_at(4, lambda: None)
        sim.run()
        sim.reset()
        assert sim.now == 0
        assert sim.pending == 0

    def test_zero_delay_runs_same_cycle(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(3, lambda: sim.schedule_after(0, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [3]

