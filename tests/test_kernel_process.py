"""Tests for the thread process shell and the VCD tracer."""

import pytest

from repro.errors import SimulationError
from repro.kernel.cycle import CycleEngine
from repro.kernel.events import Event
from repro.kernel.process import ThreadProcess, WaitCycles, WaitEvent
from repro.kernel.signal import Signal
from repro.kernel.simulator import Simulator
from repro.kernel.tracing import VcdTracer


class TestThreadProcess:
    def test_wait_cycles(self):
        sim = Simulator()
        seen = []

        def body():
            seen.append(sim.now)
            yield WaitCycles(5)
            seen.append(sim.now)

        thread = ThreadProcess(sim, "t", body())
        thread.start()
        sim.run()
        assert seen == [0, 5]
        assert thread.finished

    def test_wait_event(self):
        sim = Simulator()
        event = Event()
        seen = []

        def body():
            yield WaitEvent(event)
            seen.append(sim.now)

        ThreadProcess(sim, "t", body()).start()
        sim.schedule_at(9, event.notify)
        sim.run()
        assert seen == [9]

    def test_bad_yield_raises(self):
        sim = Simulator()

        def body():
            yield 42

        ThreadProcess(sim, "t", body()).start()
        with pytest.raises(SimulationError):
            sim.run()

    def test_resume_count(self):
        sim = Simulator()

        def body():
            yield WaitCycles(1)
            yield WaitCycles(1)

        thread = ThreadProcess(sim, "t", body())
        thread.start()
        sim.run()
        assert thread.resumes == 3  # initial + two wakes

    def test_negative_wait_rejected(self):
        with pytest.raises(SimulationError):
            WaitCycles(-1)


class TestVcdTracer:
    def _traced_engine(self):
        engine = CycleEngine()
        sig = Signal("count", width=8)
        engine.add_signal(sig)
        engine.add_sequential(lambda: sig.drive_next(sig.value + 1))
        tracer = VcdTracer()
        tracer.add_signals([sig])
        engine.add_cycle_hook(tracer.sample)
        return engine, tracer

    def test_header_and_changes(self):
        engine, tracer = self._traced_engine()
        engine.run(3)
        text = tracer.getvalue()
        assert "$enddefinitions" in text
        assert "$var wire 8" in text
        assert tracer.change_count >= 3

    def test_no_duplicate_emissions_for_static_signal(self):
        engine = CycleEngine()
        sig = Signal("static", width=8, reset=5)
        engine.add_signal(sig)
        engine.add_sequential(lambda: None)
        tracer = VcdTracer()
        tracer.add_signals([sig])
        engine.add_cycle_hook(tracer.sample)
        engine.run(5)
        assert tracer.change_count == 1  # initial dump only

    def test_cannot_add_after_start(self):
        engine, tracer = self._traced_engine()
        engine.run(1)
        with pytest.raises(RuntimeError):
            tracer.add_signals([Signal("late")])
