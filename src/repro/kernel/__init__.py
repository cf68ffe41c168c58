"""Simulation kernel: event-driven scheduler and 2-step cycle engine.

The method-based AHB+ TLM needs no kernel: it advances its own cycle
counter from transaction boundary to transaction boundary.  The
thread-based TLM and the §4 kernel comparison run on :class:`Simulator`
(sparse, per-transaction events over a *bucketed* :class:`EventQueue`
— one heap entry per distinct timestamp, FIFO deques within it); the
pin-accurate RTL reference runs on :class:`CycleEngine` (per-cycle
evaluate/update with registered *sensitivity lists*, so only
combinational processes whose inputs changed re-evaluate).  Both
count time in integer bus cycles so accuracy comparisons are exact, and
both are observably equivalent to their naive full-sweep forms — see
the module docstrings of :mod:`repro.kernel.events` and
:mod:`repro.kernel.cycle`.
"""

from repro.kernel.cycle import (
    CombHandle,
    CycleEngine,
    MAX_SETTLE_ITERATIONS,
    NULL_SEQ_HANDLE,
    SeqHandle,
)
from repro.kernel.events import Event, EventQueue
from repro.kernel.process import ThreadProcess, WaitCycles, WaitEvent
from repro.kernel.signal import Signal, SignalBundle
from repro.kernel.simulator import Simulator
from repro.kernel.tracing import VcdTracer

__all__ = [
    "CombHandle",
    "CycleEngine",
    "Event",
    "EventQueue",
    "MAX_SETTLE_ITERATIONS",
    "NULL_SEQ_HANDLE",
    "SeqHandle",
    "Signal",
    "SignalBundle",
    "Simulator",
    "ThreadProcess",
    "VcdTracer",
    "WaitCycles",
    "WaitEvent",
]
