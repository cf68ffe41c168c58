"""Thread-based process shell over the event-driven Simulator.

Section 4 of the paper notes that the AHB+ TLM uses *method-based*
modeling rather than *thread-based* modeling "to increase simulation
speed".  The method-based bus (:class:`~repro.core.bus.AhbPlusBusTlm`)
needs no kernel at all: it advances its own cycle counter.  The
thread-based comparison engine runs its masters and bus as
:class:`ThreadProcess` generators that ``yield`` wait requests; each
resume costs a generator frame switch, mirroring the ``sc_thread``
overhead the paper avoided.  Threads schedule on integer cycle time and
may wait on :class:`~repro.kernel.events.Event` objects.
"""

from __future__ import annotations

from typing import Generator, Optional, Union

from repro.errors import SimulationError
from repro.kernel.events import Event
from repro.kernel.simulator import Simulator


class WaitCycles:
    """Yielded by a thread process to sleep for a number of cycles."""

    __slots__ = ("cycles",)

    def __init__(self, cycles: int) -> None:
        if cycles < 0:
            raise SimulationError(f"cannot wait a negative cycle count {cycles}")
        self.cycles = cycles


class WaitEvent:
    """Yielded by a thread process to block until *event* fires."""

    __slots__ = ("event",)

    def __init__(self, event: Event) -> None:
        self.event = event


WaitRequest = Union[WaitCycles, WaitEvent]
ThreadBody = Generator[WaitRequest, None, None]


class ThreadProcess:
    """Generator-style process: ``yield WaitCycles(n)`` / ``WaitEvent(e)``.

    The generator is resumed by the kernel each time its wait completes.
    When the generator returns, :attr:`finished` becomes true.
    """

    def __init__(self, sim: Simulator, name: str, body: ThreadBody) -> None:
        self.sim = sim
        self.name = name
        self._body = body
        self.finished = False
        self.resumes = 0
        self._waiting_event: Optional[Event] = None

    def start(self, delay: int = 0) -> None:
        """Schedule the first resume *delay* cycles from now."""
        self.sim.schedule_after(delay, self._resume)

    def _resume(self) -> None:
        if self.finished:
            return
        self.resumes += 1
        try:
            request = next(self._body)
        except StopIteration:
            self.finished = True
            return
        self._arm(request)

    def _arm(self, request: WaitRequest) -> None:
        if isinstance(request, WaitCycles):
            self.sim.schedule_after(request.cycles, self._resume)
        elif isinstance(request, WaitEvent):
            self._waiting_event = request.event
            request.event.subscribe(self._resume_once)
        else:
            raise SimulationError(
                f"thread {self.name} yielded unsupported request {request!r}"
            )

    def _resume_once(self) -> None:
        event = self._waiting_event
        if event is not None:
            event.unsubscribe(self._resume_once)
            self._waiting_event = None
        self._resume()
