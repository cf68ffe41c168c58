"""Discrete-event simulation scheduler.

The thread-based TLM (:class:`~repro.core.threaded.ThreadedAhbPlusBus`)
and the §4 event-driven kernel comparison run on it: components
schedule callbacks at future cycle counts and the simulator executes
them in time order.  Time is an integer number of bus clock
cycles — the library never uses floating-point time, which keeps
RTL-vs-TLM cycle comparisons exact.

The scheduler is intentionally minimal: the paper's speed advantage of
TLM over RTL comes precisely from the fact that a transaction-level
model touches the scheduler a handful of times per *transaction*, while
a pin-accurate model does work every *cycle*.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import SchedulingError, SimulationError
from repro.kernel.events import Action, EventQueue


class Simulator:
    """An integer-time discrete-event scheduler.

    Example
    -------
    >>> sim = Simulator()
    >>> seen = []
    >>> sim.schedule_at(5, lambda: seen.append(sim.now))
    >>> sim.schedule_after(2, lambda: seen.append(sim.now))
    >>> sim.run()
    >>> seen
    [2, 5]
    """

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now = 0
        self._running = False
        self._stopped = False

    @property
    def now(self) -> int:
        """Current simulation time in cycles."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of actions still queued."""
        return len(self._queue)

    def schedule_at(self, time: int, action: Action) -> None:
        """Run *action* at absolute cycle *time* (must not be in the past)."""
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule at cycle {time}; current time is {self._now}"
            )
        self._queue.push(time, action)

    def schedule_after(self, delay: int, action: Action) -> None:
        """Run *action* ``delay`` cycles from now (``delay >= 0``)."""
        if delay < 0:
            raise SchedulingError(f"negative delay {delay}")
        self._queue.push(self._now + delay, action)

    def stop(self) -> None:
        """Request the run loop to halt after the current action."""
        self._stopped = True

    def run(self, until: Optional[int] = None) -> int:
        """Execute queued actions in time order.

        Parameters
        ----------
        until:
            If given, stop once the next action would run *after* this
            cycle; pending later actions stay queued and time advances to
            ``until``.

        Returns the simulation time at which the run stopped.
        """
        if self._running:
            raise SimulationError("run() re-entered; the kernel is not reentrant")
        self._running = True
        self._stopped = False
        queue = self._queue
        # Validate once at entry instead of per event: the bucketed queue
        # pops in non-decreasing time order by construction, and every
        # schedule_* call rejects past times, so checking the head here
        # covers the whole run.
        first = queue.peek_time()
        if first is not None and first < self._now:
            raise SchedulingError(
                f"event queue corrupted: head {first} < now {self._now}"
            )
        try:
            if until is None:
                while queue and not self._stopped:
                    self._now, action = queue.pop()
                    action()
            else:
                while queue and not self._stopped:
                    next_time = queue.peek_time()
                    if next_time > until:  # type: ignore[operator]
                        break
                    self._now, action = queue.pop()
                    action()
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False
        return self._now

    def reset(self) -> None:
        """Discard all pending work and rewind time to zero."""
        if self._running:
            raise SimulationError("cannot reset a running simulator")
        self._queue.clear()
        self._now = 0
        self._stopped = False

