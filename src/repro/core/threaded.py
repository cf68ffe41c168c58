"""Thread-based variant of the AHB+ TLM (the style the paper avoided).

Paper §4: *"To increase simulation speed, we used method-based modeling
method rather than thread-based method."*  To measure what that choice
buys, :class:`ThreadedAhbPlusBus` runs the method-based bus of
:mod:`repro.core.bus` as threads: every master is a suspended generator
that the kernel resumes through events — the ``sc_thread`` style — and
the bus itself is one more thread.

What this engine adds on top of :class:`~repro.core.bus.AhbPlusBusTlm`
is only the thread machinery: the master and bus thread bodies, the
event a master thread fires when it posts its request to the bus (the
round reads the posted requests, as in the method engine), and the
waits that advance the bus thread through each transfer.  Arbitration,
absorption, the slave transfer, completion, accounting, fault
responses and BI next-info are the method bus's own code, so any speed
difference between the two engines is pure engine overhead: generator
frame switches, event subscription and scheduler traffic.  The
equivalence tests assert the two produce the same results.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

from repro.ahb.decoder import AddressMap
from repro.ahb.master import TlmMaster
from repro.ahb.slave import TlmSlave
from repro.ahb.transaction import Transaction
from repro.core.bus import AhbPlusBusTlm, AhbPlusRunResult
from repro.core.config import AhbPlusConfig
from repro.core.filters import Candidate
from repro.core.qos import QosRegisterFile
from repro.errors import ConfigError, SimulationError
from repro.kernel.events import Event
from repro.kernel.process import ThreadProcess, WaitCycles, WaitEvent
from repro.kernel.simulator import Simulator


class ThreadedAhbPlusBus(AhbPlusBusTlm):
    """Generator-process implementation of the AHB+ main bus."""

    def __init__(
        self,
        masters: Sequence[TlmMaster],
        slaves: Sequence[TlmSlave],
        config: Optional[AhbPlusConfig] = None,
        address_map: Optional[AddressMap] = None,
        qos: Optional[QosRegisterFile] = None,
    ) -> None:
        super().__init__(masters, slaves, config, address_map, qos)
        if self.config.request_pipelining and self.config.pipeline_lead < 1:
            raise ConfigError(
                "the threaded engine needs pipeline_lead >= 1 "
                "(a zero-lead decision races master completion)"
            )
        self.sim = Simulator()
        self.request_posted = Event("bus.request_posted")
        self.done_events = [
            Event(f"master{m.index}.done") for m in self.masters
        ]

    # -- engine hook ------------------------------------------------------------

    def _released(self, txn: Transaction) -> None:
        """Drop the master's request and wake its thread."""
        self.post(txn.master, None)
        self.done_events[txn.master].notify()

    def _all_done(self) -> bool:
        return (
            self._pipelined is None
            and self.write_buffer.is_empty
            and all(master.done for master in self.masters)
        )

    # -- master threads ------------------------------------------------------------

    def _wait_until(self, cycle: int) -> Iterator:
        if cycle > self.sim.now:
            yield WaitCycles(cycle - self.sim.now)

    def _master_body(self, agent: TlmMaster) -> Iterator:
        """One suspended frame per master — the thread-based style."""
        while True:
            issue = agent.earliest_request()
            if issue is None:
                return
            yield from self._wait_until(issue)
            txn = agent.pending(self.sim.now)
            assert txn is not None
            if self._posted[agent.index] is not None:
                raise SimulationError(f"master {agent.index} double-posted a request")
            self.post(agent.index, txn)
            self.request_posted.notify()
            yield WaitEvent(self.done_events[agent.index])

    # -- bus thread -----------------------------------------------------------------------

    def _bus_body(self) -> Iterator:
        pipelined: Optional[Tuple[Candidate, TlmSlave, int]] = None
        while True:
            if pipelined is not None:
                cand, slave, grant_at = pipelined
                yield from self._wait_until(grant_at)
                pipelined = yield from self._serve_gen(cand, slave)
                continue
            winner = self.arbitrate(self.sim.now)
            if winner is None:
                if self._all_done():
                    self._now = self.sim.now
                    return
                yield WaitEvent(self.request_posted)
                # Re-queue after same-cycle posters so the round sees
                # every request of this cycle, as the method engine does.
                yield WaitCycles(0)
                continue
            if self.config.arbitration_cycles:
                yield WaitCycles(self.config.arbitration_cycles)
            pipelined = yield from self._serve_gen(winner)

    def _serve_gen(self, cand: Candidate, slave: Optional[TlmSlave] = None) -> Iterator:
        """Serve one transfer; returns the pipelined next decision."""
        grant_cycle = self.sim.now
        span = self._transfer(cand, grant_cycle, slave)
        if span is None:
            # The fault response is published once its cycle has passed.
            yield WaitCycles(1)
            self._serve_fault(cand, grant_cycle)
            yield WaitCycles(1)
            return None
        start, finish = span
        pipelining = self.config.request_pipelining
        lock: Optional[Tuple[Candidate, TlmSlave]] = None
        if pipelining:
            decide = max(start, finish - self.config.pipeline_lead)
            yield from self._wait_until(decide)
            lock = self._lock_next(decide, cand.txn)
        yield from self._wait_until(finish)
        if lock is None and pipelining:
            # Late sampling point at `finish`, before the winner's
            # completion is published — as in the method engine.
            lock = self._lock_next(finish, cand.txn)
        self._retire(cand, grant_cycle, start, finish)
        if lock is None:
            yield WaitCycles(1)
            return None
        return (*lock, finish)

    # -- run ---------------------------------------------------------------------------------

    def run(self, max_cycles: Optional[int] = None) -> AhbPlusRunResult:
        """Spawn all threads and run the kernel to completion."""
        for master in self.masters:
            ThreadProcess(
                self.sim, f"master{master.index}", self._master_body(master)
            ).start()
        bus_thread = ThreadProcess(self.sim, "bus", self._bus_body())
        bus_thread.start()
        self.sim.run(until=max_cycles)
        if not bus_thread.finished and max_cycles is None:
            raise SimulationError("bus thread deadlocked before traffic drained")
        return self._result(self._now if bus_thread.finished else self.sim.now)
