"""Thread-based variant of the AHB+ TLM (the style the paper avoided).

Paper §4: *"To increase simulation speed, we used method-based modeling
method rather than thread-based method."*  To measure what that choice
buys, this module models every master as a suspended generator
("thread") that the kernel resumes through events — the ``sc_thread``
style — while the bus itself is one more thread.  Arbitration, QoS,
write-buffer and BI semantics are **identical** to the method-based
engine (:mod:`repro.core.bus`); the equivalence test suite asserts the
two produce the same cycle counts and transaction streams, so any speed
difference is pure engine overhead: generator frame switches, event
subscription and scheduler traffic.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.ahb.bus import TransactionObserver
from repro.ahb.decoder import AddressMap, single_slave_map
from repro.ahb.master import TlmMaster
from repro.ahb.slave import TlmSlave
from repro.ahb.transaction import Transaction
from repro.ahb.types import HResp
from repro.core.arbiter import AhbPlusArbiter
from repro.core.bus import AhbPlusRunResult
from repro.core.bus_interface import BusInterface, arbitration_context
from repro.core.config import AhbPlusConfig
from repro.core.filters import Candidate
from repro.core.qos import QosRegisterFile
from repro.core.write_buffer import WriteBuffer
from repro.errors import ConfigError, SimulationError
from repro.kernel.events import Event
from repro.kernel.process import ThreadProcess, WaitCycles, WaitEvent
from repro.kernel.simulator import Simulator


class _RequestBoard:
    """The HBUSREQ register bank: posted requests awaiting grant."""

    def __init__(self) -> None:
        self.entries: Dict[int, Transaction] = {}
        self.posted = Event("board.posted")

    def post(self, master: int, txn: Transaction) -> None:
        if master in self.entries:
            raise SimulationError(f"master {master} double-posted a request")
        self.entries[master] = txn
        self.posted.notify()

    def remove(self, master: int) -> None:
        del self.entries[master]


class ThreadedAhbPlusBus:
    """Generator-process implementation of the AHB+ main bus."""

    def __init__(
        self,
        masters: Sequence[TlmMaster],
        slaves: Sequence[TlmSlave],
        config: Optional[AhbPlusConfig] = None,
        address_map: Optional[AddressMap] = None,
        qos: Optional[QosRegisterFile] = None,
    ) -> None:
        if not masters:
            raise ConfigError("bus needs at least one master")
        self.config = config if config is not None else AhbPlusConfig(
            num_masters=len(masters)
        )
        if self.config.request_pipelining and self.config.pipeline_lead < 1:
            raise ConfigError(
                "the threaded engine needs pipeline_lead >= 1 "
                "(a zero-lead decision races master completion)"
            )
        self.masters = list(masters)
        self.slaves = list(slaves)
        self.address_map = (
            address_map if address_map is not None else single_slave_map()
        )
        self.qos = qos if qos is not None else self._default_qos()
        self.write_buffer = WriteBuffer(
            depth=self.config.write_buffer_depth,
            enabled=self.config.write_buffer_enabled,
        )
        self.arbiter = AhbPlusArbiter(
            tie_break=self.config.tie_break,
            num_masters=self.config.num_masters,
        )
        for name in self.config.disabled_filters:
            self.arbiter.set_filter_enabled(name, False)
        self.bus_interfaces = [
            BusInterface(slave, enabled=self.config.bus_interface_enabled)
            for slave in self.slaves
        ]
        # One context refreshed per round, as in AhbPlusBusTlm.
        self._ctx = arbitration_context(
            self.config, self.write_buffer, self.bus_interfaces, self.address_map
        )
        self.sim = Simulator()
        self.board = _RequestBoard()
        self.done_events = [
            Event(f"master{m.index}.done") for m in self.masters
        ]
        self._observers: List[TransactionObserver] = []
        self._busy_cycles = 0
        self._busy_through = -1
        self._transactions = 0
        self._bytes = 0
        self._pipelined_grants = 0
        self._final_cycle = 0

    def _default_qos(self) -> QosRegisterFile:
        qos = QosRegisterFile(self.config.num_masters)
        for master, setting in self.config.qos.items():
            qos.configure(master, setting)
        return qos

    def add_observer(self, observer: TransactionObserver) -> None:
        self._observers.append(observer)

    # -- master threads ------------------------------------------------------------

    def _master_body(self, agent: TlmMaster) -> Iterator:
        """One suspended frame per master — the thread-based style."""
        while True:
            issue = agent.earliest_request()
            if issue is None:
                return
            if issue > self.sim.now:
                yield WaitCycles(issue - self.sim.now)
            txn = agent.pending(self.sim.now)
            assert txn is not None
            self.board.post(agent.index, txn)
            yield WaitEvent(self.done_events[agent.index])

    # -- shared decision logic (kept textually parallel to core.bus) ------------------

    def _collect(self, now: int) -> List[Candidate]:
        candidates: List[Candidate] = []
        for master_index in sorted(self.board.entries):
            txn = self.board.entries[master_index]
            candidates.append(
                Candidate(
                    txn=txn,
                    from_write_buffer=False,
                    real_time=self.qos.is_real_time(master_index),
                    deadline=self.qos.deadline_for(txn),
                )
            )
        head = self.write_buffer.head()
        if head is not None:
            candidates.append(Candidate(txn=head, from_write_buffer=True))
        return candidates

    def _route(self, txn: Transaction) -> Tuple[TlmSlave, BusInterface]:
        index = self.address_map.slave_for(txn.addr)
        return self.slaves[index], self.bus_interfaces[index]

    def _arbitrate(self, now: int) -> Optional[Candidate]:
        """One arbitration round at *now*; ``None`` when nobody requests."""
        candidates = self._collect(now)
        if not candidates:
            return None
        buffer = self.write_buffer
        ctx = self._ctx
        ctx.now = now
        ctx.write_buffer_occupancy = buffer.occupancy
        ctx.read_hazard = buffer.read_hazard(candidates)
        winner = self.arbiter.choose(candidates, ctx)
        for cand in candidates:
            if cand is winner or cand.from_write_buffer:
                continue
            txn = cand.txn
            if buffer.can_absorb(txn):
                buffer.absorb(txn, now)
                self.board.remove(txn.master)
                self.masters[txn.master].absorb(txn, now)
                self.qos.record_completion(txn)
                self.done_events[txn.master].notify()
        return winner

    # -- bus thread -----------------------------------------------------------------------

    def _finished(self) -> bool:
        return (
            all(master.done for master in self.masters)
            and not self.board.entries
            and self.write_buffer.is_empty
        )

    def _bus_body(self) -> Iterator:
        pipelined: Optional[Tuple[Candidate, int]] = None
        while True:
            if pipelined is not None:
                cand, grant_at = pipelined
                pipelined = None
                if grant_at > self.sim.now:
                    yield WaitCycles(grant_at - self.sim.now)
                pipelined = yield from self._serve_gen(cand)
                continue
            winner = self._arbitrate(self.sim.now)
            if winner is None:
                if self._finished():
                    self._final_cycle = self.sim.now
                    return
                yield WaitEvent(self.board.posted)
                # Re-queue after same-cycle posters so the round sees
                # every request of this cycle, as the method engine does.
                yield WaitCycles(0)
                continue
            if self.config.arbitration_cycles:
                yield WaitCycles(self.config.arbitration_cycles)
            pipelined = yield from self._serve_gen(winner)

    def _serve_gen(
        self, cand: Candidate
    ) -> Iterator:
        """Serve one transfer; returns the pipelined next decision."""
        txn = cand.txn
        grant_cycle = self.sim.now
        txn.granted_at = grant_cycle
        if cand.from_write_buffer:
            self.write_buffer.pop_head(txn)
        else:
            self.board.remove(txn.master)
        if txn.fault_step < len(txn.fault_plan):
            yield from self._serve_fault_gen(txn, grant_cycle)
            yield WaitCycles(1)
            return None
        slave, bi = self._route(txn)
        slave.idle_until(grant_cycle)
        start = bi.access_permitted_at(txn, grant_cycle)
        finish = slave.serve(txn, start)
        next_decision: Optional[Tuple[Candidate, int]] = None
        if self.config.request_pipelining:
            decide = max(start, finish - self.config.pipeline_lead)
            if decide > self.sim.now:
                yield WaitCycles(decide - self.sim.now)
            next_decision = self._try_lock(finish)
        if finish > self.sim.now:
            yield WaitCycles(finish - self.sim.now)
        if next_decision is None and self.config.request_pipelining:
            # Late sampling point at `finish`, before the winner's
            # completion is published — mirrors the method engine.
            next_decision = self._try_lock(finish)
        if cand.from_write_buffer:
            txn.finished_at = finish
            if txn.origin is not None:
                txn.origin.drained_at = finish
        else:
            self.masters[txn.master].complete(txn, finish)
            self.qos.record_completion(txn)
            self.done_events[txn.master].notify()
        self._transactions += 1
        self._bytes += txn.total_bytes
        covered_from = max(start, self._busy_through + 1)
        if finish >= covered_from:
            self._busy_cycles += finish - covered_from + 1
            self._busy_through = finish
        for observer in self._observers:
            observer(txn, grant_cycle, start, finish)
        if next_decision is None:
            yield WaitCycles(1)
        return next_decision

    def _serve_fault_gen(self, txn: Transaction, grant_cycle: int) -> Iterator:
        """One faulted presentation (mirrors ``AhbPlusBusTlm._serve_fault``).

        The response occupies the bus for one cycle and no data moves:
        no pipelined decision, no throughput/busy accounting.  The
        master's done event is notified either way — on RETRY the master
        thread wakes and re-posts the same transaction, on a final
        response it moves on to its next item.
        """
        code = txn.fault_plan[txn.fault_step]
        txn.fault_step += 1
        start = grant_cycle
        finish = grant_cycle + 1
        txn.started_at = start
        if finish > self.sim.now:
            yield WaitCycles(finish - self.sim.now)
        owner = self.masters[txn.master]
        if code == int(HResp.RETRY):
            if owner.retry(txn, finish):
                self.done_events[txn.master].notify()
                return
        else:
            txn.resp = code
            owner.fail(txn, finish)
        self.qos.record_completion(txn)
        self.done_events[txn.master].notify()
        for observer in self._observers:
            observer(txn, grant_cycle, start, finish)

    def _try_lock(self, finish: int) -> Optional[Tuple[Candidate, int]]:
        """One pipelined sampling point at the current simulation time."""
        winner = self._arbitrate(self.sim.now)
        if winner is None:
            return None
        _nslave, nbi = self._route(winner.txn)
        nbi.send_next_info(winner.txn, self.sim.now)
        self._pipelined_grants += 1
        return (winner, finish)

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
        return AhbPlusRunResult(
            cycles=self._final_cycle if bus_thread.finished else self.sim.now,
            transactions=self._transactions,
            bytes_transferred=self._bytes,
            busy_cycles=self._busy_cycles,
            per_master_transactions=[
                master.transactions_completed for master in self.masters
            ],
            error_responses=sum(m.error_aborts for m in self.masters),
            retry_responses=sum(m.retry_responses for m in self.masters),
            absorbed_writes=self.write_buffer.absorbed,
            drained_writes=self.write_buffer.drained,
            max_buffer_occupancy=self.write_buffer.max_occupancy,
            rt_deadline_hits=self.qos.deadline_hits,
            rt_deadline_misses=self.qos.deadline_misses,
            pipelined_grants=self._pipelined_grants,
            bi_next_info=sum(bi.next_info_sent for bi in self.bus_interfaces),
            filter_stats=self.arbiter.filter_stats(),
        )
