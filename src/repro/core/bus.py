"""Method-based transaction-level model of the AHB+ main bus.

This is the model the paper builds and evaluates: a callback-driven
engine (no threads — paper §4 credits method-based modeling for much of
the simulation speed) that advances an integer cycle counter from
transaction boundary to transaction boundary.

Per arbitration round the engine:

1-3. runs the :class:`~repro.core.arbiter.ArbitrationRound` the RTL
   arbiter runs too: the pending master transactions and the write
   buffer's head ("the write buffer behaves as another master", §3.3)
   compete, and the buffer absorbs the *losing* writes ("stores the
   information of write transactions when a master cannot get a bus
   grant at the right time", §3.3), freeing those masters immediately;
4. serves the winner through the Bus Interface (refresh permission,
   then the DDRC's analytic bank timing); and
5. while the transfer drains, makes the *pipelined* decision for the
   next winner and forwards it over the BI so the DDRC can open the
   next bank early (request pipelining + bank interleaving, §2) — the
   next address phase then overlaps the current last data beat.

Everything observable (grants, per-filter narrowing, BI messages,
buffer occupancy, QoS misses) is counted, feeding the profiling layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.ahb.decoder import AddressMap, single_slave_map
from repro.ahb.master import TlmMaster
from repro.ahb.slave import TlmSlave
from repro.ahb.transaction import Transaction
from repro.ahb.types import HResp
from repro.core.arbiter import ArbitrationRound
from repro.core.bus_interface import BusInterface, bank_oracle
from repro.core.config import AhbPlusConfig
from repro.core.filters import Candidate
from repro.core.qos import QosRegisterFile
from repro.core.write_buffer import WriteBuffer
from repro.errors import ConfigError, SimulationError


#: Observer signature: ``(txn, grant_cycle, start_cycle, finish_cycle)``.
TransactionObserver = Callable[[Transaction, int, int, int], None]


@dataclass
class AhbPlusRunResult:
    """Summary of one bus run, returned by every engine."""

    cycles: int
    transactions: int
    bytes_transferred: int
    busy_cycles: int
    per_master_transactions: List[int] = field(default_factory=list)
    #: Transfers abandoned after a final non-OKAY response.
    error_responses: int = 0
    #: RETRY responses absorbed (each one is a re-arbitrated request).
    retry_responses: int = 0
    absorbed_writes: int = 0
    drained_writes: int = 0
    max_buffer_occupancy: int = 0
    rt_deadline_hits: int = 0
    rt_deadline_misses: int = 0
    pipelined_grants: int = 0
    bi_next_info: int = 0
    filter_stats: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @property
    def utilization(self) -> float:
        """Fraction of cycles the data bus carried a transfer."""
        if self.cycles == 0:
            return 0.0
        return self.busy_cycles / self.cycles

    @property
    def rt_miss_rate(self) -> float:
        total = self.rt_deadline_hits + self.rt_deadline_misses
        if total == 0:
            return 0.0
        return self.rt_deadline_misses / total


class RequestLine:
    """One master's HBUSREQ register: the transaction it holds raised."""

    __slots__ = ("txn",)

    def __init__(self) -> None:
        self.txn: Optional[Transaction] = None

    def pending(self, now: int) -> Optional[Transaction]:
        return self.txn


class AhbPlusBusTlm(ArbitrationRound):
    """The AHB+ main bus, memory controller attached over the BI.

    This class is the one definition of AHB+ transaction-level
    semantics, built on the shared :class:`ArbitrationRound`.  The
    thread-based engine subclasses it and replaces only where requests
    are read (``_request_lines``), what answering a master does
    (:meth:`_released`) and the run loop.  The port API subclasses it to
    drive the same round and transfer from calls.
    """

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
        if not slaves:
            raise ConfigError("bus needs at least one slave")
        self.config = config if config is not None else AhbPlusConfig(
            num_masters=len(masters)
        )
        self.masters = list(masters)
        self.slaves = list(slaves)
        self.address_map = (
            address_map if address_map is not None else single_slave_map()
        )
        self.bus_interfaces = [
            BusInterface(slave, enabled=self.config.bus_interface_enabled)
            for slave in self.slaves
        ]
        super().__init__(
            self.config,
            WriteBuffer(
                depth=self.config.write_buffer_depth,
                enabled=self.config.write_buffer_enabled,
            ),
            qos if qos is not None else self.config.build_qos(),
            partial(bank_oracle, self.bus_interfaces, self.address_map),
        )
        self._observers: List[TransactionObserver] = []
        self._now = 0
        self._busy_cycles = 0
        self._busy_through = -1
        self._transactions = 0
        self._bytes = 0
        self._pipelined: Optional[Tuple[Candidate, int]] = None
        self._pipelined_grants = 0
        # Where the round reads each master's bus request: the traffic
        # agents themselves.  The thread-based engine and the port API
        # substitute RequestLines that their threads or calls raise.
        self._request_lines: Sequence[Union[TlmMaster, RequestLine]] = self.masters

    # -- instrumentation ---------------------------------------------------------

    def add_observer(self, observer: TransactionObserver) -> None:
        """Register a ``(txn, grant, start, finish)`` callback."""
        self._observers.append(observer)

    @property
    def now(self) -> int:
        return self._now

    # -- engine hooks -----------------------------------------------------------------

    def _released(self, txn: Transaction) -> None:
        """*txn*'s master was answered (completed, absorbed, failed or retried)."""

    # -- what the round reads and frees ---------------------------------------------

    def _requests(self, now: int) -> List[Transaction]:
        held: List[Transaction] = []
        for line in self._request_lines:
            txn = line.pending(now)
            if txn is not None:
                held.append(txn)
        head = self.write_buffer.head()
        if head is not None:
            held.append(head)
        return held

    def _free(self, txn: Transaction, now: int) -> None:
        self.masters[txn.master].absorb(txn, now)
        self._released(txn)

    def _route(self, txn: Transaction) -> Tuple[TlmSlave, BusInterface]:
        index = self.address_map.slave_for(txn.addr)
        return self.slaves[index], self.bus_interfaces[index]

    def _lock_next(
        self, sample: int, exclude: Optional[Transaction]
    ) -> Optional[Candidate]:
        """One pipelined sampling point: arbitrate and tell the BI."""
        winner = self.arbitrate(sample, exclude)
        if winner is not None:
            _slave, bi = self._route(winner.txn)
            bi.send_next_info(winner.txn, sample)
            self._pipelined_grants += 1
        return winner

    # -- serving ----------------------------------------------------------------------

    def _transfer(
        self, cand: Candidate, grant_cycle: int
    ) -> Optional[Tuple[int, int]]:
        """Grant *cand* and move its data; returns ``(start, finish)``.

        Returns ``None``, with no data moved, when the slave owes this
        presentation a fault response (see :meth:`_serve_fault`).
        """
        txn = cand.txn
        txn.granted_at = grant_cycle
        if cand.from_write_buffer:
            # The head leaves the FIFO as its transfer starts, so the
            # pipelined decision made mid-transfer sees the next entry.
            self.write_buffer.pop_head(txn)
        if txn.fault_step < len(txn.fault_plan):
            return None
        slave, bi = self._route(txn)
        slave.idle_until(grant_cycle)
        start = bi.access_permitted_at(txn, grant_cycle)
        finish = slave.serve(txn, start)
        if finish < start:
            raise SimulationError(
                f"slave {slave.name} finished {finish} before start {start}"
            )
        return start, finish

    def _retire(
        self, cand: Candidate, grant_cycle: int, start: int, finish: int
    ) -> None:
        """Complete a transfer at *finish* and account its bus cycles."""
        txn = cand.txn
        if cand.from_write_buffer:
            txn.finished_at = finish
            if txn.origin is not None:
                txn.origin.drained_at = finish
        else:
            self.masters[txn.master].complete(txn, finish)
            self.qos.record_completion(txn)
            self._released(txn)
        self._transactions += 1
        self._bytes += txn.total_bytes
        # Busy accounting must not double-count the pipelined overlap
        # cycle (next address phase atop the previous last data beat).
        covered_from = max(start, self._busy_through + 1)
        if finish >= covered_from:
            self._busy_cycles += finish - covered_from + 1
            self._busy_through = finish
        for observer in self._observers:
            observer(txn, grant_cycle, start, finish)

    def _serve_fault(self, txn: Transaction, grant_cycle: int) -> int:
        """One faulted presentation: ERROR/RETRY instead of data beats.

        The response occupies the bus for one cycle; no data moves, so
        neither the throughput counters nor the busy accounting change,
        and no pipelined decision is locked in (the faulted address
        phase carries no data beats to overlap with).  Returns the
        response's cycle.
        """
        code = txn.fault_plan[txn.fault_step]
        txn.fault_step += 1
        start = grant_cycle
        finish = grant_cycle + 1
        txn.started_at = start
        owner = self.masters[txn.master]
        if code == int(HResp.RETRY):
            if owner.retry(txn, finish):
                # The master re-requests; the next round re-arbitrates.
                self._released(txn)
                return finish
        else:
            txn.resp = code
            owner.fail(txn, finish)
        self.qos.record_completion(txn)
        self._released(txn)
        for observer in self._observers:
            observer(txn, grant_cycle, start, finish)
        return finish

    def _serve(self, cand: Candidate, grant_cycle: int) -> None:
        span = self._transfer(cand, grant_cycle)
        if span is None:
            self._now = self._serve_fault(cand.txn, grant_cycle) + 1
            return
        start, finish = span
        # The pipelined decision samples requests that existed *before*
        # this transfer's completion side effects, as the RTL arbiter
        # does — so it runs before the winner's agent is advanced.
        self._decide_pipelined(start, finish, exclude=cand.txn)
        self._retire(cand, grant_cycle, start, finish)

    def _decide_pipelined(
        self, start: int, finish: int, exclude: Optional[Transaction]
    ) -> None:
        """Lock in the next winner before the current transfer ends.

        Two sampling points model the RTL arbiter's per-cycle lock
        window: the early point at ``finish - pipeline_lead`` and, if it
        found nobody, a late point at ``finish`` itself.
        """
        self._pipelined = None
        if not self.config.request_pipelining:
            self._now = finish + 1
            return
        for sample in (max(start, finish - self.config.pipeline_lead), finish):
            winner = self._lock_next(sample, exclude)
            if winner is None:
                continue
            # The pipelined address phase overlaps the final data beat,
            # so the next transfer may begin at `finish` with no dead cycle.
            self._pipelined = (winner, finish)
            self._now = finish
            return
        self._now = finish + 1

    # -- run loop ------------------------------------------------------------------------

    def _advance_to_next_request(self) -> bool:
        upcoming = [
            cycle
            for master in self.masters
            if (cycle := master.earliest_request()) is not None
        ]
        if not upcoming:
            return False
        self._now = max(self._now, min(upcoming))
        return True

    def run(self, max_cycles: Optional[int] = None) -> AhbPlusRunResult:
        """Run to completion of all traffic (or *max_cycles*).

        The loop ends when a round finds nobody requesting and no master
        has a request ahead: all traffic is done.  *max_cycles* is
        checked only before each grant.  A transfer granted before the
        cap runs to its last beat, so the reported cycles may pass the
        cap; a grant due at or after it is not served.  The thread-based
        engine stops its clock at the cap instead.  On ``pattern_c`` (20
        per master, seed 3) capped at 50, this engine grants a fourth
        transfer at cycle 47 and reports 58 cycles and 4 transactions;
        the thread-based one reports 50 cycles and 3.
        """
        while True:
            if max_cycles is not None and self._now >= max_cycles:
                break
            if self._pipelined is not None:
                winner, grant_at = self._pipelined
                self._pipelined = None
                self._serve(winner, max(self._now, grant_at))
                continue
            winner = self.arbitrate(self._now)
            if winner is None:
                if not self._advance_to_next_request():
                    break
                continue
            grant = self._now + self.config.arbitration_cycles
            self._serve(winner, grant)
        return self._result(self._now)

    def _result(self, cycles: int) -> AhbPlusRunResult:
        return AhbPlusRunResult(
            cycles=cycles,
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
