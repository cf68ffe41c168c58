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
4. serves the winner on its routed slave: the slave's access
   permission (the DDRC's refresh window), then its data timing (the
   DDRC's analytic bank timing); and
5. while the transfer drains, makes the *pipelined* decision for the
   next winner and, with the Bus Interface (BI) on, sends it to the
   slave's ``notify_next`` so the DDRC can open the next bank early
   (request pipelining + bank interleaving, §2) — the next address
   phase then overlaps the current last data beat.

The BI (paper §2, §3.4: next transaction information, idle bank,
access permission) is no separate layer here: it is the routed slave's
hooks, which the bus calls directly, and the bank filter reads the
slave's per-address ``access_score`` in place of an idle-bank map.
Switching the BI off drops the next-transaction hints and the bank
filter's oracle; access permission keeps the refresh windows correct
and stays on.

Everything observable (grants, per-filter narrowing, BI messages,
buffer occupancy, QoS misses) is counted, feeding the profiling layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.ahb.decoder import AddressMap, single_slave_map
from repro.ahb.master import TlmMaster
from repro.ahb.slave import TlmSlave
from repro.ahb.transaction import Transaction
from repro.ahb.types import HResp
from repro.core.arbiter import ArbitrationRound
from repro.core.config import AhbPlusConfig
from repro.core.filters import ArbitrationContext, Candidate
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


class AhbPlusBusTlm(ArbitrationRound):
    """The AHB+ main bus, memory controller attached over the BI.

    This class is the one definition of AHB+ transaction-level
    semantics, built on the shared :class:`ArbitrationRound`.  A
    master's bus request is *posted* (:meth:`post`): its candidate is
    built once, when the master fetches the transaction, and the round
    reads the posted candidates instead of polling the masters.  The
    thread-based engine subclasses it and replaces only who posts (each
    master's thread, when it raises its request), what answering a
    master does (:meth:`_released`) and the run loop.  The port API
    subclasses it to post each call's transaction and drive the same
    round and transfer from calls.
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
        super().__init__(
            self.config,
            WriteBuffer(
                depth=self.config.write_buffer_depth,
                enabled=self.config.write_buffer_enabled,
            ),
            qos if qos is not None else self.config.build_qos(),
            self.bank_oracle,
        )
        self._observers: List[TransactionObserver] = []
        self._now = 0
        self._busy_cycles = 0
        self._busy_through = -1
        self._transactions = 0
        self._bytes = 0
        #: The next winner, its routed slave and the cycle it may start.
        self._pipelined: Optional[Tuple[Candidate, TlmSlave, int]] = None
        self._pipelined_grants = 0
        self._bi_next_info = 0
        #: Each master's posted request, indexed by master.
        self._posted: List[Optional[Candidate]] = [None] * len(self.masters)

    # -- instrumentation ---------------------------------------------------------

    def add_observer(self, observer: TransactionObserver) -> None:
        """Register a ``(txn, grant, start, finish)`` callback."""
        self._observers.append(observer)

    @property
    def now(self) -> int:
        return self._now

    # -- engine hooks -----------------------------------------------------------------

    def _released(self, txn: Transaction) -> None:
        """*txn*'s master was answered (completed, absorbed, failed or
        retried) and has fetched its next request: post it."""
        self.post(txn.master, self.masters[txn.master].upcoming)

    # -- what the round reads and frees ---------------------------------------------

    def post(self, master: int, txn: Optional[Transaction]) -> None:
        """Raise *master*'s bus request for *txn*, or drop it (``None``).

        The request competes in every round from ``txn.issued_at`` on.
        """
        self._posted[master] = None if txn is None else self._candidate(txn)

    def collect(
        self, now: int, exclude: Optional[Transaction] = None
    ) -> List[Candidate]:
        """Posted requests issued by *now* in master order, then the
        write buffer's drain head; never the transfer *exclude*."""
        candidates = [
            cand
            for cand in self._posted
            if cand is not None and cand.txn.issued_at <= now and cand.txn is not exclude
        ]
        head = self.write_buffer.head()
        if head is not None and head is not exclude:
            candidates.append(self._candidate(head))
        return candidates

    def _free(self, txn: Transaction, now: int) -> None:
        self.masters[txn.master].absorb(txn, now)
        self._released(txn)

    def _route(self, txn: Transaction) -> TlmSlave:
        return self.slaves[self.address_map.slave_for(txn.addr)]

    def bank_oracle(
        self, ctx: ArbitrationContext
    ) -> Optional[Callable[[int], int]]:
        """The bank filter's oracle, built once per bus; scores at ``ctx.now``.

        With the BI off there is no oracle and the bank filter abstains,
        as in the RTL arbiter.  One slave scores every candidate (the
        paper topology), and a slave without ``access_score`` gives no
        oracle.  On a multi-slave map one round's candidates may target
        different slaves, so each address is scored by *its* region's
        slave, and a bank-less slave (SRAM, APB bridge) scores 0 — the
        best — so the bank filter only differentiates DDR candidates.
        """
        if not self.config.bus_interface_enabled:
            return None
        scores = [getattr(slave, "access_score", None) for slave in self.slaves]
        if len(scores) == 1:
            score = scores[0]
            if score is None:
                return None
            return lambda addr: score(addr, ctx.now)
        slave_for = self.address_map.slave_for

        def routed(addr: int) -> int:
            score = scores[slave_for(addr)]
            return 0 if score is None else score(addr, ctx.now)

        return routed

    def _lock_next(
        self, sample: int, exclude: Optional[Transaction]
    ) -> Optional[Tuple[Candidate, TlmSlave]]:
        """One pipelined sampling point: arbitrate and send it over the BI.

        Returns the winner with its routed slave, which its transfer
        reuses.
        """
        winner = self.arbitrate(sample, exclude)
        if winner is None:
            return None
        slave = self._route(winner.txn)
        if self.config.bus_interface_enabled:
            slave.notify_next(winner.txn, sample)
            self._bi_next_info += 1
        self._pipelined_grants += 1
        return winner, slave

    # -- serving ----------------------------------------------------------------------

    def _transfer(
        self, cand: Candidate, grant_cycle: int, slave: Optional[TlmSlave] = None
    ) -> Optional[Tuple[int, int]]:
        """Grant *cand* and move its data; returns ``(start, finish)``.

        *slave* is *cand*'s route when a pipelined lock already made it.
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
        if slave is None:
            slave = self._route(txn)
        slave.idle_until(grant_cycle)
        start = slave.access_permitted_at(txn, grant_cycle)
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
            self.qos.record_completion(txn, cand.deadline)
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

    def _serve_fault(self, cand: Candidate, grant_cycle: int) -> int:
        """One faulted presentation: ERROR/RETRY instead of data beats.

        The response occupies the bus for one cycle; no data moves, so
        neither the throughput counters nor the busy accounting change,
        and no pipelined decision is locked in (the faulted address
        phase carries no data beats to overlap with).  Returns the
        response's cycle.
        """
        txn = cand.txn
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
        self.qos.record_completion(txn, cand.deadline)
        self._released(txn)
        for observer in self._observers:
            observer(txn, grant_cycle, start, finish)
        return finish

    def _serve(
        self, cand: Candidate, grant_cycle: int, slave: Optional[TlmSlave] = None
    ) -> None:
        span = self._transfer(cand, grant_cycle, slave)
        if span is None:
            self._now = self._serve_fault(cand, grant_cycle) + 1
            return
        start, finish = span
        # Lock in the next winner before this transfer ends.  The
        # decision samples requests that existed *before* this
        # transfer's completion side effects, as the RTL arbiter does —
        # so it runs before the winner's agent is advanced.  Two
        # sampling points model the RTL arbiter's per-cycle lock window:
        # the early point at ``finish - pipeline_lead`` and, if it found
        # nobody, a late point at ``finish`` itself.
        self._now = finish + 1
        if self.config.request_pipelining:
            early = max(start, finish - self.config.pipeline_lead)
            lock = self._lock_next(early, cand.txn) or self._lock_next(finish, cand.txn)
            if lock is not None:
                # The pipelined address phase overlaps the final data
                # beat, so the next transfer may begin at `finish` with
                # no dead cycle.
                self._pipelined = (*lock, finish)
                self._now = finish
        self._retire(cand, grant_cycle, start, finish)

    # -- run loop ------------------------------------------------------------------------

    def run(self, max_cycles: Optional[int] = None) -> AhbPlusRunResult:
        """Run to completion of all traffic (or *max_cycles*).

        With no transfer locked and the write buffer empty, the clock
        jumps to the earliest posted request, so no round runs empty; the
        loop ends when nothing is posted and nothing is buffered: all
        traffic is done.  *max_cycles* is
        checked only before each grant.  A transfer granted before the
        cap runs to its last beat, so the reported cycles may pass the
        cap; a grant due at or after it is not served.  The thread-based
        engine stops its clock at the cap instead.  On ``pattern_c`` (20
        per master, seed 3) capped at 50, this engine grants a fourth
        transfer at cycle 47 and reports 58 cycles and 4 transactions;
        the thread-based one reports 50 cycles and 3.
        """
        # Each master's first request is posted as the run starts, so
        # the QoS registers may be programmed until then.
        for master in self.masters:
            self.post(master.index, master.upcoming)
        while max_cycles is None or self._now < max_cycles:
            if self._pipelined is not None:
                winner, slave, grant_at = self._pipelined
                self._pipelined = None
                self._serve(winner, max(self._now, grant_at), slave)
                continue
            if self.write_buffer.is_empty:
                issues = [cand.txn.issued_at for cand in self._posted if cand is not None]
                if not issues:
                    break
                if min(issues) > self._now:
                    self._now = min(issues)
                    continue  # the cap is checked at the new cycle
            winner = self.arbitrate(self._now)
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
            bi_next_info=self._bi_next_info,
            filter_stats=self.arbiter.filter_stats(),
        )
