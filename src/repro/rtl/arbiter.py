"""Pin-accurate AHB+ arbiter.

Runs the *same* arbitration round as the TLM bus
(:class:`~repro.core.arbiter.ArbitrationRound`), but evaluated the RTL
way: the round reads the masters' and the drain engine's requests at a
clock edge, grants are registered outputs, and the request-pipelining
lock is triggered by the DDRC's remaining-beat signal instead of an
analytic ``finish - lead`` computation.  Those sampling-point
differences are one of the deliberate abstraction gaps that give the
TLM its small cycle error against this reference.

Decision events:

* **Idle round** — no transfer in flight and no grant outstanding:
  run a round, register the winner's HGRANT.
* **Pipelined lock** — a transfer is streaming and its remaining data
  beats have fallen to ``pipeline_lead + 1``: run a round for the
  *next* winner, register its HGRANT (it waits for ``bus_available``)
  and pulse the next-transaction info over the BI so the DDRC can open
  the target row early (bank interleaving).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.ahb.transaction import Transaction
from repro.ahb.types import HTrans
from repro.core.arbiter import ArbitrationRound
from repro.core.config import AhbPlusConfig
from repro.core.filters import Candidate
from repro.core.qos import QosRegisterFile
from repro.core.write_buffer import WriteBuffer
from repro.kernel.cycle import CycleEngine, NULL_SEQ_HANDLE
from repro.rtl.master import MasterRtl
from repro.rtl.signals import BiSignals, SharedBusSignals
from repro.rtl.write_buffer import BufferMasterRtl


class ArbiterRtl(ArbitrationRound):
    """The AHB+ arbiter at signal level."""

    def __init__(
        self,
        masters: Sequence[MasterRtl],
        buffer_master: BufferMasterRtl,
        write_buffer: WriteBuffer,
        qos: QosRegisterFile,
        config: AhbPlusConfig,
        bus: SharedBusSignals,
        bi: BiSignals,
        engine: CycleEngine,
        ddrc_score=None,
    ) -> None:
        self.masters = list(masters)
        self.buffer_master = buffer_master
        self.config = config
        self.bus = bus
        self.bi = bi
        self.engine = engine
        self._idle_grantee: Optional[int] = None  # owner index awaiting start
        self._locked_next = True  # no lock allowed until a transfer begins
        #: Quiescence handle, bound by the platform builder.  The
        #: arbiter sleeps only when the bus is silent and no request is
        #: in hand; a rising HBUSREQ (the builder's wake list) re-arms
        #: it in the same cycle the reference arbiter would first see
        #: the candidate.
        self.seq = NULL_SEQ_HANDLE
        self.grants_issued = 0
        self.pipelined_grants = 0
        self.bi_next_info = 0
        # Requesters in round order: the masters, then the drain engine.
        self._requesters = [*self.masters, buffer_master]
        # The DDRC's ``addr -> score`` oracle; none when the BI is off.
        score = ddrc_score if config.bus_interface_enabled else None
        super().__init__(config, write_buffer, qos, lambda _ctx: score)

    # -- what the round reads and frees ---------------------------------------------

    def _requests(self, now: int) -> List[Transaction]:
        """Requested transactions, skipping any whose NONSEQ is on the bus
        this cycle: that request is being consumed, not awaiting a grant."""
        nonseq = int(HTrans.NONSEQ)
        held: List[Transaction] = []
        for requester in self._requesters:
            txn = requester.current_transaction
            if txn is not None and requester.sig.htrans.value != nonseq:
                held.append(txn)
        return held

    def _free(self, txn: Transaction, now: int) -> None:
        self.masters[txn.master].absorb_current(now)
        # The drain engine updates after the arbiter in the same cycle,
        # so it sees the new head immediately (reference ordering
        # preserved).
        self.buffer_master.seq.wake()

    # -- grant plumbing ---------------------------------------------------------------

    def _owner_index(self, cand: Candidate) -> int:
        if cand.from_write_buffer:
            return self.buffer_master.index
        return cand.txn.master

    def _drive_grants(self, winner_index: Optional[int]) -> None:
        # Lazy drives: all but the winner (and the previous winner) are
        # re-registering an unchanged 0 — eliding those no-op commits.
        for requester in self._requesters:
            requester.sig.hgrant.drive_next_lazy(requester.index == winner_index)

    # -- sequential phase ----------------------------------------------------------------

    def update(self) -> None:
        """Arbitrate at the end of the current cycle."""
        now = self.engine.cycle
        self.bi.next_valid.drive_next_lazy(0)  # clears last cycle's pulse
        # A NONSEQ on the shared bus means the outstanding grant was
        # consumed this cycle: a new transfer begins.
        if self.bus.htrans.value == int(HTrans.NONSEQ):
            self._idle_grantee = None
            self._locked_next = False  # one pipelined lock per transfer
            self._drive_grants(None)
        busy = bool(self.bus.ddr_busy.value)
        if not busy:
            self._idle_round(now)
        else:
            self._pipeline_round(now)
        # Quiescence self-assessment.  Idle bus: with no transfer in
        # flight or starting, no outstanding grant and no request in
        # hand anywhere, update() cannot do anything until a master's
        # HBUSREQ rises — which wakes the handle through the builder's
        # wake-on list at exactly the cycle the request becomes visible.
        # Busy bus: once the pipelined lock is taken (or pipelining is
        # off) the arbiter has nothing to decide until the transfer ends
        # (ddr_busy edge) or a new address phase needs its bookkeeping
        # (htrans edge) — both on the wake-on list.
        if self.bus.htrans.value != int(HTrans.NONSEQ):
            if busy:
                if self._locked_next or not self.config.request_pipelining:
                    self.seq.idle()
            elif self._idle_grantee is None and not self._any_request():
                self.seq.idle()

    def _any_request(self) -> bool:
        return any(r.current_transaction is not None for r in self._requesters)

    def _idle_round(self, now: int) -> None:
        if self._idle_grantee is not None:
            return  # winner already chosen; it is waiting for the bus
        winner = self.arbitrate(now)
        if winner is None:
            return
        owner = self._owner_index(winner)
        self._idle_grantee = owner
        self._drive_grants(owner)
        self.grants_issued += 1
        self._locked_next = True  # no pipelining until this transfer starts

    def _pipeline_round(self, now: int) -> None:
        if not self.config.request_pipelining or self._locked_next:
            return
        remaining = self.bus.ddr_remaining.value
        if remaining == 0:
            return
        lead_gap = remaining - (self.config.pipeline_lead + 1)
        if lead_gap > 0:
            # The lock window opens when the remaining-beat countdown
            # reaches pipeline_lead + 1.  It moves at most one beat per
            # cycle, so the window cannot open before now + lead_gap:
            # sleep until then instead of polling every streaming cycle.
            # A slave draining slower than one beat per cycle just lands
            # the wake early — the re-computed gap re-arms the sleep —
            # and every input edge that could matter sooner (a new
            # HBUSREQ, the transfer ending) is on the wake-on list.
            self.seq.idle(until=now + lead_gap)
            return
        winner = self.arbitrate(now)
        if winner is None:
            return
        owner = self._owner_index(winner)
        self._drive_grants(owner)
        self._locked_next = True
        self.grants_issued += 1
        self.pipelined_grants += 1
        # Pulse the next-transaction info over the Bus Interface.
        if self.config.bus_interface_enabled:
            txn = winner.txn
            self.bi.next_valid.drive_next(1)
            self.bi.next_addr.drive_next(txn.addr)
            self.bi.next_write.drive_next(txn.is_write)
            self.bi.next_len.drive_next(txn.beats)
            self.bi.next_wrap.drive_next(txn.wrapping)
            self.bi.next_size.drive_next(int(txn.hsize))
            self.bi_next_info += 1
