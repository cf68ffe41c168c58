"""Pin-accurate AHB+ arbiter.

Runs the *same* seven-filter decision logic as the TLM arbiter
(:mod:`repro.core.filters` is shared), but evaluated the RTL way: the
candidate set is sampled from the HBUSREQ signals at every clock edge,
grants are registered outputs, and the request-pipelining lock is
triggered by the DDRC's remaining-beat signal instead of an analytic
``finish - lead`` computation.  Those sampling-point differences are
one of the deliberate abstraction gaps that give the TLM its small
cycle error against this reference.

Decision events:

* **Idle round** — no transfer in flight and no grant outstanding:
  choose a winner, register its HGRANT, absorb losing writes.
* **Pipelined lock** — a transfer is streaming and its remaining data
  beats have fallen to ``pipeline_lead + 1``: choose the *next* winner,
  register its HGRANT (it waits for ``bus_available``), absorb losing
  writes, and pulse the next-transaction info over the BI so the DDRC
  can open the target row early (bank interleaving).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.ahb.types import HTrans
from repro.core.config import AhbPlusConfig
from repro.core.filters import ArbitrationContext, Candidate
from repro.core.qos import QosRegisterFile
from repro.core.write_buffer import WriteBuffer
from repro.kernel.cycle import CycleEngine, NULL_SEQ_HANDLE
from repro.rtl.master import MasterRtl, MasterState
from repro.rtl.signals import BiSignals, MasterSignals, SharedBusSignals
from repro.rtl.write_buffer import BufferMasterRtl


class ArbiterRtl:
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
        self.write_buffer = write_buffer
        self.qos = qos
        self.config = config
        self.bus = bus
        self.bi = bi
        self.engine = engine
        #: ``addr -> score`` oracle from the DDRC (None when BI is off).
        self._ddrc_score = ddrc_score if config.bus_interface_enabled else None
        self.decision = config.build_arbiter()
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
        self._master_cands: List[Optional[Candidate]] = [None] * len(self.masters)
        self._head_cand: Optional[Candidate] = None
        # Reused across rounds; _ctx() refreshes every varying field.
        self._ctx_cache = ArbitrationContext(
            now=0,
            access_score=self._ddrc_score,
            urgency_margin=config.urgency_margin,
            starvation_limit=config.starvation_limit,
        )

    # -- candidate assembly ------------------------------------------------------

    def _candidates(self) -> List[Candidate]:
        """Requesting masters and the drain engine, one Candidate per transaction.

        As in the TLM bus, a Candidate is built when its transaction
        first requests and reused by every later round that sees it.
        """
        candidates: List[Candidate] = []
        cached = self._master_cands
        for slot, master in enumerate(self.masters):
            txn = master.current_transaction
            if txn is None:
                continue
            # Skip a master whose address phase is on the bus this cycle;
            # its request is being consumed, not awaiting arbitration.
            if master.sig.htrans.value == int(HTrans.NONSEQ):
                continue
            cand = cached[slot]
            if cand is None or cand.txn is not txn:
                cand = cached[slot] = Candidate(
                    txn=txn,
                    real_time=self.qos.is_real_time(master.index),
                    deadline=self.qos.deadline_for(txn),
                )
            candidates.append(cand)
        head = self.buffer_master.current_transaction
        if head is not None and self.buffer_master.sig.htrans.value != int(
            HTrans.NONSEQ
        ):
            cand = self._head_cand
            if cand is None or cand.txn is not head:
                cand = self._head_cand = Candidate(txn=head, from_write_buffer=True)
            candidates.append(cand)
        return candidates

    def _ctx(self, now: int, candidates: Sequence[Candidate]) -> ArbitrationContext:
        buffer = self.write_buffer
        ctx = self._ctx_cache
        ctx.now = now
        ctx.write_buffer_occupancy = buffer.occupancy
        ctx.write_buffer_depth = buffer.depth if buffer.enabled else 0
        ctx.read_hazard = buffer.read_hazard(candidates)
        return ctx

    # -- grant plumbing ---------------------------------------------------------------

    def _owner_index(self, cand: Candidate) -> int:
        if cand.from_write_buffer:
            return self.buffer_master.index
        return cand.txn.master

    def _drive_grants(self, winner_index: Optional[int]) -> None:
        # Lazy drives: all but the winner (and the previous winner) are
        # re-registering an unchanged 0 — eliding those no-op commits.
        for master in self.masters:
            master.sig.hgrant.drive_next_lazy(master.index == winner_index)
        self.buffer_master.sig.hgrant.drive_next_lazy(
            winner_index == self.buffer_master.index
        )

    def _absorb_losers(
        self, candidates: Sequence[Candidate], winner: Candidate, cycle: int
    ) -> None:
        for cand in candidates:
            if cand is winner or cand.from_write_buffer:
                continue
            txn = cand.txn
            if self.write_buffer.can_absorb(txn):
                self.write_buffer.absorb(txn, cycle)
                self.masters[txn.master].absorb_current(cycle)
                self.qos.record_completion(txn)
                # The drain engine updates after the arbiter in the same
                # cycle, so it sees the new head immediately (reference
                # ordering preserved).
                self.buffer_master.seq.wake()

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
        for master in self.masters:
            if master.current_transaction is not None:
                return True
        return self.buffer_master.current_transaction is not None

    def _idle_round(self, now: int) -> None:
        if self._idle_grantee is not None:
            return  # winner already chosen; it is waiting for the bus
        candidates = self._candidates()
        if not candidates:
            return
        winner = self.decision.choose(candidates, self._ctx(now, candidates))
        self._absorb_losers(candidates, winner, now)
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
        candidates = self._candidates()
        if not candidates:
            return
        winner = self.decision.choose(candidates, self._ctx(now, candidates))
        self._absorb_losers(candidates, winner, now)
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
