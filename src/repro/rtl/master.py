"""Pin-accurate bus master.

Drives the per-master signal bundle through the classic AHB master FSM:

* ``IDLE``    — no transaction in hand; fetch from the traffic agent,
* ``REQUEST`` — HBUSREQ asserted, waiting for HGRANT + bus availability,
* ``DATA``    — address phase done; counting HREADY beats, driving
  HWDATA (writes) or capturing HRDATA (reads).

The master consumes the *same* :class:`~repro.ahb.master.TlmMaster`
traffic agent as the transaction-level engines, so one workload seed
produces the identical transaction stream at both abstraction levels —
the precondition of the paper's accuracy comparison.  The write
buffer's drain engine runs this same FSM, fed by the buffer instead
(:mod:`repro.rtl.write_buffer`).

Cycle conventions (shared by every RTL component):

* combinational ``evaluate`` runs during cycle *k* and reads/drives
  settled cycle-*k* values;
* sequential ``update`` runs at the end of cycle *k*; direct Python
  calls between components (write-buffer absorption) happen there, with
  the arbiter registered *before* the masters so an absorbed master can
  re-request on the very next cycle, as the TLM does.
"""

from __future__ import annotations

import enum
from typing import List, Optional

from repro.ahb.master import TlmMaster
from repro.ahb.transaction import Transaction
from repro.ahb.types import HResp, HTrans
from repro.kernel.cycle import CycleEngine, NULL_SEQ_HANDLE
from repro.rtl.signals import MasterSignals, SharedBusSignals


class MasterState(enum.Enum):
    IDLE = "idle"
    REQUEST = "request"
    DATA = "data"


class MasterRtl:
    """One AHB+ master at signal level.

    Four points say where transfers come from and go to:
    :meth:`_next_transfer`, :meth:`_accepted`, :meth:`_finished` and
    :meth:`_idle_sleep`.  Here they talk to the traffic agent; the write
    buffer's drain engine (:class:`~repro.rtl.write_buffer.BufferMasterRtl`)
    overrides them to talk to the buffer and shares everything else.
    """

    def __init__(
        self,
        agent: TlmMaster,
        signals: MasterSignals,
        bus: SharedBusSignals,
        engine: CycleEngine,
    ) -> None:
        self.agent = agent
        self.index = signals.index  # owner index on the shared bus
        self.sig = signals
        self.bus = bus
        self.engine = engine
        # Direct references to the per-cycle hot inputs.
        self._hgrant = signals.hgrant
        self._hready = bus.hready
        self._stream_owner = bus.stream_owner
        self._bus_available = bus.bus_available
        self.state = MasterState.IDLE
        self._txn: Optional[Transaction] = None
        self._beat = 0
        self._captured: List[int] = []
        # evaluate() is a function of (hgrant, bus_available) plus FSM
        # state that only mutates in the sequential phase; update() and
        # absorb_current() touch the handle whenever that state moves.
        # The signal inputs reach the outputs only through
        # _drives_address_now(), so their edges are filtered to the
        # REQUEST state — IDLE/DATA evaluations re-run via touch alone.
        requesting = self._requesting
        self._eval = engine.add_combinational(
            self.evaluate,
            sensitive_to=(
                (signals.hgrant, requesting),
                (bus.bus_available, requesting),
            ),
        )
        #: Quiescence handle, bound by the platform builder.  An idle
        #: master with nothing to fetch sleeps until its next item's
        #: think time expires (a pure time wake: no input signal can
        #: affect a master that is not requesting or streaming).
        self.seq = NULL_SEQ_HANDLE

    # -- views --------------------------------------------------------------------

    @property
    def current_transaction(self) -> Optional[Transaction]:
        """The transaction being requested (for the arbiter's sideband)."""
        if self.state is MasterState.REQUEST:
            return self._txn
        return None

    @property
    def done(self) -> bool:
        """All traffic issued and completed."""
        return self.agent.done and self.state is MasterState.IDLE

    def _requesting(self) -> bool:
        return self.state is MasterState.REQUEST

    def _drives_address_now(self) -> bool:
        return (
            self.state is MasterState.REQUEST
            and bool(self._hgrant.value)
            and bool(self._bus_available.value)
        )

    # -- combinational phase ----------------------------------------------------------

    def evaluate(self) -> None:
        """Drive HBUSREQ, the address phase and write data for this cycle."""
        txn = self._txn
        self.sig.hbusreq.drive(self.state is MasterState.REQUEST)
        if self._drives_address_now():
            assert txn is not None
            self.sig.htrans.drive(int(HTrans.NONSEQ))
            self.sig.haddr.drive(txn.addr)
            self.sig.hwrite.drive(txn.is_write)
            self.sig.hburst.drive(int(txn.burst))
            self.sig.hlen.drive(txn.beats)
            self.sig.hsize.drive(int(txn.hsize))
            self.sig.hfault.drive(
                txn.fault_plan[txn.fault_step]
                if txn.fault_step < len(txn.fault_plan)
                else 0
            )
        else:
            self.sig.htrans.drive(int(HTrans.IDLE))
            self.sig.hfault.drive(0)
        if (
            self.state is MasterState.DATA
            and txn is not None
            and txn.is_write
            and self._beat < txn.beats
        ):
            self.sig.hwdata.drive(txn.data[self._beat] if txn.data else 0)

    # -- sequential phase ----------------------------------------------------------------

    def update(self) -> None:
        """Advance the FSM at the end of cycle ``engine.cycle``."""
        now = self.engine.cycle
        state0 = self.state
        txn0 = self._txn
        beat0 = self._beat
        if self.state is MasterState.DATA:
            self._update_data(now)
        elif self.state is MasterState.REQUEST:
            if self._drives_address_now():
                txn = self._txn
                assert txn is not None
                txn.granted_at = now
                txn.started_at = now
                self._accepted(txn)
                self.state = MasterState.DATA
                self._beat = 0
                self._captured = []
        if self.state is MasterState.IDLE:
            # Arm the next request so HBUSREQ is visible next cycle.
            txn = self._next_transfer(now)
            if txn is not None:
                self._txn = txn
                self.state = MasterState.REQUEST
        if (
            self.state is not state0
            or self._txn is not txn0
            or (
                self._beat != beat0
                and txn0 is not None
                and txn0.is_write
            )
        ):
            # A read's data beats never reach evaluate()'s outputs (no
            # HWDATA to advance), so mid-burst read beats skip the
            # re-evaluation entirely.
            self._eval.touch()
        self._assess_quiescence(now)

    def _assess_quiescence(self, now: int) -> None:
        """Sleep whenever this cycle's inputs make update() a no-op.

        IDLE with nothing to fetch follows :meth:`_idle_sleep`; REQUEST
        sleeps until the grant+bus pair arrives; DATA sleeps through the
        CAS latency and other owners' beats.  The non-timed cases re-arm
        through the builder's wake-on list (hgrant/bus_available/hready/
        stream_owner edges) or an explicit wake (write-buffer
        absorption), always in the cycle the reference FSM would first
        act again.
        """
        state = self.state
        if state is MasterState.IDLE:
            self._idle_sleep(now)
        elif state is MasterState.REQUEST:
            if not (self._hgrant.value and self._bus_available.value):
                self.seq.idle()
        else:  # DATA
            if not (
                self._hready.value
                and self._stream_owner.value == self.index
            ):
                self.seq.idle()

    def _update_data(self, now: int) -> None:
        txn = self._txn
        assert txn is not None
        if (
            bool(self._hready.value)
            and self._stream_owner.value == self.index
        ):
            resp = self.bus.hresp.value
            if resp:
                # Fault response instead of a data beat: the slave
                # answered the address phase with ERROR/RETRY.  The
                # plan entry was consumed; on RETRY the master drops
                # back to REQUEST and re-arbitrates, otherwise the
                # transfer is aborted with its response recorded.
                txn.fault_step += 1
                if resp == int(HResp.RETRY) and self.agent.retry(txn, now):
                    self.state = MasterState.REQUEST
                    self._beat = 0
                    self._captured = []
                    return
                if resp != int(HResp.RETRY):
                    txn.resp = resp
                    self.agent.fail(txn, now)
                self._txn = None
                self.state = MasterState.IDLE
                return
            if not txn.is_write:
                self._captured.append(self.bus.hrdata.value)
            self._beat += 1
            if self._beat >= txn.beats:
                if not txn.is_write:
                    txn.data = list(self._captured)
                self._finished(txn, now)
                self._txn = None
                self.state = MasterState.IDLE

    # -- transfer source and sink ------------------------------------------------------------

    def _next_transfer(self, now: int) -> Optional[Transaction]:
        """The transfer to request next cycle, if one is due."""
        return self.agent.pending(now + 1)

    def _accepted(self, txn: Transaction) -> None:
        """The address phase of *txn* was accepted this cycle."""

    def _finished(self, txn: Transaction, now: int) -> None:
        """The last data beat of *txn* completed this cycle."""
        self.agent.complete(txn, now)

    def _idle_sleep(self, now: int) -> None:
        """Sleep an IDLE FSM that found nothing to fetch."""
        # Drained for good, or thinking — the next item issues at `nxt`,
        # so update() stays a no-op until the cycle whose fetch probes
        # pending(nxt).
        if self.agent.done:
            self.seq.idle()
        else:
            nxt = self.agent.earliest_request()
            if nxt is not None and nxt - 1 > now:
                self.seq.idle(until=nxt - 1)

    # -- write-buffer interaction ------------------------------------------------------------

    def absorb_current(self, cycle: int) -> Transaction:
        """The arbiter posted our pending write into the write buffer.

        Called from the arbiter's sequential phase (which runs before
        the masters'), so this master can fetch and re-request on the
        very next cycle.
        """
        txn = self._txn
        assert txn is not None and txn.is_write and self.state is MasterState.REQUEST
        self.agent.absorb(txn, cycle)
        self._txn = None
        self.state = MasterState.IDLE
        self._eval.touch()
        # The master may be sleeping in REQUEST; its own update (which
        # runs after the arbiter's this same cycle) must fetch now.
        self.seq.wake()
        return txn
