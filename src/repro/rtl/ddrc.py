"""Pin-accurate DDR controller.

Paper §3.3: *"To increase the cycle accuracy, we modeled the FSM as
accurate as register transfer level."*  This component is that FSM: the
per-bank :class:`~repro.ddr.bank.BankFsm` machines tick every clock,
one DDR command issues per cycle through the
:class:`~repro.ddr.scheduler.CommandScheduler` (column > row >
precharge priority), refresh interjects on its tREFI deadline, and data
beats move one per cycle through the HRDATA/HWDATA signals.

In the default *streamed* mode the per-cycle beat movement is batched
at segment granularity: read data is prefetched in one
:meth:`~repro.ddr.memory.MemoryModel.read_beats` call at CAS, write
data is captured per cycle and flushed in one ``write_beats`` call at
the segment's last beat, and write recovery is armed analytically —
observable signal values, ``data_beats`` counting and BI preparation
matching stay bit-identical to the per-beat reference
(``streaming=False``, which ``full_sweep`` platforms select for the
trace-equality tests).

The controller also terminates the AHB+ Bus Interface: prepared
next-transaction info arrives over the ``BI_*`` signals and is enqueued
so the scheduler can open the target row while the current burst still
streams (bank interleaving), and the idle-bank map is exported back to
the arbiter's bank filter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple, Union

from repro.ahb.burst import beat_addresses
from repro.ahb.types import HBurst, HTrans
from repro.ddr.bank import BankFsm, BankState
from repro.ddr.commands import BankAddress, DdrCommand, decode_address
from repro.ddr.memory import MemoryModel
from repro.ddr.scheduler import CommandScheduler, PendingAccess, ScheduledCommand
from repro.ddr.timing import DdrTiming
from repro.errors import SimulationError
from repro.kernel.cycle import CycleEngine, NULL_SEQ_HANDLE
from repro.rtl.signals import (
    BiSignals,
    NO_OWNER,
    SharedBusSignals,
    SlaveResponseSignals,
)

#: Hoisted HTrans.NONSEQ encoding (enum attribute lookups cost on the
#: per-cycle guards; grep-friendly single definition).
_NONSEQ = int(HTrans.NONSEQ)

_UID = 0


def _next_uid() -> int:
    global _UID
    _UID += 1
    return _UID


@dataclass(eq=False)
class RtlSegment(PendingAccess):
    """A scheduler segment that knows its parent access."""

    access: Optional["RtlAccess"] = None
    addrs: List[int] = field(default_factory=list)


@dataclass(eq=False)
class RtlAccess:
    """One burst access as the controller tracks it."""

    addr: int
    is_write: bool
    beats: int
    size_bytes: int
    wrapping: bool
    owner: int = NO_OWNER
    bus_started: bool = False
    prepared: bool = False
    segments: List[RtlSegment] = field(default_factory=list)
    segments_done: int = 0

    def matches(self, addr: int, is_write: bool, beats: int) -> bool:
        return self.addr == addr and self.is_write == is_write and self.beats == beats

    @property
    def complete(self) -> bool:
        return self.segments_done >= len(self.segments)


@dataclass
class _Stream:
    """Data-beat streaming state for one segment.

    In streamed mode the memory traffic is batched at the segment
    boundaries: ``rdata`` holds the whole segment's read data prefetched
    at CAS time (the burst owns the data path, so memory cannot change
    under it) and ``wdata`` accumulates the per-cycle HWDATA values for
    one bulk write when the segment's last beat lands.  Per-cycle work
    shrinks to signal driving and counter bumps.
    """

    access: RtlAccess
    segment: RtlSegment
    data_start: int
    beats_done: int = 0
    rdata: Optional[List[int]] = None
    wdata: Optional[List[int]] = None

    @property
    def length(self) -> int:
        return len(self.segment.addrs)

    @property
    def is_last_segment(self) -> bool:
        return self.access.segments_done == len(self.access.segments) - 1


class DdrcRtl:
    """The AHB+ DDR controller at signal level."""

    #: Documented exceptions to the NET-* contract rules (see
    #: :mod:`repro.lint.netlist_rules`).  Each entry is a signal name
    #: with the reason the finding is acceptable as modelled.
    LINT_WAIVERS = {
        "NET-WAKE": {
            "hwdata": (
                "write data is sampled mid-burst only; the FSM never "
                "idles between accepted address phase and final beat, so "
                "a missed hwdata edge cannot occur while asleep"
            ),
        },
        "NET-DEAD": {
            "idle_banks": (
                "modelled bank-interleaving status output; the arbiter "
                "consults the python access_score oracle instead of the "
                "pin, the pin exists for waveform/debug parity"
            ),
            "refresh_busy": (
                "modelled refresh status output, exposed for "
                "waveform/debug parity; no RTL consumer by design"
            ),
        },
    }

    def __init__(
        self,
        bus: SharedBusSignals,
        bi: BiSignals,
        engine: CycleEngine,
        timing: DdrTiming,
        bus_bytes: int = 4,
        memory: Optional[MemoryModel] = None,
        refresh_enabled: bool = True,
        out: Optional[SlaveResponseSignals] = None,
        accepts: Optional[Callable[[int], bool]] = None,
        streaming: bool = True,
    ) -> None:
        """``out``/``accepts`` adapt the controller to a multi-slave fabric.

        On the paper's single-slave platform both stay ``None``: the
        controller drives the shared bus response signals directly and
        claims every address phase, exactly the original behaviour.  On
        a multi-slave platform ``out`` is the controller's private
        response bundle (combined onto the bus by the response mux) and
        ``accepts`` is the address-decoder predicate for its region —
        address phases and BI announcements outside it are ignored.

        ``streaming`` selects batched beat processing (memory touched
        once per segment, write recovery armed analytically at CAS);
        ``False`` keeps the reference per-beat path, which the
        trace-equality tests run against the streamed default.
        """
        self.bus = bus
        self.bi = bi
        self.out: Union[SharedBusSignals, SlaveResponseSignals] = (
            out if out is not None else bus
        )
        # Direct references to the per-cycle hot inputs (one attribute
        # hop instead of two on the paths update() walks every cycle).
        self._bus_htrans = bus.htrans
        self._bi_next_valid = bi.next_valid
        self.accepts = accepts
        self.engine = engine
        self.timing = timing
        self.bus_bytes = bus_bytes
        self.memory = memory if memory is not None else MemoryModel("ddrc.mem")
        self.refresh_enabled = refresh_enabled
        self.streaming = streaming
        self.banks = [BankFsm(i, timing) for i in range(timing.num_banks)]
        self.scheduler = CommandScheduler(timing, self.banks)
        self.queue: List[RtlAccess] = []
        self._stream: Optional[_Stream] = None
        # Latched fault response (HFAULT sideband): fired over the
        # response channel on the first cycle the data path is free —
        # a pipelined address phase can overlap the previous transfer's
        # final beat, and the response must not collide with it.
        self._fault_resp = 0
        self._fault_owner = NO_OWNER
        self._fault_clear = False
        self._refresh_counter = timing.t_refi
        self._refresh_pending = False
        #: Quiescence handle, bound by the platform builder; the refresh
        #: countdown is delta-accounted so skipped idle cycles are
        #: charged in one subtraction on wake.
        self.seq = NULL_SEQ_HANDLE
        self._last_update_cycle = -1
        #: Ticks deferred over lean streaming cycles, settled via
        #: ``scheduler.skip`` before the next live decide (see
        #: :meth:`update`).
        self._tick_debt = 0
        #: Cached :meth:`_queue_parked` verdict.  Valid only while no
        #: queue mutation or scheduler run has happened since it was
        #: taken (every such site clears the flag); bank states are
        #: frozen over that window because ticks are deferred and
        #: commands only issue through :meth:`_run_scheduler`.
        self._parked_cache = False
        self._parked_valid = False
        #: Accesses whose address phase has been taken (drives the
        #: bus_available/ddr_busy outputs without a per-cycle queue scan).
        self._bus_started = 0
        #: Cached idle-bank map; recomputed only while bank states can
        #: still move (a command issued, or a transition in flight).
        self._idle_map = (1 << timing.num_banks) - 1
        self._bank_activity = True
        # Statistics (mirror the TLM controller's counters).
        self.reads = 0
        self.writes = 0
        self.refreshes = 0
        self.data_beats = 0
        self.prepared_banks = 0
        #: Bursts split into several bank/row segments (BI-split stats).
        self.split_bursts = 0

    # -- BI status for the arbiter's bank filter -------------------------------

    def access_score(self, addr: int) -> int:
        """0 row hit / 1 bank idle / 2 row conflict for the bank filter."""
        baddr = decode_address(addr, self.timing, self.bus_bytes)
        bank = self.banks[baddr.bank]
        if bank.is_row_hit(baddr.row):
            return 0
        if bank.state is BankState.IDLE:
            return 1
        return 2

    # -- access construction ------------------------------------------------------

    def _build_access(
        self, addr: int, is_write: bool, beats: int, size_bytes: int, wrapping: bool
    ) -> RtlAccess:
        access = RtlAccess(
            addr=addr,
            is_write=is_write,
            beats=beats,
            size_bytes=size_bytes,
            wrapping=wrapping,
        )
        addrs = beat_addresses(addr, beats, size_bytes, wrapping)
        current: Optional[Tuple[BankAddress, List[int]]] = None
        groups: List[Tuple[BankAddress, List[int]]] = []
        for beat_addr in addrs:
            baddr = decode_address(beat_addr, self.timing, self.bus_bytes)
            if (
                current is not None
                and current[0].bank == baddr.bank
                and current[0].row == baddr.row
            ):
                current[1].append(beat_addr)
            else:
                current = (baddr, [beat_addr])
                groups.append(current)
        if len(groups) > 1:
            self.split_bursts += 1
        for baddr, group_addrs in groups:
            segment = RtlSegment(
                baddr=baddr,
                is_write=is_write,
                beats=len(group_addrs),
                uid=_next_uid(),
                access=access,
                addrs=group_addrs,
            )
            access.segments.append(segment)
            self.scheduler.enqueue(segment)
        self.queue.append(access)
        self._parked_valid = False
        return access

    def _drop_stale_prepared(self) -> None:
        """Remove prepared accesses that never became bus transfers."""
        self._parked_valid = False
        stale = [a for a in self.queue if a.prepared and not a.bus_started]
        for access in stale:
            for segment in access.segments:
                if segment in self.scheduler.queue:
                    self.scheduler.queue.remove(segment)
            self.queue.remove(access)

    # -- sequential phase ----------------------------------------------------------

    def update(self) -> None:
        now = self.engine.cycle
        # Idle cycles the quiescence machinery skipped are charged to
        # the refresh countdown in one go — the only per-cycle state a
        # quiescent controller evolves.
        delta = now - self._last_update_cycle
        self._last_update_cycle = now
        if self._stream is not None:
            self._process_beat(now)
        # BI info is consumed before the address phase so a next-info
        # pulse and its own address phase landing in the same cycle pair
        # up instead of creating a stale duplicate.  (The guards mirror
        # the helpers' own first-line early exits; hoisting them elides
        # the calls on the hot per-cycle path.)
        if self._bi_next_valid.value:
            self._accept_bi_next(now)
        if self._bus_htrans.value == _NONSEQ:
            self._accept_address_phase(now)
        # Refresh tick, inlined from the former _tick_refresh (once per
        # cycle on the hottest sequential path).
        if self.refresh_enabled:
            self._refresh_counter -= delta
            if self._refresh_counter <= 0:
                self._refresh_pending = True
        stream = self._stream
        lean = (
            self.streaming
            and stream is not None
            and not self._bank_activity
            and self._parked_now()
        )
        if lean:
            # Lean streaming beat: decide() is provably a NOP — refresh
            # cannot force mid-stream, CAS is blocked by the busy data
            # path, and every queued segment is either the one streaming
            # (CAS issued) or parked on its already-open row, so the
            # ACT/PRE candidate scans find nothing.  With no bank
            # transition in flight tick() only drains saturating
            # tRAS/tWR/tRRD counters (streamed mode arms write recovery
            # analytically at CAS, so no per-beat re-arm interleaves
            # with the deferred ticks).  Defer the tick; the debt
            # settles in one scheduler.skip before the next cycle that
            # can actually issue a command.  *delta* (not 1): cycles
            # slept through a CAS-latency window owe their ticks too.
            self._tick_debt += delta
            if (
                not self._fault_resp
                and not self._fault_clear
                and now + 1 > stream.data_start
            ):
                # Steady mid-stream beat: every handshake output is
                # already at its streaming value.
                self._drive_outputs_lean(stream)
                self._assess_quiescence(now)
                return
        else:
            # Ticks owed: the deferred debt plus any cycles slept since
            # the last update (minus this cycle's own live tick below).
            # The fully-idle sleep contributes only no-op ticks here —
            # its entry condition proved every timer drained.
            debt = self._tick_debt + delta - 1
            if debt:
                self.scheduler.skip(debt)
                self._tick_debt = 0
            # Banks tick before the scheduler decides, so a transition
            # that completes this cycle can be followed by its dependent
            # command immediately — keeping PRE→ACT→CAS spacing at
            # exactly tRP/tRCD, the same arithmetic the TLM timeline
            # uses.
            self.scheduler.tick()
            self._run_scheduler(now)
        self._drive_outputs(now)
        self._assess_quiescence(now)

    # -- step 1: move this cycle's data beat -----------------------------------------

    def _process_beat(self, now: int) -> None:
        stream = self._stream
        if stream is None or now < stream.data_start:
            return
        if stream.beats_done >= stream.length:
            return
        if self.streaming:
            # Batched path: capture write data (memory flushed in bulk
            # at the segment's last beat; reads were prefetched at CAS).
            if stream.wdata is not None:
                stream.wdata.append(self.bus.hwdata.value)
            self.data_beats += 1
            stream.beats_done += 1
            if stream.beats_done >= stream.length:
                if stream.wdata is not None:
                    self.memory.write_beats(
                        stream.segment.addrs,
                        stream.access.size_bytes,
                        stream.wdata,
                    )
                self._finish_segment(stream)
            return
        beat_addr = stream.segment.addrs[stream.beats_done]
        if stream.access.is_write:
            self.memory.write(
                beat_addr, stream.access.size_bytes, self.bus.hwdata.value
            )
            # Write recovery re-arms from every data beat.
            self.banks[stream.segment.baddr.bank].note_write_beat()
        self.data_beats += 1
        stream.beats_done += 1
        if stream.beats_done >= stream.length:
            self._finish_segment(stream)

    def _finish_segment(self, stream: _Stream) -> None:
        """Retire the streamed segment and close out a finished access."""
        retired = self.scheduler.retire_head()
        if retired is not stream.segment:
            raise SimulationError("DDRC retired an unexpected segment")
        self._parked_valid = False
        stream.access.segments_done += 1
        if stream.access.complete:
            if stream.access.is_write:
                self.writes += 1
            else:
                self.reads += 1
            self.queue.remove(stream.access)
            self._bus_started -= 1
        self._stream = None

    # -- step 2: accept a new address phase --------------------------------------------

    def _accept_address_phase(self, now: int) -> None:
        if self.bus.htrans.value != _NONSEQ:
            return
        addr = self.bus.haddr.value
        if self.accepts is not None and not self.accepts(addr):
            return
        is_write = bool(self.bus.hwrite.value)
        beats = self.bus.hlen.value
        size_bytes = 1 << self.bus.hsize.value
        burst = HBurst(self.bus.hburst.value)
        owner = self.bus.addr_owner.value
        fault = self.bus.hfault.value
        if fault:
            # Seeded fault injection: answer with ERROR/RETRY instead of
            # accepting the burst.  A BI announcement may already have
            # prepared this access (bank opened early) — drop it, or the
            # controller never drains.
            for access in self.queue:
                if access.prepared and not access.bus_started and access.matches(
                    addr, is_write, beats
                ):
                    for segment in access.segments:
                        if segment in self.scheduler.queue:
                            self.scheduler.queue.remove(segment)
                    self.queue.remove(access)
                    self._parked_valid = False
                    break
            if self._fault_resp:
                raise SimulationError(
                    "DDRC: address phase faulted while a fault response "
                    "is still pending"
                )
            self._fault_resp = fault
            self._fault_owner = owner
            return
        for access in self.queue:
            if access.prepared and not access.bus_started and access.matches(
                addr, is_write, beats
            ):
                access.bus_started = True
                access.owner = owner
                self._bus_started += 1
                return
        # No matching preparation (BI off, or idle-path grant): drop any
        # stale preparation and enqueue fresh.
        self._drop_stale_prepared()
        access = self._build_access(
            addr, is_write, beats, size_bytes, burst.is_wrapping
        )
        access.bus_started = True
        access.owner = owner
        self._bus_started += 1

    # -- step 3: consume BI next-transaction info ----------------------------------------

    def _accept_bi_next(self, now: int) -> None:
        if not self.bi.next_valid.value:
            return
        addr = self.bi.next_addr.value
        if self.accepts is not None and not self.accepts(addr):
            return
        is_write = bool(self.bi.next_write.value)
        beats = self.bi.next_len.value
        size_bytes = 1 << self.bi.next_size.value
        wrapping = bool(self.bi.next_wrap.value)
        # Ignore duplicate announcements: either a pending preparation or
        # an access whose address phase already arrived (late next-info).
        for access in self.queue:
            if access.matches(addr, is_write, beats):
                return
        access = self._build_access(addr, is_write, beats, size_bytes, wrapping)
        access.prepared = True
        self.prepared_banks += 1

    # -- step 4: one DDR command per cycle ----------------------------------------------------

    def _queue_parked(self) -> bool:
        """Every queued segment is served or waiting only on the data path.

        True when each segment either has its CAS issued (the streaming
        head) or sits on a bank that is steadily ACTIVE with the
        segment's own row open — rows prepared, nothing for the
        scheduler to do until the data path frees up.  Callers pair this
        with ``not _bank_activity`` (no transition in flight), which
        also freezes every bank state the predicate just read.
        """
        banks = self.banks
        for segment in self.scheduler.queue:
            if segment.cas_issued:
                continue
            bank = banks[segment.baddr.bank]
            if bank.state is not BankState.ACTIVE or bank.open_row != segment.baddr.row:
                return False
        return True

    def _parked_now(self) -> bool:
        """:meth:`_queue_parked` through the validity cache."""
        if not self._parked_valid:
            self._parked_cache = self._queue_parked()
            self._parked_valid = True
        return self._parked_cache

    def _head_cas_allowed(self) -> bool:
        """CAS may issue only for a bus-started head with a free data path."""
        if self._stream is not None:
            return False
        if not self.scheduler.queue:
            return False
        head = self.scheduler.queue[0]
        assert isinstance(head, RtlSegment) and head.access is not None
        return head.access.bus_started

    def _run_scheduler(self, now: int) -> None:
        # Bank states just ticked and a command may issue below.
        self._parked_valid = False
        refresh_forced = (
            self._refresh_pending
            and self._stream is None
            and self.refresh_enabled
        )
        decision = self.scheduler.decide(
            refresh_forced=refresh_forced,
            data_path_free=self._head_cas_allowed(),
            busy_bank=(
                self._stream.segment.baddr.bank if self._stream is not None else None
            ),
        )
        if decision.command in (DdrCommand.READ, DdrCommand.WRITE):
            segment = decision.access
            assert isinstance(segment, RtlSegment) and segment.access is not None
            latency = (
                self.timing.write_latency
                if segment.is_write
                else self.timing.cas_latency
            )
            # The command occupies the next cycle; data follows latency.
            stream = _Stream(
                access=segment.access,
                segment=segment,
                data_start=now + 1 + latency,
            )
            if self.streaming:
                if segment.is_write:
                    stream.wdata = []
                    # Per-beat tWR re-arming collapsed to one load: the
                    # timer drains to exactly the per-beat value by the
                    # segment's last data beat (t_wr - 1 after its tick;
                    # shorter loads clamp at zero the same way).
                    self.banks[segment.baddr.bank].arm_write_recovery(
                        self.timing.t_wr + latency + segment.beats - 1
                    )
                else:
                    # The burst owns the data path until it completes,
                    # so the whole segment's read data is fetch-stable.
                    stream.rdata = self.memory.read_beats(
                        segment.addrs, segment.access.size_bytes
                    )
            self._stream = stream
        elif decision.command is DdrCommand.REFRESH:
            self._refresh_pending = False
            self._refresh_counter += self.timing.t_refi
            self.refreshes += 1
        if decision.command is not DdrCommand.NOP:
            # Bank states may move: re-derive the idle map until every
            # transitional state has resolved.
            self._bank_activity = True

    # -- step 6: registered outputs for the next cycle ------------------------------------------

    def _drive_outputs_lean(self, stream: _Stream) -> None:
        """Registered outputs for a steady mid-stream beat.

        The caller guarantees the stream survived this cycle's beat,
        its data phase started on an *earlier* cycle (so HREADY, the
        stream owner, HRESP and ddr_busy already hold their streaming
        values), no fault response is latched or clearing, and no bank
        transition is in flight (idle map frozen).  Only the read-data
        bus, the final-segment countdown with its bus_available flip,
        and the refresh-pending flag can move — every other drive in
        :meth:`_drive_outputs` would compare equal, pinned by the VCD
        equality suite against the full driver.
        """
        access = stream.access
        out = self.out
        if not access.is_write:
            rdata = stream.rdata
            out.hrdata.drive_next_lazy(
                rdata[stream.beats_done]
                if rdata is not None
                else self.memory.read(
                    stream.segment.addrs[stream.beats_done],
                    access.size_bytes,
                )
            )
        if stream.is_last_segment:
            remaining = stream.length - stream.beats_done
            if out.ddr_remaining.value != remaining:
                out.ddr_remaining.drive_next(remaining)
            started = self._bus_started
            available = (
                1 if started == 0 or (started == 1 and remaining == 1) else 0
            )
            if out.bus_available.value != available:
                out.bus_available.drive_next(available)
        bi = self.bi
        refresh_busy = 1 if self._refresh_pending else 0
        if bi.refresh_busy.value != refresh_busy:
            bi.refresh_busy.drive_next(refresh_busy)

    def _drive_outputs(self, now: int) -> None:
        """Register next-cycle outputs.

        All drives are lazy (:meth:`~repro.kernel.signal.Signal.
        drive_next_lazy`): the FSM re-derives mostly-stable values every
        cycle, and eliding the equal-value commits removes most of the
        model's registered-drive traffic.  Values are identical to the
        reference per-beat model — pinned by the VCD equality tests.
        """
        out = self.out  # shared bus (single slave) or private response bundle
        stream = self._stream
        nxt = now + 1
        final_beat_next = False
        hready = 0
        owner = NO_OWNER
        remaining = 0
        if stream is not None:
            # _process_beat ran first, so a surviving stream always has
            # beats left; only the data-phase start gates the beat.
            if nxt >= stream.data_start:
                hready = 1
                owner = stream.access.owner
                if not stream.access.is_write:
                    rdata = stream.rdata
                    out.hrdata.drive_next_lazy(
                        rdata[stream.beats_done]
                        if rdata is not None
                        else self.memory.read(
                            stream.segment.addrs[stream.beats_done],
                            stream.access.size_bytes,
                        )
                    )
                if stream.is_last_segment:
                    remaining = stream.length - stream.beats_done
                    final_beat_next = remaining == 1
            # Data phase not entered yet: hready/owner/remaining keep
            # their idle values this cycle.
        # Fire the latched fault response on the first free-data-path
        # cycle (a deferred fire only happens under pipelined overlap,
        # where the previous transfer's final beat owns the response
        # channel one more cycle).
        hresp = 0
        if self._fault_resp and not hready:
            hready = 1
            owner = self._fault_owner
            hresp = self._fault_resp
            self._fault_resp = 0
            self._fault_owner = NO_OWNER
            self._fault_clear = True
        elif self._fault_clear:
            self._fault_clear = False
        # Hand-inlined lazy drives: these outputs re-derive mostly
        # stable values every single cycle, so the compare happens here
        # and drive_next only runs on an actual change.
        if out.hresp.value != hresp:
            out.hresp.drive_next(hresp)
        if out.hready.value != hready:
            out.hready.drive_next(hready)
        if out.stream_owner.value != owner:
            out.stream_owner.drive_next(owner)
        if out.ddr_remaining.value != remaining:
            out.ddr_remaining.drive_next(remaining)
        started = self._bus_started
        available = 1 if started == 0 or (started == 1 and final_beat_next) else 0
        if self._fault_resp:
            # Response still owed: hold new address phases off the bus
            # (the single response latch must fire before another phase
            # can fault).
            available = 0
        if out.bus_available.value != available:
            out.bus_available.drive_next(available)
        busy = 1 if started else 0
        if out.ddr_busy.value != busy:
            out.ddr_busy.drive_next(busy)
        bi = self.bi
        refresh_busy = 1 if self._refresh_pending else 0
        if bi.refresh_busy.value != refresh_busy:
            bi.refresh_busy.drive_next(refresh_busy)
        if self._bank_activity:
            idle_map = 0
            activity = False
            for bank in self.banks:
                state = bank.state
                if state is BankState.IDLE:
                    idle_map |= 1 << bank.index
                elif state is not BankState.ACTIVE:
                    activity = True  # transitional: next tick may move it
            self._idle_map = idle_map
            self._bank_activity = activity
        if bi.idle_banks.value != self._idle_map:
            bi.idle_banks.drive_next(self._idle_map)

    # -- quiescence --------------------------------------------------------------------------------

    def _assess_quiescence(self, now: int) -> None:
        """Declare the controller idle when its update is a proven no-op.

        Requires: nothing queued or streaming, no refresh owed, every
        bank/scheduler timer drained (so ``tick`` is a no-op), and no
        input this very cycle — an address phase on the bus or a BI
        pulse keeps the controller awake one more cycle, which also
        covers back-to-back NONSEQ phases that produce no ``htrans``
        edge for the wake watcher.  While idle only the refresh
        countdown advances, so the handle self-wakes at the deadline
        and the skipped cycles are delta-accounted in :meth:`update`.
        """
        if (
            self._stream is None
            and not self.queue
            and not self._fault_resp
            and not self._fault_clear
            and not self._refresh_pending
            and not self._bi_next_valid.value
            and self._bus_htrans.value != _NONSEQ
            and self.scheduler.quiescent()
        ):
            self.seq.idle(
                until=now + self._refresh_counter
                if self.refresh_enabled
                else None
            )
            return
        # CAS-latency window: the command has issued but its first data
        # beat is still >1 cycle out.  With the queue parked and no bank
        # transition in flight, every intervening update is the lean
        # no-op above (ticks deferred, outputs steady), so sleep through
        # the window and wake at data_start - 1 — the cycle that must
        # drive HREADY for the first beat.  The refresh countdown is the
        # one clock that could move an output mid-window: its crossing
        # cycle is exact (the counter drops 1 per cycle), so wake there
        # instead if it comes first.  An address phase or BI pulse wakes
        # the handle through the builder's wake-on list.
        stream = self._stream
        if (
            self.streaming
            and stream is not None
            and now + 2 < stream.data_start
            and not self._bank_activity
            and not self._fault_resp
            and not self._fault_clear
            and not self._bi_next_valid.value
            and self._bus_htrans.value != _NONSEQ
            and self._parked_now()
        ):
            wake = stream.data_start - 1
            if self.refresh_enabled and not self._refresh_pending:
                crossing = now + self._refresh_counter
                if crossing < wake:
                    wake = crossing
            self.seq.idle(until=wake)

    # -- status ------------------------------------------------------------------------------------

    @property
    def idle(self) -> bool:
        """No queued or streaming work (nor a fault response in flight)."""
        return (
            not self.queue
            and self._stream is None
            and not self._fault_resp
            and not self._fault_clear
        )
