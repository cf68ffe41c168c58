"""Pin-accurate fixed-latency slaves (SRAM scratchpads, APB bridges).

A :class:`StaticSlaveRtl` is the signal-level counterpart of
:class:`repro.ahb.slave.SramSlave`: the address phase takes one cycle,
the first data beat completes after ``wait_states`` further cycles and
each later beat after ``burst_wait_states`` — the classic AHB slave
with an HREADY-stretched first access.  The beat arithmetic matches the
TLM slave exactly, so a spec elaborated at both levels produces the
same per-transfer cycle counts for static regions.

On a multi-slave fabric the slave watches the shared address/control
bus, claims only address phases its ``accepts`` predicate maps to its
region, and answers over a private
:class:`~repro.rtl.signals.SlaveResponseSignals` bundle that the
:class:`~repro.rtl.mux.ResponseMux` combines onto the shared bus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.ahb.burst import beat_addresses
from repro.ahb.types import HBurst, HTrans
from repro.ddr.memory import MemoryModel
from repro.errors import ConfigError, SimulationError
from repro.kernel.cycle import CycleEngine, NULL_SEQ_HANDLE
from repro.rtl.signals import NO_OWNER, SharedBusSignals, SlaveResponseSignals


#: Hoisted HTrans.NONSEQ encoding for the per-cycle guards.
_NONSEQ = int(HTrans.NONSEQ)


@dataclass
class _StaticAccess:
    """One in-flight burst at a static slave."""

    addrs: List[int]
    is_write: bool
    size_bytes: int
    owner: int
    first_beat: int
    spacing: int
    beats_done: int = 0

    @property
    def beats(self) -> int:
        return len(self.addrs)

    def beat_cycle(self, index: int) -> int:
        """Cycle in which data beat *index* completes."""
        return self.first_beat + index * self.spacing


class StaticSlaveRtl:
    """A fixed-latency memory-mapped slave at signal level."""

    #: Documented exceptions to the NET-* contract rules (see
    #: :mod:`repro.lint.netlist_rules`).
    LINT_WAIVERS = {
        "NET-WAKE": {
            "hwdata": (
                "write data is sampled mid-burst only; the FSM never "
                "idles between accepted address phase and final beat, so "
                "a missed hwdata edge cannot occur while asleep"
            ),
        },
    }

    def __init__(
        self,
        name: str,
        bus: SharedBusSignals,
        out: SlaveResponseSignals,
        engine: CycleEngine,
        accepts: Callable[[int], bool],
        wait_states: int = 1,
        burst_wait_states: int = 0,
        memory: Optional[MemoryModel] = None,
        base: Optional[int] = None,
        size: Optional[int] = None,
    ) -> None:
        """``base``/``size`` bound the backing store like the TLM slave.

        A claimed beat outside ``[base, base + size)`` raises — the same
        loud failure :class:`~repro.ahb.slave.SramSlave` produces, which
        matters when this slave is the map's *default* slave and catches
        addresses far outside its own store.
        """
        if wait_states < 0 or burst_wait_states < 0:
            raise ConfigError("wait states must be non-negative")
        self.name = name
        self.bus = bus
        self.out = out
        self.engine = engine
        self.accepts = accepts
        self.wait_states = wait_states
        self.burst_wait_states = burst_wait_states
        self.base = base
        self.size = size
        self.memory = memory if memory is not None else MemoryModel(f"{name}.mem")
        self._access: Optional[_StaticAccess] = None
        # Latched fault response (HFAULT sideband of an address phase):
        # fired over the response channel the cycle after the claim,
        # then driven back down.
        self._fault_resp = 0
        self._fault_owner = NO_OWNER
        self._fault_clear = False
        #: Quiescence handle, bound by the platform builder (woken by
        #: the bus ``htrans`` edge of a new address phase).
        self.seq = NULL_SEQ_HANDLE
        # Statistics (mirror the DDRC's counters).
        self.reads = 0
        self.writes = 0
        self.data_beats = 0

    @property
    def idle(self) -> bool:
        """No burst in flight (the platform's drain check)."""
        return self._access is None and not self._fault_resp and not self._fault_clear

    # -- sequential phase ---------------------------------------------------------

    def update(self) -> None:
        now = self.engine.cycle
        self._process_beat(now)
        self._accept_address_phase(now)
        self._drive_outputs(now)
        # A NONSEQ this cycle (even one claimed by another slave) keeps
        # the slave awake one more cycle: back-to-back address phases
        # produce no htrans edge for the wake watcher to catch.  A
        # pending/just-fired fault response also keeps us awake — the
        # response signals still have to be driven back down.
        if (
            self._access is None
            and self.bus.htrans.value != _NONSEQ
            and not self._fault_resp
            and not self._fault_clear
        ):
            self.seq.idle()

    def _process_beat(self, now: int) -> None:
        access = self._access
        if access is None or access.beats_done >= access.beats:
            return
        if now != access.beat_cycle(access.beats_done):
            return
        addr = access.addrs[access.beats_done]
        if access.is_write:
            self.memory.write(addr, access.size_bytes, self.bus.hwdata.value)
        access.beats_done += 1
        self.data_beats += 1
        if access.beats_done >= access.beats:
            if access.is_write:
                self.writes += 1
            else:
                self.reads += 1
            self._access = None

    def _accept_address_phase(self, now: int) -> None:
        if self.bus.htrans.value != _NONSEQ:
            return
        addr = self.bus.haddr.value
        if not self.accepts(addr):
            return
        fault = self.bus.hfault.value
        if fault:
            # Seeded fault injection: answer this presentation with
            # ERROR/RETRY instead of accepting the burst.  The response
            # fires over the response channel next cycle.
            self._fault_resp = fault
            self._fault_owner = self.bus.addr_owner.value
            return
        if self._access is not None:
            raise SimulationError(
                f"{self.name}: address phase while a burst is in flight"
            )
        beats = self.bus.hlen.value
        size_bytes = 1 << self.bus.hsize.value
        wrapping = HBurst(self.bus.hburst.value).is_wrapping
        addrs = beat_addresses(addr, beats, size_bytes, wrapping)
        if self.base is not None and self.size is not None:
            for beat_addr in addrs:
                if not self.base <= beat_addr <= self.base + self.size - size_bytes:
                    raise ConfigError(
                        f"{self.name}: access {beat_addr:#x} outside "
                        f"[{self.base:#x}, {self.base + self.size:#x})"
                    )
        self._access = _StaticAccess(
            addrs=addrs,
            is_write=bool(self.bus.hwrite.value),
            size_bytes=size_bytes,
            owner=self.bus.addr_owner.value,
            first_beat=now + 1 + self.wait_states,
            spacing=self.burst_wait_states + 1,
        )

    def _drive_outputs(self, now: int) -> None:
        out = self.out
        access = self._access
        beat_next = (
            access is not None
            and access.beats_done < access.beats
            and now + 1 == access.beat_cycle(access.beats_done)
        )
        if beat_next:
            assert access is not None
            out.hready.drive_next_lazy(1)
            out.stream_owner.drive_next_lazy(access.owner)
            if not access.is_write:
                out.hrdata.drive_next_lazy(
                    self.memory.read(
                        access.addrs[access.beats_done], access.size_bytes
                    )
                )
        else:
            out.hready.drive_next_lazy(0)
            out.stream_owner.drive_next_lazy(NO_OWNER)
        final_beat_next = (
            beat_next
            and access is not None
            and access.beats_done == access.beats - 1
        )
        out.bus_available.drive_next_lazy(access is None or final_beat_next)
        out.ddr_busy.drive_next_lazy(access is not None)
        if access is not None and now + 1 >= access.first_beat:
            out.ddr_remaining.drive_next_lazy(access.beats - access.beats_done)
        else:
            out.ddr_remaining.drive_next_lazy(0)
        if self._fault_resp:
            # Fire the latched fault response: one hready cycle aimed at
            # the faulting owner, HRESP carrying the code.  An accepted
            # phase always finds the data path free (bus_available
            # gating), so this never overrides a real beat.
            out.hready.drive_next_lazy(1)
            out.hresp.drive_next(self._fault_resp)
            out.stream_owner.drive_next_lazy(self._fault_owner)
            self._fault_resp = 0
            self._fault_owner = NO_OWNER
            self._fault_clear = True
        elif self._fault_clear:
            out.hresp.drive_next(0)
            self._fault_clear = False
