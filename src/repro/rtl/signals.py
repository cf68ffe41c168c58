"""Signal bundles of the pin-accurate AHB+ model.

Naming follows AMBA 2.0 (HBUSREQ, HGRANT, HTRANS, ...) plus the AHB+
extensions: the sideband burst length ``HLEN`` (the arbiter forwards
full transfer descriptors, which is how the BI can announce the next
transaction), the ``BI_*`` channel between arbiter and DDRC, and the
handover bookkeeping registers (``ADDR_OWNER``, ``STREAM_OWNER``).

Every signal is a :class:`repro.kernel.signal.Signal` evaluated by the
2-step cycle engine — this per-cycle, per-signal cost is exactly what
the paper's RTL reference pays and its TLM avoids.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.ahb.types import HTrans
from repro.kernel.signal import Signal, SignalBundle

#: Value of owner registers when nobody owns the bus.
NO_OWNER = 0xFF


class MasterSignals(SignalBundle):
    """Per-master request/grant pair plus the master-driven bus inputs."""

    def __init__(self, index: int) -> None:
        super().__init__(f"m{index}")
        self.index = index
        self.hbusreq = self.make("hbusreq")
        self.hgrant = self.make("hgrant")
        self.htrans = self.make("htrans", width=2, reset=int(HTrans.IDLE))
        self.haddr = self.make("haddr", width=32)
        self.hwrite = self.make("hwrite")
        self.hburst = self.make("hburst", width=3)
        self.hlen = self.make("hlen", width=8, reset=1)  # AHB+ sideband beats
        self.hsize = self.make("hsize", width=3)
        self.hwdata = self.make("hwdata", width=32)
        #: AHB+ sideband: fault-plan response the addressed slave must
        #: answer this presentation with (testbench fault injection; 0 =
        #: no fault).  Rides next to HLEN — the fault plan lives on the
        #: transaction, so the master carries it to the slave.
        self.hfault = self.make("hfault", width=2)


class SharedBusSignals(SignalBundle):
    """The multiplexed address/data bus plus slave responses."""

    def __init__(self, bus_width_bits: int = 32) -> None:
        super().__init__("bus")
        self.htrans = self.make("htrans", width=2, reset=int(HTrans.IDLE))
        self.haddr = self.make("haddr", width=32)
        self.hwrite = self.make("hwrite")
        self.hburst = self.make("hburst", width=3)
        self.hlen = self.make("hlen", width=8, reset=1)
        self.hsize = self.make("hsize", width=3)
        self.hfault = self.make("hfault", width=2)
        self.hwdata = self.make("hwdata", width=bus_width_bits)
        self.hrdata = self.make("hrdata", width=bus_width_bits)
        self.hready = self.make("hready", reset=1)
        self.hresp = self.make("hresp", width=2)
        #: Address-phase owner (who the mux routes onto HADDR/HTRANS).
        self.addr_owner = self.make("addr_owner", width=8, reset=NO_OWNER)
        #: Data-phase owner (whose HWDATA the mux routes).
        self.stream_owner = self.make("stream_owner", width=8, reset=NO_OWNER)
        #: DDRC: an address phase presented this cycle will be accepted.
        self.bus_available = self.make("bus_available", reset=1)
        #: DDRC: data beats left (incl. this cycle) in the in-flight access.
        self.ddr_remaining = self.make("ddr_remaining", width=16)
        #: DDRC: some access is queued or streaming.
        self.ddr_busy = self.make("ddr_busy")


class SlaveResponseSignals(SignalBundle):
    """One slave's private response channel on a multi-slave fabric.

    Attribute names deliberately mirror the response half of
    :class:`SharedBusSignals` (``hready``/``hrdata``/``stream_owner``/
    ``bus_available``/``ddr_busy``/``ddr_remaining``) so a slave FSM can
    drive either the shared bus directly (single-slave platform, the
    paper topology) or its private bundle (multi-slave platform, where
    the :class:`~repro.rtl.mux.ResponseMux` combines the bundles onto
    the shared bus) through the same code path.
    """

    def __init__(self, name: str, bus_width_bits: int = 32) -> None:
        super().__init__(f"s{name}")
        self.hready = self.make("hready")
        self.hresp = self.make("hresp", width=2)
        self.hrdata = self.make("hrdata", width=bus_width_bits)
        self.stream_owner = self.make("stream_owner", width=8, reset=NO_OWNER)
        #: An address phase presented this cycle will be accepted.
        self.bus_available = self.make("bus_available", reset=1)
        #: Some access is queued or streaming at this slave.
        self.ddr_busy = self.make("ddr_busy")
        #: Data beats left (incl. this cycle) in the in-flight access.
        self.ddr_remaining = self.make("ddr_remaining", width=16)


class BiSignals(SignalBundle):
    """The AHB+ Bus Interface channel (arbiter → DDRC and back)."""

    def __init__(self) -> None:
        super().__init__("bi")
        self.next_valid = self.make("next_valid")
        self.next_addr = self.make("next_addr", width=32)
        self.next_write = self.make("next_write")
        self.next_len = self.make("next_len", width=8, reset=1)
        self.next_wrap = self.make("next_wrap")
        self.next_size = self.make("next_size", width=3)
        #: DDRC → arbiter: banks with no open row (idle-bank map).
        self.idle_banks = self.make("idle_banks", width=16)
        #: DDRC → arbiter: refresh in progress, hold new address phases.
        self.refresh_busy = self.make("refresh_busy")


def all_signals(
    masters: List[MasterSignals],
    bus: SharedBusSignals,
    bi: BiSignals,
    extra: Sequence[SignalBundle] = (),
) -> List[Signal]:
    """Flatten every signal for cycle-engine registration / tracing.

    ``extra`` carries additional bundles — the per-slave response
    channels of a multi-slave fabric.
    """
    flat: List[Signal] = []
    for bundle in [*masters, bus, bi, *extra]:
        flat.extend(bundle.signals())
    return flat
