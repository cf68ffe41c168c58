"""Unit-level tests for RTL building blocks: signals, mux, arbiter."""

import pytest

from repro.ahb.types import HTrans
from repro.core.config import AhbPlusConfig, config_for_workload
from repro.kernel.cycle import CycleEngine
from repro.rtl.mux import BusMux
from repro.rtl.signals import (
    BiSignals,
    MasterSignals,
    NO_OWNER,
    SharedBusSignals,
    all_signals,
)
from repro.system import PlatformBuilder, paper_topology
from repro.traffic import table1_pattern_a, table1_pattern_c

from dataclasses import replace


class TestSignalBundles:
    def test_master_bundle_names(self):
        sigs = MasterSignals(2)
        names = {s.name for s in sigs.signals()}
        assert "m2.hbusreq" in names and "m2.hwdata" in names

    def test_shared_bus_defaults(self):
        bus = SharedBusSignals()
        assert bus.hready.value == 1
        assert bus.addr_owner.value == NO_OWNER
        assert bus.htrans.value == int(HTrans.IDLE)

    def test_all_signals_flattens_everything(self):
        masters = [MasterSignals(i) for i in range(2)]
        bus = SharedBusSignals()
        bi = BiSignals()
        flat = all_signals(masters, bus, bi)
        expected = sum(len(list(b.signals())) for b in [*masters, bus, bi])
        assert len(flat) == expected

    def test_bus_width_parameterised(self):
        bus = SharedBusSignals(bus_width_bits=64)
        assert bus.hwdata.width == 64 and bus.hrdata.width == 64


class TestBusMux:
    def _mux_setup(self):
        engine = CycleEngine()
        masters = [MasterSignals(i) for i in range(2)]
        bus = SharedBusSignals()
        mux = BusMux(masters, bus, engine)
        return engine, masters, bus, mux

    def test_routes_address_phase_driver(self):
        _, masters, bus, mux = self._mux_setup()
        masters[1].htrans.drive(int(HTrans.NONSEQ))
        masters[1].haddr.drive(0x1234)
        masters[1].hwrite.drive(1)
        mux.evaluate()
        assert bus.htrans.value == int(HTrans.NONSEQ)
        assert bus.haddr.value == 0x1234
        assert bus.addr_owner.value == 1

    def test_idle_when_nobody_drives(self):
        _, _, bus, mux = self._mux_setup()
        mux.evaluate()
        assert bus.htrans.value == int(HTrans.IDLE)
        assert bus.addr_owner.value == NO_OWNER

    def test_write_data_follows_stream_owner(self):
        _, masters, bus, mux = self._mux_setup()
        masters[0].hwdata.drive(0xAA)
        masters[1].hwdata.drive(0xBB)
        bus.stream_owner.drive(1)
        mux.evaluate()
        assert bus.hwdata.value == 0xBB


class TestRtlArbiterBehaviour:
    def test_only_one_grant_ever(self):
        platform = PlatformBuilder(
            paper_topology(workload=table1_pattern_a(20))
        ).build("rtl")
        grants_per_cycle = []

        def watch(cycle):
            granted = sum(
                m.sig.hgrant.value for m in platform.masters
            ) + platform.buffer_master.sig.hgrant.value
            grants_per_cycle.append(granted)

        platform.engine.add_cycle_hook(watch)
        platform.run()
        assert max(grants_per_cycle) <= 1

    def test_filter_sharing_with_tlm(self):
        # RTL arbiter uses the same filter classes as the TLM engines.
        platform = PlatformBuilder(
            paper_topology(workload=table1_pattern_c(10))
        ).build("rtl")
        names = [f.name for f in platform.arbiter.arbiter.filters]
        assert names == [
            "request",
            "hazard",
            "urgency",
            "real-time",
            "pressure",
            "bank",
            "tie-break",
        ]

    def test_disabled_filters_propagate_to_rtl(self):
        workload = table1_pattern_a(10)
        cfg = replace(
            config_for_workload(workload), disabled_filters=("bank",)
        )
        platform = PlatformBuilder(
            paper_topology(workload=workload, config=cfg)
        ).build("rtl")
        assert not platform.arbiter.arbiter.filter_by_name("bank").enabled

    def test_grants_issued_counted(self):
        platform = PlatformBuilder(
            paper_topology(workload=table1_pattern_a(15))
        ).build("rtl")
        platform.run()
        assert platform.arbiter.grants_issued > 0
