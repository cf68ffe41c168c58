"""Tests for the extended configuration space: wrapping bursts, wide
buses and multi-slave AHB+ topologies (paper §1's flexibility
requirements and §3.7's parameters)."""

from dataclasses import replace

import pytest

from repro.ahb.decoder import AddressMap
from repro.ahb.slave import SramSlave
from repro.ahb.master import TlmMaster
from repro.core import AhbPlusConfig
from repro.core.bus import AhbPlusBusTlm
from repro.core.config import config_for_workload
from repro.ddr.controller import DdrControllerTlm
from repro.ddr.timing import DDR_TEST
from repro.system import PlatformBuilder, paper_topology
from repro.traffic import (
    CPU,
    MasterSpec,
    Workload,
    generate_items,
    single_master_workload,
)


def _platform(workload, level="tlm", config=None, **options):
    """*workload* on the paper topology, elaborated at *level*."""
    spec = paper_topology(workload=workload, config=config)
    return PlatformBuilder(spec).build(level, **options)


def wrap_pattern(index: int = 0):
    return replace(
        CPU,
        base_addr=index << 20,
        addr_span=1 << 20,
        burst_mix=((4, 0.5), (8, 0.3), (16, 0.2)),
        wrap_fraction=0.5,
    )


def wrap_workload(transactions: int = 40, masters: int = 2, seed: int = 3):
    specs = tuple(
        MasterSpec(f"wrap{i}", wrap_pattern(i), transactions)
        for i in range(masters)
    )
    return Workload("wrapping", specs, seed)


class TestWrappingBursts:
    def test_generator_emits_wrapping_bursts(self):
        items = generate_items(wrap_pattern(), 0, 60, seed=3)
        wrapped = [i.txn for i in items if i.txn.wrapping]
        assert wrapped, "wrap_fraction=0.5 should produce WRAPx bursts"
        for txn in wrapped:
            assert txn.beats in (4, 8, 16)
            block = txn.beats * txn.size_bytes
            assert (txn.addr // block) * block + block <= (1 << 20)

    def test_wrapping_functional_across_engines(self):
        workload = wrap_workload()
        method = _platform(workload)
        method.run()
        thread = _platform(workload, "tlm-threaded")
        thread.run()
        assert method.memory.equal_contents(thread.memory)

    def test_wrapping_functional_on_rtl(self):
        workload = wrap_workload(transactions=25, masters=1)
        rtl = _platform(workload, "rtl")
        rtl.run()
        tlm = _platform(workload)
        tlm.run()
        assert rtl.memory.equal_contents(tlm.memory)
        for r, t in zip(rtl.agents[0].completed, tlm.masters[0].completed):
            if not r.is_write:
                assert r.data == t.data


class TestWideBus:
    @pytest.mark.parametrize("width", [8, 16])
    def test_wide_bus_platform_runs(self, width):
        workload = single_master_workload(30)
        cfg = replace(config_for_workload(workload), bus_width_bytes=width)
        platform = _platform(workload, config=cfg)
        result = platform.run()
        assert result.transactions == 30
        assert platform.ddrc.bus_bytes == width

    def test_wide_bus_rtl_signals_sized(self):
        workload = single_master_workload(10)
        cfg = replace(config_for_workload(workload), bus_width_bytes=8)
        platform = _platform(workload, "rtl", config=cfg)
        assert platform.bus.hwdata.width == 64
        platform.run()


class TestMultiSlaveAhbPlus:
    def _dual_slave_bus(self, sram_class=SramSlave, **config):
        """AHB+ bus with the DDRC at 0 and an SRAM at 16 MiB."""
        amap = AddressMap()
        amap.add("ddr", 0x0000_0000, 1 << 24, slave_index=0)
        amap.add("sram", 0x0100_0000, 1 << 20, slave_index=1)
        ddrc = DdrControllerTlm(timing=DDR_TEST, refresh_enabled=False)
        sram = sram_class(base_addr=0x0100_0000, size=1 << 20, wait_states=0)
        from repro.ahb.master import TrafficItem
        from repro.ahb.transaction import Transaction
        from repro.ahb.types import AccessKind

        items = [
            TrafficItem(
                Transaction(
                    master=0,
                    kind=AccessKind.WRITE,
                    addr=0x0,
                    beats=4,
                    data=[1, 2, 3, 4],
                )
            ),
            TrafficItem(
                Transaction(
                    master=0,
                    kind=AccessKind.WRITE,
                    addr=0x0100_0000,
                    beats=2,
                    data=[9, 8],
                ),
                think_cycles=2,
            ),
            TrafficItem(
                Transaction(master=0, kind=AccessKind.READ, addr=0x0, beats=4),
                think_cycles=2,
            ),
            TrafficItem(
                Transaction(
                    master=0, kind=AccessKind.READ, addr=0x0100_0000, beats=2
                ),
                think_cycles=2,
            ),
        ]
        master = TlmMaster(0, "cpu", items)
        bus = AhbPlusBusTlm(
            [master],
            [ddrc, sram],
            config=AhbPlusConfig(num_masters=1, **config),
            address_map=amap,
        )
        return bus, master, ddrc, sram

    def test_routing_and_data(self):
        bus, master, ddrc, sram = self._dual_slave_bus()
        bus.run()
        assert master.completed[2].data == [1, 2, 3, 4]  # from the DDRC
        assert master.completed[3].data == [9, 8]  # from the SRAM
        assert ddrc.reads == 1 and sram.reads == 1

    def test_bank_oracle_scores_each_address_on_its_slave(self):
        bus, _, ddrc, _ = self._dual_slave_bus()
        oracle = bus.ctx.access_score
        # Every DDR bank is idle before the run: the DDRC scores 1.
        assert oracle(0x0) == ddrc.access_score(0x0, 0) == 1
        assert oracle(0x0100_0000) == 0  # the SRAM has no banks
        bus.run()
        # The run left row 0 open: now a row hit.
        assert oracle(0x0) == ddrc.access_score(0x0, bus.ctx.now) == 0
        # With the BI off there is no oracle and no next-info.
        off, _, _, _ = self._dual_slave_bus(bus_interface_enabled=False)
        assert off.ctx.access_score is None
        assert off.run().bi_next_info == 0

    def test_bankless_single_slave_gives_no_oracle(self):
        master = TlmMaster(0, "cpu", generate_items(CPU, 0, 8, seed=1))
        bus = AhbPlusBusTlm(
            [master], [SramSlave()], config=AhbPlusConfig(num_masters=1)
        )
        assert bus.config.bus_interface_enabled
        # One SRAM has no banks to score: the bank filter abstains.
        assert bus.ctx.access_score is None
        assert bus.run().per_master_transactions == [8]

    def test_transfer_waits_for_access_permission(self):
        class GatedSram(SramSlave):
            """Refuses every address phase before cycle 40."""

            def access_permitted_at(self, txn, cycle):
                return max(cycle, 40)

        bus, master, _, _ = self._dual_slave_bus(sram_class=GatedSram)
        seen = []
        bus.add_observer(lambda txn, g, s, f: seen.append((txn.addr, g, s)))
        bus.run()
        sram_starts = [s for addr, _, s in seen if addr == 0x0100_0000]
        assert len(sram_starts) == 2 and min(sram_starts) >= 40
        # The DDR write ahead of them is not held back by the SRAM's gate.
        assert min(s for addr, _, s in seen if addr == 0x0) < 40
        assert master.completed[3].data == [9, 8]
