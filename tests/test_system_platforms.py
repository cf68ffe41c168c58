"""PlatformBuilder acceptance: engine agreement, observers, multi-slave routing.

Three guarantees pinned here (the golden arbitration trace itself is
pinned by ``test_determinism_golden.py``):

1. The method and threaded TLM levels of one spec agree.
2. ``Platform.attach`` delivers the same observations on every engine.
3. The multi-slave scenario (DDR + SRAM + APB stub) builds at TLM and
   RTL levels, routes every burst to its region, and passes a
   functional read-back check across all mapped regions at both levels.
"""

import warnings

import pytest

from repro.ahb.burst import transaction_addresses
from repro.core import AhbPlusBusTlm, ThreadedAhbPlusBus
from repro.profiling import BusMonitor
from repro.system import (
    PlatformBuilder,
    RtlPlatform,
    TlmPlatform,
    paper_topology,
    scenario,
)
from repro.system.scenarios import APB_BASE, DDR_BASE, SRAM_BASE
from repro.traffic import (
    MasterSpec,
    TrafficPattern,
    Workload,
    single_master_workload,
    table1_pattern_a,
)


class TestGoldenThroughSpecApi:
    def test_threaded_level_matches_method_level(self):
        method = PlatformBuilder(
            paper_topology(workload=table1_pattern_a(40))
        ).build("tlm").run()
        thread = PlatformBuilder(
            paper_topology(workload=table1_pattern_a(40))
        ).build("tlm-threaded").run()
        assert method.cycles == thread.cycles
        assert method.filter_stats == thread.filter_stats


class TestPlatformRecords:
    @pytest.mark.parametrize(
        "level, record, bus",
        [
            ("tlm", TlmPlatform, AhbPlusBusTlm),
            ("tlm-threaded", TlmPlatform, ThreadedAhbPlusBus),
            ("plain", TlmPlatform, AhbPlusBusTlm),
            ("rtl", RtlPlatform, None),
        ],
    )
    def test_level_builds_its_record_without_warnings(self, level, record, bus):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            platform = PlatformBuilder(
                paper_topology(workload=single_master_workload(5))
            ).build(level)
            result = platform.run()
        assert type(platform) is record
        if bus is not None:
            assert type(platform.bus) is bus
        # The builder always hands over the slaves: DDRC first on the paper
        # topology, and its store is the platform's memory.
        assert platform.slaves[0] is platform.ddrc
        assert platform.memory is platform.ddrc.memory
        assert result.transactions == 5


class TestAttach:
    @pytest.mark.parametrize("level", ["tlm", "tlm-threaded", "plain"])
    def test_live_observer_sees_every_transfer(self, level):
        platform = PlatformBuilder(
            paper_topology(workload=table1_pattern_a(25))
        ).build(level)
        monitor = BusMonitor()
        platform.attach(monitor)
        result = platform.run()
        assert monitor.transactions == result.transactions
        assert monitor.bytes_moved == result.bytes_transferred

    def test_rtl_attach_replays_bus_transfers(self):
        platform = PlatformBuilder(
            paper_topology(workload=table1_pattern_a(25))
        ).build("rtl")
        monitor = BusMonitor()
        seen = []
        platform.attach(monitor)
        platform.attach(lambda txn, g, s, f: seen.append((txn.master, g, s, f)))
        result = platform.run()
        # Replay mirrors live TLM observers: bus transfers only — the
        # non-posted master transactions plus the buffer's drains.
        direct = sum(
            1
            for agent in platform.agents
            for txn in agent.completed
            if not txn.via_write_buffer
        )
        drains = len(platform.buffer_master.drained_txns)
        assert drains == result.drained_writes
        assert len(seen) == direct + drains
        assert monitor.transactions == direct + drains
        # Every replayed observation carries real bus cycles (no -1s
        # from absorbed originals that never owned the bus).
        assert all(g >= 0 and s >= 0 and f >= s for _m, g, s, f in seen)
        # Drains show up under the write buffer's pseudo-master port.
        if drains:
            assert monitor.write_buffer_port.writes == drains


def _functional_readback(masters_like):
    """Replay each master's completed stream against a model store.

    Masters own disjoint windows, so per-master replay is exact: every
    write updates the model at its beat addresses; every read must
    return the model's current contents (zero for never-written bytes
    would need byte granularity — windows are word-aligned and patterns
    use 4-byte beats, so word granularity is exact here).
    """
    checked_reads = 0
    for master in masters_like:
        model = {}
        for txn in sorted(master.completed, key=lambda t: t.uid):
            addrs = transaction_addresses(txn)
            if txn.is_write:
                data = txn.data if txn.data else [0] * txn.beats
                for addr, word in zip(addrs, data):
                    model[addr] = word
            else:
                assert len(txn.data) == txn.beats
                for addr, word in zip(addrs, txn.data):
                    if addr in model:
                        assert word == model[addr], (
                            f"{master.name}: read-back mismatch at {addr:#x}"
                        )
                        checked_reads += 1
    return checked_reads


class TestMultiSlaveScenario:
    @pytest.fixture(scope="class")
    def platforms(self):
        spec = scenario("multi-slave-soc", transactions=60)
        tlm = PlatformBuilder(spec).build("tlm")
        tlm_result = tlm.run()
        rtl = PlatformBuilder(spec).build("rtl")
        rtl_result = rtl.run()
        return spec, tlm, tlm_result, rtl, rtl_result

    def test_builds_at_every_level(self):
        spec = scenario("multi-slave-soc", transactions=10)
        for level in ("tlm", "tlm-threaded", "plain", "rtl"):
            result = PlatformBuilder(spec).build(level).run()
            assert result.transactions == 40

    def test_every_region_sees_traffic(self, platforms):
        _spec, tlm, _tr, _rtl, _rr = platforms
        ddr, sram, apb = tlm.slaves
        assert ddr.reads + ddr.writes > 0
        assert sram.reads + sram.writes > 0
        assert apb.reads + apb.writes > 0

    @pytest.fixture(scope="class")
    def readback_spec(self):
        """The multi-slave map under write-then-read-heavy tight windows.

        Each master hammers a 2 KiB window of one region with mixed
        reads/writes and high sequential locality, so reads re-visit
        written addresses in every region — the read-back condition the
        scenario's wide random windows rarely hit.
        """

        def hammer(base):
            return TrafficPattern(
                name="rw-hammer",
                read_fraction=0.5,
                burst_mix=((1, 0.3), (4, 0.7)),
                think_range=(0, 2),
                base_addr=base,
                addr_span=2048,
                sequential_fraction=0.85,
            )

        workload = Workload(
            "readback",
            (
                MasterSpec("ddr-rw", hammer(DDR_BASE), 150),
                MasterSpec("sram-rw", hammer(SRAM_BASE), 150),
                MasterSpec("apb-rw", hammer(APB_BASE), 150),
            ),
            seed=3,
        )
        return scenario("multi-slave-soc").with_workload(workload)

    def test_functional_readback_all_regions_tlm(self, readback_spec):
        platform = PlatformBuilder(readback_spec).build("tlm")
        platform.run()
        checked = _functional_readback(platform.masters)
        assert checked > 50  # reads really re-visited written words

    def test_functional_readback_all_regions_rtl(self, readback_spec):
        platform = PlatformBuilder(readback_spec).build("rtl")
        platform.run()
        checked = _functional_readback(platform.agents)
        assert checked > 50

    def test_cross_level_functional_equivalence(self, platforms):
        _spec, tlm, _tr, rtl, _rr = platforms
        # DDR images are directly comparable MemoryModels.
        assert tlm.ddrc.memory.equal_contents(rtl.ddrc.memory)
        # Per-master read streams must match word for word.
        for t_master, r_agent in zip(tlm.masters, rtl.agents):
            t_reads = [t.data for t in t_master.completed if not t.is_write]
            r_reads = [t.data for t in r_agent.completed if not t.is_write]
            assert t_reads == r_reads, t_master.name

    def test_static_stores_match_across_levels(self, platforms):
        _spec, tlm, _tr, rtl, _rr = platforms
        sram_tlm, apb_tlm = tlm.slaves[1], tlm.slaves[2]
        sram_rtl, apb_rtl = rtl.static_slaves
        assert sram_tlm.writes == sram_rtl.writes
        assert apb_tlm.writes == apb_rtl.writes
        # Every word the RTL store holds must read back identically from
        # the TLM slave (scenario traffic is word-sized and aligned).
        for t_slave, r_slave in [(sram_tlm, sram_rtl), (apb_tlm, apb_rtl)]:
            word_addrs = sorted({addr & ~3 for addr, _b in r_slave.memory.items()})
            assert word_addrs, r_slave.name
            for addr in word_addrs:
                assert t_slave.peek_word(addr, 4) == r_slave.memory.read(addr, 4)

    @pytest.mark.parametrize("level", ["tlm", "tlm-threaded"])
    def test_bi_off_bank_filter_abstains(self, level):
        """BI disabled on a multi-slave map: no bank-score oracle exists,
        so the bank filter must abstain (narrow nothing) and no BI
        next-info may flow — matching single-slave and RTL semantics."""
        spec = scenario("multi-slave-soc", transactions=25).with_config(
            bus_interface_enabled=False
        )
        result = PlatformBuilder(spec).build(level).run()
        assert result.filter_stats["bank"]["narrowed"] == 0
        assert result.bi_next_info == 0

    def _hole_spec(self, default_slave=None):
        """Multi-slave map with traffic aimed at an unmapped window."""
        hole = TrafficPattern(
            name="hole",
            burst_mix=((1, 1.0),),
            base_addr=0x0A00_0000,  # beyond every mapped region
            addr_span=4096,
        )
        workload = Workload("hole", (MasterSpec("m0", hole, 5),), seed=1)
        spec = scenario("multi-slave-soc").with_workload(workload)
        if default_slave is not None:
            import dataclasses

            spec = dataclasses.replace(spec, default_slave=default_slave)
        return spec

    @pytest.mark.parametrize("level", ["tlm", "rtl"])
    def test_unmapped_access_fails_loudly_on_strict_map(self, level):
        """Strict map + unmapped address: both levels raise instead of
        serving garbage (TLM) or hanging with no responder (RTL)."""
        from repro.errors import MemoryError_

        platform = PlatformBuilder(self._hole_spec()).build(level)
        with pytest.raises(MemoryError_):
            platform.run(max_cycles=50_000)

    @pytest.mark.parametrize("level", ["tlm", "rtl"])
    def test_default_slave_routes_consistently_at_both_levels(self, level):
        """With a default slave, the hole routes to it at every level;
        the catch-all slave's own bounds then reject the stray access
        identically (ConfigError) instead of TLM-serves/RTL-hangs."""
        from repro.errors import ConfigError

        platform = PlatformBuilder(self._hole_spec(default_slave=2)).build(level)
        with pytest.raises(ConfigError, match="outside"):
            platform.run(max_cycles=50_000)

    def test_cycle_accuracy_within_paper_range(self, platforms):
        _spec, _tlm, tlm_result, _rtl, rtl_result = platforms
        error = abs(rtl_result.cycles - tlm_result.cycles) / rtl_result.cycles
        assert error < 0.10  # paper reports ~96–98% accuracy
        assert tlm_result.transactions == rtl_result.transactions


class TestMpegBurstyScenario:
    """Bursty MPEG-like arrivals (scenario backlog) at TLM and RTL."""

    def test_registered_and_stream_mode(self):
        spec = scenario("mpeg-bursty", transactions=10)
        patterns = [m.pattern for m in spec.workload.masters]
        assert any(p.burst_gap is not None for p in patterns)
        # RT decoder streams carry QoS settings into the config.
        assert spec.config().qos

    def test_runs_at_tlm_and_rtl_with_functional_match(self):
        spec = scenario("mpeg-bursty", transactions=25)
        builder = PlatformBuilder(spec)
        tlm = builder.build("tlm")
        tlm_result = tlm.run()
        rtl = builder.build("rtl")
        rtl_result = rtl.run()
        assert tlm_result.transactions > 0
        assert rtl.memory.equal_contents(tlm.memory)
        # Same stream at both levels: cycle counts must stay close
        # (the paper's accuracy claim extends to bursty arrivals).
        error = abs(tlm_result.cycles - rtl_result.cycles) / rtl_result.cycles
        assert error < 0.10

    def test_bursts_visible_in_issue_schedule(self):
        """Inter-frame gaps must actually shape the issue timeline."""
        spec = scenario("mpeg-bursty", transactions=30)
        per_burst, gap_lo, _hi = spec.workload.masters[0].pattern.burst_gap
        platform = PlatformBuilder(spec).build("tlm")
        platform.run()
        issued = sorted(
            txn.issued_at for txn in platform.masters[0].completed
        )
        gaps = [b - a for a, b in zip(issued, issued[1:])]
        long_gaps = [g for g in gaps if g >= gap_lo]
        assert len(long_gaps) >= (30 // per_burst) - 1
