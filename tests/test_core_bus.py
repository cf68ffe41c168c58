"""End-to-end tests for the method-based AHB+ TLM engine."""

import pytest

from repro.ahb import AccessKind, SramSlave, TlmMaster, TrafficItem, Transaction
from repro.core import AhbPlusBusTlm, AhbPlusConfig, QosSetting
from repro.core.config import config_for_workload
from repro.ddr.timing import DDR_TEST
from repro.errors import ConfigError
from repro.system import PlatformBuilder, paper_topology
from repro.traffic import (
    bank_striped_workload,
    saturating_workload,
    single_master_workload,
    table1_pattern_a,
    table1_pattern_c,
    write_heavy_workload,
)

from dataclasses import fields, replace


def _platform(workload, level="tlm", config=None, **options):
    """*workload* on the paper topology, elaborated at *level*."""
    spec = paper_topology(workload=workload, config=config)
    return PlatformBuilder(spec).build(level, **options)


class TestMethodEngine:
    def test_single_master_completes_all_traffic(self):
        platform = _platform(single_master_workload(40))
        result = platform.run()
        assert result.per_master_transactions == [40]
        assert platform.masters[0].done

    def test_multi_master_conservation(self):
        workload = table1_pattern_a(50)
        platform = _platform(workload)
        result = platform.run()
        # Every issued transaction is served exactly once on the bus
        # (absorbed writes replay as drains).
        assert result.transactions == workload.total_transactions
        assert result.drained_writes == result.absorbed_writes

    def test_utilization_bounded(self):
        result = _platform(table1_pattern_a(50)).run()
        assert 0.0 < result.utilization <= 1.0

    def test_pipelining_reduces_cycles(self):
        workload = table1_pattern_a(50)
        base = config_for_workload(workload)
        on = _platform(workload, config=base).run()
        off = _platform(workload, config=replace(base, request_pipelining=False)).run()
        assert on.cycles < off.cycles
        assert on.pipelined_grants > 0 and off.pipelined_grants == 0

    def test_write_buffer_hides_write_latency(self):
        workload = write_heavy_workload(60)
        base = config_for_workload(workload)
        with_buffer = _platform(workload, config=base)
        r_on = with_buffer.run()
        without = _platform(workload, config=replace(base, write_buffer_enabled=False))
        r_off = without.run()
        assert r_on.absorbed_writes > 0 and r_off.absorbed_writes == 0

        def mean_write_latency(platform):
            writes = [
                t
                for m in platform.masters
                for t in m.completed
                if t.is_write
            ]
            return sum(t.finished_at - t.issued_at for t in writes) / len(writes)

        assert mean_write_latency(with_buffer) < mean_write_latency(without)

    def test_posted_write_then_read_sees_fresh_data(self):
        # RAW hazard: the hazard filter must drain the buffer before a
        # read of the same address is served.
        workload = write_heavy_workload(60)
        platform = _platform(workload)
        platform.run()
        for master in platform.masters:
            last_written = {}
            for txn in master.completed:
                addrs = range(txn.addr, txn.addr + txn.total_bytes, txn.size_bytes)
                if txn.is_write:
                    for a, v in zip(addrs, txn.data):
                        last_written[a] = v
                else:
                    for a, v in zip(addrs, txn.data):
                        if a in last_written:
                            assert v == last_written[a]

    def test_qos_deadlines_met_under_saturation(self):
        workload = saturating_workload(40)
        result = _platform(workload).run()
        assert result.rt_deadline_misses == 0
        assert result.rt_deadline_hits > 0

    def test_bi_disabled_means_no_preparation(self):
        workload = bank_striped_workload(60)
        cfg = replace(config_for_workload(workload), bus_interface_enabled=False)
        platform = _platform(workload, config=cfg)
        result = platform.run()
        assert result.bi_next_info == 0
        assert platform.ddrc.prepared_banks == 0

    def test_observers_see_all_transactions(self):
        platform = _platform(table1_pattern_a(30))
        seen = []
        platform.bus.add_observer(lambda txn, g, s, f: seen.append(txn.uid))
        result = platform.run()
        assert len(seen) == result.transactions

    def test_max_cycles_truncates(self):
        platform = _platform(table1_pattern_a(100))
        result = platform.run(max_cycles=200)
        assert result.cycles <= 400  # a transfer may straddle the limit

    def test_filter_stats_present(self):
        result = _platform(table1_pattern_c(30)).run()
        assert set(result.filter_stats) == {
            "request",
            "hazard",
            "urgency",
            "real-time",
            "pressure",
            "bank",
            "tie-break",
        }

    def test_plain_platform_is_slower_than_ahbplus(self):
        workload = table1_pattern_a(60)
        plain = _platform(workload, "plain").run()
        ahbp = _platform(workload).run()
        assert ahbp.cycles < plain.cycles


class TestPlatformBuilders:
    def test_config_master_count_mismatch(self):
        workload = table1_pattern_a(10)
        with pytest.raises(ConfigError):
            _platform(workload, config=AhbPlusConfig(num_masters=2))

    def test_workload_qos_merged_into_config(self):
        workload = table1_pattern_c(10)
        platform = _platform(workload)
        assert platform.config.qos[0].real_time
        assert platform.bus.qos.is_real_time(0)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError):
            _platform(table1_pattern_a(10), "fpga")

    def test_config_for_workload_keeps_every_field(self):
        base = AhbPlusConfig(
            num_masters=4,
            bus_width_bytes=8,
            write_buffer_enabled=False,
            write_buffer_depth=2,
            request_pipelining=False,
            pipeline_lead=3,
            bus_interface_enabled=False,
            tie_break="round_robin",
            disabled_filters=("bank",),
            urgency_margin=7,
            starvation_limit=9,
            arbitration_cycles=2,
            qos={1: QosSetting(True, 50)},
            ddr_timing=DDR_TEST,
            refresh_enabled=False,
            memory_size=1 << 20,
        )
        default = AhbPlusConfig(num_masters=base.num_masters)
        derived = config_for_workload(table1_pattern_a(10), base)
        for f in fields(AhbPlusConfig):
            if f.name == "num_masters":
                continue
            # A field left at its default here could not show a reset.
            assert getattr(base, f.name) != getattr(default, f.name), f.name
            assert getattr(derived, f.name) == getattr(base, f.name), f.name

    def test_without_extensions(self):
        cfg = AhbPlusConfig(
            num_masters=4, tie_break="round_robin", arbitration_cycles=0
        ).without_extensions()
        assert not cfg.write_buffer_enabled
        assert not cfg.request_pipelining
        assert not cfg.bus_interface_enabled
        assert len(cfg.disabled_filters) == 6
        assert cfg.tie_break == "fixed"
        assert cfg.arbitration_cycles == 1
        slow = AhbPlusConfig(arbitration_cycles=5).without_extensions()
        assert slow.arbitration_cycles == 5

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            AhbPlusConfig(bus_width_bytes=3)
        with pytest.raises(ConfigError):
            AhbPlusConfig(tie_break="coinflip")
        with pytest.raises(ConfigError):
            AhbPlusConfig(disabled_filters=("tie-break",))
        with pytest.raises(ConfigError):
            AhbPlusConfig(num_masters=2, qos={5: QosSetting(True, 10)})


def _agent(index, *items):
    return TlmMaster(index, f"m{index}", list(items))


def _item(master, addr, kind=AccessKind.READ, beats=1, think=0, data=None):
    txn = Transaction(
        master=master, kind=kind, addr=addr, beats=beats, data=list(data or [])
    )
    return TrafficItem(txn, think_cycles=think)


def _plain_bus(*agents, arbitration_cycles=1):
    """The plain AMBA 2.0 baseline: the AHB+ engine, extensions off."""
    # ``or 1`` keeps a master-less call failing in the bus, not the config.
    config = AhbPlusConfig(
        num_masters=len(agents) or 1, arbitration_cycles=arbitration_cycles
    ).without_extensions()
    return AhbPlusBusTlm(list(agents), [SramSlave()], config=config)


class TestPlainBaseline:
    def test_single_master_runs_to_completion(self):
        bus = _plain_bus(
            _agent(
                0,
                _item(0, 0x0, AccessKind.WRITE, 2, data=[1, 2]),
                _item(0, 0x0, beats=2, think=1),
            )
        )
        result = bus.run()
        assert result.transactions == 2
        assert bus.masters[0].completed[1].data == [1, 2]

    def test_fixed_priority_ordering(self):
        low = _agent(0, _item(0, 0x10))
        high = _agent(1, _item(1, 0x20))
        _plain_bus(low, high).run()
        assert low.completed[0].finished_at < high.completed[0].finished_at

    def test_idle_gap_advances_time(self):
        bus = _plain_bus(_agent(0, _item(0, 0x0), _item(0, 0x4, think=50)))
        result = bus.run()
        assert result.cycles > 50
        assert result.utilization < 0.5

    def test_observer_called_per_transaction(self):
        seen = []
        bus = _plain_bus(_agent(0, _item(0, 0x0), _item(0, 0x4)))
        bus.add_observer(lambda txn, g, s, f: seen.append((txn.uid, g, s, f)))
        bus.run()
        assert len(seen) == 2
        for _uid, grant, start, finish in seen:
            assert grant <= start <= finish

    def test_max_cycles_stops_early(self):
        items = [_item(0, 4 * i, think=10) for i in range(50)]
        result = _plain_bus(_agent(0, *items)).run(max_cycles=30)
        assert result.transactions < 50

    def test_arbitration_latency_counted(self):
        fast = _plain_bus(_agent(0, _item(0, 0x0)), arbitration_cycles=1)
        slow = _plain_bus(_agent(0, _item(0, 0x0)), arbitration_cycles=6)
        assert slow.run().cycles == fast.run().cycles + 5

    def test_empty_masters_rejected(self):
        with pytest.raises(ConfigError):
            _plain_bus()

    def test_per_master_counts(self):
        a = _agent(0, _item(0, 0x0), _item(0, 0x8))
        b = _agent(1, _item(1, 0x100))
        assert _plain_bus(a, b).run().per_master_transactions == [2, 1]
