"""Tests for the pin-accurate RTL model."""

import pytest

from repro.core.config import config_for_workload
from repro.rtl import MasterState
from repro.system import PlatformBuilder, paper_topology
from repro.traffic import (
    single_master_workload,
    table1_pattern_a,
    table1_pattern_c,
    write_heavy_workload,
)

from dataclasses import replace

from oracles import vcd_value_changes


def _platform(workload, level="tlm", config=None, **options):
    """*workload* on the paper topology, elaborated at *level*."""
    spec = paper_topology(workload=workload, config=config)
    return PlatformBuilder(spec).build(level, **options)


class TestRtlPlatform:
    def test_single_master_matches_tlm_exactly(self):
        workload = single_master_workload(30)
        rtl = _platform(workload, "rtl")
        rtl_result = rtl.run()
        tlm = _platform(workload)
        tlm_result = tlm.run()
        assert rtl_result.cycles == tlm_result.cycles
        assert rtl.memory.equal_contents(tlm.memory)

    def test_multi_master_functional_equivalence(self):
        workload = table1_pattern_a(40)
        rtl = _platform(workload, "rtl")
        rtl_result = rtl.run()
        tlm = _platform(workload)
        tlm_result = tlm.run()
        assert rtl.memory.equal_contents(tlm.memory)
        assert rtl_result.transactions == tlm_result.transactions
        # Cycle counts agree within the documented abstraction error.
        error = abs(rtl_result.cycles - tlm_result.cycles) / rtl_result.cycles
        assert error < 0.15

    def test_all_masters_drain(self):
        platform = _platform(table1_pattern_a(25), "rtl")
        platform.run()
        for master in platform.masters:
            assert master.done
            assert master.state is MasterState.IDLE
        assert platform.buffer_master.done
        assert platform.ddrc.idle

    def test_read_data_matches_writes(self):
        workload = single_master_workload(40)
        platform = _platform(workload, "rtl")
        platform.run()
        last = {}
        for txn in platform.agents[0].completed:
            addrs = range(txn.addr, txn.addr + txn.total_bytes, txn.size_bytes)
            if txn.is_write:
                for a, v in zip(addrs, txn.data):
                    last[a] = v
            else:
                for a, v in zip(addrs, txn.data):
                    if a in last:
                        assert v == last[a]

    def test_write_buffer_absorbs_under_contention(self):
        platform = _platform(write_heavy_workload(30), "rtl")
        result = platform.run()
        assert result.absorbed_writes > 0
        assert result.absorbed_writes == result.drained_writes

    def test_pipelined_grants_and_bi_traffic(self):
        platform = _platform(table1_pattern_a(30), "rtl")
        result = platform.run()
        assert result.pipelined_grants > 0
        assert result.bi_next_info > 0
        assert platform.ddrc.prepared_banks > 0

    def test_bi_disabled_removes_preparation(self):
        workload = table1_pattern_a(25)
        cfg = replace(config_for_workload(workload), bus_interface_enabled=False)
        platform = _platform(workload, "rtl", config=cfg)
        result = platform.run()
        assert result.bi_next_info == 0
        assert platform.ddrc.prepared_banks == 0

    def test_pipelining_disabled_still_drains(self):
        workload = table1_pattern_a(25)
        cfg = replace(config_for_workload(workload), request_pipelining=False)
        on = _platform(workload, "rtl").run()
        off = _platform(workload, "rtl", config=cfg).run()
        assert off.pipelined_grants == 0
        assert on.cycles < off.cycles

    def test_refreshes_happen_on_long_runs(self):
        workload = table1_pattern_c(40)
        platform = _platform(workload, "rtl")
        platform.run()
        assert platform.ddrc.refreshes > 0

    def test_qos_tracked(self):
        platform = _platform(table1_pattern_c(25), "rtl")
        result = platform.run()
        assert result.rt_deadline_hits + result.rt_deadline_misses > 0

    def test_vcd_trace_produced(self):
        platform = _platform(single_master_workload(5), "rtl", trace=True)
        platform.run()
        assert platform.tracer is not None
        text = platform.tracer.getvalue()
        assert "$enddefinitions" in text
        assert vcd_value_changes(text) > 10

    def test_rtl_evaluate_cost_is_per_cycle(self):
        # The cost model the speedup rests on: the reference sweep pays
        # evaluate passes per cycle, not per transaction — and the
        # fast-forward engine only ever does less of that work (idle
        # settles elided, fully idle cycle ranges skipped outright).
        workload = single_master_workload(10)
        reference = _platform(workload, "rtl", full_sweep=True)
        ref_result = reference.run()
        assert reference.engine.evaluate_passes >= ref_result.cycles
        fast = _platform(workload, "rtl")
        fast_result = fast.run()
        assert fast_result.cycles == ref_result.cycles
        assert fast.engine.evaluate_passes <= reference.engine.evaluate_passes
