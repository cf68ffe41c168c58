"""Cross-model integration tests: the paper's claims at small scale."""

import pytest

from repro.analysis import run_table1
from repro.system import PlatformBuilder, paper_topology
from repro.traffic import (
    saturating_workload,
    single_master_workload,
    table1_workloads,
)


def _platform(workload, level="tlm", config=None, **options):
    """*workload* on the paper topology, elaborated at *level*."""
    spec = paper_topology(workload=workload, config=config)
    return PlatformBuilder(spec).build(level, **options)


class TestPaperClaims:
    def test_table1_average_accuracy(self):
        """Average TLM cycle error across the suites stays paper-grade."""
        result = run_table1(table1_workloads(60))
        assert result.all_functional
        assert result.average_error_pct <= 8.0  # paper: < 3 % at full scale
        # At least one suite should be nearly exact.
        assert min(s.total_error_pct for s in result.suites) < 1.0

    def test_qos_guarantee_is_the_ahbplus_difference(self):
        """Plain AHB starves the low-priority RT stream; AHB+ does not."""
        workload = saturating_workload(30)
        plain = _platform(workload, "plain")
        plain_result = plain.run()
        rt = workload.num_masters - 1
        plain_misses = sum(
            1 for t in plain.masters[rt].completed if t.met_deadline is False
        )
        ahbp = _platform(workload)
        result = ahbp.run()
        assert plain_misses > 0
        # The plain record counts deadline outcomes like every engine.
        assert plain_result.rt_deadline_misses == plain_misses
        assert result.rt_deadline_misses == 0

    def test_three_models_agree_functionally(self):
        """Method TLM, thread TLM and RTL compute identical memory images."""
        workload = table1_workloads(30)[0]
        method = _platform(workload)
        method.run()
        thread = _platform(workload, "tlm-threaded")
        thread.run()
        rtl = _platform(workload, "rtl")
        rtl.run()
        assert method.memory.equal_contents(thread.memory)
        assert method.memory.equal_contents(rtl.memory)

    def test_rtl_transaction_conservation(self):
        workload = table1_workloads(30)[1]
        rtl = _platform(workload, "rtl")
        result = rtl.run()
        assert result.transactions == workload.total_transactions

    def test_seed_reproducibility_across_runs(self):
        workload = single_master_workload(25)
        first = _platform(workload).run()
        second = _platform(workload).run()
        assert first.cycles == second.cycles
        assert first.bytes_transferred == second.bytes_transferred
