"""Tests for the analysis layer's Table-1 machinery.

The paper figures themselves are gated in ``test_paper_results.py``.
"""

from dataclasses import asdict

import pytest

from repro.analysis import (
    LevelTotals,
    MasterAccuracy,
    Table1Result,
    compare_models,
    render_table1,
    run_table1,
)
from repro.errors import SimulationError
from repro.exec.records import RunRecord
from repro.traffic import single_master_workload, table1_pattern_a


def _record(engine, reads, cycles=100, absorbed=0, drained=0):
    return RunRecord(
        label=engine, axis="engine", value=repr(engine), engine=engine,
        system="stub", workload="stub", seed=0, cycles=cycles,
        transactions=4, bytes_transferred=16, busy_cycles=50,
        absorbed_writes=absorbed, drained_writes=drained,
        metrics=(
            ("image", ((0x40, 7),)),
            ("last_activity", (90, 95)),
            ("reads", reads),
        ),
    )


class _StubRunner:
    """Returns canned (rtl, tlm) records instead of simulating."""

    def __init__(self, *records):
        self.records = list(records)

    def run(self, grid, collect=None, max_cycles=None):
        return self.records


class TestAccuracy:
    def test_master_accuracy_math(self):
        row = MasterAccuracy(0, "m", rtl_cycles=1000, tlm_cycles=1030)
        assert row.difference == 30
        assert row.error_pct == pytest.approx(3.0)
        assert row.accuracy_pct == pytest.approx(97.0)

    def test_compare_models_functional_and_tight(self):
        result = compare_models(table1_pattern_a(40))
        assert result.total_error_pct < 15.0
        assert len(result.rows) == 4

    def test_compare_models_raises_on_read_data_mismatch(self):
        # Same memory image, different data for master 1's second read.
        runner = _StubRunner(
            _record("rtl", (((0x0, (1,)),), ((0x10, (2,)), (0x20, (3,))))),
            _record("tlm", (((0x0, (1,)),), ((0x10, (2,)), (0x20, (9,))))),
        )
        with pytest.raises(SimulationError, match=r"master 1 read #1"):
            compare_models(single_master_workload(2), runner=runner)

    def test_compare_models_takes_level_totals_from_the_records(self):
        reads = (((0x0, (1,)),), ())
        runner = _StubRunner(
            _record("rtl", reads, cycles=100, absorbed=3, drained=2),
            _record("tlm", reads, cycles=104, absorbed=5, drained=5),
        )
        result = compare_models(single_master_workload(2), runner=runner)
        assert result.rtl == LevelTotals(cycles=100, transactions=4, absorbed_writes=3, drained_writes=2)
        assert result.tlm == LevelTotals(cycles=104, transactions=4, absorbed_writes=5, drained_writes=5)
        assert result.total_error_pct == pytest.approx(4.0)

    def test_run_table1_aggregates(self):
        result = run_table1([table1_pattern_a(30), single_master_workload(30)])
        assert len(result.suites) == 2
        assert 0 <= result.average_error_pct <= 100
        assert result.average_accuracy_pct == pytest.approx(
            100 - result.average_error_pct
        )

    def test_render_table1(self):
        result = run_table1([single_master_workload(20)])
        text = render_table1(result)
        assert "RTL cycles" in text and "average accuracy" in text

    def test_from_json_rebuilds_a_result(self):
        result = run_table1([single_master_workload(20)])
        assert Table1Result.from_json([asdict(suite) for suite in result.suites]) == result
