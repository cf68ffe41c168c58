"""Tests for profiling statistics, monitors and reports."""

import pytest

from repro.errors import ConfigError
from repro.profiling import (
    BusMonitor,
    Histogram,
    RunningStats,
    ThroughputWindow,
    bus_summary,
    filter_report,
    format_table,
    port_report,
)
from repro.system import PlatformBuilder, paper_topology
from repro.traffic import table1_pattern_a, table1_pattern_c


class TestRunningStats:
    def test_mean_min_max(self):
        stats = RunningStats()
        for v in (4, 10, 1):
            stats.add(v)
        assert stats.mean == 5.0
        assert stats.minimum == 1 and stats.maximum == 10

    def test_empty_mean_is_zero(self):
        assert RunningStats().mean == 0.0

    def test_as_dict(self):
        stats = RunningStats()
        stats.add(3)
        assert stats.as_dict()["count"] == 1


class TestHistogram:
    def test_binning_and_overflow(self):
        hist = Histogram(bin_width=10, max_bins=2)
        hist.add(5)
        hist.add(15)
        hist.add(999)
        assert hist.overflow == 1
        assert [(lo, hi) for lo, hi, _ in hist.nonzero_bins()] == [(0, 10), (10, 20)]

    def test_percentile(self):
        hist = Histogram(bin_width=10, max_bins=10)
        for v in range(0, 100, 10):
            hist.add(v)
        assert hist.percentile(0.5) <= hist.percentile(1.0)

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            Histogram().add(-1)


class TestThroughputWindow:
    def test_series_and_peak(self):
        window = ThroughputWindow(window_cycles=100)
        window.add(50, 400)
        window.add(150, 100)
        series = window.series()
        assert series == [(0, 4.0), (100, 1.0)]
        assert window.peak() == 4.0


class TestBusMonitor:
    def _run_monitored(self, workload):
        platform = PlatformBuilder(paper_topology(workload=workload)).build("tlm")
        monitor = BusMonitor()
        platform.bus.add_observer(monitor)
        result = platform.run()
        return platform, monitor, result

    def test_counts_match_result(self):
        _, monitor, result = self._run_monitored(table1_pattern_a(40))
        assert monitor.transactions == result.transactions
        assert monitor.bytes_moved == result.bytes_transferred

    def test_utilization_matches_engine(self):
        _, monitor, result = self._run_monitored(table1_pattern_a(40))
        assert monitor.utilization(result.cycles) == pytest.approx(
            result.utilization, abs=0.02
        )

    def test_port_profiles_cover_all_masters(self):
        platform, monitor, _ = self._run_monitored(table1_pattern_a(40))
        from repro.ahb.transaction import WRITE_BUFFER_MASTER

        masters = set(monitor.ports) - {WRITE_BUFFER_MASTER}
        assert masters == {0, 1, 2, 3}

    def test_contention_positive_under_load(self):
        _, monitor, _ = self._run_monitored(table1_pattern_a(40))
        assert monitor.average_contention() > 0

    def test_deadline_tracking_in_port_profile(self):
        _, monitor, _ = self._run_monitored(table1_pattern_c(30))
        video = monitor.port(0)
        assert video.deadline_hits + video.deadline_misses > 0


class TestProfileSmoke:
    def test_rtl_hotspot_profile_runs_clean(self, capsys):
        # `make profile MODELS=rtl` in-process: the event-driven kernel
        # must survive a cProfile pass over the exact bench workload
        # without tripping any internal assertion.  No perf numbers are
        # graded — this is a does-it-run gate for the profiling path.
        from benchmarks.profile_hotspots import main

        assert main(["--models", "rtl", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "== rtl: top 5 by cumulative time ==" in out
        assert "run_until" in out


class TestReports:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(l) for l in lines)) == 1

    def test_reports_render(self):
        platform = PlatformBuilder(
            paper_topology(workload=table1_pattern_c(30))
        ).build("tlm")
        monitor = BusMonitor()
        platform.bus.add_observer(monitor)
        result = platform.run()
        summary = bus_summary(monitor, result.cycles)
        assert "utilization" in summary
        ports = port_report(monitor, names={0: "video0"})
        assert "video0" in ports and "write-buffer" in ports
        filters = filter_report(result.filter_stats)
        assert "tie-break" in filters
