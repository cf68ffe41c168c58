"""Tests for profiling statistics, monitors and reports."""

import pytest

from repro.ahb.transaction import Transaction
from repro.ahb.types import AccessKind
from repro.profiling import (
    BusMonitor,
    PortProfile,
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


class TestThroughputWindow:
    def test_peak(self):
        window = ThroughputWindow(window_cycles=100)
        window.add(50, 400)
        window.add(150, 100)
        assert window.peak() == 4.0

    def test_same_window_accumulates(self):
        window = ThroughputWindow(window_cycles=10)
        assert window.peak() == 0.0
        window.add(0, 20)
        window.add(9, 30)
        window.add(10, 40)
        assert window.peak() == 5.0


class TestPortProfile:
    def test_record_latency_wait_and_deadline(self):
        profile = PortProfile(master=1)
        write = Transaction(
            master=1, kind=AccessKind.WRITE, addr=0, beats=2, data=[1, 2]
        )
        write.issued_at, write.granted_at, write.finished_at = 10, 14, 20
        write.via_write_buffer = True
        write.deadline = 15
        read = Transaction(master=1, kind=AccessKind.READ, addr=0, beats=4)
        read.issued_at, read.granted_at, read.finished_at = 30, 30, 36
        read.deadline = 40
        profile.record(write)
        profile.record(read)
        assert (profile.reads, profile.writes, profile.posted_writes) == (1, 1, 1)
        assert profile.bytes_moved == 24
        assert (profile.latency.minimum, profile.latency.maximum) == (6, 10)
        assert profile.wait.mean == 2.0
        assert (profile.deadline_hits, profile.deadline_misses) == (1, 1)


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
