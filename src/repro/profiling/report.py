"""Render profiling results as plain-text reports.

The paper ties its model to "a good analysis environment ... to assess
the simulation results" (§1).  These renderers produce the tables an
architect reads after a run: bus summary, per-port profile and filter
activity.  All output is deterministic, plain ASCII.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.ahb.transaction import WRITE_BUFFER_MASTER
from repro.profiling.monitor import BusMonitor


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Simple fixed-width table formatter used by every report."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def _port_name(master: int, names: Optional[Dict[int, str]]) -> str:
    if master == WRITE_BUFFER_MASTER:
        return "write-buffer"
    if names and master in names:
        return names[master]
    return f"master{master}"


def bus_summary(monitor: BusMonitor, total_cycles: int) -> str:
    """One-paragraph bus-level summary (utilization/contention/throughput)."""
    lines = [
        f"bus profile: {monitor.name}",
        f"  simulated cycles      : {total_cycles}",
        f"  transactions          : {monitor.transactions}",
        f"  bytes transferred     : {monitor.bytes_moved}",
        f"  data-bus utilization  : {monitor.utilization(total_cycles):.3f}",
        f"  throughput (B/cycle)  : {monitor.throughput_bytes_per_cycle(total_cycles):.3f}",
        f"  peak window (B/cycle) : {monitor.throughput.peak():.3f}",
        f"  avg grant contention  : {monitor.average_contention():.2f} cycles",
        f"  mean burst length     : {monitor.burst_beats.mean:.2f} beats",
    ]
    return "\n".join(lines)


def port_report(
    monitor: BusMonitor, names: Optional[Dict[int, str]] = None
) -> str:
    """Per-master port profile table (paper's master-port profiling)."""
    headers = [
        "port",
        "reads",
        "writes",
        "posted",
        "bytes",
        "lat.mean",
        "lat.max",
        "wait.mean",
        "ddl.miss",
    ]
    rows: List[List[str]] = []
    for master in sorted(monitor.ports):
        port = monitor.ports[master]
        rows.append(
            [
                _port_name(master, names),
                str(port.reads),
                str(port.writes),
                str(port.posted_writes),
                str(port.bytes_moved),
                f"{port.latency.mean:.1f}",
                str(port.latency.maximum or 0),
                f"{port.wait.mean:.1f}",
                str(port.deadline_misses),
            ]
        )
    return format_table(headers, rows)


def filter_report(filter_stats: Dict[str, Dict[str, int]]) -> str:
    """Arbitration-filter activity table (paper's arbiter profiling)."""
    headers = ["filter", "enabled", "applied", "narrowed"]
    rows = [
        [
            name,
            "yes" if stats.get("enabled") else "no",
            str(stats.get("applied", 0)),
            str(stats.get("narrowed", 0)),
        ]
        for name, stats in filter_stats.items()
    ]
    return format_table(headers, rows)
