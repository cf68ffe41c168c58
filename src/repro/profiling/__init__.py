"""Profiling: bus/port monitors, statistics and report rendering."""

from repro.profiling.monitor import BusMonitor, PortProfile
from repro.profiling.report import (
    bus_summary,
    filter_report,
    format_table,
    port_report,
)
from repro.profiling.stats import RunningStats, ThroughputWindow

__all__ = [
    "BusMonitor",
    "PortProfile",
    "RunningStats",
    "ThroughputWindow",
    "bus_summary",
    "filter_report",
    "format_table",
    "port_report",
]
