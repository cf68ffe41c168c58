"""Bus and master-port profiling monitors.

Paper §3.6: *"we implemented bus and master port profiling features in
transaction-level ports and some internal functions such as arbiter,
write buffer and so on."*  A :class:`BusMonitor` attaches to any bus
engine's observer hook and accumulates the metrics the paper's
introduction calls out as essential: **bus contention, utilization and
throughput**, plus per-master port profiles (latency distribution,
bytes, wait cycles, deadline performance).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.ahb.transaction import WRITE_BUFFER_MASTER, Transaction
from repro.profiling.stats import Histogram, RunningStats, ThroughputWindow


@dataclass
class PortProfile:
    """Per-master transaction-port statistics."""

    master: int
    reads: int = 0
    writes: int = 0
    bytes_moved: int = 0
    posted_writes: int = 0
    deadline_hits: int = 0
    deadline_misses: int = 0
    latency: RunningStats = field(default_factory=RunningStats)
    wait: RunningStats = field(default_factory=RunningStats)
    latency_hist: Histogram = field(default_factory=lambda: Histogram(bin_width=8))

    def record(self, txn: Transaction) -> None:
        if txn.is_write:
            self.writes += 1
        else:
            self.reads += 1
        self.bytes_moved += txn.total_bytes
        if txn.via_write_buffer:
            self.posted_writes += 1
        if txn.finished_at >= 0 and txn.issued_at >= 0:
            latency = txn.finished_at - txn.issued_at
            self.latency.add(latency)
            self.latency_hist.add(latency)
        if txn.granted_at >= 0 and txn.issued_at >= 0:
            self.wait.add(max(txn.granted_at - txn.issued_at, 0))
        met = txn.met_deadline
        if met is True:
            self.deadline_hits += 1
        elif met is False:
            self.deadline_misses += 1


class BusMonitor:
    """Observer accumulating bus-level and per-port metrics.

    Attach with ``bus.add_observer(monitor)``; every served transaction
    flows through :meth:`__call__`.

    Profiling is gated by :attr:`enabled`: a disabled monitor's observer
    hook returns immediately without touching a single counter, so a
    monitor can stay permanently wired into a platform at effectively
    zero cost and be switched on only for profiled runs (paper §3.7
    lists profiling among the switchable model parameters).
    """

    def __init__(
        self, name: str = "bus", window_cycles: int = 1024, enabled: bool = True
    ) -> None:
        self.name = name
        self.enabled = enabled
        self.transactions = 0
        self.bytes_moved = 0
        self.busy_cycles = 0
        self.contention_cycles = 0  # grant minus issue, summed
        self.last_finish = 0
        self._busy_through = -1
        self.ports: Dict[int, PortProfile] = {}
        self.throughput = ThroughputWindow(window_cycles)
        self.burst_beats = RunningStats()

    def enable(self) -> None:
        """Start accumulating (counters keep their current values)."""
        self.enabled = True

    def disable(self) -> None:
        """Stop accumulating; the observer hook becomes a no-op."""
        self.enabled = False

    def __call__(
        self, txn: Transaction, grant: int, start: int, finish: int
    ) -> None:
        if not self.enabled:
            return
        self.transactions += 1
        self.bytes_moved += txn.total_bytes
        covered_from = max(start, self._busy_through + 1)
        if finish >= covered_from:
            self.busy_cycles += finish - covered_from + 1
            self._busy_through = finish
        if txn.issued_at >= 0:
            self.contention_cycles += max(grant - txn.issued_at, 0)
        self.last_finish = max(self.last_finish, finish)
        self.throughput.add(finish, txn.total_bytes)
        self.burst_beats.add(txn.beats)
        port = self.ports.get(txn.master)
        if port is None:
            port = PortProfile(master=txn.master)
            self.ports[txn.master] = port
        port.record(txn)

    # -- derived metrics -----------------------------------------------------------

    def utilization(self, total_cycles: Optional[int] = None) -> float:
        """Fraction of cycles the data bus was occupied."""
        cycles = total_cycles if total_cycles is not None else self.last_finish
        if cycles <= 0:
            return 0.0
        return self.busy_cycles / cycles

    def throughput_bytes_per_cycle(
        self, total_cycles: Optional[int] = None
    ) -> float:
        """Average payload bandwidth over the run."""
        cycles = total_cycles if total_cycles is not None else self.last_finish
        if cycles <= 0:
            return 0.0
        return self.bytes_moved / cycles

    def average_contention(self) -> float:
        """Mean cycles a transaction waited for its grant."""
        if self.transactions == 0:
            return 0.0
        return self.contention_cycles / self.transactions

    def port(self, master: int) -> PortProfile:
        """Profile of one master (write buffer under its pseudo-index)."""
        return self.ports.setdefault(master, PortProfile(master=master))

    @property
    def write_buffer_port(self) -> PortProfile:
        return self.port(WRITE_BUFFER_MASTER)
