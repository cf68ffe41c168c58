"""Bus and master-port profiling monitors.

Paper §3.6: *"we implemented bus and master port profiling features in
transaction-level ports and some internal functions such as arbiter,
write buffer and so on."*  A :class:`BusMonitor` attaches to any bus
engine's observer hook and accumulates the metrics the paper's
introduction calls out as essential: **bus contention, utilization and
throughput**, plus per-master port profiles (latency, bytes, wait
cycles, deadline performance).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.ahb.transaction import Transaction
from repro.profiling.stats import RunningStats, ThroughputWindow


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

    def record(self, txn: Transaction) -> None:
        if txn.is_write:
            self.writes += 1
        else:
            self.reads += 1
        self.bytes_moved += txn.total_bytes
        if txn.via_write_buffer:
            self.posted_writes += 1
        if txn.finished_at >= 0 and txn.issued_at >= 0:
            self.latency.add(txn.finished_at - txn.issued_at)
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
    flows through :meth:`__call__`.  Profiling is off by not attaching
    a monitor: an unobserved bus pays nothing for it.
    """

    def __init__(self, name: str = "bus", window_cycles: int = 1024) -> None:
        self.name = name
        self.transactions = 0
        self.bytes_moved = 0
        self.busy_cycles = 0
        self.contention_cycles = 0  # grant minus issue, summed
        self.last_finish = 0
        self._busy_through = -1
        self.ports: Dict[int, PortProfile] = {}
        self.throughput = ThroughputWindow(window_cycles)
        self.burst_beats = RunningStats()

    def __call__(
        self, txn: Transaction, grant: int, start: int, finish: int
    ) -> None:
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
