"""Statistics primitives used by the profiling monitors.

Small, dependency-free accumulators: streaming mean/min/max and
windowed throughput counters.  Integer-friendly — all bus metrics are
cycle counts or byte counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional


class RunningStats:
    """Streaming count/mean/min/max without storing samples."""

    def __init__(self) -> None:
        self.count = 0
        self.total = 0
        self.minimum: Optional[int] = None
        self.maximum: Optional[int] = None

    def add(self, value: int) -> None:
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        if self.count == 0:
            return 0.0
        return self.total / self.count


@dataclass
class ThroughputWindow:
    """Bytes moved per fixed window of cycles (bandwidth over time)."""

    window_cycles: int = 1024
    _windows: Dict[int, int] = field(default_factory=dict)

    def add(self, cycle: int, nbytes: int) -> None:
        index = cycle // self.window_cycles
        self._windows[index] = self._windows.get(index, 0) + nbytes

    def peak(self) -> float:
        """Highest bytes-per-cycle across windows."""
        if not self._windows:
            return 0.0
        return max(self._windows.values()) / self.window_cycles
