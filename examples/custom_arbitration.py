#!/usr/bin/env python3
"""Extending AHB+: plug a custom arbitration filter into the chain.

The seven-filter arbiter is a pipeline of
:class:`repro.core.filters.ArbitrationFilter` objects; this example
inserts an eighth filter that throttles one misbehaving master to a
bandwidth budget, then compares the victim master's latency with and
without it — the kind of what-if experiment the paper's §3.7
flexibility parameters are for.

Run:  python examples/custom_arbitration.py
"""

from typing import List

from repro.core.filters import ArbitrationContext, Candidate, ArbitrationFilter
from repro.system import PlatformBuilder, paper_topology


class BandwidthThrottle(ArbitrationFilter):
    """Deprioritise a master once it exceeds its byte budget per window."""

    name = "throttle"

    def __init__(self, master: int, budget_bytes: int, window: int = 2048) -> None:
        super().__init__()
        self.master = master
        self.budget_bytes = budget_bytes
        self.window = window
        self._window_start = 0
        self._spent = 0

    def note_grant(self, candidate: Candidate) -> None:
        if not candidate.from_write_buffer and candidate.master == self.master:
            self._spent += candidate.txn.total_bytes

    def _narrow(
        self, candidates: List[Candidate], ctx: ArbitrationContext
    ) -> List[Candidate]:
        if ctx.now - self._window_start >= self.window:
            self._window_start = ctx.now
            self._spent = 0
        if self._spent < self.budget_bytes:
            return candidates
        survivors = [
            c
            for c in candidates
            if c.from_write_buffer or c.master != self.master
        ]
        return survivors  # abstains automatically if it would empty the set


def mean_latency(platform, master: int) -> float:
    txns = platform.masters[master].completed
    return sum(t.finished_at - t.issued_at for t in txns) / len(txns)


def run(throttled: bool):
    spec = paper_topology(transactions=200)
    platform = PlatformBuilder(spec).build("tlm")
    throttle = None
    if throttled:
        # dma2 (master 3) gets 512 bytes per 2048-cycle window.
        throttle = BandwidthThrottle(master=3, budget_bytes=512)
        # Insert ahead of the final tie-break.
        platform.bus.arbiter.add_filter(throttle)
        platform.attach(
            lambda txn, g, s, f: throttle.note_grant(
                Candidate(txn=txn, from_write_buffer=txn.master == 255)
            )
        )
    result = platform.run()
    return platform, result


def main() -> None:
    base_platform, base = run(throttled=False)
    throttled_platform, throttled = run(throttled=True)

    print("throttling DMA engine 'dma2' to 512 B / 2048 cycles:\n")
    print(f"{'':>24}{'unthrottled':>14}{'throttled':>14}")
    for master, name in [(0, "cpu0"), (3, "dma2")]:
        print(
            f"{'mean latency ' + name:>24}"
            f"{mean_latency(base_platform, master):>14.1f}"
            f"{mean_latency(throttled_platform, master):>14.1f}"
        )
    print(f"{'total cycles':>24}{base.cycles:>14}{throttled.cycles:>14}")
    print(
        "\nthe CPU's latency improves at the cost of the throttled DMA — "
        "an eighth filter dropped into the AHB+ chain."
    )


if __name__ == "__main__":
    main()
