"""A frozen reference kernel that measures how fast the host runs right now.

The benchmark's host changes speed by up to half from one half-minute to
the next, and a whole run can sit in a slow stretch.  Every run
therefore interleaves short passes of this kernel with its operations
and reports its times scaled to a host on which one pass takes
``PASS_S`` (``host_scale``).  The kernel is a miniature bus simulator
in the simulator's own style (slotted objects, method calls, a heap of
completion events, per-bank row state), so it slows down with the host
the way the simulator does: on the 2-core host the benchmark was
defined on, raw TLM and RTL point times over ten-second windows spread
by 18-21 % (IQR/median) while their ratio to this kernel's time spread
by 3-4 %.

The kernel is part of the benchmark, not of the simulator: a change to
the simulator never changes it, so the scaled times move exactly as the
simulator's own work does.  Changing this file changes every scaled
time and needs a new baseline.
"""

from __future__ import annotations

import heapq
import random
import time
from typing import List

#: Seconds one pass takes on the reference host; scaled times are host
#: times multiplied by ``PASS_S / mean(measured pass times)``.
PASS_S = 0.0025

#: Simulated cycles per pass.
CYCLES = 1200


class _Txn:
    __slots__ = ("master", "addr", "beats", "issued", "done")

    def __init__(self, master: int, addr: int, beats: int, issued: int) -> None:
        self.master = master
        self.addr = addr
        self.beats = beats
        self.issued = issued
        self.done = -1


class _Bank:
    __slots__ = ("open_row", "ready_at", "hits", "misses")

    def __init__(self) -> None:
        self.open_row = -1
        self.ready_at = 0
        self.hits = 0
        self.misses = 0

    def access(self, row: int, now: int) -> int:
        start = now if now > self.ready_at else self.ready_at
        if row == self.open_row:
            self.hits += 1
            cost = 1
        else:
            self.misses += 1
            self.open_row = row
            cost = 6
        self.ready_at = start + cost
        return self.ready_at


class _Master:
    __slots__ = ("ident", "rng", "pending", "completed", "window")

    def __init__(self, ident: int) -> None:
        self.ident = ident
        self.rng = random.Random(11 * ident + 1)
        self.pending: List[_Txn] = []
        self.completed: List[_Txn] = []
        self.window = ident << 22

    def next_txn(self, now: int):
        if not self.pending and self.rng.random() < 0.6:
            bits = self.rng.getrandbits(20)
            self.pending.append(_Txn(self.ident, self.window + (bits & ~3), 1 + (bits & 7), now))
        return self.pending[0] if self.pending else None


def reference_pass() -> int:
    """One pass of the kernel; returns its grant count (always the same)."""
    masters = [_Master(i) for i in range(4)]
    banks = {b: _Bank() for b in range(4)}
    events: list = []
    grants = 0
    for now in range(CYCLES):
        while events and events[0][0] <= now:
            _, _, txn = heapq.heappop(events)
            txn.done = now
            masters[txn.master].completed.append(txn)
        best = None
        for master in masters:
            txn = master.next_txn(now)
            if txn is not None and (best is None or txn.issued < best.issued):
                best = txn
        if best is not None:
            masters[best.master].pending.pop(0)
            bank = banks[(best.addr >> 12) & 3]
            end = bank.access(best.addr >> 14, now) + best.beats
            heapq.heappush(events, (end, grants, best))
            grants += 1
    return grants


def timed_pass() -> float:
    """CPU seconds of one pass on the calling thread.  Thread time leaves
    out the time the thread waits for the interpreter lock, so the serve
    workload's client threads measure the host, not each other."""
    start = time.thread_time()
    reference_pass()
    return time.thread_time() - start


def host_scale(passes: List[float]) -> float:
    """Factor that turns host times measured beside *passes* into scaled times."""
    return PASS_S * len(passes) / sum(passes) if passes else 1.0
