"""Seeded traffic generation.

Turns a :class:`~repro.traffic.patterns.TrafficPattern` into concrete
:class:`~repro.ahb.master.TrafficItem` objects.  Generation is a pure
function of ``(pattern, master_index, count, seed)`` on the standard
library's ``random.Random`` alone — the identical stream feeds every
abstraction level on every host, which is what makes the paper's
RTL-vs-TLM accuracy comparison meaningful.  Golden traces, the pinned
plain-level rows and the committed BENCH cycle counts all pin this one
draw sequence; ``tests/test_traffic_streams.py`` checks it item by item
against a frozen copy of the original implementation and pins a digest
of its output for every named pattern.

Bursts are clamped so they never cross an AHB 1 KB boundary and never
leave the pattern's address window, keeping all generated traffic
protocol-legal by construction.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate
from typing import List

from repro.ahb.burst import KB_BOUNDARY
from repro.ahb.master import TrafficItem
from repro.ahb.transaction import Transaction
from repro.ahb.types import AccessKind
from repro.errors import TrafficError
from repro.traffic.patterns import TrafficPattern

__all__ = ["generate_items"]

_WRAP_BEATS = (4, 8, 16)


def _beat_data(rng: random.Random, beats: int, word_mask: int) -> List[int]:
    """A write burst's data: *beats* 32-bit draws, masked by *word_mask*.

    One ``getrandbits(32 * beats)`` call: CPython fills it from the
    least-significant 32-bit word upward, so word *i* and the RNG state
    afterwards equal those of the *i*-th of *beats* ``getrandbits(32)``
    calls.
    """
    bits = rng.getrandbits(32 * beats)
    return [(bits >> shift) & word_mask for shift in range(0, 32 * beats, 32)]


def generate_items(
    pattern: TrafficPattern, master_index: int, count: int, seed: int
) -> List[TrafficItem]:
    """Generate *count* traffic items for one master, eagerly.

    The returned list is deterministic for a given argument tuple.  The
    pattern's knobs and the generator's bound draw methods are read once
    here, not per item; think times are drawn as ``randrange(lo, hi +
    1)``, the call ``randint(lo, hi)`` makes.
    """
    if count < 0:
        raise TrafficError(f"negative transaction count {count}")
    rng = random.Random(f"{seed}/{pattern.name}/{master_index}")
    draw = rng.random
    randrange = rng.randrange
    # The burst length is drawn as Random.choices(burst_choices,
    # weights) draws it: one random() scaled by the weight total and
    # bisected into the cumulative weights, which are summed once here.
    burst_choices = [beats for beats, _w in pattern.burst_mix]
    cum_weights = list(accumulate(weight for _b, weight in pattern.burst_mix))
    total_weight = cum_weights[-1] + 0.0
    last = len(burst_choices) - 1
    size = pattern.size_bytes
    base = pattern.base_addr
    span_end = base + pattern.addr_span
    span_words = pattern.addr_span // size
    sequential_fraction = pattern.sequential_fraction
    wrap_fraction = pattern.wrap_fraction
    read_fraction = pattern.read_fraction
    stride = pattern.stride_bytes
    period = pattern.period
    deadline_offset = pattern.deadline_offset
    think_lo, think_hi = pattern.think_range
    think_stop = think_hi + 1
    # Every gap_every-th item (the first excepted) draws its think time
    # from the inter-burst gap range instead.
    gap_every = 0
    if pattern.burst_gap is not None:
        gap_every, gap_lo, gap_hi = pattern.burst_gap
        gap_stop = gap_hi + 1
    next_sequential = base
    # One beat is one 32-bit draw, masked to the beat size.
    word_mask = ((1 << (8 * size)) - 1) & 0xFFFFFFFF
    read, write = AccessKind.READ, AccessKind.WRITE
    items: List[TrafficItem] = []
    append = items.append
    for index in range(count):
        beats = burst_choices[
            bisect_right(cum_weights, draw() * total_weight, 0, last)
        ]
        if draw() < sequential_fraction:
            addr = next_sequential
            if addr + beats * size > span_end:
                addr = base
        else:
            addr = base + randrange(span_words) * size
        # Wrapping (cache-line-fill) bursts: the aligned wrap block must
        # lie entirely inside the pattern's window.
        wrapping = False
        if wrap_fraction > 0 and beats in _WRAP_BEATS:
            block = beats * size
            block_base = (addr // block) * block
            if (
                block_base >= base
                and block_base + block <= span_end
                and draw() < wrap_fraction
            ):
                wrapping = True
        if not wrapping:
            # Clamp to the 1 KB rule and the address window.
            room_kb = (KB_BOUNDARY - addr % KB_BOUNDARY) // size
            room_span = (span_end - addr) // size
            if room_kb < beats:
                beats = room_kb
            if room_span < beats:
                beats = room_span
            if beats < 1:
                beats = 1
        next_sequential = addr + (beats * size if stride is None else stride)
        if next_sequential >= span_end:
            next_sequential = base
        if draw() < read_fraction:
            kind, data = read, []
        else:
            kind, data = write, _beat_data(rng, beats, word_mask)
        txn = Transaction(
            master=master_index,
            kind=kind,
            addr=addr,
            beats=beats,
            size_bytes=size,
            wrapping=wrapping,
            data=data,
        )
        if gap_every and index and index % gap_every == 0:
            think = randrange(gap_lo, gap_stop)
        else:
            think = randrange(think_lo, think_stop)
        if period is None:
            append(
                TrafficItem(txn=txn, think_cycles=think, deadline_offset=deadline_offset)
            )
        else:
            not_before = index * period
            # Streaming deadlines follow the frame schedule, not the
            # (possibly starved) issue instant.
            append(
                TrafficItem(
                    txn=txn,
                    think_cycles=think,
                    not_before=not_before,
                    deadline_offset=None,
                    absolute_deadline=(
                        None
                        if deadline_offset is None
                        else not_before + deadline_offset
                    ),
                )
            )
    return items
