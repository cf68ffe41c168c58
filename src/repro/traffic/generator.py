"""Seeded traffic generation.

Turns a :class:`~repro.traffic.patterns.TrafficPattern` into concrete
:class:`~repro.ahb.master.TrafficItem` objects.  Generation is a pure
function of ``(pattern, master_index, count, seed)`` on the standard
library's ``random.Random`` alone — the identical stream feeds every
abstraction level on every host, which is what makes the paper's
RTL-vs-TLM accuracy comparison meaningful.  Golden traces, the pinned
plain-level rows and the committed BENCH cycle counts all pin this one
draw sequence; ``tests/test_traffic_streams.py`` checks it item by item
against a frozen copy of the original implementation.

Bursts are clamped so they never cross an AHB 1 KB boundary and never
leave the pattern's address window, keeping all generated traffic
protocol-legal by construction.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate
from typing import List, Tuple

from repro.ahb.burst import KB_BOUNDARY
from repro.ahb.master import TrafficItem
from repro.ahb.transaction import Transaction
from repro.ahb.types import AccessKind
from repro.errors import TrafficError
from repro.traffic.patterns import TrafficPattern

__all__ = ["generate_items"]

_WRAP_BEATS = (4, 8, 16)


def _legal_beats(addr: int, beats: int, size_bytes: int, span_end: int) -> int:
    """Clamp *beats* to the 1 KB rule and the address window."""
    room_kb = (KB_BOUNDARY - addr % KB_BOUNDARY) // size_bytes
    room_span = (span_end - addr) // size_bytes
    return max(1, min(beats, room_kb, room_span))


def _think_range_for(pattern: TrafficPattern, index: int) -> Tuple[int, int]:
    """The think-time range item *index* draws from (burst-gap aware)."""
    if (
        pattern.burst_gap is not None
        and index > 0
        and index % pattern.burst_gap[0] == 0
    ):
        return pattern.burst_gap[1], pattern.burst_gap[2]
    return pattern.think_range


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

    The returned list is deterministic for a given argument tuple.
    """
    if count < 0:
        raise TrafficError(f"negative transaction count {count}")
    rng = random.Random(f"{seed}/{pattern.name}/{master_index}")
    # The burst length is drawn as Random.choices(burst_choices,
    # weights) draws it: one random() scaled by the weight total and
    # bisected into the cumulative weights, which are summed once here.
    burst_choices = [beats for beats, _w in pattern.burst_mix]
    cum_weights = list(accumulate(weight for _b, weight in pattern.burst_mix))
    total_weight = cum_weights[-1] + 0.0
    last = len(burst_choices) - 1
    span_end = pattern.base_addr + pattern.addr_span
    next_sequential = pattern.base_addr
    # One beat is one 32-bit draw, masked to the beat size.
    word_mask = ((1 << (8 * pattern.size_bytes)) - 1) & 0xFFFFFFFF
    items: List[TrafficItem] = []
    for index in range(count):
        beats = burst_choices[
            bisect_right(cum_weights, rng.random() * total_weight, 0, last)
        ]
        if rng.random() < pattern.sequential_fraction:
            addr = next_sequential
            if addr + beats * pattern.size_bytes > span_end:
                addr = pattern.base_addr
        else:
            span_words = pattern.addr_span // pattern.size_bytes
            addr = (
                pattern.base_addr
                + rng.randrange(span_words) * pattern.size_bytes
            )
        # Wrapping (cache-line-fill) bursts: the aligned wrap block must
        # lie entirely inside the pattern's window.
        wrapping = False
        if beats in _WRAP_BEATS and pattern.wrap_fraction > 0:
            block = beats * pattern.size_bytes
            block_base = (addr // block) * block
            if (
                block_base >= pattern.base_addr
                and block_base + block <= span_end
                and rng.random() < pattern.wrap_fraction
            ):
                wrapping = True
        if not wrapping:
            beats = _legal_beats(addr, beats, pattern.size_bytes, span_end)
        advance = (
            pattern.stride_bytes
            if pattern.stride_bytes is not None
            else beats * pattern.size_bytes
        )
        next_sequential = addr + advance
        if next_sequential >= span_end:
            next_sequential = pattern.base_addr
        is_read = rng.random() < pattern.read_fraction
        txn = Transaction(
            master=master_index,
            kind=AccessKind.READ if is_read else AccessKind.WRITE,
            addr=addr,
            beats=beats,
            size_bytes=pattern.size_bytes,
            wrapping=wrapping,
            data=[] if is_read else _beat_data(rng, beats, word_mask),
        )
        think = rng.randint(*_think_range_for(pattern, index))
        not_before = None
        absolute_deadline = None
        if pattern.period is not None:
            not_before = index * pattern.period
            if pattern.deadline_offset is not None:
                # Streaming deadlines follow the frame schedule, not the
                # (possibly starved) issue instant.
                absolute_deadline = not_before + pattern.deadline_offset
        items.append(
            TrafficItem(
                txn=txn,
                think_cycles=think,
                not_before=not_before,
                deadline_offset=(
                    None
                    if absolute_deadline is not None
                    else pattern.deadline_offset
                ),
                absolute_deadline=absolute_deadline,
            )
        )
    return items
