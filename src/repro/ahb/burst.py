"""AHB burst address sequencing.

Implements the incrementing and wrapping address sequences of the AMBA
2.0 specification, plus the 1 KB boundary rule that incrementing bursts
must obey.  Both bus models and the assertion layer use these helpers so
address arithmetic cannot diverge between RTL and TLM.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.ahb.transaction import Transaction
from repro.errors import ProtocolError

#: AHB forbids incrementing bursts from crossing a 1 KB address boundary.
KB_BOUNDARY = 1024


def beat_addresses(
    addr: int, beats: int, size_bytes: int, wrapping: bool = False
) -> List[int]:
    """Return the address of every beat of a burst.

    For wrapping bursts the address wraps at the burst-size boundary
    (``beats * size_bytes``); for incrementing bursts it increases
    monotonically.
    """
    if addr % size_bytes:
        raise ProtocolError(
            f"burst start {addr:#x} not aligned to beat size {size_bytes}"
        )
    if not wrapping:
        return list(range(addr, addr + beats * size_bytes, size_bytes))
    span = beats * size_bytes
    base = (addr // span) * span
    return [base + (addr - base + i * size_bytes) % span for i in range(beats)]


def burst_footprint(
    addr: int, beats: int, size_bytes: int, wrapping: bool = False
) -> Tuple[int, int]:
    """Half-open byte range ``[lo, hi)`` that a burst touches.

    A wrapping burst wraps inside the total-size-aligned block that
    contains its start address, so its footprint is that whole block —
    not the linear range from the start address, which would miss the
    bytes below the wrap point.
    """
    total = beats * size_bytes
    if not wrapping:
        return addr, addr + total
    base = (addr // total) * total
    return base, base + total


def transaction_footprint(txn: Transaction) -> Tuple[int, int]:
    """Byte footprint of a :class:`~repro.ahb.transaction.Transaction`."""
    return burst_footprint(txn.addr, txn.beats, txn.size_bytes, txn.wrapping)


def transaction_addresses(txn: Transaction) -> List[int]:
    """Beat addresses of a :class:`~repro.ahb.transaction.Transaction`."""
    return beat_addresses(txn.addr, txn.beats, txn.size_bytes, txn.wrapping)


def crosses_kb_boundary(addr: int, beats: int, size_bytes: int) -> bool:
    """True when an incrementing burst would cross a 1 KB boundary."""
    first = addr
    last = addr + (beats - 1) * size_bytes
    return (first // KB_BOUNDARY) != (last // KB_BOUNDARY)
