"""DDR command set and address decoding.

The DDR controller (both abstraction levels) thinks in terms of the
JEDEC command set; the scheduler's priority order between column (READ/
WRITE), row (ACTIVATE) and PRECHARGE commands is the paper's §3.3
"column, row, and pre-charge accesses have different priorities".
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from repro.ddr.timing import DdrTiming
from repro.errors import MemoryError_


class DdrCommand(enum.Enum):
    """JEDEC-style DDR commands the controller issues."""

    ACTIVATE = "ACT"
    READ = "RD"
    WRITE = "WR"
    PRECHARGE = "PRE"
    REFRESH = "REF"
    NOP = "NOP"


#: Scheduler priority: lower number = served first.  Column accesses
#: (data-producing) outrank row opens, which outrank precharges — the
#: ordering the paper describes for maximising data-bus occupancy.
COMMAND_PRIORITY = {
    DdrCommand.READ: 0,
    DdrCommand.WRITE: 0,
    DdrCommand.ACTIVATE: 1,
    DdrCommand.PRECHARGE: 2,
    DdrCommand.REFRESH: 3,
    DdrCommand.NOP: 4,
}


class BankAddress(NamedTuple):
    """A device address decomposed into bank / row / column.

    A named tuple: immutable like a frozen dataclass, and several times
    cheaper to build — the TLM decodes one per served burst, bank-score
    query and next-transaction hint.
    """

    bank: int
    row: int
    col: int


def decode_address(
    addr: int, timing: DdrTiming, bus_bytes: int = 4
) -> BankAddress:
    """Map a byte address to (bank, row, column).

    Layout is row : bank : column (column in the low bits), the common
    choice that keeps sequential bursts inside one row while letting
    bank-striped traffic interleave.  The masks and shifts come from the
    tables :class:`~repro.ddr.timing.DdrTiming` precomputes at
    construction, so a decode is four integer operations.
    """
    if addr < 0:
        raise MemoryError_(f"negative address {addr:#x}")
    word = addr // bus_bytes
    row = word >> timing._row_shift
    if row >= timing._row_limit:
        raise MemoryError_(
            f"address {addr:#x} beyond device capacity "
            f"({timing.total_words * bus_bytes} bytes)"
        )
    return BankAddress(
        (word >> timing._bank_shift) & timing._bank_mask, row, word & timing._col_mask
    )


def same_row(a: BankAddress, b: BankAddress) -> bool:
    """True when two accesses hit the same open row of the same bank."""
    return a.bank == b.bank and a.row == b.row
