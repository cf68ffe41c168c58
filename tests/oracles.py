"""Test oracles: independent restatements of rules the simulator obeys.

Nothing in ``src/`` calls these; tests compare the simulator against
them.  Import them as ``from oracles import ...`` (pytest puts this
directory on ``sys.path``).
"""

from typing import List, Sequence

from repro.ahb.burst import crosses_kb_boundary
from repro.assertions.base import PropertyChecker
from repro.ddr.bank import BankFsm, BankState
from repro.ddr.commands import BankAddress
from repro.ddr.timing import DdrTiming
from repro.errors import ProtocolError


def check_burst_legal(txn) -> None:
    """Raise :class:`~repro.errors.ProtocolError` for illegal bursts.

    Checks the 1 KB rule for incrementing bursts; wrapping bursts wrap
    inside an aligned block and can never cross.
    """
    if txn.wrapping:
        return
    if crosses_kb_boundary(txn.addr, txn.beats, txn.size_bytes):
        raise ProtocolError(
            f"incrementing burst at {txn.addr:#x} x{txn.beats}*{txn.size_bytes}B "
            f"crosses a 1KB boundary"
        )


def encode_address(
    bank_addr: BankAddress, timing: DdrTiming, bus_bytes: int = 4
) -> int:
    """Inverse of :func:`repro.ddr.commands.decode_address`."""
    word = (
        (bank_addr.row << (timing.col_bits + timing.bank_bits))
        | (bank_addr.bank << timing.col_bits)
        | bank_addr.col
    )
    return word * bus_bytes


#: Legal bank FSM transitions as observed at once-per-cycle sampling.
#: A transitional state may complete and the next command issue within
#: the same cycle, so e.g. PRECHARGING can appear to step directly to
#: ACTIVATING (through an invisible IDLE).
_LEGAL_BANK_TRANSITIONS = {
    BankState.IDLE: {BankState.IDLE, BankState.ACTIVATING, BankState.REFRESHING},
    BankState.ACTIVATING: {BankState.ACTIVATING, BankState.ACTIVE},
    BankState.ACTIVE: {BankState.ACTIVE, BankState.PRECHARGING},
    BankState.PRECHARGING: {
        BankState.PRECHARGING,
        BankState.IDLE,
        BankState.ACTIVATING,
        BankState.REFRESHING,
    },
    BankState.REFRESHING: {
        BankState.REFRESHING,
        BankState.IDLE,
        BankState.ACTIVATING,
    },
}


class BankFsmChecker(PropertyChecker):
    """Watches DDR bank FSMs for illegal transitions (RTL hook)."""

    def __init__(self, banks: Sequence[BankFsm], strict: bool = False) -> None:
        super().__init__("bank-fsm", strict)
        self.banks = list(banks)
        self._last: List[BankState] = [bank.state for bank in self.banks]

    def sample(self, cycle: int) -> None:
        """Cycle hook for the RTL engine."""
        self.checks_run += 1
        for bank, previous in zip(self.banks, self._last):
            if bank.state not in _LEGAL_BANK_TRANSITIONS[previous]:
                self.flag(
                    cycle,
                    "bank-transition",
                    f"bank {bank.index}: {previous.value} -> {bank.state.value}",
                )
        self._last = [bank.state for bank in self.banks]


def vcd_value_changes(text: str) -> int:
    """Value-change lines of a VCD dump (not timestamps or declarations)."""
    body = text.partition("$enddefinitions $end\n")[2]
    return sum(1 for line in body.splitlines() if not line.startswith("#"))
