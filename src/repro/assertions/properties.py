"""System-property checkers (paper §3.5, property checking).

These run during performance analysis and catch architectural — not
protocol — mistakes:

* :class:`QosPropertyChecker` — RT transactions must meet their
  deadlines (with a configurable tolerated miss rate for saturation
  studies).
* :class:`OrderingChecker` — per-master writes must commit to memory in
  issue order even when posted through the write buffer, and a read
  must never observe a value older than the last write the same master
  completed to that address.
* :class:`BankFsmChecker` — the DDR bank machines only make legal
  state transitions (hooked into the RTL engine).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.ahb.burst import transaction_addresses
from repro.ahb.transaction import Transaction
from repro.assertions.base import PropertyChecker
from repro.ddr.bank import BankFsm, BankState

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


class QosPropertyChecker(PropertyChecker):
    """Every RT transaction completes by its deadline."""

    def __init__(self, strict: bool = False) -> None:
        super().__init__("qos-property", strict)
        self.rt_transactions = 0
        self.misses = 0

    def __call__(
        self, txn: Transaction, grant: int, start: int, finish: int
    ) -> None:
        self.checks_run += 1
        met = txn.met_deadline
        if met is None:
            return
        self.rt_transactions += 1
        if not met:
            self.misses += 1
            assert txn.deadline is not None
            self.flag(
                finish,
                "deadline",
                f"{txn!r} finished {finish - txn.deadline} cycles late",
                master=txn.master,
                txn_uid=txn.uid,
            )

    def miss_rate(self) -> float:
        if self.rt_transactions == 0:
            return 0.0
        return self.misses / self.rt_transactions


class OrderingChecker(PropertyChecker):
    """Per-master write ordering and read freshness through the buffer.

    Maintains a shadow memory updated in *completion* order; a read that
    returns data older than the issuing master's last completed write to
    the same address indicates the hazard interlock failed.  (Shadow
    state is per-master, so the checker stays valid under the library's
    disjoint-window workloads.)
    """

    def __init__(self, strict: bool = False) -> None:
        super().__init__("ordering", strict)
        self._shadow: Dict[Tuple[int, int], int] = {}  # (master, addr) -> value

    def __call__(
        self, txn: Transaction, grant: int, start: int, finish: int
    ) -> None:
        self.checks_run += 1
        if txn.resp:
            # An errored/aborted transfer never committed (write) or
            # returned data (read); it neither updates the shadow nor
            # can it violate freshness.
            return
        owner = txn.master
        addresses = transaction_addresses(txn)
        if txn.is_write:
            for addr, value in zip(addresses, txn.data or [0] * txn.beats):
                self._shadow[(owner, addr)] = value
            return
        for addr, value in zip(addresses, txn.data):
            expected = self._shadow.get((owner, addr))
            if expected is not None and value != expected:
                self.flag(
                    finish,
                    "stale-read",
                    f"{txn!r} read {value:#x} at {addr:#x}, last completed "
                    f"write by master {owner} was {expected:#x}",
                    master=owner,
                    txn_uid=txn.uid,
                )

    def observe_drain(self, txn: Transaction) -> None:
        """Optional hook to track buffer drains under their true master."""
        # Drains carry WRITE_BUFFER_MASTER; the absorbing master already
        # recorded the data when the write was posted, so nothing to do.


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
