"""System-property checkers (paper §3.5, property checking).

These run during performance analysis and catch architectural — not
protocol — mistakes:

* :class:`QosPropertyChecker` — RT transactions must meet their
  deadlines; misses are counted (or raised when ``strict``).
* :class:`OrderingChecker` — per-master writes must commit to memory in
  issue order even when posted through the write buffer, and a read
  must never observe a value older than the last write the same master
  completed to that address.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.ahb.burst import transaction_addresses
from repro.ahb.transaction import Transaction
from repro.assertions.base import PropertyChecker


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
