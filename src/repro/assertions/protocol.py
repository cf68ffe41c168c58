"""Bus-protocol assertion checkers (paper §3.5, functional debugging).

Two deployment styles:

* :class:`TransactionChecker` — attaches to any TLM bus observer hook
  and validates each served transaction (alignment, burst legality,
  bookkeeping sanity, timing monotonicity).
* :class:`RtlProtocolChecker` — attaches to the RTL cycle engine as an
  end-of-cycle hook and watches the actual signals: at most one HGRANT,
  at most one address-phase driver, NONSEQ only when the bus is
  available.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.ahb.burst import crosses_kb_boundary
from repro.ahb.transaction import Transaction
from repro.ahb.types import HTrans
from repro.assertions.base import Checker
from repro.rtl.signals import MasterSignals, SharedBusSignals


class TransactionChecker(Checker):
    """Validates every transaction a TLM bus serves."""

    def __init__(self, strict: bool = False) -> None:
        super().__init__("tlm-protocol", strict)
        self._last_finish: Optional[int] = None

    def __call__(
        self, txn: Transaction, grant: int, start: int, finish: int
    ) -> None:
        """Observer hook: ``bus.add_observer(checker)``."""
        self.checks_run += 1
        who = dict(master=txn.master, txn_uid=txn.uid)
        if txn.addr % txn.size_bytes:
            self.flag(start, "alignment", f"{txn!r} misaligned", **who)
        if not txn.wrapping and crosses_kb_boundary(
            txn.addr, txn.beats, txn.size_bytes
        ):
            self.flag(start, "kb-boundary", f"{txn!r} crosses 1KB", **who)
        if txn.wrapping and txn.beats not in (4, 8, 16):
            self.flag(
                start, "burst-encoding", f"{txn!r} illegal wrap length", **who
            )
        if grant < txn.issued_at:
            self.flag(grant, "causality", f"{txn!r} granted before issue", **who)
        if start < grant:
            self.flag(start, "causality", f"{txn!r} started before grant", **who)
        if finish < start:
            self.flag(finish, "causality", f"{txn!r} finished before start", **who)
        if txn.is_write and txn.data and len(txn.data) != txn.beats:
            self.flag(start, "data-shape", f"{txn!r} beat/data mismatch", **who)
        if not txn.is_write and txn.resp == 0 and len(txn.data) != txn.beats:
            # An errored/aborted read legitimately returns no data —
            # the shape rule only applies to OKAY completions.
            self.flag(
                finish, "data-shape", f"{txn!r} read returned wrong beats", **who
            )
        if self._last_finish is not None and start < self._last_finish:
            # Transfers may overlap by exactly the pipelined address
            # phase (start == previous finish); more is a protocol error.
            if start < self._last_finish - 1:
                self.flag(
                    start,
                    "overlap",
                    f"{txn!r} starts {self._last_finish - start} cycles "
                    f"inside the previous transfer",
                    **who,
                )
        self._last_finish = max(self._last_finish or 0, finish)


class RtlProtocolChecker(Checker):
    """Watches RTL signals each cycle for AHB legality."""

    def __init__(
        self,
        master_signals: Sequence[MasterSignals],
        bus: SharedBusSignals,
        strict: bool = False,
    ) -> None:
        super().__init__("rtl-protocol", strict)
        self.master_signals = list(master_signals)
        self.bus = bus

    def sample(self, cycle: int) -> None:
        """Cycle hook: ``engine.add_cycle_hook(checker.sample)``."""
        self.checks_run += 1
        grants = [sig for sig in self.master_signals if sig.hgrant.value]
        if len(grants) > 1:
            owners = ", ".join(sig.prefix for sig in grants)
            self.flag(cycle, "grant-unique", f"multiple HGRANTs: {owners}")
        drivers = [
            sig
            for sig in self.master_signals
            if sig.htrans.value == int(HTrans.NONSEQ)
        ]
        if len(drivers) > 1:
            owners = ", ".join(sig.prefix for sig in drivers)
            self.flag(cycle, "addr-unique", f"multiple address drivers: {owners}")
        if drivers and not self.bus.bus_available.value:
            self.flag(
                cycle,
                "addr-when-unavailable",
                f"{drivers[0].prefix} drove NONSEQ while bus unavailable",
            )
        if drivers and not drivers[0].hgrant.value:
            self.flag(
                cycle,
                "addr-without-grant",
                f"{drivers[0].prefix} drove NONSEQ without HGRANT",
            )
