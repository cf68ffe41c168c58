"""The Bus Interface (BI) between the AHB+ arbiter and the DDRC.

Paper §2: *"BI is designed for transferring special information between
arbiter and memory controller such as the next transaction information,
idle bank, access permission and so on."*  And §3.4: *"This interface is
designed to support the bank interleaving feature for throughput
enhancement."*

At transaction level the BI is a thin typed channel wrapping the slave's
hooks; the value of modelling it explicitly is (a) the on/off ablation —
disabling the BI removes advance bank preparation and bank-aware
arbitration, exactly the paper's throughput feature — and (b) profiling
of the traffic crossing it.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.ahb.decoder import AddressMap
from repro.ahb.slave import TlmSlave
from repro.ahb.transaction import Transaction
from repro.core.filters import ArbitrationContext


class BusInterface:
    """Typed arbiter↔memory-controller side channel."""

    def __init__(self, slave: TlmSlave, enabled: bool = True) -> None:
        self.slave = slave
        self.enabled = enabled
        # Profiling counters for the three BI message classes.
        self.next_info_sent = 0
        self.idle_bank_queries = 0
        self.permission_queries = 0
        self.preparations_effective = 0

    # -- next transaction information -------------------------------------------

    def send_next_info(self, txn: Transaction, cycle: int) -> None:
        """Forward the pipelined next transaction to the controller.

        The DDRC uses it to pre-charge/activate the target bank while
        the current transfer still owns the data bus (bank interleaving).
        A disabled BI silently drops the message — the controller then
        sees every transaction cold.
        """
        if not self.enabled:
            return
        prepared = self.slave.notify_next(txn, cycle)
        self.next_info_sent += 1
        if prepared:
            self.preparations_effective += 1

    # -- idle bank map ---------------------------------------------------------------

    def idle_banks(self, cycle: int) -> Optional[int]:
        """Idle-bank bitmap, or ``None`` when the BI is disabled."""
        if not self.enabled:
            return None
        self.idle_bank_queries += 1
        return self.slave.idle_banks(cycle)

    def access_score_fn(
        self, ctx: ArbitrationContext
    ) -> Optional[Callable[[int], int]]:
        """Bank-cost oracle for the arbiter's bank filter.

        Returns ``None`` when the BI is disabled or the slave has no
        bank structure, which makes the bank filter abstain.  The
        closure scores against ``ctx.now``, so an engine builds it once
        for the context it refreshes every round.
        """
        if not self.enabled:
            return None
        score = getattr(self.slave, "access_score", None)
        if score is None:
            return None

        def lookup(addr: int) -> int:
            self.idle_bank_queries += 1
            return score(addr, ctx.now)

        return lookup

    # -- access permission ----------------------------------------------------------

    def access_permitted_at(self, txn: Transaction, cycle: int) -> int:
        """Earliest cycle the controller accepts *txn*'s address phase.

        Permission is a correctness channel (refresh windows must be
        respected), so it works even with the BI disabled — a real
        system would fall back to HREADY stalling; the model returns the
        same cycle either way.
        """
        self.permission_queries += 1
        return self.slave.access_permitted_at(txn, cycle)


def bank_oracle(
    bus_interfaces: Sequence[BusInterface],
    address_map: AddressMap,
    ctx: ArbitrationContext,
) -> Optional[Callable[[int], int]]:
    """The bank filter's oracle over *bus_interfaces*, built once per bus.

    One slave's BI scores every candidate (the paper topology).  On a
    multi-slave map one round's candidates may target different slaves,
    so each address is scored by *its* region's BI, and a bank-less
    slave (SRAM, APB bridge) scores 0 — the best — so the bank filter
    only differentiates DDR candidates.  With the BI off there is no
    oracle and the bank filter abstains, as in the RTL arbiter.  The
    oracle scores against ``ctx.now``.
    """
    if len(bus_interfaces) == 1:
        return bus_interfaces[0].access_score_fn(ctx)
    if not any(bi.enabled for bi in bus_interfaces):
        return None
    scores = [bi.access_score_fn(ctx) for bi in bus_interfaces]

    def routed(addr: int) -> int:
        fn = scores[address_map.slave_for(addr)]
        return 0 if fn is None else fn(addr)

    return routed
