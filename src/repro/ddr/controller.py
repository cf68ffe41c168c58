"""Transaction-level DDR controller (the DDRC of the paper).

Implements :class:`~repro.ahb.slave.TlmSlave` on top of the analytic
:class:`~repro.ddr.timeline.BankTimeline`:

* per-bank FSM constraints (tRCD/tRP/tRAS/tWR/tRRD) are honoured exactly,
* the data path is "highly abstracted" (paper §3.3) — beats move as
  integers, one beat per cycle on the shared data bus,
* the Bus Interface hooks let the AHB+ arbiter forward next-transaction
  info so the controller can open the next bank early (bank
  interleaving, paper §2), and
* refresh is *amortised*: due refreshes execute at transaction
  boundaries rather than mid-burst.  This is one of the deliberate TLM
  abstractions that produces the small cycle-count error of Table 1.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.ahb.burst import transaction_addresses
from repro.ahb.slave import TlmSlave
from repro.ahb.transaction import Transaction
from repro.ddr.commands import BankAddress, decode_address, same_row
from repro.ddr.memory import MemoryModel
from repro.ddr.timeline import BankTimeline
from repro.ddr.timing import DDR_266, DdrTiming
from repro.errors import ConfigError


class DdrControllerTlm(TlmSlave):
    """Method-based TLM of the AHB+ DDR controller."""

    def __init__(
        self,
        name: str = "ddrc",
        timing: DdrTiming = DDR_266,
        bus_bytes: int = 4,
        memory: Optional[MemoryModel] = None,
        refresh_enabled: bool = True,
    ) -> None:
        if bus_bytes not in (1, 2, 4, 8, 16):
            raise ConfigError(f"unsupported bus width {bus_bytes} bytes")
        self.name = name
        self.timing = timing
        self.bus_bytes = bus_bytes
        self.memory = memory if memory is not None else MemoryModel(f"{name}.mem")
        self.timeline = BankTimeline(timing)
        self.refresh_enabled = refresh_enabled
        self._next_refresh_at = timing.t_refi
        self._refresh_ready_at = 0
        #: The transaction :meth:`notify_next` last decoded, and its
        #: first beat's bank address.
        self._hint: Tuple[Optional[Transaction], Optional[BankAddress]] = (None, None)
        # Statistics
        self.reads = 0
        self.writes = 0
        self.refreshes = 0
        self.data_beats = 0
        self.prepared_banks = 0

    # -- refresh --------------------------------------------------------------

    def _refresh_catchup(self, cycle: int) -> None:
        """Execute refreshes that came due at or before *cycle*.

        Callers test ``_next_refresh_at <= cycle`` first, so a transfer
        with no refresh due pays one compare per entry point.
        """
        while self.refresh_enabled and self._next_refresh_at <= cycle:
            ready = self.timeline.close_all(self._next_refresh_at)
            self._refresh_ready_at = max(self._refresh_ready_at, ready)
            self._next_refresh_at += self.timing.t_refi
            self.refreshes += 1

    def idle_until(self, cycle: int) -> None:
        """Age refresh state while the bus is idle."""
        if self._next_refresh_at <= cycle:
            self._refresh_catchup(cycle)

    # -- Bus Interface hooks (paper sections 2 / 3.4) ---------------------------

    def notify_next(self, txn: Transaction, cycle: int) -> bool:
        """Receive next-transaction info; open its first row early.

        The decoded first beat is kept with *txn*, so serving that same
        transaction object does not decode it again.
        """
        baddr = decode_address(txn.addr, self.timing, self.bus_bytes)
        self._hint = (txn, baddr)
        if self.timeline.prepare(baddr, cycle):
            self.prepared_banks += 1
            return True
        return False

    def idle_banks(self, cycle: int) -> int:
        return self.timeline.idle_banks(cycle)

    def access_score(self, addr: int, cycle: int) -> int:
        """0 = row hit, 1 = bank idle, 2 = row conflict (for the bank filter)."""
        baddr = decode_address(addr, self.timing, self.bus_bytes)
        return self.timeline.access_score(baddr, cycle)

    def access_permitted_at(self, txn: Transaction, cycle: int) -> int:
        """Address phases may not begin while a refresh burst is draining."""
        if self._next_refresh_at <= cycle:
            self._refresh_catchup(cycle)
        return max(cycle, self._refresh_ready_at)

    # -- data service -----------------------------------------------------------

    def _segments(self, txn: Transaction) -> List[Tuple[BankAddress, Sequence[int]]]:
        """Split the burst's beats into runs sharing one (bank, row).

        An incrementing burst's beats are a ``range`` and each run is a
        slice of it; a wrapping burst's are a list.  The layout is
        row : bank : column, so ``word >> bank_shift`` is a monotone
        (bank, row) key.  A burst whose lowest and highest beat share it
        is one segment — nearly every burst, since a burst is short
        against a row — and decoding its first beat raises the same
        error any illegal beat of it would.  Otherwise each beat is
        decoded in order.
        """
        timing, bus_bytes = self.timing, self.bus_bytes
        addr = txn.addr
        addrs: Sequence[int]
        if txn.wrapping:
            addrs = transaction_addresses(txn)
            lo, hi = min(addrs), max(addrs)
        else:
            size = txn.size_bytes
            hi = addr + (txn.beats - 1) * size
            addrs = range(addr, hi + 1, size)
            lo = addr
        shift = timing._bank_shift
        if (lo // bus_bytes) >> shift == (hi // bus_bytes) >> shift:
            hint_txn, baddr = self._hint
            if hint_txn is not txn:
                baddr = decode_address(addr, timing, bus_bytes)
            return [(baddr, addrs)]
        segments: List[Tuple[BankAddress, Sequence[int]]] = []
        first = 0
        head = decode_address(addrs[0], timing, bus_bytes)
        for index in range(1, len(addrs)):
            baddr = decode_address(addrs[index], timing, bus_bytes)
            if not same_row(head, baddr):
                segments.append((head, addrs[first:index]))
                first, head = index, baddr
        segments.append((head, addrs[first:]))
        return segments

    def serve(self, txn: Transaction, start_cycle: int) -> int:
        """Serve one burst; returns the cycle of its last data beat."""
        if self._next_refresh_at <= start_cycle:
            self._refresh_catchup(start_cycle)
        txn.started_at = start_cycle
        command_from = start_cycle + 1  # the AHB address phase
        finish = command_from
        is_write = txn.is_write
        size = txn.size_bytes
        memory = self.memory
        schedule_access = self.timeline.schedule_access
        write_data = (txn.data or [0] * txn.beats) if is_write else None
        read_data: List[int] = []
        done = 0
        for baddr, addresses in self._segments(txn):
            beats = len(addresses)
            plan = schedule_access(baddr, is_write, beats, command_from)
            if is_write:
                memory.write_beats(addresses, size, write_data[done : done + beats])
            else:
                read_data += memory.read_beats(addresses, size)
            done += beats
            finish = plan.finish
            command_from = plan.cas_at + 1
            self.data_beats += beats
        if is_write:
            self.writes += 1
        else:
            txn.data = read_data
            self.reads += 1
        return finish

    # -- reporting ---------------------------------------------------------------

    def row_hit_rate(self) -> float:
        """Fraction of accesses that hit an open row."""
        activations, hits, _conflicts = self.timeline.stats()
        total = activations + hits
        if total == 0:
            return 0.0
        return hits / total

