"""Transaction-level slave interface and a simple SRAM-style slave.

Slaves in the TLM world expose :meth:`TlmSlave.serve`: given a
transaction whose address phase starts at a cycle, they perform the data
movement and return the cycle of the final data beat.  The DDR
controller model (:mod:`repro.ddr.controller`) implements the same
interface plus the AHB+ Bus Interface hooks (next-transaction
notification, idle-bank map, access permission), which the plain SRAM
slave stubs out as "always permitted / no banks".
"""

from __future__ import annotations

import abc
from typing import Optional

from repro.ahb.burst import transaction_addresses
from repro.ahb.transaction import Transaction
from repro.errors import ConfigError


class TlmSlave(abc.ABC):
    """Interface every transaction-level slave implements."""

    name: str = "slave"

    @abc.abstractmethod
    def serve(self, txn: Transaction, start_cycle: int) -> int:
        """Serve *txn* whose address phase begins at *start_cycle*.

        Returns the cycle in which the last data beat completes; the bus
        is occupied from ``start_cycle`` to the returned cycle inclusive.
        Reads must populate ``txn.data``.
        """

    # -- AHB+ Bus Interface hooks (optional; see paper sections 2 and 3.4) ---

    def notify_next(self, txn: Transaction, cycle: int) -> bool:
        """Receive next-transaction information ahead of the transfer.

        The AHB+ arbiter forwards the upcoming transaction over the BI so
        a DDR controller can pre-charge/activate the target bank early.
        Returns ``True`` when the hint prepared a bank; slaves without
        bank state ignore it.
        """
        return False

    def idle_banks(self, cycle: int) -> int:
        """Bitmap of banks able to accept a new row activation now.

        Slaves without banks report "all idle" (all bits set) so
        bank-aware arbitration filters become no-ops.
        """
        return ~0

    def access_permitted_at(self, txn: Transaction, cycle: int) -> int:
        """Earliest cycle the slave can accept *txn*'s address phase.

        This is the BI "access permission" channel; the default slave is
        always ready.
        """
        return cycle

    def idle_until(self, cycle: int) -> None:
        """The bus informs the slave that time advanced with no access.

        Lets stateful slaves (DDRC) age their bank timers/refresh state.
        The default slave has no time-dependent state.
        """


class SramSlave(TlmSlave):
    """A fixed-latency on-chip-memory slave with a real backing store.

    Timing: the address phase takes one cycle, the first data beat
    completes after ``wait_states`` extra cycles, and each subsequent
    beat completes after ``burst_wait_states`` extra cycles — the classic
    AHB slave with HREADY-stretched first access.
    """

    def __init__(
        self,
        name: str = "sram",
        size: int = 1 << 20,
        wait_states: int = 1,
        burst_wait_states: int = 0,
        base_addr: int = 0,
    ) -> None:
        if wait_states < 0 or burst_wait_states < 0:
            raise ConfigError("wait states must be non-negative")
        self.name = name
        self.size = size
        self.base_addr = base_addr
        self.wait_states = wait_states
        self.burst_wait_states = burst_wait_states
        self._store: dict = {}
        self.reads = 0
        self.writes = 0

    def _word_index(self, addr: int, size_bytes: int) -> int:
        offset = addr - self.base_addr
        if offset < 0 or offset + size_bytes > self.size:
            raise ConfigError(
                f"{self.name}: access {addr:#x} outside "
                f"[{self.base_addr:#x}, {self.base_addr + self.size:#x})"
            )
        return offset

    def serve(self, txn: Transaction, start_cycle: int) -> int:
        addresses = transaction_addresses(txn)
        cycle = start_cycle + 1  # address phase
        if txn.is_write:
            data = txn.data if txn.data else [0] * txn.beats
            for i, addr in enumerate(addresses):
                offset = self._word_index(addr, txn.size_bytes)
                self._store[offset] = data[i]
                cycle += (self.wait_states if i == 0 else self.burst_wait_states) + 1
            self.writes += 1
        else:
            txn.data = []
            for i, addr in enumerate(addresses):
                offset = self._word_index(addr, txn.size_bytes)
                txn.data.append(self._store.get(offset, 0))
                cycle += (self.wait_states if i == 0 else self.burst_wait_states) + 1
            self.reads += 1
        txn.started_at = start_cycle
        return cycle - 1

    def peek_word(self, addr: int, size_bytes: int = 4) -> Optional[int]:
        """Read the backing store without modelling timing (tests)."""
        return self._store.get(self._word_index(addr, size_bytes))


class ApbBridgeSlave(SramSlave):
    """Stub of an AHB→APB bridge with its register file behind it.

    Every beat pays the full bridge setup+access penalty — APB has no
    burst mode, so an AHB burst through the bridge degenerates into
    back-to-back single transfers.  Functionally it is a plain backing
    store (peripheral registers that hold what software wrote), which is
    all the multi-slave routing scenarios need from it.
    """

    def __init__(
        self,
        name: str = "apb",
        size: int = 1 << 16,
        setup_cycles: int = 4,
        base_addr: int = 0,
    ) -> None:
        if setup_cycles < 1:
            raise ConfigError("APB bridge setup must be at least one cycle")
        super().__init__(
            name=name,
            size=size,
            wait_states=setup_cycles,
            burst_wait_states=setup_cycles,
            base_addr=base_addr,
        )
