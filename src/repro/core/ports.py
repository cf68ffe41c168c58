"""Transaction-level ports: the paper's signal-to-method mapping.

Paper §3.1–3.2 redefine the AHB+ signal protocol as transaction-level
ports: *"a master can immediately get 'HGRANT' ... is represented as the
transaction port of a master calls CheckGrant() and receives 'true' ...
the master calls 'Read(addr, *data, *ctrl)' function and receives 'OK'
as a return value."*

:class:`TransactionPort` is that port.  It offers the blocking,
software-driver style of use — call ``read``/``write`` and get a status
back — on top of an :class:`InteractiveAhbPlus` system that advances the
shared clock as calls are made.  The port API is what a user integrating
an instruction-set simulator or a hand-written test stimulus uses.

:class:`InteractiveAhbPlus` is the method-based bus of
:mod:`repro.core.bus` driven by calls instead of recorded traffic.  What
it adds is only the call-driven flow: each call arbitrates one port's
transaction against the write buffer's next drain, posts writes
directly into the buffer, and advances the clock past each transfer.
It runs the method bus's own arbitration round — collect and decide,
without absorbing a losing write — and its QoS registers and slave
transfer.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Sequence, Tuple

from repro.ahb.master import TlmMaster
from repro.ahb.slave import TlmSlave
from repro.ahb.transaction import Transaction
from repro.ahb.types import AccessKind
from repro.core.bus import AhbPlusBusTlm, RequestLine
from repro.core.config import AhbPlusConfig
from repro.core.filters import Candidate
from repro.errors import ConfigError


class PortStatus(enum.Enum):
    """Return codes of the transaction-port calls (the paper's 'OK')."""

    OK = "OK"
    POSTED = "POSTED"  # write absorbed by the write buffer


class InteractiveAhbPlus(AhbPlusBusTlm):
    """A synchronously driven AHB+ system for port-style stimulus.

    One shared clock advances as ports issue transactions.  Multiple
    ports may be created; each call arbitrates against the write
    buffer's pending drains (ports themselves are serialized by the
    calling code — Python callers are sequential by construction).
    """

    def __init__(
        self,
        slave: TlmSlave,
        config: Optional[AhbPlusConfig] = None,
    ) -> None:
        config = config if config is not None else AhbPlusConfig()
        # Ports issue transactions by call, so no master replays
        # recorded traffic.
        idle = [
            TlmMaster(index, f"port{index}", ())
            for index in range(config.num_masters)
        ]
        super().__init__(idle, [slave], config)
        # A port raises its master's line while its call arbitrates.
        self._request_lines = [RequestLine() for _ in idle]
        self._ports: List[TransactionPort] = []

    def port(self, master_index: int) -> "TransactionPort":
        """Create (or fetch) the transaction port of *master_index*."""
        if not 0 <= master_index < self.config.num_masters:
            raise ConfigError(f"master index {master_index} out of range")
        for existing in self._ports:
            if existing.master_index == master_index:
                return existing
        port = TransactionPort(self, master_index)
        self._ports.append(port)
        return port

    # -- engine ---------------------------------------------------------------

    def _winner(self, txn: Transaction) -> Candidate:
        """Arbitrate *txn* against the write buffer's next drain now."""
        line = self._request_lines[txn.master]
        line.txn = txn
        candidates = self.collect(self._now)
        line.txn = None
        return self.decide(self._now, candidates)

    def _ride(self, cand: Candidate) -> None:
        """Grant *cand* the bus and serve it; advances the clock."""
        span = self._transfer(cand, self._now + self.config.arbitration_cycles)
        assert span is not None  # port transactions carry no fault plan
        _start, finish = span
        txn = cand.txn
        txn.finished_at = finish
        if txn.origin is not None:
            txn.origin.drained_at = finish
        self._now = finish + 1

    def would_grant(self, master_index: int) -> bool:
        """The CheckGrant() of the paper: would this master win right now?

        Non-committal — no clock advance, no state change beyond filter
        statistics.
        """
        probe = Transaction(
            master=master_index, kind=AccessKind.READ, addr=0, beats=1
        )
        probe.issued_at = self._now
        return self._winner(probe).txn is probe

    def execute(self, txn: Transaction) -> PortStatus:
        """Run *txn* to completion, draining the buffer as arbitration demands."""
        txn.issued_at = self._now
        while True:
            # A losing write is not posted here: the caller chose the bus.
            winner = self._winner(txn)
            self._ride(winner)
            if winner.txn is txn:
                self.qos.record_completion(txn)
                return PortStatus.OK

    def post_write(self, txn: Transaction) -> Optional[PortStatus]:
        """Try to absorb a write; returns POSTED or ``None`` if not possible."""
        txn.issued_at = self._now
        if not self.write_buffer.can_absorb(txn):
            return None
        self.write_buffer.absorb(txn, self._now)
        txn.finished_at = self._now
        txn.via_write_buffer = True
        return PortStatus.POSTED

    def drain_write_buffer(self) -> int:
        """Flush all posted writes; returns the cycle after the last drain."""
        # With no port request raised, the buffer head is the only candidate.
        while candidates := self.collect(self._now):
            self._ride(candidates[0])
        return self._now

    def idle(self, cycles: int) -> None:
        """Advance the clock with the bus idle (think time)."""
        if cycles < 0:
            raise ConfigError("cannot idle a negative number of cycles")
        self._now += cycles
        self.slaves[0].idle_until(self._now)


class TransactionPort:
    """Master-side transaction-level port (CheckGrant / Read / Write)."""

    def __init__(self, system: InteractiveAhbPlus, master_index: int) -> None:
        self.system = system
        self.master_index = master_index
        self.reads = 0
        self.writes = 0
        self.posted_writes = 0

    def check_grant(self) -> bool:
        """Paper §3.2: returns ``True`` when the bus would grant now."""
        return self.system.would_grant(self.master_index)

    def read(
        self, addr: int, beats: int = 1, size_bytes: int = 4, wrapping: bool = False
    ) -> Tuple[PortStatus, List[int]]:
        """Blocking burst read; returns ``(OK, data)``."""
        txn = Transaction(
            master=self.master_index,
            kind=AccessKind.READ,
            addr=addr,
            beats=beats,
            size_bytes=size_bytes,
            wrapping=wrapping,
        )
        status = self.system.execute(txn)
        self.reads += 1
        return status, txn.data

    def write(
        self,
        addr: int,
        data: Sequence[int],
        size_bytes: int = 4,
        wrapping: bool = False,
        posted: bool = True,
    ) -> PortStatus:
        """Blocking (or posted) burst write.

        With ``posted=True`` (the default) the write lands in the write
        buffer when space allows — the call returns ``POSTED`` without
        consuming bus cycles, exactly the latency-hiding behaviour the
        buffer exists for.
        """
        txn = Transaction(
            master=self.master_index,
            kind=AccessKind.WRITE,
            addr=addr,
            beats=len(data),
            size_bytes=size_bytes,
            wrapping=wrapping,
            data=list(data),
        )
        if posted:
            status = self.system.post_write(txn)
            if status is not None:
                self.posted_writes += 1
                return status
        result = self.system.execute(txn)
        self.writes += 1
        return result
