"""Transaction-level ports: the paper's signal-to-method mapping.

Paper §3.1–3.2 redefine the AHB+ signal protocol as transaction-level
ports: *"a master can immediately get 'HGRANT' ... is represented as the
transaction port of a master calls CheckGrant() and receives 'true' ...
the master calls 'Read(addr, *data, *ctrl)' function and receives 'OK'
as a return value."*

:class:`TransactionPort` is that port.  It offers the blocking,
software-driver style of use — call ``read``/``write`` and get a status
back — on top of an :class:`InteractiveAhbPlus` system that advances the
shared clock as calls are made.  The batch engines in
:mod:`repro.core.bus` drive the same arbitration and memory machinery
from recorded traffic instead; the port API is what a user integrating
an instruction-set simulator or a hand-written test stimulus uses.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Sequence, Tuple

from repro.ahb.transaction import Transaction
from repro.ahb.types import AccessKind
from repro.core.arbiter import AhbPlusArbiter
from repro.core.bus_interface import BusInterface, arbitration_context
from repro.core.config import AhbPlusConfig
from repro.core.filters import ArbitrationContext, Candidate
from repro.core.qos import QosRegisterFile
from repro.core.write_buffer import WriteBuffer
from repro.ahb.slave import TlmSlave
from repro.errors import ConfigError


class PortStatus(enum.Enum):
    """Return codes of the transaction-port calls (the paper's 'OK')."""

    OK = "OK"
    POSTED = "POSTED"  # write absorbed by the write buffer


class InteractiveAhbPlus:
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
        self.config = config if config is not None else AhbPlusConfig()
        self.slave = slave
        self.qos = QosRegisterFile(self.config.num_masters)
        for master, setting in self.config.qos.items():
            self.qos.configure(master, setting)
        self.write_buffer = WriteBuffer(
            depth=self.config.write_buffer_depth,
            enabled=self.config.write_buffer_enabled,
        )
        self.arbiter = AhbPlusArbiter(
            tie_break=self.config.tie_break,
            num_masters=self.config.num_masters,
        )
        for name in self.config.disabled_filters:
            self.arbiter.set_filter_enabled(name, False)
        self.bi = BusInterface(slave, enabled=self.config.bus_interface_enabled)
        self._arb_ctx = arbitration_context(self.config, self.write_buffer, [self.bi])
        self._now = 0
        self._ports: List[TransactionPort] = []

    @property
    def now(self) -> int:
        """Current cycle of the shared bus clock."""
        return self._now

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

    def _ctx(self, candidates: Sequence[Candidate]) -> ArbitrationContext:
        ctx = self._arb_ctx
        ctx.now = self._now
        ctx.write_buffer_occupancy = self.write_buffer.occupancy
        ctx.read_hazard = self.write_buffer.read_hazard(candidates)
        return ctx

    def _candidates_for(self, txn: Optional[Transaction]) -> List[Candidate]:
        candidates: List[Candidate] = []
        if txn is not None:
            candidates.append(
                Candidate(
                    txn=txn,
                    real_time=self.qos.is_real_time(txn.master),
                    deadline=self.qos.deadline_for(txn),
                )
            )
        head = self.write_buffer.head()
        if head is not None:
            candidates.append(Candidate(txn=head, from_write_buffer=True))
        return candidates

    def would_grant(self, master_index: int) -> bool:
        """The CheckGrant() of the paper: would this master win right now?

        Non-committal — no clock advance, no state change beyond filter
        statistics.
        """
        probe = Transaction(
            master=master_index, kind=AccessKind.READ, addr=0, beats=1
        )
        probe.issued_at = self._now
        candidates = self._candidates_for(probe)
        winner = self.arbiter.choose(candidates, self._ctx(candidates))
        return winner.txn is probe

    def _serve_on_bus(self, txn: Transaction) -> int:
        """Grant + serve one transaction; advances the clock."""
        grant = self._now + self.config.arbitration_cycles
        txn.granted_at = grant
        self.slave.idle_until(grant)
        start = self.bi.access_permitted_at(txn, grant)
        finish = self.slave.serve(txn, start)
        txn.finished_at = finish
        if txn.origin is not None:
            txn.origin.drained_at = finish
        self._now = finish + 1
        return finish

    def execute(self, txn: Transaction) -> PortStatus:
        """Run *txn* to completion, draining the buffer as arbitration demands."""
        txn.issued_at = self._now
        while True:
            candidates = self._candidates_for(txn)
            winner = self.arbiter.choose(candidates, self._ctx(candidates))
            if winner.txn is txn:
                # A losing write would be posted; a winning one rides the bus.
                self._serve_on_bus(txn)
                self.qos.record_completion(txn)
                return PortStatus.OK
            if winner.from_write_buffer:
                drain = winner.txn
                self._serve_on_bus(drain)
                self.write_buffer.pop_head(drain)
                continue
            raise ConfigError("unexpected arbitration outcome")  # pragma: no cover

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
        while True:
            head = self.write_buffer.head()
            if head is None:
                return self._now
            self._serve_on_bus(head)
            self.write_buffer.pop_head(head)

    def idle(self, cycles: int) -> None:
        """Advance the clock with the bus idle (think time)."""
        if cycles < 0:
            raise ConfigError("cannot idle a negative number of cycles")
        self._now += cycles
        self.slave.idle_until(self._now)


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
