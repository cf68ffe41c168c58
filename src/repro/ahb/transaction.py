"""The transaction object exchanged over transaction-level ports.

Section 3.1 of the paper maps AHB signal groups onto transaction-level
ports; a :class:`Transaction` is the argument those ports exchange.  One
instance describes a complete burst (one address phase plus its data
beats) together with the bookkeeping both bus models fill in: request,
grant, first-beat and completion cycles, plus the AHB+ QoS deadline.

The same object flows through the plain AHB baseline, the AHB+ TLM and
the RTL reference, which is what makes cycle-accuracy comparisons and
functional-equivalence checks direct.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.ahb.types import AccessKind, HBurst, HSize, burst_for_beats
from repro.errors import ProtocolError

#: Master index used for transfers issued by the AHB+ write buffer when
#: it drains (the buffer "behaves as another master", paper section 3.3).
WRITE_BUFFER_MASTER = 255

_txn_ids = itertools.count()


@dataclass(slots=True)
class Transaction:
    """A single AHB burst transfer at transaction level.

    Parameters
    ----------
    master:
        Index of the issuing master (``WRITE_BUFFER_MASTER`` for drains).
    kind:
        Read or write.
    addr:
        Byte address of the first beat; must be aligned to ``size_bytes``.
    beats:
        Number of data beats in the burst.
    size_bytes:
        Bytes per beat (power of two, at most the bus width).
    wrapping:
        Use a WRAPx burst encoding (beats must be 4, 8 or 16).
    locked:
        Assert HLOCK for the duration of the burst.
    deadline:
        Absolute cycle by which an RT master needs completion (AHB+ QoS);
        ``None`` for non-real-time traffic.
    data:
        Write data, one integer per beat; populated by the slave on reads.
    """

    master: int
    kind: AccessKind
    addr: int
    beats: int = 1
    size_bytes: int = 4
    wrapping: bool = False
    locked: bool = False
    deadline: Optional[int] = None
    data: List[int] = field(default_factory=list)

    # Bookkeeping filled in by the bus models.
    uid: int = field(default_factory=_txn_ids.__next__)
    issued_at: int = -1
    granted_at: int = -1
    started_at: int = -1
    finished_at: int = -1
    via_write_buffer: bool = False
    retries: int = 0
    #: For posted writes: cycle the buffered copy reached memory.
    drained_at: int = -1
    #: Drain transactions link back to the posted original.
    origin: Optional["Transaction"] = None
    #: Seeded fault plan: non-OKAY HResp codes the addressed slave will
    #: answer with, one per bus presentation, before (possibly) letting
    #: the transfer through.  Stamped by the traffic layer so every
    #: engine sees the identical plan.
    fault_plan: Tuple[int, ...] = ()
    #: How many plan entries have been consumed (bus presentations).
    fault_step: int = 0
    #: RETRY responses tolerated before the master aborts the transfer.
    retry_limit: int = 4
    #: Final response the master observed (``HResp`` value; 0 = OKAY).
    resp: int = 0
    #: Cached ``kind.is_write`` — read on every arbitration round and
    #: data beat, so it is materialised once instead of going through a
    #: property descriptor per access.
    is_write: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.is_write = self.kind.is_write
        if self.beats < 1:
            raise ProtocolError(f"transaction needs >= 1 beat, got {self.beats}")
        if self.size_bytes <= 0 or self.size_bytes & (self.size_bytes - 1):
            raise ProtocolError(
                f"beat size must be a power of two, got {self.size_bytes}"
            )
        if self.addr % self.size_bytes:
            raise ProtocolError(
                f"address {self.addr:#x} not aligned to beat size {self.size_bytes}"
            )
        if self.is_write and self.data and len(self.data) != self.beats:
            raise ProtocolError(
                f"write supplies {len(self.data)} beats of data but "
                f"declares {self.beats} beats"
            )
        if self.wrapping and self.beats not in (4, 8, 16):
            raise ProtocolError(
                f"wrapping bursts must be 4/8/16 beats, got {self.beats}"
            )

    # -- protocol views -------------------------------------------------------

    @property
    def burst(self) -> HBurst:
        """The HBURST encoding of this transfer."""
        return burst_for_beats(self.beats, self.wrapping)

    @property
    def hsize(self) -> HSize:
        """The HSIZE encoding of this transfer."""
        return HSize.for_bytes(self.size_bytes)

    @property
    def total_bytes(self) -> int:
        """Payload carried by the whole burst."""
        return self.beats * self.size_bytes

    # -- timing views (valid once the bus filled the bookkeeping) --------------

    @property
    def latency(self) -> int:
        """Cycles from issue to completion (master-observed)."""
        self._require_done()
        return self.finished_at - self.issued_at

    @property
    def met_deadline(self) -> Optional[bool]:
        """Whether the QoS deadline was met; ``None`` when no deadline set."""
        if self.deadline is None:
            return None
        self._require_done()
        return self.finished_at <= self.deadline

    def _require_done(self) -> None:
        if self.finished_at < 0:
            raise ProtocolError(f"transaction {self.uid} has not completed")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rw = "W" if self.is_write else "R"
        return (
            f"Txn(#{self.uid} m{self.master} {rw} {self.addr:#010x} "
            f"x{self.beats}*{self.size_bytes}B)"
        )
