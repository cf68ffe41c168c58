"""The AHB+ write buffer.

Paper §3.3: *"The write buffer stores the information of write
transactions when a master cannot get a bus grant at the right time.
The write buffer behaves as another master when it is occupied by
waiting transactions."*

Absorbing a write frees the issuing master immediately (posted-write
semantics); the buffered copy later drains onto the bus as a
pseudo-master transaction with index
:data:`~repro.ahb.transaction.WRITE_BUFFER_MASTER`.  The buffer also
answers read-hazard queries so the arbiter's hazard filter can force a
drain before a read observes stale memory.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from repro.ahb.burst import transaction_footprint
from repro.ahb.transaction import WRITE_BUFFER_MASTER, Transaction
from repro.core.filters import Candidate
from repro.errors import ConfigError, SimulationError


class WriteBuffer:
    """FIFO of posted writes acting as an extra bus master."""

    def __init__(self, depth: int = 4, enabled: bool = True) -> None:
        if depth < 1:
            raise ConfigError(f"write buffer depth must be >= 1, got {depth}")
        self.depth = depth
        self.enabled = enabled
        self._drains: Deque[Transaction] = deque()
        #: Byte footprint of each buffered write, computed once at absorb.
        self._footprints: Deque[Tuple[int, int]] = deque()
        # Statistics (paper §3.6 profiles the write buffer explicitly).
        self.absorbed = 0
        self.drained = 0
        self.rejected_full = 0
        self.max_occupancy = 0
        self.hazard_hits = 0

    # -- occupancy ---------------------------------------------------------------

    @property
    def occupancy(self) -> int:
        """Writes currently waiting to drain."""
        return len(self._drains)

    @property
    def is_empty(self) -> bool:
        return not self._drains

    @property
    def is_full(self) -> bool:
        return len(self._drains) >= self.depth

    # -- absorb path -----------------------------------------------------------------

    def can_absorb(self, txn: Transaction) -> bool:
        """Whether *txn* qualifies for posting.

        Only plain (unlocked) writes are buffered; locked transfers must
        observe the bus directly.  Writes with an unconsumed fault plan
        are never posted: the slave still owes them ERROR/RETRY
        responses, which only exist on the bus — absorbing them would
        make the outcome engine-dependent.
        """
        if not self.enabled or txn.locked or not txn.is_write:
            return False
        if txn.fault_step < len(txn.fault_plan):
            return False
        if self.is_full:
            self.rejected_full += 1
            return False
        return True

    def absorb(self, txn: Transaction, cycle: int) -> Transaction:
        """Post *txn*; returns the drain copy that will replay on the bus."""
        if not self.can_absorb(txn):
            raise SimulationError("absorb() called for an unbufferable write")
        drain = Transaction(
            master=WRITE_BUFFER_MASTER,
            kind=txn.kind,
            addr=txn.addr,
            beats=txn.beats,
            size_bytes=txn.size_bytes,
            wrapping=txn.wrapping,
            locked=False,
            data=list(txn.data),
        )
        drain.issued_at = cycle
        drain.via_write_buffer = True
        drain.origin = txn
        self._drains.append(drain)
        self._footprints.append(transaction_footprint(drain))
        self.absorbed += 1
        self.max_occupancy = max(self.max_occupancy, self.occupancy)
        return drain

    # -- drain path --------------------------------------------------------------------

    def head(self) -> Optional[Transaction]:
        """The next write to replay (the buffer's bus request)."""
        if not self._drains:
            return None
        return self._drains[0]

    def pop_head(self, txn: Transaction) -> None:
        """Remove the head after the bus served it."""
        if not self._drains or self._drains[0] is not txn:
            raise SimulationError("write buffer drained out of order")
        self._drains.popleft()
        self._footprints.popleft()
        self.drained += 1

    # -- hazard detection ---------------------------------------------------------------

    def read_hazard(self, candidates) -> bool:
        """True when any read candidate overlaps a buffered write.

        The shared RAW-hazard predicate every bus engine feeds into
        :class:`~repro.core.filters.ArbitrationContext` — occupancy is
        checked once up front so the common empty-buffer round costs a
        single test.  *candidates* is any iterable of
        :class:`~repro.core.filters.Candidate`: a master's read carries
        the footprint computed when its Candidate was built, and each
        buffered write the footprint computed when it was absorbed, so
        a round only compares ranges.  Footprints come from
        :func:`~repro.ahb.burst.transaction_footprint`, so wrapping
        bursts count the bytes below their wrap point — a linear
        ``[addr, addr+total)`` range would miss those and let a wrapped
        read sail past a buffered write it depends on.
        """
        if not self._drains:
            return False
        for cand in candidates:
            footprint = cand.footprint
            if footprint is None:
                continue
            lo, hi = footprint
            for p_lo, p_hi in self._footprints:
                if lo < p_hi and p_lo < hi:
                    self.hazard_hits += 1
                    return True
        return False

    def conflicts_with(self, txn: Transaction) -> bool:
        """True when *txn*, as a master's read, overlaps a buffered write."""
        return self.read_hazard((Candidate(txn),))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WriteBuffer(depth={self.depth}, occupancy={self.occupancy}, "
            f"absorbed={self.absorbed})"
        )
