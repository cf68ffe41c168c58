"""The AHB+ arbiter: filter pipeline, and the one arbitration round.

:class:`AhbPlusArbiter` runs the seven-filter chain over the candidate
set each round and exposes per-filter narrowing statistics (the paper's
§3.6 "profiling features ... in some internal functions such as
arbiter").  :class:`ArbitrationRound` is the §3.3 decision every
abstraction level makes around it: gather the candidates, pick the
winner, let the write buffer absorb the losing writes.

Request pipelining (paper §2: *"AHB+ hides the latencies incurred
between the requests of masters by pipelining the master requests"*)
lives in the bus engine, which runs a round for the *next* winner a few
cycles before the current transfer ends and forwards the decision to
the DDRC over the Bus Interface.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from repro.ahb.transaction import WRITE_BUFFER_MASTER, Transaction
from repro.core.filters import (
    ArbitrationContext,
    ArbitrationFilter,
    Candidate,
    TieBreakFilter,
    default_filter_chain,
    narrow,
)
from repro.core.write_buffer import WriteBuffer
from repro.errors import ConfigError, SimulationError

if TYPE_CHECKING:  # repro.core.config imports this module
    from repro.core.config import AhbPlusConfig
    from repro.core.qos import QosRegisterFile


class AhbPlusArbiter:
    """Filter-pipeline arbiter of the AHB+ main bus."""

    def __init__(
        self,
        filters: Optional[Sequence[ArbitrationFilter]] = None,
        tie_break: str = "fixed",
        num_masters: int = 16,
    ) -> None:
        if filters is None:
            filters = default_filter_chain(tie_break, num_masters)
        self.filters: List[ArbitrationFilter] = list(filters)
        if not self.filters or not isinstance(self.filters[-1], TieBreakFilter):
            raise ConfigError("the filter chain must end with the tie-break filter")
        self._tie_break: TieBreakFilter = self.filters[-1]
        self._enabled_chain()
        self.rounds = 0

    # -- configuration -----------------------------------------------------------

    def set_filter_enabled(self, name: str, enabled: bool) -> None:
        """Toggle one filter by name (paper §3.7 per-algorithm on/off)."""
        for filt in self.filters:
            if filt.name == name:
                if isinstance(filt, TieBreakFilter) and not enabled:
                    raise ConfigError("the tie-break filter cannot be disabled")
                filt.enabled = enabled
                self._enabled_chain()
                return
        raise ConfigError(f"no arbitration filter named {name!r}")

    def add_filter(self, filt: ArbitrationFilter) -> None:
        """Insert a custom narrowing filter just ahead of the tie-break."""
        self.filters.insert(-1, filt)
        self._enabled_chain()

    def _enabled_chain(self) -> None:
        """Rebuild the list of enabled narrowing filters ``choose`` runs."""
        self._narrowing = [f for f in self.filters[:-1] if f.enabled]

    # -- arbitration ----------------------------------------------------------------

    def choose(
        self, candidates: Sequence[Candidate], ctx: ArbitrationContext
    ) -> Candidate:
        """Run the enabled filters; returns the single winner.

        Narrowing stops once one candidate is left: a filter skips a
        singleton set without counting an application, so the skipped
        tail would change nothing.  The mandatory tie-break always runs
        (:meth:`pick`).
        """
        if not candidates:
            raise SimulationError("arbitration invoked with no candidates")
        return self.pick(narrow(self._narrowing, candidates, ctx), ctx)

    def pick(self, survivors: Sequence[Candidate], ctx: ArbitrationContext) -> Candidate:
        """Count the round and let the tie-break reduce *survivors* to one.

        The tie-break keeps its counters and the round-robin rotation.
        An uncontended round comes here directly: with one candidate
        :meth:`choose` would skip every narrowing filter anyway.
        """
        self.rounds += 1
        winners = self._tie_break.apply(survivors, ctx)
        if len(winners) != 1:
            raise SimulationError(
                f"filter chain left {len(winners)} survivors; "
                f"the tie-break must leave exactly one"
            )
        return winners[0]

    # -- profiling --------------------------------------------------------------------

    def filter_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-filter application/narrowing counts."""
        return {
            filt.name: {
                "applied": filt.rounds_applied,
                "narrowed": filt.rounds_narrowed,
                "enabled": int(filt.enabled),
            }
            for filt in self.filters
        }


class ArbitrationRound:
    """One arbitration round (§3.3), the same at every abstraction level.

    The TLM bus and the RTL arbiter derive from it and differ only in
    *when* a round runs and *how* its grant is driven.  A level supplies
    two hooks: where requests are read (:meth:`_requests`; the TLM bus
    instead overrides :meth:`collect` to read the candidates its masters
    post) and how the master of a write the buffer absorbed is answered
    (:meth:`_free`).
    They are methods rather than callbacks held by a separate object,
    so a level is not in a reference cycle with its round and a finished
    TLM bus is freed without waiting for the cyclic garbage collector.
    The round keeps one :class:`~repro.core.filters.Candidate` per
    master and one for the drain head, each built by :meth:`_candidate`
    only when its transaction changes, and one
    :class:`~repro.core.filters.ArbitrationContext`: its buffer depth
    and bank oracle (``bank_oracle(ctx)``, which may score against
    ``ctx.now``) are fixed here, the rest is refreshed per contended
    round.
    """

    def __init__(
        self,
        config: AhbPlusConfig,
        write_buffer: WriteBuffer,
        qos: QosRegisterFile,
        bank_oracle: Callable[[ArbitrationContext], Optional[Callable[[int], int]]],
    ) -> None:
        self.arbiter = config.build_arbiter()
        self.write_buffer = write_buffer
        self.qos = qos
        #: Indexed by issuing master; the drain head's is WRITE_BUFFER_MASTER.
        self._cands: List[Optional[Candidate]] = [None] * (WRITE_BUFFER_MASTER + 1)
        self.ctx = ArbitrationContext(
            now=0,
            write_buffer_depth=write_buffer.depth if write_buffer.enabled else 0,
            urgency_margin=config.urgency_margin,
            starvation_limit=config.starvation_limit,
        )
        self.ctx.access_score = bank_oracle(self.ctx)

    def _requests(self, now: int) -> Sequence[Transaction]:
        """The transactions requesting the bus at *now*: masters in index
        order, then the write buffer's drain head."""
        raise NotImplementedError

    def _free(self, txn: Transaction, now: int) -> None:
        """The write buffer absorbed *txn*: answer its master."""
        raise NotImplementedError

    def _candidate(self, txn: Transaction) -> Candidate:
        """*txn*'s candidate: its deadline, RT class and footprint, built
        once per transaction."""
        master = txn.master
        cand = self._cands[master]
        if cand is None or cand.txn is not txn:
            if master == WRITE_BUFFER_MASTER:
                cand = Candidate(txn=txn, from_write_buffer=True)
            else:
                cand = Candidate(
                    txn=txn,
                    real_time=self.qos.is_real_time(master),
                    deadline=self.qos.deadline_for(txn),
                )
            self._cands[master] = cand
        return cand

    def collect(
        self, now: int, exclude: Optional[Transaction] = None
    ) -> List[Candidate]:
        """Live candidates at *now*, except the transfer *exclude*."""
        return [
            self._candidate(txn) for txn in self._requests(now) if txn is not exclude
        ]

    def decide(self, now: int, candidates: List[Candidate]) -> Candidate:
        """Refresh the context for *now* and pick the winner.

        An uncontended round (one candidate that no buffered write can
        hazard) skips the refresh and the hazard scan: no filter reads
        the context for a single candidate, and the scan would count
        nothing.
        """
        buffer = self.write_buffer
        ctx = self.ctx
        if len(candidates) == 1 and (
            candidates[0].footprint is None or buffer.is_empty
        ):
            return self.arbiter.pick(candidates, ctx)
        ctx.now = now
        ctx.write_buffer_occupancy = buffer.occupancy
        ctx.read_hazard = buffer.read_hazard(candidates)
        return self.arbiter.choose(candidates, ctx)

    def arbitrate(
        self, now: int, exclude: Optional[Transaction] = None
    ) -> Optional[Candidate]:
        """The full round at *now*; ``None`` when nobody requests.

        Every losing write the buffer accepts is posted and its master
        freed at once — before the QoS completion is recorded, whose
        deadline check reads the ``finished_at`` that freeing sets.
        """
        candidates = self.collect(now, exclude)
        if not candidates:
            return None
        winner = self.decide(now, candidates)
        buffer = self.write_buffer
        for cand in candidates:
            txn = cand.txn
            if cand is winner or cand.from_write_buffer or not txn.is_write:
                continue
            if buffer.can_absorb(txn):
                buffer.absorb(txn, now)
                self._free(txn, now)
                self.qos.record_completion(txn, cand.deadline)
        return winner
