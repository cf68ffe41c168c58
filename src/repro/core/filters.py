"""The seven AHB+ arbitration filters.

Paper §3.3: *"In the design of AHB+, seven arbitration filters are
implemented and they are always activated without the consideration of
master / slave combinations."*

Each filter narrows the candidate set; a filter that would eliminate
every candidate **abstains** (returns its input unchanged), so the chain
always ends with at least one survivor and the final tie-break filter
reduces it to exactly one winner.  Filters are individually switchable
(paper §3.7 lists "arbitration algorithm on/off" among the model
parameters), which the ablation benchmark exercises.

Filter order (first applied first):

1. :class:`RequestFilter`       — only candidates whose request is live.
2. :class:`HazardFilter`        — force write-buffer drain when a read
                                  hits a buffered write (RAW hazard).
3. :class:`UrgencyFilter`       — RT transactions whose QoS slack ran
                                  low pre-empt everything else.
4. :class:`RealTimeFilter`      — RT class outranks NRT class.
5. :class:`PressureFilter`      — a nearly full write buffer must drain.
6. :class:`BankFilter`          — prefer accesses the DDRC can serve
                                  cheapest (row hit > bank idle > conflict).
7. :class:`TieBreakFilter`      — fixed-priority or round-robin; reduces
                                  to a single winner.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.ahb.burst import transaction_footprint
from repro.ahb.transaction import WRITE_BUFFER_MASTER, Transaction
from repro.errors import ConfigError


@dataclass(slots=True)
class Candidate:
    """One contender in an arbitration round."""

    txn: Transaction
    #: True when the candidate is the write buffer draining, not a master.
    from_write_buffer: bool = False
    #: Master's QoS class (write-buffer drains are never RT).
    real_time: bool = False
    #: Absolute completion deadline derived by the QoS register file.
    deadline: Optional[int] = None
    #: Byte footprint ``[lo, hi)`` of a master's read, computed once
    #: here for the write buffer's RAW-hazard check; ``None`` for writes
    #: and write-buffer drains.
    footprint: Optional[Tuple[int, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        txn = self.txn
        self.footprint = (
            None
            if txn.is_write or self.from_write_buffer
            else transaction_footprint(txn)
        )

    @property
    def master(self) -> int:
        return self.txn.master

    def slack(self, now: int) -> Optional[int]:
        """Cycles of QoS slack left; ``None`` when no deadline applies."""
        if self.deadline is None:
            return None
        return self.deadline - now


@dataclass(slots=True)
class ArbitrationContext:
    """Round-shared state the filters consult.

    Each :class:`~repro.core.arbiter.ArbitrationRound` keeps one
    instance alive and refreshes its per-round fields in ``decide``
    instead of allocating a new context per arbitration — filters must
    treat it as read-only.
    """

    now: int
    #: Occupancy / depth of the write buffer (0/1 when disabled).
    write_buffer_occupancy: int = 0
    write_buffer_depth: int = 1
    #: True when a candidate read overlaps a buffered write.
    read_hazard: bool = False
    #: Cost of an access for the bank filter: ``access_score(addr) ->``
    #: 0 row-hit / 1 bank-idle / 2 row-conflict, or ``None`` when the
    #: BI does not supply bank information (plain slaves / BI disabled).
    access_score: Optional[Callable[[int], int]] = None
    #: Urgency margin: RT slack at or below this is "urgent".
    urgency_margin: int = 32
    #: Anti-starvation bound for the bank filter: a candidate that has
    #: waited this long can no longer be filtered out on bank cost.
    starvation_limit: int = 64


class ArbitrationFilter(abc.ABC):
    """Base class: narrows candidates, abstaining instead of emptying.

    A filter implements :meth:`_narrow`; :func:`narrow` runs it, alone
    (:meth:`apply`) or as one link of the arbiter's chain.
    """

    #: Short name used in profiling reports and config switches.
    name: str = "filter"

    def __init__(self) -> None:
        self.enabled = True
        self.rounds_applied = 0
        self.rounds_narrowed = 0

    def apply(
        self, candidates: List[Candidate], ctx: ArbitrationContext
    ) -> List[Candidate]:
        """Run the filter; guaranteed to return a non-empty subset."""
        if not self.enabled:
            return candidates
        return narrow((self,), candidates, ctx)

    @abc.abstractmethod
    def _narrow(
        self, candidates: List[Candidate], ctx: ArbitrationContext
    ) -> List[Candidate]:
        """Return the surviving candidates (may be empty = abstain)."""


def narrow(
    filters: Sequence[ArbitrationFilter],
    candidates: List[Candidate],
    ctx: ArbitrationContext,
) -> List[Candidate]:
    """Run the enabled *filters* in order over a non-empty candidate set.

    Once one candidate is left the remaining filters are skipped,
    without counting an application.  A filter that would empty the set
    abstains rather than starve the bus, and one that returns its input
    list dropped nothing.  The arbiter runs its whole chain in this one
    call instead of one call per filter.
    """
    survivors = candidates
    count = len(survivors)
    if count <= 1:
        return survivors
    for filt in filters:
        filt.rounds_applied += 1
        narrowed = filt._narrow(survivors, ctx)
        if narrowed is not survivors and narrowed:
            left = len(narrowed)
            if left < count:
                filt.rounds_narrowed += 1
                if left == 1:
                    return narrowed
                count = left
            survivors = narrowed
    return survivors


class RequestFilter(ArbitrationFilter):
    """Filter 1 — keep only candidates whose request is live *now*.

    The TLM engine normally collects only live requests, so this filter
    is a consistency guard; at RTL it corresponds to masking HGRANT by
    HBUSREQ.
    """

    name = "request"

    def _narrow(
        self, candidates: List[Candidate], ctx: ArbitrationContext
    ) -> List[Candidate]:
        now = ctx.now
        for cand in candidates:
            if cand.txn.issued_at > now:
                return [c for c in candidates if c.txn.issued_at <= now]
        return candidates


class HazardFilter(ArbitrationFilter):
    """Filter 2 — read-after-write hazard forces the buffer to drain.

    When a candidate read overlaps an address held in the write buffer,
    ordinary arbitration could serve the read stale data.  The filter
    keeps only the write-buffer candidate until the hazard clears.
    """

    name = "hazard"

    def _narrow(
        self, candidates: List[Candidate], ctx: ArbitrationContext
    ) -> List[Candidate]:
        if not ctx.read_hazard:
            return candidates
        return [c for c in candidates if c.from_write_buffer]


class UrgencyFilter(ArbitrationFilter):
    """Filter 3 — QoS urgency pre-emption.

    RT candidates whose slack is at or below the urgency margin form an
    exclusive set; among multiple urgent candidates the smallest slack
    survives (earliest-deadline-first).
    """

    name = "urgency"

    def _narrow(
        self, candidates: List[Candidate], ctx: ArbitrationContext
    ) -> List[Candidate]:
        now = ctx.now
        margin = ctx.urgency_margin
        urgent: List[Tuple[int, Candidate]] = []
        for c in candidates:
            deadline = c.deadline
            if deadline is not None and deadline - now <= margin:
                urgent.append((deadline - now, c))
        if not urgent:
            return candidates
        best = min(slack for slack, _c in urgent)
        return [c for slack, c in urgent if slack == best]


class RealTimeFilter(ArbitrationFilter):
    """Filter 4 — the RT class outranks the NRT class."""

    name = "real-time"

    def _narrow(
        self, candidates: List[Candidate], ctx: ArbitrationContext
    ) -> List[Candidate]:
        return [c for c in candidates if c.real_time]


class PressureFilter(ArbitrationFilter):
    """Filter 5 — a write buffer at its high watermark must drain.

    Prevents buffer-full stalls: once occupancy reaches the watermark
    (depth - 1 by default), the drain candidate wins unless an earlier
    filter already excluded it.
    """

    name = "pressure"

    def _narrow(
        self, candidates: List[Candidate], ctx: ArbitrationContext
    ) -> List[Candidate]:
        if ctx.write_buffer_depth <= 0:
            return candidates
        if ctx.write_buffer_occupancy < max(ctx.write_buffer_depth - 1, 1):
            return candidates
        return [c for c in candidates if c.from_write_buffer]


class BankFilter(ArbitrationFilter):
    """Filter 6 — prefer accesses the memory controller serves cheapest.

    Uses the BI's bank information: row hits (score 0) beat idle banks
    (1) beat row conflicts (2).  Without bank information (BI off or a
    bankless slave) the filter abstains, which is exactly the behaviour
    lost when the BI ablation turns the interface off.
    """

    name = "bank"

    def _narrow(
        self, candidates: List[Candidate], ctx: ArbitrationContext
    ) -> List[Candidate]:
        if ctx.access_score is None:
            return candidates
        # Anti-starvation: bank preference is a throughput optimisation
        # and must never hold a master off the bus indefinitely.  Aged
        # candidates bypass the cost comparison entirely.
        aged = [
            c
            for c in candidates
            if ctx.now - c.txn.issued_at >= ctx.starvation_limit
        ]
        if aged:
            return aged
        scores = [(ctx.access_score(c.txn.addr), c) for c in candidates]
        best = min(score for score, _c in scores)
        return [c for score, c in scores if score == best]


class TieBreakFilter(ArbitrationFilter):
    """Filter 7 — deterministic final selection (exactly one survivor).

    ``fixed`` keeps the lowest master index (the write buffer's
    pseudo-index ranks last so real masters win ties); ``round_robin``
    rotates priority after each grant.
    """

    name = "tie-break"

    def __init__(self, policy: str = "fixed", num_masters: int = 16) -> None:
        super().__init__()
        if policy not in ("fixed", "round_robin"):
            raise ConfigError(f"unknown tie-break policy {policy!r}")
        self.policy = policy
        self.num_masters = num_masters
        self._last_winner = num_masters - 1

    def apply(
        self, candidates: List[Candidate], ctx: ArbitrationContext
    ) -> List[Candidate]:
        # The tie-break may not abstain and may not be disabled — the
        # chain must end with a single winner.
        self.rounds_applied += 1
        if len(candidates) > 1:
            self.rounds_narrowed += 1
        return self._narrow(candidates, ctx)

    def _rank_round_robin(self, candidate: Candidate) -> int:
        if candidate.from_write_buffer:
            return WRITE_BUFFER_MASTER
        return (candidate.txn.master - self._last_winner - 1) % self.num_masters

    def _narrow(
        self, candidates: List[Candidate], ctx: ArbitrationContext
    ) -> List[Candidate]:
        if self.policy == "fixed":
            # The first candidate of lowest rank, as min() would pick it.
            winner = None
            best = WRITE_BUFFER_MASTER + 1
            for cand in candidates:
                rank = WRITE_BUFFER_MASTER if cand.from_write_buffer else cand.txn.master
                if rank < best:
                    winner, best = cand, rank
        else:
            winner = min(candidates, key=self._rank_round_robin)
            if not winner.from_write_buffer:
                self._last_winner = winner.master
        return [winner]


def default_filter_chain(
    tie_break: str = "fixed", num_masters: int = 16
) -> List[ArbitrationFilter]:
    """The seven always-active AHB+ filters, in canonical order."""
    return [
        RequestFilter(),
        HazardFilter(),
        UrgencyFilter(),
        RealTimeFilter(),
        PressureFilter(),
        BankFilter(),
        TieBreakFilter(policy=tie_break, num_masters=num_masters),
    ]


FILTER_NAMES = (
    "request",
    "hazard",
    "urgency",
    "real-time",
    "pressure",
    "bank",
    "tie-break",
)
