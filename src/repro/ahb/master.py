"""Master-side traffic agents shared by every bus model.

A :class:`TlmMaster` wraps a request source (anything iterable over
:class:`TrafficItem`) and exposes the pending-transaction view the bus
engines need.  The *same* agent class drives the plain AHB bus, the
AHB+ TLM and (via the RTL master FSM) the pin-accurate model, so a
given seed produces the identical transaction stream everywhere — the
precondition for the paper's accuracy comparison.

Timing semantics
----------------
Traffic is closed-loop by default: item *k*'s think time counts from
the completion of item *k-1*.  An item may also carry an absolute
``not_before`` cycle (used by periodic real-time sources); the issue
cycle is then ``max(prev_finish + think, not_before)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional

from repro.ahb.transaction import Transaction
from repro.ahb.types import HResp
from repro.errors import TrafficError


@dataclass(slots=True)
class TrafficItem:
    """One request produced by a traffic source.

    ``deadline_offset`` is relative to the issue cycle; the agent turns
    it into the absolute deadline the AHB+ QoS logic consumes.
    ``absolute_deadline`` overrides it for schedule-driven real-time
    streams (a video frame is late against the frame clock, not against
    whenever the starved master finally got to issue its request).
    """

    txn: Transaction
    think_cycles: int = 0
    not_before: Optional[int] = None
    deadline_offset: Optional[int] = None
    absolute_deadline: Optional[int] = None

    def __post_init__(self) -> None:
        if self.think_cycles < 0:
            raise TrafficError(f"negative think time {self.think_cycles}")
        if self.deadline_offset is not None and self.deadline_offset <= 0:
            raise TrafficError("deadline offset must be positive")
        if self.absolute_deadline is not None and self.absolute_deadline < 0:
            raise TrafficError("absolute deadline cannot be negative")


class TlmMaster:
    """Traffic agent for one bus master.

    A bus engine reads the agent's request through :meth:`pending` — the
    transaction wanting the bus at ``now`` (or ``None``) — or through
    :attr:`upcoming` and :meth:`earliest_request`, the next transaction
    and its issue cycle (which let the TLM skip idle time).  It answers
    the request with :meth:`complete`, :meth:`absorb`, :meth:`fail` or
    :meth:`retry`; each but a granted retry fetches the next item.
    """

    def __init__(self, index: int, name: str, items: Iterable[TrafficItem]) -> None:
        self.index = index
        self.name = name
        self._items: Iterator[TrafficItem] = iter(items)
        self._exhausted = False
        self._pending: Optional[Transaction] = None
        self._pending_issue = 0
        self._last_finish = 0
        self.completed: List[Transaction] = []
        #: Transfers abandoned after an ERROR response (or retry budget
        #: exhaustion); these still appear in :attr:`completed` with a
        #: non-OKAY ``resp`` so replay/compare layers see them.
        self.error_aborts = 0
        #: Total RETRY responses this master absorbed and re-requested.
        self.retry_responses = 0
        self._fetch()

    # -- internal -------------------------------------------------------------

    def _fetch(self) -> None:
        """Pull the next item from the source, fixing its issue cycle."""
        try:
            item = next(self._items)
        except StopIteration:
            self._exhausted = True
            self._pending = None
            return
        txn = item.txn
        if txn.master != self.index:
            raise TrafficError(
                f"source for master {self.index} produced a transaction "
                f"for master {txn.master}"
            )
        issue = self._last_finish + item.think_cycles
        if item.not_before is not None:
            issue = max(issue, item.not_before)
        txn.issued_at = issue
        if item.absolute_deadline is not None:
            txn.deadline = item.absolute_deadline
        elif item.deadline_offset is not None:
            txn.deadline = issue + item.deadline_offset
        self._pending = txn
        self._pending_issue = issue

    # -- bus-facing API ---------------------------------------------------------

    @property
    def done(self) -> bool:
        """True when the source is exhausted and nothing is pending."""
        return self._exhausted and self._pending is None

    def pending(self, now: int) -> Optional[Transaction]:
        """The transaction requesting the bus at cycle *now*, if any."""
        if self._pending is not None and self._pending_issue <= now:
            return self._pending
        return None

    @property
    def upcoming(self) -> Optional[Transaction]:
        """The fetched transaction awaiting its answer, issued or not yet."""
        return self._pending

    def earliest_request(self) -> Optional[int]:
        """Cycle of the next request, or ``None`` when the agent is done."""
        if self._pending is None:
            return None
        return self._pending_issue

    def complete(self, txn: Transaction, finish_cycle: int) -> None:
        """Record completion of the currently pending transaction."""
        if txn is not self._pending:
            raise TrafficError(
                f"master {self.index} completed a transaction it did not issue"
            )
        txn.finished_at = finish_cycle
        self._last_finish = finish_cycle
        self.completed.append(txn)
        self._fetch()

    def absorb(self, txn: Transaction, absorb_cycle: int) -> None:
        """The write buffer accepted this write; the master moves on.

        From the master's perspective the transaction is complete (posted
        write); the buffer will replay it on the bus later.
        """
        if txn is not self._pending:
            raise TrafficError(
                f"master {self.index} had a transaction absorbed it did not issue"
            )
        txn.finished_at = absorb_cycle
        txn.via_write_buffer = True
        self._last_finish = absorb_cycle
        self.completed.append(txn)
        self._fetch()

    def fail(self, txn: Transaction, fail_cycle: int) -> None:
        """Abort the pending transaction after a final non-OKAY response.

        The transfer counts as finished (the master stops requesting the
        bus for it) but carries its error response in ``txn.resp``; read
        data, if any was captured, is discarded.
        """
        if txn is not self._pending:
            raise TrafficError(
                f"master {self.index} aborted a transaction it did not issue"
            )
        if not txn.resp:
            txn.resp = int(HResp.ERROR)
        if not txn.is_write:
            txn.data = []
        txn.finished_at = fail_cycle
        self._last_finish = fail_cycle
        self.completed.append(txn)
        self.error_aborts += 1
        self._fetch()

    def retry(self, txn: Transaction, retry_cycle: int) -> bool:
        """Absorb a RETRY response; returns ``True`` to re-request.

        Bounded policy: once ``txn.retry_limit`` retries have been
        burned the master aborts the transfer instead (returns
        ``False`` after recording the abort via :meth:`fail`).
        """
        if txn is not self._pending:
            raise TrafficError(
                f"master {self.index} got a retry for a transaction it did not issue"
            )
        txn.retries += 1
        self.retry_responses += 1
        if txn.retries > txn.retry_limit:
            txn.resp = int(HResp.RETRY)
            self.fail(txn, retry_cycle)
            return False
        return True

    # -- reporting ---------------------------------------------------------------

    @property
    def transactions_completed(self) -> int:
        return len(self.completed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TlmMaster({self.index}, {self.name!r}, done={self.done})"
