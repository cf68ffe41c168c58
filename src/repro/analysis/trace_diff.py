"""Transaction-by-transaction cross-engine trace comparison.

The paper's accuracy argument rests on every engine serving the same
offered traffic; :func:`trace_diff` makes that checkable record by
record.  Two traces (captured with
:class:`~repro.traffic.trace.TraceRecorder` on any two engines, or one
engine vs. an archived file) are aligned per master in issue order and
compared on their *functional* fields — master, kind, address, beats,
beat size, wrapping, data payload.  Timing fields are never part of
the verdict: engines legitimately disagree on cycles (that is the
point of the abstraction-level comparison), so the diff reports the
finish-cycle skew separately as an observation, not a failure.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields
from typing import Iterable, List, Sequence, Tuple

from repro.errors import TrafficError
from repro.traffic.trace import TraceRecord, group_by_master

#: Fields that define what a transaction *is*, independent of engine
#: timing.  ``data`` covers both directions: write payloads offered and
#: read data returned by the memory system.  ``resp`` folds the fault
#: outcome in: an injected ERROR/RETRY abort must land on the same
#: transaction at every engine.
FUNCTIONAL_FIELDS = (
    "kind",
    "addr",
    "beats",
    "size_bytes",
    "wrapping",
    "data",
    "resp",
)


@dataclass(frozen=True)
class TraceMismatch:
    """One field-level disagreement between aligned records."""

    master: int
    #: Position within the master's issue-ordered stream.
    position: int
    field: str
    left: object
    right: object

    def describe(self) -> str:
        return (
            f"master {self.master} txn {self.position}: {self.field} "
            f"{self.left!r} != {self.right!r}"
        )


@dataclass(frozen=True)
class TraceDiffResult:
    """Outcome of one :func:`trace_diff` comparison."""

    #: Master indices compared (union of both traces).
    masters: Tuple[int, ...]
    #: Aligned record pairs compared.
    compared: int
    #: Total field-level disagreements found (the enumerated
    #: ``mismatches`` tuple is capped; this count is not).
    mismatch_count: int
    mismatches: Tuple[TraceMismatch, ...]
    #: ``(master, count)`` of records only the left trace has.
    only_left: Tuple[Tuple[int, int], ...]
    only_right: Tuple[Tuple[int, int], ...]
    #: Largest ``|finished_at_left - finished_at_right|`` over aligned
    #: pairs — timing drift between the engines, informational only.
    max_finish_skew: int

    @property
    def functionally_identical(self) -> bool:
        """Same transaction streams, field for field, nothing extra."""
        return (
            self.mismatch_count == 0
            and not self.only_left
            and not self.only_right
        )

    def summary(self) -> str:
        """One-line human verdict."""
        if self.functionally_identical:
            return (
                f"identical: {self.compared} transactions across "
                f"{len(self.masters)} masters match on every functional "
                f"field (max finish skew {self.max_finish_skew} cycles)"
            )
        extra = sum(n for _m, n in self.only_left) + sum(
            n for _m, n in self.only_right
        )
        return (
            f"DIFFERENT: {self.mismatch_count} field mismatches, "
            f"{extra} unmatched records over {self.compared} compared"
        )


def trace_diff(
    left: Iterable[TraceRecord],
    right: Iterable[TraceRecord],
    fields: Sequence[str] = FUNCTIONAL_FIELDS,
    max_mismatches: int = 100,
) -> TraceDiffResult:
    """Align two traces per master (issue order) and compare field-wise.

    Alignment is positional within each master's stream: record *k* of
    master *m* on the left pairs with record *k* of master *m* on the
    right.  Per-master issue order is preserved by every engine (a
    master has one transaction outstanding at a time), so positional
    pairing is exact even though the engines interleave masters — and
    complete differently in time.  Every field-level disagreement is
    counted (``mismatch_count``); at most *max_mismatches* of them are
    enumerated as :class:`TraceMismatch` entries.
    """
    unknown = set(fields) - {f.name for f in dataclass_fields(TraceRecord)}
    if unknown:
        raise TrafficError(f"unknown trace fields {sorted(unknown)}")
    if max_mismatches < 1:
        raise TrafficError("max_mismatches must be positive")
    left_streams = group_by_master(left, sort=True)
    right_streams = group_by_master(right, sort=True)
    masters = tuple(sorted(set(left_streams) | set(right_streams)))
    mismatches: List[TraceMismatch] = []
    mismatch_count = 0
    only_left: List[Tuple[int, int]] = []
    only_right: List[Tuple[int, int]] = []
    compared = 0
    max_skew = 0
    for master in masters:
        ls = left_streams.get(master, [])
        rs = right_streams.get(master, [])
        if len(ls) > len(rs):
            only_left.append((master, len(ls) - len(rs)))
        elif len(rs) > len(ls):
            only_right.append((master, len(rs) - len(ls)))
        for position, (lrec, rrec) in enumerate(zip(ls, rs)):
            compared += 1
            max_skew = max(max_skew, abs(lrec.finished_at - rrec.finished_at))
            for name in fields:
                lval = getattr(lrec, name)
                rval = getattr(rrec, name)
                if lval != rval:
                    mismatch_count += 1
                    if len(mismatches) < max_mismatches:
                        mismatches.append(
                            TraceMismatch(
                                master=master,
                                position=position,
                                field=name,
                                left=lval,
                                right=rval,
                            )
                        )
    return TraceDiffResult(
        masters=masters,
        compared=compared,
        mismatch_count=mismatch_count,
        mismatches=tuple(mismatches),
        only_left=tuple(only_left),
        only_right=tuple(only_right),
        max_finish_skew=max_skew,
    )
