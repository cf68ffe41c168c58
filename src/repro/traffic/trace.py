"""Transaction trace record / replay.

Recording a run produces a portable trace (plain dicts, JSON-lines
serialisable) that can be replayed as master traffic later — the
workflow used to archive a scenario, to diff two models transaction by
transaction, or to feed a captured stream back into a different
configuration.  A :class:`TraceSource` binds a trace (inline records or
a JSON-lines path) to a :class:`~repro.traffic.workloads.Workload`, so
captured runs flow through the same ``SystemSpec`` / platform-builder /
sweep machinery as synthetic traffic.

Semantics
---------
A trace is the **offered** per-master traffic, not the raw bus transfer
log: the recorder replaces a write-buffer drain transfer with the
posted *original* it replays, so every record belongs to a real master
and the per-master record sets are the complete streams those masters
issued — exactly what a replay needs.
Records land in completion order; within one master that can differ
from issue order (a posted write completes for the master at absorb
time but is only recorded when its drain reaches memory), which is why
:func:`replay_items` re-sorts by ``issued_at``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, replace
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    TextIO,
    Tuple,
)

from repro.ahb.burst import crosses_kb_boundary
from repro.ahb.master import TrafficItem
from repro.ahb.transaction import WRITE_BUFFER_MASTER, Transaction
from repro.ahb.types import AccessKind
from repro.errors import TrafficError

_KINDS = tuple(kind.value for kind in AccessKind)


@dataclass(frozen=True)
class TraceRecord:
    """One archived transaction."""

    master: int
    kind: str
    addr: int
    beats: int
    size_bytes: int
    wrapping: bool
    data: List[int]
    issued_at: int
    granted_at: int
    started_at: int
    finished_at: int
    via_write_buffer: bool
    #: Absolute QoS deadline of the original transaction (``None`` for
    #: non-real-time traffic); replay restores it so the AHB+ urgency
    #: logic sees the same constraint.  Defaults keep pre-deadline
    #: traces loadable.
    deadline: Optional[int] = None
    #: The transaction's engine-assigned uid.  Within one capture a
    #: master's uids increase in *issue* order (agents create their
    #: transactions sequentially), so it breaks ``issued_at`` ties —
    #: e.g. a write absorbed in the same cycle its successor issues.
    #: Not comparable across captures; ``None`` on legacy traces.
    uid: Optional[int] = None
    #: Final AHB response code (:class:`~repro.ahb.types.HResp` value):
    #: ``0`` OKAY, ``1`` ERROR (slave error or retry budget exhausted),
    #: ``2`` RETRY.  Part of the functional outcome a replay must
    #: reproduce.  Defaults keep pre-fault traces loadable.
    resp: int = 0
    #: Seeded fault plan the injector stamped on the transaction (one
    #: non-OKAY response code per bus presentation).  Replay restores
    #: it verbatim so the archived failure re-occurs deterministically,
    #: independent of the workload's fault spec.
    fault_plan: Tuple[int, ...] = ()
    #: RETRY budget before the master aborts (restored on replay).
    retry_limit: int = 4

    @classmethod
    def from_transaction(cls, txn: Transaction) -> "TraceRecord":
        return cls(
            master=txn.master,
            kind=txn.kind.value,
            addr=txn.addr,
            beats=txn.beats,
            size_bytes=txn.size_bytes,
            wrapping=txn.wrapping,
            data=list(txn.data),
            issued_at=txn.issued_at,
            granted_at=txn.granted_at,
            started_at=txn.started_at,
            finished_at=txn.finished_at,
            via_write_buffer=txn.via_write_buffer,
            deadline=txn.deadline,
            uid=txn.uid,
            resp=txn.resp,
            fault_plan=tuple(txn.fault_plan),
            retry_limit=txn.retry_limit,
        )


_RECORD_FIELDS = {f.name for f in fields(TraceRecord)}
_REQUIRED_FIELDS = _RECORD_FIELDS - {
    "deadline",
    "uid",
    "resp",
    "fault_plan",
    "retry_limit",
}
#: ``(name, may_be_negative)`` — the cycle stamps use ``-1`` for
#: "never happened" (an absorbed write was never granted the bus).
_INT_FIELDS = (
    ("master", False),
    ("addr", False),
    ("beats", False),
    ("size_bytes", False),
    ("issued_at", True),
    ("granted_at", True),
    ("started_at", True),
    ("finished_at", True),
)
_BOOL_FIELDS = ("wrapping", "via_write_buffer")


def _is_int(value: object) -> bool:
    # bool is an int subclass; a trace with "addr": true is malformed.
    return isinstance(value, int) and not isinstance(value, bool)


def record_from_payload(
    payload: object, where: str = "trace record"
) -> TraceRecord:
    """Build a validated :class:`TraceRecord` from a plain mapping.

    Every field is checked for type *and* value (a bad ``kind`` string
    or a string ``data`` payload must fail here, at load time, not as a
    raw ``ValueError`` mid-replay), raising :class:`TrafficError`
    prefixed with *where* (the caller supplies e.g. the line number).
    """
    if not isinstance(payload, Mapping):
        raise TrafficError(f"{where}: expected an object, got {type(payload).__name__}")
    unknown = set(payload) - _RECORD_FIELDS
    if unknown:
        raise TrafficError(f"{where}: unknown fields {sorted(unknown)}")
    missing = _REQUIRED_FIELDS - set(payload)
    if missing:
        raise TrafficError(f"{where}: missing fields {sorted(missing)}")
    kind = payload["kind"]
    if kind not in _KINDS:
        raise TrafficError(
            f"{where}: bad access kind {kind!r}; expected one of {_KINDS}"
        )
    for name, signed in _INT_FIELDS:
        value = payload[name]
        floor = -1 if signed else 0  # -1 is the only "never happened"
        if not _is_int(value) or value < floor:
            raise TrafficError(
                f"{where}: field {name!r} must be an integer >= {floor}, "
                f"got {value!r}"
            )
    for name in _BOOL_FIELDS:
        if not isinstance(payload[name], bool):
            raise TrafficError(
                f"{where}: field {name!r} must be a boolean, "
                f"got {payload[name]!r}"
            )
    data = payload["data"]
    if not isinstance(data, (list, tuple)) or not all(
        _is_int(word) for word in data
    ):
        raise TrafficError(
            f"{where}: field 'data' must be a list of integers, got {data!r}"
        )
    deadline = payload.get("deadline")
    if deadline is not None and (not _is_int(deadline) or deadline < 0):
        raise TrafficError(
            f"{where}: field 'deadline' must be null or a non-negative "
            f"integer, got {deadline!r}"
        )
    uid = payload.get("uid")
    if uid is not None and (not _is_int(uid) or uid < 0):
        raise TrafficError(
            f"{where}: field 'uid' must be null or a non-negative "
            f"integer, got {uid!r}"
        )
    resp = payload.get("resp", 0)
    if not _is_int(resp) or not 0 <= resp <= 3:
        raise TrafficError(
            f"{where}: field 'resp' must be an HResp code (0..3), "
            f"got {resp!r}"
        )
    fault_plan = payload.get("fault_plan", ())
    if not isinstance(fault_plan, (list, tuple)) or not all(
        _is_int(code) and code in (1, 2) for code in fault_plan
    ):
        raise TrafficError(
            f"{where}: field 'fault_plan' must be a list of ERROR(1)/"
            f"RETRY(2) codes, got {fault_plan!r}"
        )
    retry_limit = payload.get("retry_limit", 4)
    if not _is_int(retry_limit) or retry_limit < 0:
        raise TrafficError(
            f"{where}: field 'retry_limit' must be a non-negative "
            f"integer, got {retry_limit!r}"
        )
    beats = payload["beats"]
    size_bytes = payload["size_bytes"]
    if beats < 1:
        raise TrafficError(f"{where}: beats must be >= 1, got {beats}")
    # Mirror Transaction.__post_init__'s protocol constraints so a bad
    # record fails here, with the line number, as TrafficError — not as
    # a ProtocolError mid-replay (possibly inside a sweep worker).
    if size_bytes < 1 or size_bytes & (size_bytes - 1):
        raise TrafficError(
            f"{where}: size_bytes must be a power of two, got {size_bytes}"
        )
    if payload["addr"] % size_bytes:
        raise TrafficError(
            f"{where}: address {payload['addr']:#x} not aligned to the "
            f"{size_bytes}-byte beat size"
        )
    if payload["wrapping"] and beats not in (4, 8, 16):
        raise TrafficError(
            f"{where}: wrapping bursts must be 4/8/16 beats, got {beats}"
        )
    if not payload["wrapping"] and crosses_kb_boundary(
        payload["addr"], beats, size_bytes
    ):
        raise TrafficError(
            f"{where}: the {beats}-beat burst at {payload['addr']:#x} "
            f"crosses the AHB 1 KB boundary"
        )
    if kind == AccessKind.WRITE.value and data and len(data) != beats:
        raise TrafficError(
            f"{where}: write supplies {len(data)} beats of data but "
            f"declares {beats} beats"
        )
    limit = 1 << (8 * size_bytes)
    for beat, word in enumerate(data):
        if not 0 <= word < limit:
            raise TrafficError(
                f"{where}: data word {beat} ({word}) does not fit a "
                f"{size_bytes}-byte beat"
            )
    return TraceRecord(
        master=payload["master"],
        kind=kind,
        addr=payload["addr"],
        beats=payload["beats"],
        size_bytes=payload["size_bytes"],
        wrapping=payload["wrapping"],
        data=list(data),
        issued_at=payload["issued_at"],
        granted_at=payload["granted_at"],
        started_at=payload["started_at"],
        finished_at=payload["finished_at"],
        via_write_buffer=payload["via_write_buffer"],
        deadline=deadline,
        uid=uid,
        resp=resp,
        fault_plan=tuple(fault_plan),
        retry_limit=retry_limit,
    )


class TraceRecorder:
    """Bus observer that archives every completed transaction.

    The observer arguments — the grant/start/finish cycles the bus
    engine itself computed — are the source of truth for the recorded
    timestamps.  The transaction's own stamped fields must agree with
    them wherever both exist (a mismatch means an engine carried stale
    bookkeeping and the trace would lie about timing), so the recorder
    asserts consistency instead of silently trusting either side.

    A write-buffer drain transfer is archived as the posted original it
    replays, so the trace holds every transaction each master *issued*,
    which is what trace-backed workloads replay.
    """

    def __init__(self) -> None:
        self.records: List[TraceRecord] = []

    def __call__(
        self, txn: Transaction, grant: int, start: int, finish: int
    ) -> None:
        """Observer hook matching the bus observer signature."""
        for name, observed in (
            ("granted_at", grant),
            ("started_at", start),
            ("finished_at", finish),
        ):
            stamped = getattr(txn, name)
            if stamped >= 0 and stamped != observed:
                raise TrafficError(
                    f"transaction {txn.uid} (master {txn.master}): stamped "
                    f"{name}={stamped} disagrees with the bus observer's "
                    f"{observed}; the engine delivered stale timestamps"
                )
        if txn.master == WRITE_BUFFER_MASTER and txn.origin is not None:
            # The posted original carries the master-side timing: issued
            # when the master issued it, finished at absorb time, never
            # granted the bus itself (-1 stamps).
            self.records.append(TraceRecord.from_transaction(txn.origin))
            return
        self.records.append(
            replace(
                TraceRecord.from_transaction(txn),
                granted_at=grant,
                started_at=start,
                finished_at=finish,
            )
        )

    def __len__(self) -> int:
        return len(self.records)


# -- serialisation ---------------------------------------------------------------


def dump_trace(records: Iterable[TraceRecord], stream: TextIO) -> int:
    """Write *records* to *stream* as JSON-lines; returns the count."""
    count = 0
    for record in records:
        stream.write(json.dumps(asdict(record)) + "\n")
        count += 1
    return count


def save_trace(records: Iterable[TraceRecord], path) -> int:
    """Write *records* to the file at *path* as JSON-lines."""
    try:
        with open(path, "w", encoding="utf-8") as stream:
            return dump_trace(records, stream)
    except OSError as exc:
        raise TrafficError(f"cannot write trace {path!r}: {exc}") from exc


def load_trace(stream: TextIO) -> List[TraceRecord]:
    """Read a JSON-lines trace produced by :meth:`TraceRecorder.dump`.

    Every line is fully validated (field presence, types, value ranges,
    access-kind strings); any malformation raises :class:`TrafficError`
    naming the offending line.  Duplicate uids are rejected too — the
    uid is the issue-order tie-breaker, and a trace that reuses one
    (e.g. two captures concatenated by accident) would replay in an
    order the capture never had.
    """
    records = []
    seen_uids: Dict[int, int] = {}
    for line_no, line in enumerate(stream, 1):
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TrafficError(
                f"malformed trace line {line_no}: {exc}"
            ) from exc
        record = record_from_payload(payload, f"trace line {line_no}")
        if record.uid is not None:
            first = seen_uids.setdefault(record.uid, line_no)
            if first != line_no:
                raise TrafficError(
                    f"trace line {line_no}: duplicate uid {record.uid} "
                    f"(first seen on line {first})"
                )
        records.append(record)
    return records


def load_trace_file(path) -> List[TraceRecord]:
    """Read a JSON-lines trace from the file at *path*."""
    try:
        with open(path, "r", encoding="utf-8") as stream:
            return load_trace(stream)
    except OSError as exc:
        raise TrafficError(f"cannot read trace {path!r}: {exc}") from exc


# -- replay ----------------------------------------------------------------------


def _issue_order_key(record: TraceRecord) -> Tuple[int, int]:
    # Only valid when every record carries a uid; sort_issue_order is
    # the public, mixed-stream-safe entry point.
    return (record.issued_at, record.uid if record.uid is not None else -1)


def sort_issue_order(records: List[TraceRecord]) -> List[TraceRecord]:
    """Sort one master's records into offered order, in place.

    ``issued_at`` can tie within one master — a posted write absorbed
    in the very cycle its successor issues shares the cycle stamp — so
    the capture's per-master-monotonic ``uid`` breaks the tie.  The
    uid applies only when every record carries one: a stream mixing
    legacy (uid-less) and fresh records would otherwise sort the
    legacy records ahead of same-cycle peers arbitrarily, so there the
    stable ``issued_at``-only sort preserves input order.
    """
    if all(record.uid is not None for record in records):
        records.sort(key=_issue_order_key)
    else:
        records.sort(key=lambda record: record.issued_at)
    return records


def replay_items(
    records: Iterable[TraceRecord],
    master: int,
    preserve_issue_times: bool = True,
) -> List[TrafficItem]:
    """Convert archived records of one master back into traffic items.

    Records are re-sorted by ``issued_at`` first: traces archive in
    completion order, and a posted write's record lands only when its
    drain finishes — after later non-posted transactions of the same
    master.  Feeding that raw order to the closed-loop master would
    silently collapse the out-of-order item onto the previous finish
    (issue = ``max(prev_finish + think, not_before)``), reordering the
    replayed stream relative to the capture.

    With ``preserve_issue_times`` the original issue cycles become
    ``not_before`` constraints — open-loop replay on a faster system,
    degrading gracefully to back-to-back closed-loop on a slower one
    (the master never issues before the previous item finished).
    Without it the replay is purely closed-loop with zero think time.
    Recorded QoS deadlines are restored as absolute deadlines.
    """
    mine = sort_issue_order(
        [record for record in records if record.master == master]
    )
    items: List[TrafficItem] = []
    for record in mine:
        if record.kind not in _KINDS:
            raise TrafficError(
                f"record for master {master} has bad access kind "
                f"{record.kind!r}; expected one of {_KINDS}"
            )
        txn = Transaction(
            master=master,
            kind=AccessKind(record.kind),
            addr=record.addr,
            beats=record.beats,
            size_bytes=record.size_bytes,
            wrapping=record.wrapping,
            # Replay offers write payloads only; read data is produced
            # by the slave, and carrying the captured words along would
            # mask a functional divergence the replay should expose.
            data=list(record.data) if record.kind == AccessKind.WRITE.value else [],
            # Restore the archived fault plan verbatim (the injector
            # leaves pre-stamped plans alone), so the captured
            # ERROR/RETRY sequence re-occurs on replay.
            fault_plan=tuple(record.fault_plan),
            retry_limit=record.retry_limit,
        )
        items.append(
            TrafficItem(
                txn=txn,
                think_cycles=0,
                not_before=record.issued_at if preserve_issue_times else None,
                absolute_deadline=record.deadline,
            )
        )
    return items


def group_by_master(
    records: Iterable[TraceRecord], sort: bool = False
) -> Dict[int, List[TraceRecord]]:
    """Records grouped by master; ``sort`` restores issue order."""
    grouped: Dict[int, List[TraceRecord]] = {}
    for record in records:
        grouped.setdefault(record.master, []).append(record)
    if sort:
        for stream in grouped.values():
            sort_issue_order(stream)
    return grouped


def trace_masters(records: Iterable[TraceRecord]) -> Tuple[int, ...]:
    """Sorted master indices present in *records*.

    A record under the write buffer's pseudo-master index
    (:data:`~repro.ahb.transaction.WRITE_BUFFER_MASTER`) raises
    :class:`TrafficError` naming it: no master issued it, so a replay
    would have to drop it, and :class:`TraceRecorder` never writes one.
    """
    masters = set()
    for position, record in enumerate(records):
        if record.master == WRITE_BUFFER_MASTER:
            raise TrafficError(
                f"trace record {position} ({record.kind} at "
                f"{record.addr:#x}, uid {record.uid}) is under the write "
                f"buffer's pseudo-master {WRITE_BUFFER_MASTER}, which no "
                f"master replays"
            )
        masters.add(record.master)
    return tuple(sorted(masters))


# -- transforms ------------------------------------------------------------------


def _scale_stamp(value: int, factor: float) -> int:
    return value if value < 0 else int(round(value * factor))


def time_scale(
    records: Iterable[TraceRecord], factor: float
) -> List[TraceRecord]:
    """Scale every cycle stamp (and deadline) by *factor*.

    Stretches (> 1) or compresses (< 1) the offered arrival process —
    e.g. replaying a capture against a slower memory without piling
    every request onto the same cycle.  ``-1`` ("never happened")
    stamps pass through untouched.
    """
    if factor <= 0:
        raise TrafficError(f"time-scale factor must be positive, got {factor}")
    return [
        replace(
            record,
            issued_at=_scale_stamp(record.issued_at, factor),
            granted_at=_scale_stamp(record.granted_at, factor),
            started_at=_scale_stamp(record.started_at, factor),
            finished_at=_scale_stamp(record.finished_at, factor),
            deadline=(
                None
                if record.deadline is None
                else _scale_stamp(record.deadline, factor)
            ),
        )
        for record in records
    ]


def remap_addresses(
    records: Iterable[TraceRecord], offset: int
) -> List[TraceRecord]:
    """Shift every address by *offset* bytes (retarget a memory window).

    The shift must keep each burst protocol-legal: beat alignment is
    preserved only for offsets aligned to the record's beat size, and
    an INCR burst may not end up crossing the AHB 1 KB boundary.  Both
    are validated per record, naming the offender.
    """
    out: List[TraceRecord] = []
    for index, record in enumerate(records):
        addr = record.addr + offset
        if addr < 0:
            raise TrafficError(
                f"record {index}: offset {offset:#x} moves address "
                f"{record.addr:#x} below zero"
            )
        if addr % record.size_bytes:
            raise TrafficError(
                f"record {index}: offset {offset:#x} breaks the "
                f"{record.size_bytes}-byte beat alignment of address "
                f"{record.addr:#x}"
            )
        if not record.wrapping and crosses_kb_boundary(
            addr, record.beats, record.size_bytes
        ):
            raise TrafficError(
                f"record {index}: offset {offset:#x} makes the "
                f"{record.beats}-beat burst at {record.addr:#x} cross a "
                f"1 KB boundary"
            )
        out.append(replace(record, addr=addr))
    return out


# -- workload binding ------------------------------------------------------------


@dataclass(frozen=True)
class TraceSource:
    """Where a trace-backed workload finds its records.

    Exactly one of ``path`` (a JSON-lines trace file, loaded lazily —
    the *path* is what pickles to sweep workers, each worker re-reads
    and re-validates the file) or ``records`` (the payload itself,
    shipped inline) must be set.  Either form survives the
    ``SystemSpec`` JSON round-trip and the process-backend pickle.
    """

    path: Optional[str] = None
    records: Tuple[TraceRecord, ...] = ()
    #: Replay knob forwarded to :func:`replay_items`.
    preserve_issue_times: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))
        for index, record in enumerate(self.records):
            if not isinstance(record, TraceRecord):
                raise TrafficError(
                    f"trace source record {index} is "
                    f"{type(record).__name__}, not TraceRecord (build "
                    f"dict payloads via record_from_payload)"
                )
        if (self.path is None) == (len(self.records) == 0):
            raise TrafficError(
                "trace source needs exactly one of path= or records="
            )
        if self.path is not None and not isinstance(self.path, str):
            raise TrafficError(
                f"trace path must be a string, got {type(self.path).__name__}"
            )

    def resolve(self) -> Tuple[TraceRecord, ...]:
        """The concrete record tuple.

        Path sources parse and validate the file once per instance
        (memoized outside the dataclass fields, so equality, hashing of
        the path form, and pickling are unaffected — a worker that
        unpickles the source still re-reads from its own path).
        """
        if self.records:
            return self.records
        cached = self.__dict__.get("_resolved")
        if cached is None:
            cached = tuple(load_trace_file(self.path))
            object.__setattr__(self, "_resolved", cached)
        return cached

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_resolved", None)  # workers re-read from the path
        return state

    def masters(self) -> Tuple[int, ...]:
        """Sorted real master indices of the resolved trace."""
        return trace_masters(self.resolve())

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready mapping (inline sources embed their records)."""
        payload: Dict[str, object] = {
            "preserve_issue_times": self.preserve_issue_times
        }
        if self.path is not None:
            payload["path"] = self.path
        else:
            payload["records"] = [asdict(record) for record in self.records]
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "TraceSource":
        """Rebuild a source; inline records re-validate field by field."""
        if not isinstance(data, Mapping):
            raise TrafficError("trace source must be an object")
        unknown = set(data) - {"path", "records", "preserve_issue_times"}
        if unknown:
            raise TrafficError(f"unknown TraceSource fields {sorted(unknown)}")
        raw = data.get("records")
        records: Tuple[TraceRecord, ...] = ()
        if raw is not None:
            if not isinstance(raw, (list, tuple)):
                raise TrafficError("trace source records must be a list")
            records = tuple(
                record_from_payload(payload, f"trace record {index}")
                for index, payload in enumerate(raw)
            )
        preserve_issue_times = data.get("preserve_issue_times", True)
        if not isinstance(preserve_issue_times, bool):
            raise TrafficError(
                f"trace source field 'preserve_issue_times' must be a "
                f"boolean, got {preserve_issue_times!r}"
            )
        return cls(
            path=data.get("path"),  # type: ignore[arg-type]
            records=records,
            preserve_issue_times=preserve_issue_times,
        )
