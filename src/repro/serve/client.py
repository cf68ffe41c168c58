"""Python client for the sweep server: submit once, stream results back.

:class:`ServeClient` speaks the :mod:`repro.serve.protocol` over a
fresh TCP connection per operation (connections are cheap on localhost
and stateless retries stay trivial).  :meth:`ServeClient.submit` is the
drop-in serving analogue of :meth:`SweepRunner.run`: it takes the same
``sweep()`` grid, returns records in grid order, and additionally
reports which points replayed from the server's cache — submitting the
same grid twice yields a second pass that is 100 % cache hits with
records equal to the first pass.

Operations are **resilient by default**: submissions are idempotent by
content key (the server dedupes against its store and in-flight work),
so the client retries transient failures — refused/dropped
connections, a server that died mid-stream, structured ``overloaded``
and ``draining`` backpressure events — with exponential backoff plus
jitter, honouring the server's ``retry_after`` hint when one is given.
Protocol violations and structured ``error`` events are *not* retried:
a malformed request will not improve by repetition.
"""

from __future__ import annotations

import random
import socket
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, TextIO, Tuple

from repro.errors import ConfigError, SimulationError
from repro.exec.records import RunRecord
from repro.serve.protocol import (
    PROTOCOL,
    grid_to_wire,
    read_message,
    write_message,
)
from repro.system.spec import SweepPoint

#: Optional event observer: called with every raw protocol event.
OnEvent = Callable[[Dict[str, object]], None]


class _Retryable(Exception):
    """Internal: a transient failure worth another attempt.

    *retry_after* carries the server's hint (``overloaded`` events);
    the backoff sleeps at least that long.
    """

    def __init__(self, reason: str, retry_after: float = 0.0) -> None:
        super().__init__(reason)
        self.reason = reason
        self.retry_after = retry_after


@dataclass(frozen=True)
class SubmitResult:
    """One submission's outcome: records plus cache accounting."""

    #: Records in grid order (cache replays carry this grid's labels).
    records: Tuple[RunRecord, ...]
    #: Per-point cache verdicts, grid order: ``"store"``, ``"inflight"``,
    #: ``"run"`` or ``"quarantined"``.
    sources: Tuple[str, ...]
    hits: int
    misses: int
    job: int = 0
    #: Point keys in grid order (the store's content addresses).
    keys: Tuple[str, ...] = field(default=())
    #: Points answered with an immediate quarantine error row.
    quarantined: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def cached(self) -> Tuple[bool, ...]:
        return tuple(
            source in ("store", "inflight") for source in self.sources
        )


class ServeClient:
    """Talks to one :class:`~repro.serve.server.SweepServer`.

    *retries* bounds the transient-failure retries per operation (so an
    operation makes at most ``retries + 1`` attempts); *backoff_base*
    and *backoff_max* shape the exponential delay, *jitter* is the
    uniform fraction of the delay randomised away (decorrelating a
    thundering herd of clients retrying the same overloaded server).
    *sleep* and *rng* are injectable for deterministic tests; every
    retry taken is appended to :attr:`retry_log` as ``(reason,
    delay)``.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float = 300.0,
        retries: int = 3,
        backoff_base: float = 0.05,
        backoff_max: float = 2.0,
        jitter: float = 0.5,
        sleep: Callable[[float], None] = time.sleep,
        rng: Optional[random.Random] = None,
    ) -> None:
        if port <= 0:
            raise ConfigError(f"need the server's port, got {port}")
        if retries < 0:
            raise ConfigError(f"retries must be >= 0, got {retries}")
        if not 0.0 <= jitter <= 1.0:
            raise ConfigError(f"jitter must be within [0, 1], got {jitter}")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self.jitter = jitter
        self._sleep = sleep
        self._rng = rng if rng is not None else random.Random()
        #: Every retry taken, across calls: ``(reason, delay_seconds)``.
        self.retry_log: List[Tuple[str, float]] = []

    # -- plumbing --------------------------------------------------------------

    @contextmanager
    def _connect(self) -> Iterator[Tuple[TextIO, TextIO]]:
        """One connection as ``(reader, writer)``; closes all three.

        ``socket.close()`` alone keeps the descriptor open while the
        ``makefile`` objects still reference it.
        """
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        with sock, sock.makefile("r", encoding="utf-8") as reader:
            with sock.makefile("w", encoding="utf-8") as writer:
                yield reader, writer

    def _backoff_delay(self, attempt: int, retry_after: float) -> float:
        """Exponential backoff with jitter, floored by the server hint."""
        delay = min(self.backoff_max, self.backoff_base * (2.0**attempt))
        # Jitter *down* only: the un-jittered delay is the ceiling, so
        # a fleet of clients spreads out instead of stampeding back in
        # lockstep at exactly the same instant.
        delay *= 1.0 - self.jitter * self._rng.random()
        return max(delay, retry_after)

    def _with_retries(self, operation: str, attempt_fn):
        """Run *attempt_fn* with backoff-retry on transient failures.

        Safe because every operation is idempotent: ``submit`` is
        deduped by content key server-side, ``ping``/``status`` are
        reads.  Raises :class:`SimulationError` when the budget is
        exhausted.
        """
        last: Optional[_Retryable] = None
        for attempt in range(self.retries + 1):
            try:
                return attempt_fn()
            except _Retryable as exc:
                last = exc
            except (ConnectionError, socket.timeout, OSError) as exc:
                last = _Retryable(f"{type(exc).__name__}: {exc}")
            if attempt < self.retries:
                delay = self._backoff_delay(attempt, last.retry_after)
                self.retry_log.append((last.reason, delay))
                self._sleep(delay)
        raise SimulationError(
            f"{operation} failed after {self.retries + 1} attempts "
            f"(last: {last.reason})"
        )

    def _request_one(self, op: str, expect: str) -> Dict[str, object]:
        """Send a single-shot op; return its one response event."""
        with self._connect() as (reader, writer):
            write_message(writer, {"op": op})
            event = read_message(reader)
            if event is None:
                raise _Retryable(f"server closed during {op!r}")
            if event.get("event") == "error":
                raise SimulationError(f"server error: {event.get('message')}")
            if event.get("event") != expect:
                raise SimulationError(
                    f"expected {expect!r} event, got {event.get('event')!r}"
                )
            return event

    # -- operations ------------------------------------------------------------

    def ping(self) -> str:
        """Round-trip check; returns the server's protocol identifier."""
        event = self._with_retries(
            "ping", lambda: self._request_one("ping", "pong")
        )
        return str(event.get("protocol", PROTOCOL))

    def status(self) -> Dict[str, object]:
        """The server's serving stats, store and journal summaries."""
        event = self._with_retries(
            "status", lambda: self._request_one("status", "status")
        )
        return {
            "stats": event.get("stats"),
            "store": event.get("store"),
            "journal": event.get("journal"),
        }

    def drain(self) -> bool:
        """Ask the server to drain gracefully; ``False`` when it is
        already gone (like :meth:`shutdown`, safe to script blindly)."""
        try:
            event = self._request_one("drain", "draining")
        except (_Retryable, ConnectionError, socket.timeout, OSError):
            return False
        return event.get("event") == "draining"

    def shutdown(self) -> bool:
        """Ask the server to stop; ``True`` when it acknowledged.

        A server that is already gone — refused connection, dropped
        socket, closed stream — returns ``False`` instead of raising,
        so scripted teardown is idempotent: calling ``shutdown()``
        twice is as safe as calling it once.
        """
        try:
            event = self._request_one("shutdown", "bye")
        except (_Retryable, ConnectionError, socket.timeout, OSError):
            return False
        return event.get("event") == "bye"

    def submit(
        self,
        grid: Iterable[SweepPoint],
        max_cycles: Optional[int] = None,
        on_event: Optional[OnEvent] = None,
    ) -> SubmitResult:
        """Submit *grid*; block until every point's record streamed back.

        Results arrive (and *on_event* fires) per point, in grid order.
        The server sends every record it already has in one batch: a
        fully cached submission arrives whole, and a cold one brings
        its known records before the server waits for the shared sweep
        to finish the next point.  Transient failures (connection loss,
        a server that died mid-stream, ``overloaded``/``draining``
        responses) retry the whole submission with backoff —
        idempotence makes the re-submission free for every point that
        already completed.
        """
        points = list(grid)
        if not points:
            return SubmitResult(records=(), sources=(), hits=0, misses=0)
        return self._with_retries(
            "submit", lambda: self._submit_once(points, max_cycles, on_event)
        )

    def _submit_once(
        self,
        points: List[SweepPoint],
        max_cycles: Optional[int],
        on_event: Optional[OnEvent],
    ) -> SubmitResult:
        with self._connect() as (reader, writer):
            write_message(
                writer,
                {
                    "op": "submit",
                    "points": grid_to_wire(points),
                    "max_cycles": max_cycles,
                },
            )
            job = 0
            records: List[RunRecord] = []
            sources: List[str] = []
            keys: List[str] = []
            hits = misses = quarantined = 0
            while True:
                event = read_message(reader)
                if event is None:
                    raise _Retryable(
                        "server closed mid-submission "
                        f"({len(records)}/{len(points)} records received)"
                    )
                if on_event is not None:
                    on_event(event)
                kind = event.get("event")
                if kind == "error":
                    raise SimulationError(
                        f"server error: {event.get('message')}"
                    )
                if kind == "overloaded":
                    raise _Retryable(
                        f"server overloaded: {event.get('message')}",
                        retry_after=float(event.get("retry_after") or 0.0),
                    )
                if kind == "draining":
                    raise _Retryable(
                        f"server draining: {event.get('message')}"
                    )
                if kind == "accepted":
                    job = int(event.get("job", 0))
                elif kind == "result":
                    index = int(event.get("index", -1))
                    if index != len(records):
                        raise SimulationError(
                            f"result for index {index} arrived out of order "
                            f"(expected {len(records)})"
                        )
                    records.append(
                        RunRecord.from_dict(event["record"])  # type: ignore[arg-type]
                    )
                    sources.append(str(event.get("source", "run")))
                    keys.append(str(event.get("key", "")))
                elif kind == "done":
                    hits = int(event.get("hits", 0))
                    misses = int(event.get("misses", 0))
                    quarantined = int(event.get("quarantined", 0))
                    break
                else:
                    raise SimulationError(f"unexpected event {kind!r}")
            if len(records) != len(points):
                raise SimulationError(
                    f"submission returned {len(records)} records for "
                    f"{len(points)} points"
                )
            return SubmitResult(
                records=tuple(records),
                sources=tuple(sources),
                hits=hits,
                misses=misses,
                job=job,
                keys=tuple(keys),
                quarantined=quarantined,
            )
