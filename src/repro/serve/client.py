"""Python client for the sweep server: submit once, stream results back.

:class:`ServeClient` speaks the :mod:`repro.serve.protocol` over one
TCP connection that it opens on first use and keeps for every later
operation (the server already answers any number of requests per
connection), so a warm submission costs one send and one receive on
each side instead of a connect, an accept and a handler thread.
:meth:`ServeClient.close` (or a ``with`` block) closes it; a client
dropped without closing closes its socket when it is collected.
:meth:`ServeClient.submit` is the drop-in serving analogue of
:meth:`SweepRunner.run`: it takes the same ``sweep()`` grid, returns
records in grid order, and additionally reports which points replayed
from the server's cache — submitting the same grid twice yields a
second pass that is 100 % cache hits with records equal to the first
pass.

Operations are **resilient by default**: submissions are idempotent by
content key (the server dedupes against its store and in-flight work),
so the client retries transient failures — refused/dropped
connections, a server that died mid-stream, structured ``overloaded``
and ``draining`` backpressure events — with exponential backoff plus
jitter, honouring the server's ``retry_after`` hint when one is given.
Any failure drops the kept connection, so a retry starts on a fresh
one.  A kept connection that fails before its reply starts (the server
closed it while idle, or restarted) is replaced once for free, without
spending a retry.  Protocol violations and structured ``error`` events
are *not* retried: a malformed request will not improve by repetition.
"""

from __future__ import annotations

import random
import socket
import threading
import time
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    BinaryIO,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.errors import ConfigError, SimulationError
from repro.exec.records import RunRecord
from repro.serve.protocol import (
    PROTOCOL,
    READ_BUFFER,
    encode_message,
    grid_to_wire,
    read_message,
)
from repro.system.spec import SweepPoint

#: Optional event observer: called with every raw protocol event.
OnEvent = Callable[[Dict[str, object]], None]

#: A kept connection: the socket and the buffered reader over it.
_Connection = Tuple[socket.socket, BinaryIO]


def _close_connection(sock: socket.socket, reader: BinaryIO) -> None:
    # The reader holds a reference on the socket's descriptor, so it
    # closes first; then ``sock.close()`` releases the descriptor.
    reader.close()
    sock.close()


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

    The client keeps one connection for all its operations; threads
    sharing a client take turns on it.  Close it with :meth:`close` or
    use the client as a context manager::

        with ServeClient(*server.address) as client:
            result = client.submit(grid)
    """

    #: The kept connection; a class default, so :meth:`close` works on
    #: a client whose ``__init__`` raised.
    _conn: Optional[_Connection] = None
    #: Closes :attr:`_conn` once: on :meth:`close`, on a dropped
    #: connection, or when the client is collected unclosed.
    _closer: Optional[weakref.finalize] = None

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
        self._lock = threading.Lock()
        #: Every retry taken, across calls: ``(reason, delay_seconds)``.
        self.retry_log: List[Tuple[str, float]] = []

    def close(self) -> None:
        """Close the kept connection; a later operation opens a new one."""
        if self._closer is not None:
            self._closer()
        self._conn = self._closer = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- plumbing --------------------------------------------------------------

    def _open(self) -> _Connection:
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        reader = sock.makefile("rb", buffering=READ_BUFFER)
        self._conn = (sock, reader)
        self._closer = weakref.finalize(self, _close_connection, sock, reader)
        return self._conn

    def _send(
        self, data: bytes
    ) -> Tuple[Optional[Dict[str, object]], BinaryIO]:
        """Send one request line; return its first reply event and the
        reader (the event is ``None`` when the server closed first).

        A kept connection that fails before the reply starts — the
        server closed it while idle, or restarted — is replaced once,
        outside the retry budget: every op is idempotent by content
        key, so sending it again is safe.  A timeout is not replaced:
        that server is alive, only slow.
        """
        while True:
            reused = self._conn is not None
            sock, reader = self._conn if reused else self._open()
            try:
                sock.sendall(data)
                event = read_message(reader)
            except socket.timeout:
                raise
            except OSError:
                if not reused:
                    raise
                event = None
            if event is not None or not reused:
                return event, reader
            self.close()

    @contextmanager
    def _request(
        self, message: Dict[str, object]
    ) -> Iterator[Tuple[Optional[Dict[str, object]], BinaryIO]]:
        """Send *message*; yield its first reply event and the reader.

        Any error, here or in the caller's block, drops the connection:
        its stream may have stopped mid-reply, so the next attempt
        starts on a fresh one.
        """
        data = encode_message(message)
        with self._lock:
            try:
                yield self._send(data)
            except BaseException:
                self.close()
                raise

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
        with self._request({"op": op}) as (event, _reader):
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
        return self._request_last("drain", "draining")

    def shutdown(self) -> bool:
        """Ask the server to stop; ``True`` when it acknowledged.

        A server that is already gone — refused connection, dropped
        socket, closed stream — returns ``False`` instead of raising,
        so scripted teardown is idempotent: calling ``shutdown()``
        twice is as safe as calling it once.
        """
        return self._request_last("shutdown", "bye")

    def _request_last(self, op: str, expect: str) -> bool:
        """One attempt at an op after which the server hangs up."""
        try:
            self._request_one(op, expect)
        except (_Retryable, ConnectionError, socket.timeout, OSError):
            return False
        finally:
            self.close()
        return True

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
        request = {
            "op": "submit",
            "points": grid_to_wire(points),
            "max_cycles": max_cycles,
        }
        with self._request(request) as (event, reader):
            job = 0
            records: List[RunRecord] = []
            sources: List[str] = []
            keys: List[str] = []
            hits = misses = quarantined = 0
            while True:
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
                event = read_message(reader)
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
