"""The supervised sweep server: submissions in, cached-or-fresh rows out.

:class:`SweepServer` is a long-running front end over
:class:`~repro.exec.runner.SweepRunner`:

* **accepts** spec+workload submissions over the line-delimited-JSON
  socket protocol (:mod:`repro.serve.protocol`), any number of
  concurrent clients;
* **journals** every accepted point to a write-ahead
  :class:`~repro.serve.journal.Journal` *before* queueing it, so a
  server killed mid-batch restarted on the same store+journal re-runs
  exactly the unfinished remainder (finished work replays from the
  :class:`~repro.serve.store.ResultStore`) — no accepted work is ever
  lost, no finished point ever runs twice;
* **dedupes** every submitted point against the content-addressed
  store (a completed identical run replays from disk) *and* against
  in-flight work (a point some other client is already running is
  joined, not re-run);
* **sheds load** instead of queueing unboundedly: a submission that
  would push the queue past ``max_queue_depth`` is refused whole with
  a structured ``overloaded`` event carrying a ``retry_after`` hint
  (idempotent submissions make the retry safe), and ``max_inflight``
  bounds how many points one executor burst hands the runner;
* **drains** gracefully on request (the ``drain`` op, ``SIGTERM`` in
  the CLI, or :meth:`drain`): new submissions are refused with a
  ``draining`` event, the chunk already executing finishes and files
  its results, and the queued remainder stays journaled for the next
  start;
* **quarantines** poisoned points: a point whose attempts crash
  ``quarantine_threshold`` consecutive times — cleanly-recorded
  failures and server-killing attempts both count, across restarts —
  is answered with an immediate error row instead of re-crashing every
  batch forever (visible in ``status``); and
* **streams** per-point results back to each subscriber in grid order
  as they complete, driven by the runner's ``on_result`` hook rather
  than polling.

Execution always runs under ``on_error="record"``: a crashing or
timed-out point yields a failure row to its subscribers but never
kills the daemon — and the store refuses to cache such rows, so a
retry re-runs the point instead of replaying the failure.
"""

from __future__ import annotations

import io
import queue
import socketserver
import threading
import time
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigError, ReproError
from repro.exec.records import RunRecord, point_key
from repro.exec.runner import SweepRunner
from repro.serve.journal import Journal
from repro.serve.protocol import (
    OPS,
    PROTOCOL,
    point_from_wire,
    point_to_wire,
    read_message,
    write_message,
)
from repro.serve.store import ResultStore
from repro.system.spec import SweepPoint

#: Default bound on accepted-but-unfinished points (queued + running).
DEFAULT_MAX_QUEUE_DEPTH = 256

#: Default consecutive-crash count that parks a point in quarantine.
DEFAULT_QUARANTINE_THRESHOLD = 3


class ServerOverloaded(ReproError):
    """The submission was refused whole: the queue bound would be hit."""

    def __init__(self, message: str, retry_after: float, queue_depth: int):
        super().__init__(message)
        self.retry_after = retry_after
        self.queue_depth = queue_depth


class ServerDraining(ReproError):
    """The server is draining (or stopped) and refuses new submissions."""


class _Pending:
    """One cold point queued or running: resolves to exactly one record."""

    __slots__ = ("point", "max_cycles", "event", "record")

    def __init__(self, point: SweepPoint, max_cycles: Optional[int]) -> None:
        self.point = point
        self.max_cycles = max_cycles
        self.event = threading.Event()
        self.record: Optional[RunRecord] = None

    def wait(self) -> RunRecord:
        self.event.wait()
        assert self.record is not None
        return self.record


#: One submission point's routing decision: the point, its content key,
#: where the record comes from (``"store"``/``"inflight"``/``"run"``/
#: ``"quarantined"``), and the ready record or pending slot.
_Outcome = Tuple[SweepPoint, str, str, Union[RunRecord, _Pending]]


class _ServeTCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    owner: "SweepServer"


class _Handler(socketserver.StreamRequestHandler):
    """One client connection: a loop of requests, each answered in full."""

    def handle(self) -> None:  # pragma: no cover - exercised via sockets
        owner = self.server.owner  # type: ignore[attr-defined]
        reader = io.TextIOWrapper(self.rfile, encoding="utf-8")
        writer = io.TextIOWrapper(self.wfile, encoding="utf-8")
        while True:
            try:
                message = read_message(reader)
            except ConfigError as exc:
                self._safe_emit(writer, {"event": "error", "message": str(exc)})
                return
            if message is None:
                return
            if not message:
                continue
            try:
                if not self._dispatch(owner, message, writer):
                    return
            except (BrokenPipeError, ConnectionError):
                return
            except ServerOverloaded as exc:
                if not self._safe_emit(
                    writer,
                    {
                        "event": "overloaded",
                        "message": str(exc),
                        "retry_after": exc.retry_after,
                        "queue_depth": exc.queue_depth,
                    },
                ):
                    return
            except ServerDraining as exc:
                if not self._safe_emit(
                    writer, {"event": "draining", "message": str(exc)}
                ):
                    return
            except ConfigError as exc:
                if not self._safe_emit(
                    writer, {"event": "error", "message": str(exc)}
                ):
                    return

    def _dispatch(self, owner, message, writer) -> bool:
        op = message.get("op")
        if op not in OPS:
            raise ConfigError(f"unknown op {op!r}; choose from {OPS}")
        if op == "ping":
            write_message(writer, {"event": "pong", "protocol": PROTOCOL})
            return True
        if op == "status":
            write_message(
                writer,
                {
                    "event": "status",
                    "stats": owner.stats(),
                    "store": owner.store.stats(),
                    "journal": owner.journal.stats(),
                },
            )
            return True
        if op == "drain":
            write_message(
                writer,
                {
                    "event": "draining",
                    "message": "drain acknowledged: finishing in-flight "
                    "work, journaling the rest",
                },
            )
            # Like shutdown: never join the acceptor from a handler
            # thread it is waiting on.
            threading.Thread(target=owner.drain, daemon=True).start()
            return False
        if op == "shutdown":
            write_message(writer, {"event": "bye"})
            # stop() joins the acceptor loop; never call it from a
            # handler thread synchronously while it waits on us.
            threading.Thread(target=owner.stop, daemon=True).start()
            return False
        self._handle_submit(owner, message, writer)
        return True

    def _handle_submit(self, owner, message, writer) -> None:
        raw_points = message.get("points")
        if not isinstance(raw_points, list) or not raw_points:
            raise ConfigError("submit needs a non-empty 'points' list")
        max_cycles = message.get("max_cycles")
        if max_cycles is not None:
            try:
                max_cycles = int(max_cycles)
            except (TypeError, ValueError):
                raise ConfigError(
                    f"max_cycles must be an integer, got {max_cycles!r}"
                ) from None
            if max_cycles <= 0:
                raise ConfigError(
                    f"max_cycles must be positive, got {max_cycles}"
                )
        points = [point_from_wire(entry) for entry in raw_points]
        outcomes = owner.route(points, max_cycles)
        job = owner._next_job()
        write_message(
            writer,
            {
                "event": "accepted",
                "job": job,
                "points": len(points),
                "protocol": PROTOCOL,
            },
        )
        hits = misses = quarantined = 0
        for index, (point, key, source, slot) in enumerate(outcomes):
            if isinstance(slot, _Pending):
                record = slot.wait()
            else:
                record = slot
            if source == "run":
                misses += 1
            elif source == "quarantined":
                quarantined += 1
            else:
                hits += 1
            # A record replayed for a different submitter keeps its
            # content but takes the requester's grid identity.
            record = replace(
                record,
                label=point.label,
                axis=point.axis,
                value=repr(point.value),
            )
            write_message(
                writer,
                {
                    "event": "result",
                    "job": job,
                    "index": index,
                    "key": key,
                    "cached": source in ("store", "inflight"),
                    "source": source,
                    "record": record.to_dict(),
                },
            )
        write_message(
            writer,
            {
                "event": "done",
                "job": job,
                "hits": hits,
                "misses": misses,
                "quarantined": quarantined,
            },
        )

    @staticmethod
    def _safe_emit(writer, message) -> bool:
        try:
            write_message(writer, message)
            return True
        except (BrokenPipeError, ConnectionError, ValueError):
            return False


class SweepServer:
    """A supervised, persistent simulation service over one result store.

    *backend*/*workers*/*timeout*/*repeats* configure the underlying
    :class:`SweepRunner` (``on_error`` is always ``"record"`` — a bad
    point must produce a failure row, not kill the daemon).  The default
    ``backend="auto"`` resolves to ``process`` when a process-pool
    knob (*workers*/*timeout*) is given and to ``serial``
    otherwise.  *store* defaults to a fresh in-memory
    :class:`ResultStore`; *journal* to an in-memory
    :class:`~repro.serve.journal.Journal` — hand in path-backed ones to
    make results **and accepted work** survive restarts: on
    :meth:`start`, unfinished journaled points re-run automatically
    (or replay from the store when their result already landed).

    Supervision knobs:

    * ``max_queue_depth`` — accepted-but-unfinished points the server
      will hold; a submission that would exceed it is refused whole
      with an ``overloaded`` event (``retry_after`` estimates when the
      backlog will have cleared);
    * ``max_inflight`` — how many points one executor burst hands the
      runner at a time (``None``: the whole coalesced burst);
    * ``quarantine_threshold`` — consecutive crashed attempts (clean
      failure rows and server-killing attempts both count, via the
      journal) after which a point is parked: answered with an
      immediate error row, never executed again, listed in ``status``.

    Usable as a context manager::

        with SweepServer(store=ResultStore("results.jsonl"),
                         journal=Journal("journal.jsonl")) as server:
            host, port = server.address
            ...  # clients connect
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        journal: Optional[Journal] = None,
        backend: str = "auto",
        workers: Optional[int] = None,
        timeout: Optional[float] = None,
        repeats: int = 1,
        host: str = "127.0.0.1",
        port: int = 0,
        max_queue_depth: int = DEFAULT_MAX_QUEUE_DEPTH,
        max_inflight: Optional[int] = None,
        quarantine_threshold: int = DEFAULT_QUARANTINE_THRESHOLD,
    ) -> None:
        if max_queue_depth < 1:
            raise ConfigError(
                f"max_queue_depth must be positive, got {max_queue_depth}"
            )
        if max_inflight is not None and max_inflight < 1:
            raise ConfigError(
                f"max_inflight must be positive, got {max_inflight}"
            )
        if quarantine_threshold < 1:
            raise ConfigError(
                "quarantine_threshold must be positive, got "
                f"{quarantine_threshold}"
            )
        self.store = store if store is not None else ResultStore()
        self.journal = journal if journal is not None else Journal()
        if backend == "auto":
            if workers is not None or timeout is not None:
                backend = "process"  # pool knobs imply the pool backend
            else:
                backend = "serial"
        self.runner = SweepRunner(
            backend=backend,
            workers=workers,
            timeout=timeout,
            repeats=repeats,
            on_error="record",
        )
        self.max_queue_depth = max_queue_depth
        self.max_inflight = max_inflight
        self.quarantine_threshold = quarantine_threshold
        self._host = host
        self._port = port
        self._lock = threading.Lock()
        self._inflight: Dict[str, _Pending] = {}
        self._running: set = set()  # keys an execution attempt has begun for
        self._work: "queue.Queue[Optional[List[Tuple[str, _Pending]]]]" = (
            queue.Queue()
        )
        self._tcp: Optional[_ServeTCPServer] = None
        self._threads: List[threading.Thread] = []
        self._stopped = threading.Event()
        self._draining = threading.Event()
        self._started_at: Optional[float] = None
        self._job_counter = 0
        #: EMA of completed-point wall seconds, for retry_after hints.
        self._avg_point_seconds = 0.2
        self._stats = {
            "submissions": 0,
            "points": 0,
            "hits_store": 0,
            "hits_inflight": 0,
            "misses": 0,
            "failure_rows": 0,
            "max_queue_depth": 0,
            "bursts": 0,
            "shed_submissions": 0,
            "shed_points": 0,
            "quarantined_answers": 0,
            "recovered_rerun": 0,
            "recovery_replayed": 0,
        }
        #: key -> {"label", "crashes"} for parked points.
        self._quarantine: Dict[str, Dict[str, object]] = {}
        for key in self.journal.quarantined(self.quarantine_threshold):
            self._quarantine[key] = {
                "label": self._pending_label(key),
                "crashes": self.journal.crash_count(key),
            }

    def _pending_label(self, key: str) -> str:
        for pending_key, wire, _ceiling in self.journal.pending():
            if pending_key == key and isinstance(wire, dict):
                return str(wire.get("label", key))
        return key

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Bind, recover journaled work, spawn the threads, return address."""
        if self._tcp is not None:
            raise ConfigError("server already started")
        self._started_at = time.monotonic()
        self._recover()
        self._tcp = _ServeTCPServer((self._host, self._port), _Handler)
        self._tcp.owner = self
        acceptor = threading.Thread(
            target=self._tcp.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="serve-acceptor",
            daemon=True,
        )
        executor = threading.Thread(
            target=self._executor_loop, name="serve-executor", daemon=True
        )
        self._threads = [acceptor, executor]
        for thread in self._threads:
            thread.start()
        return self.address

    def _recover(self) -> None:
        """Re-enqueue the journal's accepted-but-unfinished work.

        Finished points (their result landed in the store, only the
        ``done`` mark was lost) are marked off and replay for free;
        quarantined points stay parked; the rest re-run exactly as if
        their original submission had just arrived.
        """
        to_run: List[Tuple[str, _Pending]] = []
        with self._lock:
            for key, wire, max_cycles in self.journal.pending():
                if key in self._inflight:
                    continue
                if self.store.get(key) is not None:
                    self.journal.record_done(key)
                    self._stats["recovery_replayed"] += 1
                    continue
                if key in self._quarantine:
                    continue  # parked: visible in status, never re-run
                try:
                    point = point_from_wire(wire)  # type: ignore[arg-type]
                except (ConfigError, ReproError):
                    # A corrupt accept entry cannot be rebuilt; treat it
                    # like the torn line it rode in on.
                    self.journal.record_fail(key, "unrecoverable accept entry")
                    continue
                pending = _Pending(point, max_cycles)
                self._inflight[key] = pending
                to_run.append((key, pending))
                self._stats["recovered_rerun"] += 1
            self._stats["max_queue_depth"] = max(
                self._stats["max_queue_depth"], len(self._inflight)
            )
        if to_run:
            self._work.put(to_run)

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (port resolved when ``port=0``)."""
        if self._tcp is None:
            raise ConfigError("server not started")
        host, port = self._tcp.server_address[:2]
        return str(host), int(port)

    def drain(self, timeout: Optional[float] = 30.0) -> None:
        """Stop gracefully: refuse new submits, finish in-flight work.

        The chunk the executor is currently running completes and files
        its results (and ``done`` journal marks); queued-but-unstarted
        points are answered with error rows but **stay journaled** —
        the next server started on the same journal re-runs them.  The
        CLI calls this on ``SIGTERM``; clients can request it with the
        ``drain`` op.
        """
        if self._stopped.is_set():
            return
        self._draining.set()
        self._work.put(None)
        executor = next(
            (t for t in self._threads if t.name == "serve-executor"), None
        )
        if (
            executor is not None
            and executor.is_alive()
            and executor is not threading.current_thread()
        ):
            executor.join(timeout)
        self.stop()

    def stop(self) -> None:
        """Stop accepting, drain the executor, fail leftover pendings.

        Abrupt but not lossy: leftover pendings are answered with error
        rows, yet their journal entries keep no terminal mark, so a
        restart on the same journal re-runs them (:meth:`drain` is the
        graceful variant that lets in-flight work finish first).
        """
        if self._stopped.is_set():
            return
        self._draining.set()  # route() refuses from this moment
        self._stopped.set()
        if self._tcp is not None:
            self._tcp.shutdown()
            self._tcp.server_close()
        self._work.put(None)
        for thread in self._threads:
            if thread is not threading.current_thread():
                thread.join(timeout=10.0)
        with self._lock:
            leftovers = list(self._inflight.items())
            self._inflight.clear()
        for _key, pending in leftovers:
            pending.record = RunRecord.from_error(
                pending.point,
                "server stopped before the point ran; the accepted work "
                "is journaled and re-runs on the next start",
            )
            pending.event.set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the server stops (a client sent ``shutdown``)."""
        return self._stopped.wait(timeout)

    def __enter__(self) -> "SweepServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- submission routing ----------------------------------------------------

    def _next_job(self) -> int:
        with self._lock:
            self._job_counter += 1
            return self._job_counter

    def _retry_after(self, queue_depth: int) -> float:
        """Seconds until the current backlog has plausibly cleared."""
        return round(
            min(30.0, max(0.05, queue_depth * self._avg_point_seconds)), 3
        )

    def route(
        self, points: Sequence[SweepPoint], max_cycles: Optional[int] = None
    ) -> List[_Outcome]:
        """Admit, journal and dedupe *points*; one outcome per point.

        Grid order is preserved: a ready record (store hit or
        quarantined error row), an existing pending (in-flight hit —
        joined, not re-run) or a freshly journaled-and-queued pending.
        The cold remainder is enqueued as one batch for the executor.

        Raises :class:`ServerDraining` while draining/stopped and
        :class:`ServerOverloaded` when the cold remainder would push
        the queue past ``max_queue_depth`` — in both cases the whole
        submission is refused and **nothing** is journaled, so the
        retry the client owes us re-submits every point.
        """
        if self._draining.is_set() or self._stopped.is_set():
            raise ServerDraining(
                "server is draining; journaled work resumes on the next "
                "start — retry there"
            )
        outcomes: List[_Outcome] = []
        to_run: List[Tuple[str, _Pending]] = []
        with self._lock:
            # Admission first, without side effects: how many genuinely
            # cold points would this submission add?
            cold_keys = set()
            for point in points:
                key = point_key(
                    point.spec, engine=point.engine, max_cycles=max_cycles
                )
                if (
                    self.store.get(key) is None
                    and key not in self._inflight
                    and key not in self._quarantine
                ):
                    cold_keys.add(key)
            depth = len(self._inflight)
            if depth + len(cold_keys) > self.max_queue_depth:
                self._stats["shed_submissions"] += 1
                self._stats["shed_points"] += len(points)
                raise ServerOverloaded(
                    f"queue depth {depth} + {len(cold_keys)} cold points "
                    f"would exceed max_queue_depth={self.max_queue_depth}",
                    retry_after=self._retry_after(depth),
                    queue_depth=depth,
                )
            self._stats["submissions"] += 1
            self._stats["points"] += len(points)
            for point in points:
                key = point_key(
                    point.spec, engine=point.engine, max_cycles=max_cycles
                )
                cached = self.store.get(key)
                if cached is not None:
                    self._stats["hits_store"] += 1
                    outcomes.append((point, key, "store", cached))
                    continue
                parked = self._quarantine.get(key)
                if parked is not None:
                    self._stats["quarantined_answers"] += 1
                    row = RunRecord.from_error(
                        point,
                        f"quarantined: {parked['crashes']} consecutive "
                        "crashed attempts (see status; clear the journal "
                        "to retry)",
                    )
                    outcomes.append((point, key, "quarantined", row))
                    continue
                pending = self._inflight.get(key)
                if pending is not None:
                    self._stats["hits_inflight"] += 1
                    outcomes.append((point, key, "inflight", pending))
                    continue
                # Genuinely cold: write-ahead journal it, then queue it.
                self.journal.record_accept(
                    key, point_to_wire(point), max_cycles
                )
                pending = _Pending(point, max_cycles)
                self._inflight[key] = pending
                to_run.append((key, pending))
                self._stats["misses"] += 1
                outcomes.append((point, key, "run", pending))
            self._stats["max_queue_depth"] = max(
                self._stats["max_queue_depth"], len(self._inflight)
            )
        if to_run:
            self._work.put(to_run)
        return outcomes

    # -- execution -------------------------------------------------------------

    def _executor_loop(self) -> None:
        while True:
            batch = self._work.get()
            if batch is None:
                return
            stop_after = False
            # Batch every already-queued submission onto one grid: the
            # runner's pool (process backend) then shards all clients'
            # cold points together.
            while True:
                try:
                    extra = self._work.get_nowait()
                except queue.Empty:
                    break
                if extra is None:
                    stop_after = True
                    break
                batch.extend(extra)
            self._run_batch(batch)
            if stop_after or self._draining.is_set():
                return

    def _run_batch(self, batch: List[Tuple[str, _Pending]]) -> None:
        """Run one coalesced burst, ``max_inflight`` points at a time."""
        chunk_size = self.max_inflight or len(batch)
        for begin in range(0, len(batch), chunk_size):
            if self._draining.is_set():
                # Journaled but unstarted: answer the waiting clients,
                # leave the journal entries pending for the next start.
                for key, pending in batch[begin:]:
                    self._abandon(
                        key,
                        pending,
                        "server draining before the point ran; the "
                        "accepted work is journaled and re-runs on the "
                        "next start",
                    )
                return
            self._run_chunk(batch[begin : begin + chunk_size])

    def _run_chunk(self, chunk: List[Tuple[str, _Pending]]) -> None:
        points = [pending.point for _key, pending in chunk]
        ceilings = {
            id(pending.point): pending.max_cycles for _key, pending in chunk
        }

        def started(index: int, _point: SweepPoint) -> None:
            key, _pending = chunk[index]
            self.journal.record_start(key)
            with self._lock:
                self._running.add(key)

        def finish(index: int, record: RunRecord) -> None:
            key, pending = chunk[index]
            self._finish(key, pending, record)

        try:
            self.runner.run(
                points,
                max_cycles=lambda point: ceilings[id(point)],
                on_result=finish,
                on_start=started,
            )
            with self._lock:
                self._stats["bursts"] += 1
        except Exception as exc:  # infrastructure failure, not a point crash
            for key, pending in chunk:
                if not pending.event.is_set():
                    self._finish(
                        key,
                        pending,
                        RunRecord.from_error(
                            pending.point, f"{type(exc).__name__}: {exc}"
                        ),
                    )
        finally:
            with self._lock:
                self._running.difference_update(key for key, _p in chunk)

    def _finish(self, key: str, pending: _Pending, record: RunRecord) -> None:
        self.store.put(key, record)  # refuses failure rows itself
        if record.failed:
            self.journal.record_fail(key, record.error)
            crashes = self.journal.crash_count(key)
            with self._lock:
                self._stats["failure_rows"] += 1
                if crashes >= self.quarantine_threshold:
                    self._quarantine[key] = {
                        "label": pending.point.label,
                        "crashes": crashes,
                    }
                self._inflight.pop(key, None)
                self._running.discard(key)
        else:
            self.journal.record_done(key)
            with self._lock:
                self._inflight.pop(key, None)
                self._running.discard(key)
                if record.wall_seconds > 0:
                    self._avg_point_seconds = (
                        0.8 * self._avg_point_seconds
                        + 0.2 * record.wall_seconds
                    )
        pending.record = record
        pending.event.set()

    def _abandon(self, key: str, pending: _Pending, reason: str) -> None:
        """Resolve a waiting client without a journal terminal mark."""
        with self._lock:
            self._inflight.pop(key, None)
        if not pending.event.is_set():
            pending.record = RunRecord.from_error(pending.point, reason)
            pending.event.set()

    # -- introspection ---------------------------------------------------------

    def queue_depth(self) -> int:
        """Points currently queued or running."""
        with self._lock:
            return len(self._inflight)

    def in_flight(self) -> int:
        """Points an execution attempt is currently running for."""
        with self._lock:
            return len(self._running)

    def quarantine(self) -> List[Dict[str, object]]:
        """The parked points: ``{"key", "label", "crashes"}`` rows."""
        with self._lock:
            return [
                {"key": key, **info}
                for key, info in sorted(self._quarantine.items())
            ]

    def stats(self) -> Dict[str, object]:
        """JSON-ready serving counters (the ``status`` op's payload)."""
        with self._lock:
            stats = dict(self._stats)
            stats["queue_depth"] = len(self._inflight)
            stats["in_flight"] = len(self._running)
            stats["quarantine"] = [
                {"key": key, **info}
                for key, info in sorted(self._quarantine.items())
            ]
        stats["queue_bound"] = self.max_queue_depth
        stats["max_inflight"] = self.max_inflight
        stats["quarantine_threshold"] = self.quarantine_threshold
        stats["draining"] = self._draining.is_set()
        stats["stopped"] = self._stopped.is_set()
        stats["uptime_seconds"] = (
            round(time.monotonic() - self._started_at, 3)
            if self._started_at is not None
            else 0.0
        )
        stats["retry_after_hint"] = self._retry_after(stats["queue_depth"])
        hits = stats["hits_store"] + stats["hits_inflight"]
        stats["hits"] = hits
        total = hits + stats["misses"]
        stats["hit_rate"] = round(hits / total, 4) if total else 0.0
        stats["backend"] = self.runner.backend
        return stats
