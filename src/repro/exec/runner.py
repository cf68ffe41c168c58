"""Sharded sweep execution: map ``point.build().run()`` over a grid.

:class:`SweepRunner` is the one execution engine behind every
experiment: it takes the :class:`~repro.system.spec.SweepPoint` grid a
:func:`~repro.system.spec.sweep` call produced and returns one
:class:`RunRecord` per point, **ordered as the grid**, regardless of
backend:

* ``serial`` — run in-process, point by point (wall clocks see no pool
  overhead);
* ``process`` — shard the grid over a pool of forked worker
  processes.  Specs are plain picklable data, so a worker rebuilds the
  platform from the point alone; each point's traffic regenerates
  in-worker from its own spec seed, and the chunks are collected in
  submission order, so the records merge back in grid order.  Records
  compare equal to the serial backend's because wall time is excluded
  from record equality.

A runner used as a context manager (or :meth:`SweepRunner.open` ...
:meth:`SweepRunner.close`) keeps one pool for every ``run()`` in
between; a one-shot ``run()`` forks a pool for that call.  On Linux
each worker dies with the process that started it, even one killed by
``SIGKILL``.

``collect`` extracts extra metrics while the platform is still alive
(the process backend tears platforms down inside the worker).  It must
be a *module-level* callable — it is pickled by reference — with the
signature ``collect(point, platform, result) -> Dict[str, object]``.

A record's wall clock times only ``run()``; the platform build before it
is untimed.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
import threading
import time
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
)

from repro.errors import ConfigError, SimulationError
from repro.exec.records import RunRecord
from repro.system.spec import SweepPoint

if TYPE_CHECKING:  # imported where a pool is made: serial users skip ~1 MB
    from concurrent.futures import Future, ProcessPoolExecutor

#: Supported execution backends.
BACKENDS = ("serial", "process")

#: Error policies: ``"raise"`` propagates the first failing point's
#: exception (losing the rest of the grid); ``"record"`` turns crashes
#: (and, on the process backend, timeouts) into error rows.
ON_ERROR = ("raise", "record")

#: Collector signature: ``(point, platform, result) -> metrics dict``.
Collector = Callable[[SweepPoint, object, object], Dict[str, object]]

#: Per-point completion callback: ``(grid_index, record) -> None``.
OnResult = Callable[[int, RunRecord], None]

#: Per-point dispatch callback: ``(grid_index, point) -> None``, fired
#: when an execution attempt for the point begins.  Serial: immediately
#: before it runs.  Process: when the point is handed to the pool, which
#: holds at most one uncollected point per worker, so a crash finds at
#: most that many begun and unfinished; with ``timeout=``, for every
#: point of the grid before any is handed out.  The serving layer
#: journals these as write-ahead ``start`` marks.
OnStart = Callable[[int, SweepPoint], None]

#: ``prctl`` option that signals a process when its parent dies (Linux).
_PR_SET_PDEATHSIG = 1


def default_workers(grid_size: Optional[int] = None) -> int:
    """Worker count for the process backend: CPUs, capped by the grid."""
    cpus = os.cpu_count() or 1
    if grid_size is None:
        return cpus
    return max(1, min(cpus, grid_size))


@dataclass(frozen=True)
class _PointJob:
    """Everything a worker needs to run one grid point (picklable)."""

    point: SweepPoint
    collect: Optional[Collector]
    max_cycles: Optional[int]
    on_error: str = "raise"


def _execute(job: _PointJob) -> RunRecord:
    """Run one point and build its record.

    Under ``on_error="record"`` any exception the point raises —
    build-time config errors, drain-limit SimulationErrors, checker
    crashes inside collectors — becomes an error row instead of killing
    the sweep (and, on the process backend, the rest of its chunk).
    """
    if job.on_error == "record":
        start = time.perf_counter()
        try:
            return _execute_point(job)
        except Exception as exc:  # noqa: BLE001 - the policy is "record"
            return RunRecord.from_error(
                job.point,
                f"{type(exc).__name__}: {exc}",
                wall_seconds=time.perf_counter() - start,
            )
    return _execute_point(job)


def _run_jobs(jobs: Sequence[_PointJob]) -> List[RunRecord]:
    """Pool entry point: run one chunk of points in a worker.

    The pool ships this name by reference, and nothing wraps it, so a
    hook that wraps :func:`_execute` in the submitting process (the
    benchmark's tracer does) never has to pickle.
    """
    return [_execute(job) for job in jobs]


def _execute_point(job: _PointJob) -> RunRecord:
    platform = job.point.build()  # untimed
    start = time.perf_counter()
    result = platform.run(max_cycles=job.max_cycles)
    wall = time.perf_counter() - start
    metrics = job.collect(job.point, platform, result) if job.collect else None
    return RunRecord.from_run(
        job.point, result, wall_seconds=wall, metrics=metrics
    )


def _arm_parent_death_signal() -> None:
    """Have the kernel ``SIGKILL`` this process when its parent dies (Linux)."""
    if not sys.platform.startswith("linux"):
        return
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(_PR_SET_PDEATHSIG, int(signal.SIGKILL), 0, 0, 0) != 0:
        errno = ctypes.get_errno()
        raise OSError(errno, f"prctl(PR_SET_PDEATHSIG): {os.strerror(errno)}")


def _worker_init(parent: int) -> None:
    """Pool worker start-up: never outlive *parent*, even after kill -9.

    An orphaned worker would keep simulating, and keep every pipe it
    inherited open, for nobody.  On Linux the kernel kills it with the
    parent-death signal, sent when the *thread* that started it ends;
    other platforms have no such signal, and there a worker outlives a
    parent killed by ``SIGKILL``.

    Signals are the parent's to act on: a terminal's Ctrl-C reaches the
    whole process group, and a handler inherited from the parent (the
    serve CLI drains on ``SIGTERM``) must not run here; the pool's own
    ``SIGTERM`` still ends the worker.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _arm_parent_death_signal()
    if os.getppid() != parent:  # the parent died before the signal was armed
        os._exit(1)


def _start_pool(workers: int, method: str = "fork") -> ProcessPoolExecutor:
    """A pool of *workers* processes started with the *method* context.

    A fork-context pool forks every worker at its first submit, in the
    submitting thread; the no-op submitted here makes that this thread,
    without waiting for it to run.  A spawn-context pool starts a
    worker per submit while none is idle.
    """
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context(method),
        initializer=_worker_init,
        initargs=(os.getpid(),),
    )
    if method == "fork":
        pool.submit(int)
    return pool


class SweepRunner:
    """Maps a sweep grid to :class:`RunRecord` rows via a backend.

    On the process backend, a runner that is open (a ``with`` block, or
    :meth:`open` then :meth:`close`) runs every untimed ``run()`` on one
    kept :class:`~concurrent.futures.ProcessPoolExecutor` of *workers*
    processes (default :func:`default_workers`), so a sweep service
    forks its pool once.  A worker killed mid-point breaks the pool and
    loses every point still out; the runner renews the pool and re-runs
    each lost point alone, so only a point that kills its worker again
    fails (an error row under ``on_error="record"``).  A renewed pool
    spawns its workers, so, as with any spawn-started pool, the main
    module must be importable without side effects.
    """

    def __init__(
        self,
        backend: str = "serial",
        workers: Optional[int] = None,
        on_error: str = "raise",
        timeout: Optional[float] = None,
    ) -> None:
        """``on_error="record"`` makes the sweep crash-tolerant: a point
        that raises (or, with ``timeout=``, takes too long) yields an
        error row (:meth:`RunRecord.from_error`) in its grid slot and
        the remaining points still run.

        ``timeout`` (seconds, process backend only — an in-process
        point cannot be interrupted) bounds each point's *result
        delivery*: dispatch switches to per-point ``apply_async`` and
        a point whose record has not arrived ``timeout`` seconds after
        the runner starts waiting on it is abandoned.  The stuck worker
        is not killed until the run returns, when the pool is
        terminated; so a timed runner forks a ``multiprocessing.Pool``
        per ``run()`` and keeps none open.
        """
        if backend not in BACKENDS:
            raise ConfigError(
                f"unknown sweep backend {backend!r}; choose from {BACKENDS}"
            )
        if workers is not None and workers < 1:
            raise ConfigError(f"workers must be positive, got {workers}")
        if on_error not in ON_ERROR:
            raise ConfigError(
                f"unknown on_error policy {on_error!r}; choose from {ON_ERROR}"
            )
        if timeout is not None and timeout <= 0:
            raise ConfigError(f"timeout must be positive, got {timeout}")
        if timeout is not None and backend != "process":
            raise ConfigError(
                "timeout= needs the process backend (a point running "
                "in-process cannot be interrupted)"
            )
        self.backend = backend
        self.workers = workers
        self.on_error = on_error
        self.timeout = timeout
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_size = 0
        #: Guards replacing the pool against closing it from another thread.
        self._pool_lock = threading.Lock()

    def open(self) -> "SweepRunner":
        """Fork the kept pool now (untimed process backend only).

        Call it before the caller starts threads of its own: the
        workers fork from this thread, and die when it ends.
        """
        if (
            self.backend == "process"
            and self.timeout is None
            and self._pool is None
        ):
            self._open_pool(self.workers or default_workers())
        return self

    def _open_pool(self, workers: int) -> None:
        self._pool = _start_pool(workers)
        self._pool_size = workers

    def close(self) -> None:
        """Shut the kept pool down: terminate its workers and wait for them.

        A running point is not waited for: its worker gets ``SIGTERM``,
        and the ``run()`` it belongs to (in another thread) raises.
        """
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is None:
            return
        # The executor has no public way to stop a running call.
        for process in list((pool._processes or {}).values()):
            process.terminate()
        pool.shutdown(wait=True, cancel_futures=True)

    def _live_pool(self) -> ProcessPoolExecutor:
        pool = self._pool
        if pool is None:
            raise SimulationError("the sweep runner was closed while it ran")
        return pool

    def _renew_pool(self) -> None:
        """Replace the pool a dead worker broke with one of the same size.

        The new pool spawns its workers rather than forking them: other
        threads of this process may be running, and a forked child
        would inherit any lock one of them holds, held forever.
        """
        with self._pool_lock:
            broken = self._live_pool()
            self._pool = _start_pool(self._pool_size, "spawn")
        broken.shutdown(wait=True)  # its workers are already gone

    def __enter__(self) -> "SweepRunner":
        return self.open()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _chunksize(self, jobs: int, workers: int) -> int:
        if workers == 1:
            # One worker gains nothing from small tasks — ship the whole
            # grid in a single dispatch and pay IPC once.
            return jobs
        # Small grids: one point per task keeps all workers busy;
        # large grids: ~4 tasks per worker amortises pool dispatch.
        return max(1, jobs // (workers * 4))

    def run(
        self,
        grid: Iterable[SweepPoint],
        collect: Optional[Collector] = None,
        max_cycles: Optional[object] = None,
        on_result: Optional[OnResult] = None,
        on_start: Optional[OnStart] = None,
    ) -> List[RunRecord]:
        """Run every point of *grid*; records come back in grid order.

        ``max_cycles`` bounds every point's ``run()``; pass a callable
        ``point -> Optional[int]`` for per-point ceilings (e.g. bound
        only the slow RTL points of a mixed-engine grid).  Callables
        are resolved here, before jobs ship to pool workers, so they
        need not be picklable.

        ``on_result(index, record)`` fires once per completed point —
        error rows included under ``on_error="record"`` — *in grid
        order*, before ``run`` returns, on every backend (the process
        backend delivers each chunk once it and every chunk before it
        are back, while later ones still run).  It executes in the
        calling process, so unlike a collector it need not be
        picklable; the sweep server uses it to stream per-point
        progress without polling.  An exception it raises propagates
        and abandons the rest of the sweep.

        ``on_start(index, point)`` fires when an attempt for a point
        *begins* (see :data:`OnStart` for per-backend timing).  The
        serving layer journals these as write-ahead ``start`` marks so
        a crash mid-point is attributable to the points that were
        running.
        """
        if on_result is not None and not callable(on_result):
            raise ConfigError(
                f"on_result must be callable, got {type(on_result).__name__}"
            )
        if on_start is not None and not callable(on_start):
            raise ConfigError(
                f"on_start must be callable, got {type(on_start).__name__}"
            )
        points = list(grid)
        if not points:
            return []
        jobs = [
            _PointJob(
                point=point,
                collect=collect,
                max_cycles=(
                    max_cycles(point) if callable(max_cycles) else max_cycles  # type: ignore[arg-type]
                ),
                on_error=self.on_error,
            )
            for point in points
        ]
        if self.backend == "serial":
            records: List[RunRecord] = []
            for index, job in enumerate(jobs):
                if on_start is not None:
                    on_start(index, job.point)
                record = _execute(job)
                if on_result is not None:
                    on_result(len(records), record)
                records.append(record)
            return records
        return self._run_pool(jobs, on_result, on_start)

    def _run_pool(
        self,
        jobs: Sequence[_PointJob],
        on_result: Optional[OnResult],
        on_start: Optional[OnStart],
    ) -> List[RunRecord]:
        if self.timeout is not None:
            if on_start is not None:
                for index, job in enumerate(jobs):
                    on_start(index, job.point)
            workers = self.workers or default_workers(len(jobs))
            return self._run_pool_deadline(jobs, workers, on_result)
        if self._pool is not None:
            return self._run_futures(jobs, on_result, on_start)
        self._open_pool(self.workers or default_workers(len(jobs)))
        try:
            return self._run_futures(jobs, on_result, on_start)
        finally:
            self.close()

    def _run_futures(
        self,
        jobs: Sequence[_PointJob],
        on_result: Optional[OnResult],
        on_start: Optional[OnStart],
    ) -> List[RunRecord]:
        """Hand *jobs* to the pool in chunks; collect them in grid order.

        At most one chunk per worker is out and not yet collected, and
        ``on_start`` fires as a chunk goes out.  With ``on_start``, a
        chunk is one point, so the points whose start has fired and
        whose record has not are at most one per worker.
        """
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        if on_start is not None:
            size = 1
        else:
            size = self._chunksize(len(jobs), self._pool_size)
        chunks = [jobs[begin : begin + size] for begin in range(0, len(jobs), size)]
        futures: List[Future] = []
        records: List[RunRecord] = []
        try:
            for index in range(len(chunks)):
                while len(futures) < min(index + self._pool_size, len(chunks)):
                    chunk = chunks[len(futures)]
                    if on_start is not None:
                        for offset, job in enumerate(chunk):
                            on_start(len(futures) * size + offset, job.point)
                    try:
                        future = self._live_pool().submit(_run_jobs, chunk)
                    except BrokenProcessPool as exc:  # a worker just died
                        future = Future()
                        future.set_exception(exc)
                    futures.append(future)
                try:
                    rows = futures[index].result()
                except BrokenProcessPool:
                    self._rerun_lost(chunks, futures, index)
                    rows = futures[index].result()
                for record in rows:
                    if on_result is not None:
                        on_result(len(records), record)
                    records.append(record)
            return records
        finally:
            # A raising point or callback leaves later chunks queued on a
            # kept pool; do not let them run for nobody.
            for future in futures:
                future.cancel()

    def _rerun_lost(
        self, chunks: Sequence[Sequence[_PointJob]], futures: List[Future], first: int
    ) -> None:
        """A worker died: re-run every point the broken pool lost, alone.

        The executor does not say which worker died, and it ends the
        others too, so every chunk still out from *first* on is lost.
        Each lost point re-runs by itself on a renewed pool (its attempt
        goes on: no second ``on_start``).  Only a point that kills its
        worker again gets an error row under ``on_error="record"``, or
        raises :class:`SimulationError`; the others get their records.
        """
        from concurrent.futures import Future, wait
        from concurrent.futures.process import BrokenProcessPool

        wait(futures[first:])
        self._renew_pool()
        for position in range(first, len(futures)):
            lost = futures[position]
            if lost.cancelled() or not isinstance(lost.exception(), BrokenProcessPool):
                continue
            rows = []
            for job in chunks[position]:
                try:
                    [record] = self._live_pool().submit(_run_jobs, [job]).result()
                except BrokenProcessPool as exc:
                    self._renew_pool()
                    reason = (
                        "worker process died while the point ran alone "
                        f"({type(exc).__name__})"
                    )
                    if self.on_error != "record":
                        raise SimulationError(
                            f"sweep point {job.point.label!r}: {reason}"
                        ) from exc
                    record = RunRecord.from_error(job.point, reason)
                rows.append(record)
            redone: Future = Future()
            redone.set_result(rows)
            futures[position] = redone

    def _run_pool_deadline(
        self,
        jobs: Sequence[_PointJob],
        workers: int,
        on_result: Optional[OnResult] = None,
    ) -> List[RunRecord]:
        """Per-point ``apply_async`` dispatch with a delivery deadline.

        Results are still merged in grid order.  A point whose result
        has not arrived within ``timeout`` seconds of the runner
        starting to wait on it is treated per the ``on_error`` policy;
        points already finished while the runner waited on an earlier
        one collect instantly, so only genuinely stuck points pay.
        ``on_result`` fires per collected row — timeout rows included —
        as the grid-order walk reaches it.
        """
        pool = multiprocessing.Pool(
            processes=workers, initializer=_worker_init, initargs=(os.getpid(),)
        )
        try:
            pending = [pool.apply_async(_run_jobs, ([job],)) for job in jobs]
            records: List[RunRecord] = []
            for job, handle in zip(jobs, pending):
                try:
                    [record] = handle.get(timeout=self.timeout)
                except multiprocessing.TimeoutError:
                    if self.on_error != "record":
                        raise SimulationError(
                            f"sweep point {job.point.label!r} exceeded the "
                            f"{self.timeout}s timeout"
                        ) from None
                    record = RunRecord.from_error(
                        job.point,
                        f"timeout: no result within {self.timeout}s",
                        wall_seconds=float(self.timeout),
                    )
                if on_result is not None:
                    on_result(len(records), record)
                records.append(record)
            return records
        finally:
            # terminate(), not close(): a timed-out worker may still be
            # grinding through its abandoned point.
            pool.terminate()
            pool.join()

