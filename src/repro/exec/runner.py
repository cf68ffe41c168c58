"""Sharded sweep execution: map ``point.build().run()`` over a grid.

:class:`SweepRunner` is the one execution engine behind every
experiment: it takes the :class:`~repro.system.spec.SweepPoint` grid a
:func:`~repro.system.spec.sweep` call produced and returns one
:class:`RunRecord` per point, **ordered as the grid**, regardless of
backend:

* ``serial`` — run in-process, point by point (also the timing-faithful
  backend: wall clocks see no pool overhead);
* ``process`` — shard the grid over a ``multiprocessing`` pool.  Specs
  are plain picklable data (PR 2), so a worker rebuilds the platform
  from the point alone; each point's traffic regenerates in-worker from
  its own spec seed, and ``Pool.map`` with explicit chunking merges the
  records back in grid order.  Records compare equal to the serial
  backend's because wall time is excluded from record equality.

``collect`` extracts extra metrics while the platform is still alive
(the process backend tears platforms down inside the worker).  It must
be a *module-level* callable — it is pickled by reference — with the
signature ``collect(point, platform, result) -> Dict[str, object]``.

``repeats`` gives best-of-N wall timing with the exact methodology of
the speed harness: every repeat rebuilds the platform untimed and times
only ``run()``; counters are checked identical across repeats.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.errors import ConfigError, SimulationError
from repro.exec.records import RunRecord
from repro.system.spec import SweepPoint

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
#: when an execution attempt for the point begins (serial: immediately
#: before it runs; process: when its job is handed to the pool).  The
#: serving layer journals these as write-ahead ``start`` marks.
OnStart = Callable[[int, SweepPoint], None]


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
    repeats: int
    max_cycles: Optional[int]
    on_error: str = "raise"


def _execute(job: _PointJob) -> RunRecord:
    """Run one point (best-of-``repeats``) and build its record.

    Module-level so the process backend can ship it by reference.
    Under ``on_error="record"`` any exception the point raises —
    build-time config errors, drain-limit SimulationErrors, checker
    crashes inside collectors — becomes an error row instead of killing
    the sweep (and, on the process backend, the whole pool map).
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


def _execute_point(job: _PointJob) -> RunRecord:
    best_wall: Optional[float] = None
    record: Optional[RunRecord] = None
    for _ in range(max(job.repeats, 1)):
        platform = job.point.build()  # untimed, like the speed harness
        start = time.perf_counter()
        result = platform.run(max_cycles=job.max_cycles)
        wall = time.perf_counter() - start
        metrics = (
            job.collect(job.point, platform, result) if job.collect else None
        )
        fresh = RunRecord.from_run(
            job.point, result, wall_seconds=wall, metrics=metrics
        )
        if record is not None and fresh != record:
            raise SimulationError(
                f"non-deterministic run: point {job.point.label!r} produced "
                f"different counters on repeat"
            )
        if best_wall is None or wall < best_wall:
            best_wall = wall
            record = fresh
    assert record is not None
    return record


class SweepRunner:
    """Maps a sweep grid to :class:`RunRecord` rows via a backend."""

    def __init__(
        self,
        backend: str = "serial",
        workers: Optional[int] = None,
        chunksize: Optional[int] = None,
        repeats: int = 1,
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
        is not killed; the pool is terminated when the run returns.
        """
        if backend not in BACKENDS:
            raise ConfigError(
                f"unknown sweep backend {backend!r}; choose from {BACKENDS}"
            )
        if workers is not None and workers < 1:
            raise ConfigError(f"workers must be positive, got {workers}")
        if chunksize is not None and chunksize < 1:
            raise ConfigError(f"chunksize must be positive, got {chunksize}")
        if repeats < 1:
            raise ConfigError(f"repeats must be positive, got {repeats}")
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
        self.chunksize = chunksize
        self.repeats = repeats
        self.on_error = on_error
        self.timeout = timeout

    def _chunksize(self, jobs: int, workers: int) -> int:
        if self.chunksize is not None:
            return self.chunksize
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
        backend switches from ``Pool.map`` to the order-preserving
        ``imap`` so earlier points surface while later ones still
        run).  It executes in the calling process, so unlike a
        collector it need not be picklable; the sweep server uses it
        to stream per-point progress without polling.  An exception it
        raises propagates and abandons the rest of the sweep.

        ``on_start(index, point)`` fires when an attempt for a point
        *begins* (see :data:`OnStart` for per-backend timing).  The
        serving layer journals these as write-ahead ``start`` marks so
        a crash mid-point is attributable to the point that was
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
                repeats=self.repeats,
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
        if on_start is not None:
            # Pool dispatch ships every job up front; each point's
            # attempt effectively begins when the map is submitted.
            for index, job in enumerate(jobs):
                on_start(index, job.point)
        return self._run_pool(jobs, on_result)

    def _run_pool(
        self, jobs: Sequence[_PointJob], on_result: Optional[OnResult] = None
    ) -> List[RunRecord]:
        workers = (
            self.workers
            if self.workers is not None
            else default_workers(len(jobs))
        )
        if self.timeout is not None:
            return self._run_pool_deadline(jobs, workers, on_result)
        chunksize = self._chunksize(len(jobs), workers)
        # Pool.map/imap preserve input order, so the merge is
        # deterministic no matter which worker finished first.
        with multiprocessing.Pool(processes=workers) as pool:
            if on_result is None:
                return pool.map(_execute, jobs, chunksize=chunksize)
            records: List[RunRecord] = []
            for record in pool.imap(_execute, jobs, chunksize=chunksize):
                on_result(len(records), record)
                records.append(record)
            return records

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
        pool = multiprocessing.Pool(processes=workers)
        try:
            pending = [pool.apply_async(_execute, (job,)) for job in jobs]
            records: List[RunRecord] = []
            for job, handle in zip(jobs, pending):
                try:
                    record = handle.get(timeout=self.timeout)
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


def run_grid(
    grid: Iterable[SweepPoint],
    backend: str = "serial",
    collect: Optional[Collector] = None,
    **runner_kwargs: object,
) -> List[RunRecord]:
    """One-call sweep execution: ``run_grid(sweep(...), "process")``."""
    return SweepRunner(backend=backend, **runner_kwargs).run(  # type: ignore[arg-type]
        grid, collect=collect
    )
