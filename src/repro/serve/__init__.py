"""Simulation-as-a-service: a supervised, persistent sweep server with
a content-addressed result cache and write-ahead crash recovery.

Everything needed for serving already existed — ``SystemSpec`` and
``Workload`` are JSON-round-trippable and picklable, ``RunRecord``
equality excludes wall time, and simulations are deterministic — so a
cache hit is free *and provably correct*.  This package is the layer
that exploits it:

* :class:`ResultStore` — a content-addressed record store keyed on
  :func:`repro.exec.records.point_key` (the canonical hash of spec +
  workload + seed + engine + cycle ceiling), JSON-lines on disk with an
  in-memory index.  Failure rows are never cached; first write wins,
  even across concurrent writers.
* :class:`Journal` — the write-ahead log of *accepted* work: every
  admitted point is journaled before it is queued and marked off as
  its result lands, so a server killed mid-batch restarts on the same
  store+journal and re-runs exactly the unfinished remainder.
* :class:`SweepServer` — a supervised front end over a kept
  ``SweepRunner`` worker pool behind a line-delimited-JSON socket
  protocol:
  dedupes submissions against the store and in-flight work, journals
  accepted points, sheds load past ``max_queue_depth`` with
  ``overloaded``/``retry_after`` backpressure, drains gracefully on
  ``SIGTERM``/``drain``, quarantines points that crash repeatedly, and
  streams per-point results back in grid order via the runner's
  ``on_result`` hook.
* :class:`ServeClient` — the Python API (``submit``/``status``/
  ``ping``/``drain``/``shutdown``) over one kept connection, with
  exponential-backoff retries (safe: submissions are idempotent by
  content key);
  ``python -m repro.serve`` is the CLI over the same protocol.

One host program, same workload — submit the grid and let the service
pick cached vs fresh execution::

    with SweepServer(store=ResultStore("results.jsonl"),
                     journal=Journal("journal.jsonl")) as server:
        with ServeClient(*server.address) as client:
            first = client.submit(grid)    # cold: simulated
            second = client.submit(grid)   # warm: 100% cache hits
        assert second.records == first.records

The guarantees (no accepted work lost across ``kill -9``, no point
simulated twice, no store/journal corruption, recovered records
bit-identical to an uninterrupted run) are proven adversarially by the
chaos harness: :mod:`repro.fuzz.chaos`, ``make chaos``.
"""

from repro.serve.client import OnEvent, ServeClient, SubmitResult
from repro.serve.journal import Journal
from repro.serve.protocol import (
    OPS,
    PROTOCOL,
    grid_to_wire,
    point_from_wire,
    point_to_wire,
)
from repro.serve.server import (
    ServerDraining,
    ServerOverloaded,
    SweepServer,
)
from repro.serve.store import ResultStore, heal_torn_tail

__all__ = [
    "OPS",
    "OnEvent",
    "PROTOCOL",
    "Journal",
    "ResultStore",
    "ServeClient",
    "ServerDraining",
    "ServerOverloaded",
    "SubmitResult",
    "SweepServer",
    "grid_to_wire",
    "heal_torn_tail",
    "point_from_wire",
    "point_to_wire",
]
