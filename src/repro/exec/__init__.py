"""Experiment execution: sweep grids → mergeable result records.

The runner layer between the declarative platform API and the analysis
tables.  :class:`SweepRunner` maps ``point.build().run()`` over a
:func:`~repro.system.spec.sweep` grid with pluggable backends (in-process
``serial`` or multiprocess-sharded ``process``) and emits one
:class:`RunRecord` per point — plain, picklable, order-deterministic
rows every experiment and benchmark consumes.

    from repro.exec import SweepRunner
    from repro.system import paper_topology, sweep

    grid = sweep(paper_topology(200), axis="write_buffer_depth",
                 values=(1, 2, 4, 8))
    records = SweepRunner(backend="process").run(grid)

Determinism guarantees: records come back ordered as the grid; each
point's traffic regenerates from its own spec seed (in-worker on the
process backend); and record equality excludes wall time, so
``SweepRunner("process").run(g) == SweepRunner("serial").run(g)``.
"""

from repro.exec.records import RunRecord, point_key
from repro.exec.runner import (
    BACKENDS,
    ON_ERROR,
    Collector,
    OnResult,
    OnStart,
    SweepRunner,
    default_workers,
    run_grid,
)

__all__ = [
    "BACKENDS",
    "Collector",
    "ON_ERROR",
    "OnResult",
    "OnStart",
    "RunRecord",
    "SweepRunner",
    "default_workers",
    "point_key",
    "run_grid",
]
