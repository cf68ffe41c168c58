"""Analysis: Table-1 accuracy, the experiment drivers and trace diff.

:func:`paper_results` gathers every cycle-deterministic paper figure;
``python -m repro.analysis`` (``make paper``) writes it to
``paper_results.json``.  Timings are not here: ``make bench`` drives
``perfbench/`` and writes the speed ledger ``BENCH_speed.json``.
"""

from repro.analysis.accuracy import (
    LevelTotals,
    MasterAccuracy,
    Table1Result,
    WorkloadAccuracy,
    compare_models,
    render_table1,
    run_table1,
)
from repro.analysis.experiments import (
    FilterPoint,
    InterleavingPoint,
    QosPoint,
    WriteBufferPoint,
    experiment_bank_interleaving,
    experiment_filters,
    experiment_qos,
    experiment_write_buffer,
    paper_results,
)
from repro.analysis.trace_diff import (
    FUNCTIONAL_FIELDS,
    TraceDiffResult,
    TraceMismatch,
    trace_diff,
)

__all__ = [
    "FUNCTIONAL_FIELDS",
    "FilterPoint",
    "InterleavingPoint",
    "LevelTotals",
    "MasterAccuracy",
    "QosPoint",
    "Table1Result",
    "TraceDiffResult",
    "TraceMismatch",
    "WorkloadAccuracy",
    "WriteBufferPoint",
    "compare_models",
    "experiment_bank_interleaving",
    "experiment_filters",
    "experiment_qos",
    "experiment_write_buffer",
    "paper_results",
    "render_table1",
    "run_table1",
    "trace_diff",
]
