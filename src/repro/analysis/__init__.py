"""Analysis: accuracy (Table 1), speed (§4), tables and experiment drivers.

``speed`` is the paper's §4 TLM-vs-RTL experiment.  The repository's
speed ledger and regression gate are not here: ``make bench`` drives
``perfbench/`` and writes ``BENCH_speed.json``.
"""

from repro.analysis.accuracy import (
    MasterAccuracy,
    Table1Result,
    WorkloadAccuracy,
    compare_models,
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
    experiment_speed,
    experiment_table1,
    experiment_write_buffer,
)
from repro.analysis.speed import (
    SpeedReport,
    SpeedSample,
    kernel_comparison,
    measure_rtl,
    measure_tlm,
    speed_comparison,
)
from repro.analysis.tables import render_speed, render_table1
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
    "MasterAccuracy",
    "QosPoint",
    "SpeedReport",
    "SpeedSample",
    "Table1Result",
    "TraceDiffResult",
    "TraceMismatch",
    "WorkloadAccuracy",
    "WriteBufferPoint",
    "compare_models",
    "experiment_bank_interleaving",
    "experiment_filters",
    "experiment_qos",
    "experiment_speed",
    "experiment_table1",
    "experiment_write_buffer",
    "kernel_comparison",
    "measure_rtl",
    "measure_tlm",
    "render_speed",
    "render_table1",
    "run_table1",
    "speed_comparison",
    "trace_diff",
]
