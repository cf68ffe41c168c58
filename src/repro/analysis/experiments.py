"""The paper's experiment drivers and its committed figures.

Each driver regenerates one paper figure; :func:`paper_results` runs
them all at fixed scales, and ``python -m repro.analysis`` (``make
paper``) writes that to ``paper_results.json``, which a tier-1 test
compares exactly.  Everything is deterministic given the workload
seeds.

Every ablation follows one shape: describe the system once as a
:class:`~repro.system.SystemSpec` (via the scenario registry), expand
it along exactly one axis with :func:`repro.system.sweep`, and hand the
grid to a :class:`~repro.exec.SweepRunner` — no per-experiment run
loops.  Extra per-point measurements (write latencies, bank counters,
deadline stats) come from module-level *collectors*, which keeps every
grid shardable over the process backend with records guaranteed
identical to a serial run.  The QoS comparison sweeps the *engine*
axis (plain AHB vs AHB+ on the same spec), which is the paper's
portability claim as an experiment.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.analysis.accuracy import run_table1
from repro.core.config import SWITCHABLE_FILTERS
from repro.exec import SweepRunner
from repro.system.platform import platform_agents
from repro.system.scenarios import paper_topology
from repro.system.spec import SweepPoint, sweep
from repro.traffic.workloads import (
    bank_striped_workload,
    saturating_workload,
    table1_workloads,
    write_heavy_workload,
)


# -- ablation A2: write buffer --------------------------------------------------


@dataclass
class WriteBufferPoint:
    """One write-buffer configuration's outcome."""

    label: str
    depth: int
    cycles: int
    absorbed: int
    mean_write_latency: float


def _collect_write_latency(
    point: SweepPoint, platform, result
) -> Dict[str, object]:
    """Mean write latency across all masters (collector, picklable)."""
    writes = [
        txn
        for agent in platform_agents(platform)
        for txn in agent.completed
        if txn.is_write
    ]
    mean = (
        sum(txn.finished_at - txn.issued_at for txn in writes) / len(writes)
        if writes
        else 0.0
    )
    return {"mean_write_latency": mean}


#: The A2 sweep: the buffer off, then each of these depths.
WRITE_BUFFER_DEPTHS = (1, 2, 4, 8)


def experiment_write_buffer(transactions: int) -> List[WriteBufferPoint]:
    """Write-buffer off + depth sweep on a write-heavy workload."""
    spec = paper_topology(workload=write_heavy_workload(transactions))
    grid = sweep(
        spec, axis="write_buffer_enabled", values=(False,), labels=("off",)
    )
    grid += sweep(
        spec,
        axis="write_buffer_depth",
        values=WRITE_BUFFER_DEPTHS,
        labels=tuple(f"depth{d}" for d in WRITE_BUFFER_DEPTHS),
    )
    records = SweepRunner().run(grid, collect=_collect_write_latency)
    return [
        WriteBufferPoint(
            label=record.label,
            depth=(
                0
                if record.axis == "write_buffer_enabled"
                else int(record.value)
            ),
            cycles=record.cycles,
            absorbed=record.absorbed_writes,
            mean_write_latency=record.metric("mean_write_latency"),  # type: ignore[arg-type]
        )
        for record in records
    ]


# -- ablation A3: bank interleaving via the BI --------------------------------------


@dataclass
class InterleavingPoint:
    """BI on/off outcome on the bank-striped workload."""

    label: str
    cycles: int
    utilization: float
    prepared_banks: int
    row_hit_rate: float


def _collect_bank_stats(
    point: SweepPoint, platform, result
) -> Dict[str, object]:
    """DDRC bank-management counters (collector, picklable)."""
    return {
        "prepared_banks": platform.ddrc.prepared_banks,
        "row_hit_rate": platform.ddrc.row_hit_rate(),
    }


def experiment_bank_interleaving(transactions: int) -> List[InterleavingPoint]:
    """BI on vs off: throughput and DDR utilization on striped traffic."""
    spec = paper_topology(workload=bank_striped_workload(transactions))
    grid = sweep(
        spec,
        axis="bus_interface_enabled",
        values=(True, False),
        labels=("bi-on", "bi-off"),
    )
    records = SweepRunner().run(grid, collect=_collect_bank_stats)
    return [
        InterleavingPoint(
            label=record.label,
            cycles=record.cycles,
            utilization=record.utilization,
            prepared_banks=record.metric("prepared_banks"),  # type: ignore[arg-type]
            row_hit_rate=record.metric("row_hit_rate"),  # type: ignore[arg-type]
        )
        for record in records
    ]


# -- ablation A4: QoS guarantee (plain AHB vs AHB+) -----------------------------------


@dataclass
class QosPoint:
    """Deadline performance of one bus architecture."""

    label: str
    cycles: int
    rt_transactions: int
    deadline_misses: int
    worst_latency: int

    @property
    def miss_rate(self) -> float:
        if self.rt_transactions == 0:
            return 0.0
        return self.deadline_misses / self.rt_transactions


def _collect_deadline_stats(
    point: SweepPoint, platform, result
) -> Dict[str, object]:
    """RT master deadline outcomes (collector, picklable).

    The RT master index comes from the point's own workload, so the
    collector is self-contained and works inside pool workers.
    """
    rt_index = next(iter(point.spec.workload.qos_map()))
    rt_txns = platform_agents(platform)[rt_index].completed
    return {
        "rt_transactions": len(rt_txns),
        "rt_misses": sum(
            1 for txn in rt_txns if txn.met_deadline is False
        ),
        "rt_worst_latency": max(
            (txn.finished_at - txn.issued_at) for txn in rt_txns
        ),
    }


def experiment_qos(transactions: int) -> List[QosPoint]:
    """Paper motivation: AMBA2.0 cannot guarantee QoS; AHB+ can.

    One spec, two engines — the sweep axis is the abstraction itself.
    """
    spec = paper_topology(workload=saturating_workload(transactions))
    grid = sweep(
        spec,
        axis="engine",
        values=("plain", "tlm"),
        labels=("plain-ahb", "ahb+"),
    )
    records = SweepRunner().run(grid, collect=_collect_deadline_stats)
    return [
        QosPoint(
            label=record.label,
            cycles=record.cycles,
            rt_transactions=record.metric("rt_transactions"),  # type: ignore[arg-type]
            deadline_misses=record.metric("rt_misses"),  # type: ignore[arg-type]
            worst_latency=record.metric("rt_worst_latency"),  # type: ignore[arg-type]
        )
        for record in records
    ]


# -- ablation A5: arbitration filters ----------------------------------------------------


@dataclass
class FilterPoint:
    """Outcome with one filter disabled."""

    disabled: str
    cycles: int
    rt_misses: int
    utilization: float


def filter_ablation_grid(transactions: int = 120) -> List[SweepPoint]:
    """The A5 grid: each switchable filter disabled in turn.

    perfbench's ``tlm-sweep`` times this exact grid as its second
    operation (``op2``), and its record digests pin the grid's records.
    """
    spec = paper_topology(workload=saturating_workload(transactions // 2))
    cases: List[Tuple[str, Tuple[str, ...]]] = [("none", ())]
    cases.extend((name, (name,)) for name in SWITCHABLE_FILTERS)
    # The urgency and real-time filters back each other up; disabling
    # both removes the QoS guarantee entirely.
    cases.append(("urgency+real-time", ("urgency", "real-time")))
    return sweep(
        spec,
        axis="disabled_filters",
        values=tuple(disabled for _label, disabled in cases),
        labels=tuple(label for label, _disabled in cases),
    )


def experiment_filters(transactions: int) -> List[FilterPoint]:
    """Disable each switchable filter in turn under RT saturation.

    The saturating workload (RT stream at lowest priority, three greedy
    DMA movers) is where arbitration decisions matter: disabling the
    urgency or real-time filters costs stream deadlines.
    """
    records = SweepRunner().run(filter_ablation_grid(transactions))
    return [
        FilterPoint(
            disabled=record.label,
            cycles=record.cycles,
            rt_misses=record.rt_deadline_misses,
            utilization=record.utilization,
        )
        for record in records
    ]


# -- the committed paper figures ------------------------------------------------------


def _figure(driver: Callable[[int], Sequence[Any]], transactions: int) -> Dict[str, object]:
    return {
        "transactions": transactions,
        "points": [asdict(point) for point in driver(transactions)],
    }


def paper_results() -> Dict[str, object]:
    """Every cycle-deterministic paper figure, as one JSON-able dict.

    Table 1 runs at the paper's 250 transactions per master; the
    ablations run at the scales that keep the whole set near two
    seconds.  ``make paper`` writes this to ``paper_results.json``.
    """
    return {
        "table1": _figure(lambda n: run_table1(table1_workloads(n)).suites, 250),
        "qos": _figure(experiment_qos, 50),
        "bank_interleaving": _figure(experiment_bank_interleaving, 100),
        "write_buffer": _figure(experiment_write_buffer, 100),
        "filters": _figure(experiment_filters, 50),
    }
