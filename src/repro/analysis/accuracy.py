"""RTL-vs-TLM accuracy comparison — the machinery behind Table 1.

The paper validates the AHB+ TLM by running the same master traffic on
the transaction-level and pin-accurate models and comparing cycle
counts per traffic pattern; the average difference is below 3 %.  This
module reproduces that methodology: one :func:`compare_models` call runs
a workload on both models (identical seeds), checks functional
equivalence (final memory images, per-master read data) and reports the
per-master and total cycle differences.

Execution rides the :class:`~repro.exec.SweepRunner` layer: the two
models are an *engine-axis sweep* of the same paper-topology spec, and
a collector captures the functional evidence (memory image, read
streams, per-master last bus activity) while each platform is alive —
which is what lets one comparison shard over the process backend
(``compare_models(workload, runner=SweepRunner(backend="process"))``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.exec import RunRecord, SweepRunner
from repro.profiling.report import format_table
from repro.system.platform import platform_agents
from repro.system.scenarios import paper_topology
from repro.system.spec import SweepPoint, sweep
from repro.traffic.workloads import Workload

#: Cycle ceiling on the RTL point of a comparison: a model that stops
#: draining fails with a SimulationError instead of running forever.
MAX_RTL_CYCLES = 5_000_000


@dataclass(frozen=True)
class MasterAccuracy:
    """One Table 1 row: a master's cycle count at both levels."""

    master: int
    name: str
    rtl_cycles: int
    tlm_cycles: int

    @property
    def difference(self) -> int:
        """Signed TLM - RTL cycle difference (negative = TLM optimistic)."""
        return self.tlm_cycles - self.rtl_cycles

    @property
    def error_pct(self) -> float:
        """Absolute percentage error against the RTL reference."""
        if self.rtl_cycles == 0:
            return 0.0
        return abs(self.difference) / self.rtl_cycles * 100.0


@dataclass(frozen=True)
class LevelTotals:
    """One abstraction level's whole-run counts on a suite."""

    cycles: int
    transactions: int
    absorbed_writes: int
    drained_writes: int

    @classmethod
    def of(cls, record: RunRecord) -> "LevelTotals":
        return cls(
            cycles=record.cycles,
            transactions=record.transactions,
            absorbed_writes=record.absorbed_writes,
            drained_writes=record.drained_writes,
        )


@dataclass
class WorkloadAccuracy:
    """Accuracy of one traffic-pattern suite."""

    workload: str
    rows: List[MasterAccuracy]
    rtl: LevelTotals
    tlm: LevelTotals

    @property
    def total_error_pct(self) -> float:
        if self.rtl.cycles == 0:
            return 0.0
        return abs(self.tlm.cycles - self.rtl.cycles) / self.rtl.cycles * 100.0


@dataclass
class Table1Result:
    """The full Table 1 regeneration: all suites plus overall averages."""

    suites: List[WorkloadAccuracy] = field(default_factory=list)

    @property
    def average_error_pct(self) -> float:
        """Mean error of the per-suite total cycle counts.

        This is the paper's metric: each traffic configuration is one
        simulation whose cycle count the TLM must reproduce.
        """
        if not self.suites:
            return 0.0
        return sum(s.total_error_pct for s in self.suites) / len(self.suites)

    @property
    def row_average_error_pct(self) -> float:
        """Mean per-master row error (a stricter, noisier view).

        Individual low-priority masters can reorder significantly
        between abstraction levels while the totals stay tight.
        """
        rows = [row for suite in self.suites for row in suite.rows]
        if not rows:
            return 0.0
        return sum(row.error_pct for row in rows) / len(rows)

    @property
    def average_accuracy_pct(self) -> float:
        """The paper's headline '97 % of accuracy on average'."""
        return 100.0 - self.average_error_pct

    @classmethod
    def from_json(cls, suites: Sequence[Dict[str, Any]]) -> "Table1Result":
        """Rebuild a result from its suites' ``dataclasses.asdict`` form."""
        return cls([
            WorkloadAccuracy(
                workload=suite["workload"],
                rows=[MasterAccuracy(**row) for row in suite["rows"]],
                rtl=LevelTotals(**suite["rtl"]),
                tlm=LevelTotals(**suite["tlm"]),
            )
            for suite in suites
        ])


def _last_bus_activity(completed) -> int:
    """Cycle of the master's final *physical* bus effect.

    For posted writes that is the drain reaching memory, not the
    absorption instant — the same observable event in both models, so
    the comparison measures modeling error instead of posting policy.
    """
    return max(max(txn.finished_at, txn.drained_at) for txn in completed)


def _collect_functional(point: SweepPoint, platform, result) -> Dict[str, object]:
    """Functional evidence for the cross-model comparison (picklable).

    The memory image drops zero bytes (zero equals unwritten, matching
    ``MemoryModel.equal_contents``), so two models that wrote the same
    values compare equal however their stores are shaped.
    """
    agents = platform_agents(platform)
    return {
        "image": tuple(
            (addr, byte) for addr, byte in platform.memory.items() if byte
        ),
        "reads": tuple(
            tuple(
                (txn.addr, tuple(txn.data))
                for txn in agent.completed
                if not txn.is_write
            )
            for agent in agents
        ),
        "last_activity": tuple(
            _last_bus_activity(agent.completed) for agent in agents
        ),
    }


def _first_image_difference(
    rtl_image: Tuple[Tuple[int, int], ...], tlm_image: Tuple[Tuple[int, int], ...]
) -> Tuple[int, int, int]:
    """First (addr, rtl_byte, tlm_byte) mismatch between two images."""
    rtl_map, tlm_map = dict(rtl_image), dict(tlm_image)
    for addr in sorted(set(rtl_map) | set(tlm_map)):
        mine, theirs = rtl_map.get(addr, 0), tlm_map.get(addr, 0)
        if mine != theirs:
            return addr, mine, theirs
    raise SimulationError("memory images are identical")


def _first_read_difference(
    rtl_reads: Sequence[Sequence[object]], tlm_reads: Sequence[Sequence[object]]
) -> Tuple[int, int, object, object]:
    """First (master, read index, rtl read, tlm read) mismatch.

    A master whose stream is shorter at one level reports ``None`` for
    the read it lacks.
    """
    for master, (mine, theirs) in enumerate(zip(rtl_reads, tlm_reads)):
        for index in range(max(len(mine), len(theirs))):
            got = mine[index] if index < len(mine) else None
            want = theirs[index] if index < len(theirs) else None
            if got != want:
                return master, index, got, want
    raise SimulationError("read streams are identical")


def compare_models(
    workload: Workload, runner: Optional[SweepRunner] = None
) -> WorkloadAccuracy:
    """Run *workload* at both abstraction levels and compare.

    Functional equivalence (identical final memory image and identical
    per-master read data) is a hard requirement — a mismatch raises,
    because timing accuracy numbers are meaningless if the models
    compute different results.
    """
    spec = paper_topology(workload=workload)
    grid = sweep(spec, axis="engine", values=("rtl", "tlm"))
    # One grid, so the process backend runs both models concurrently;
    # the cycle ceiling bounds only the (slow, per-cycle) RTL point —
    # the TLM stays unbounded exactly as the pre-runner harness ran it.
    rtl_rec, tlm_rec = (runner or SweepRunner()).run(
        grid,
        collect=_collect_functional,
        max_cycles=lambda point: (
            MAX_RTL_CYCLES if point.engine == "rtl" else None
        ),
    )

    if rtl_rec.metric("image") != tlm_rec.metric("image"):
        addr, rtl_byte, tlm_byte = _first_image_difference(
            rtl_rec.metric("image"), tlm_rec.metric("image")  # type: ignore[arg-type]
        )
        raise SimulationError(
            f"functional mismatch on {workload.name}: memory[{addr:#x}] "
            f"RTL={rtl_byte:#04x} TLM={tlm_byte:#04x}"
        )
    if rtl_rec.metric("reads") != tlm_rec.metric("reads"):
        master, index, rtl_read, tlm_read = _first_read_difference(
            rtl_rec.metric("reads"), tlm_rec.metric("reads")  # type: ignore[arg-type]
        )
        raise SimulationError(
            f"functional mismatch on {workload.name}: master {master} "
            f"read #{index} RTL={rtl_read!r} TLM={tlm_read!r}"
        )

    rtl_last = rtl_rec.metric("last_activity")
    tlm_last = tlm_rec.metric("last_activity")
    rows = [
        MasterAccuracy(
            master=index,
            name=spec_.name,
            rtl_cycles=rtl_last[index],  # type: ignore[index]
            tlm_cycles=tlm_last[index],  # type: ignore[index]
        )
        for index, spec_ in enumerate(workload.masters)
    ]
    return WorkloadAccuracy(
        workload=workload.name,
        rows=rows,
        rtl=LevelTotals.of(rtl_rec),
        tlm=LevelTotals.of(tlm_rec),
    )


def run_table1(workloads: Sequence[Workload]) -> Table1Result:
    """Regenerate Table 1 over the given traffic-pattern suites."""
    return Table1Result([compare_models(workload) for workload in workloads])


def render_table1(result: Table1Result) -> str:
    """Table 1: per-pattern, per-master cycle counts and accuracy."""
    headers = ["pattern", "master", "RTL cycles", "TL cycles", "diff", "err %"]
    rows: List[List[str]] = []
    for suite in result.suites:
        for row in suite.rows:
            rows.append(
                [
                    suite.workload,
                    row.name,
                    str(row.rtl_cycles),
                    str(row.tlm_cycles),
                    f"{row.difference:+d}",
                    f"{row.error_pct:.2f}",
                ]
            )
        rows.append(
            [
                suite.workload,
                "TOTAL",
                str(suite.rtl.cycles),
                str(suite.tlm.cycles),
                f"{suite.tlm.cycles - suite.rtl.cycles:+d}",
                f"{suite.total_error_pct:.2f}",
            ]
        )
    body = format_table(headers, rows)
    footer = (
        f"\naverage error (suite totals) : {result.average_error_pct:.2f} %"
        f"\naverage accuracy             : {result.average_accuracy_pct:.2f} % "
        f"(paper: 97 % / avg diff < 3 %)"
        f"\nper-master row error (mean)  : {result.row_average_error_pct:.2f} %"
    )
    return body + footer
