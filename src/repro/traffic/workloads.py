"""Named workload suites, including the Table 1 reproduction set.

A :class:`Workload` binds traffic patterns, per-master transaction
counts and QoS settings into a reproducible multi-master scenario.  The
three Table 1 suites vary the master mix the way the paper varied its
traffic patterns:

* ``pattern_a`` — burst-heavy (DMA-dominated, high locality),
* ``pattern_b`` — random-heavy (poor locality, many row conflicts),
* ``pattern_c`` — mixed RT/NRT (streaming masters with deadlines under
  CPU + writer interference).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ahb.master import TlmMaster
from repro.canonical import register_content_schema
from repro.ahb.transaction import WRITE_BUFFER_MASTER
from repro.core.qos import QosSetting
from repro.errors import TrafficError
from repro.traffic.faults import FaultInjector, FaultSpec
from repro.traffic.generator import generate_items
from repro.traffic.patterns import (
    AUDIO,
    CPU,
    DMA,
    RANDOM,
    REPLAY,
    VIDEO,
    WRITER,
    TrafficPattern,
)
from repro.traffic.trace import (
    TraceRecord,
    TraceSource,
    group_by_master,
    replay_items,
    trace_masters,
)

#: Where a workload's items come from: drawn from seeded patterns, or
#: replayed verbatim from an archived trace.
WORKLOAD_SOURCES = ("synthetic", "trace")

#: Keys ``Workload.from_dict`` accepts: the ``to_dict`` fields plus the
#: removed generator selector older payloads carry.
_WORKLOAD_KEYS = {"name", "masters", "seed", "source", "trace", "fault", "gen_mode"}


@dataclass(frozen=True)
class MasterSpec:
    """One master's role inside a workload."""

    name: str
    pattern: TrafficPattern
    transactions: int
    qos: QosSetting = field(default_factory=QosSetting)

    def to_dict(self) -> dict:
        """JSON-ready mapping (patterns/QoS nest their own dicts)."""
        return {
            "name": self.name,
            "pattern": self.pattern.to_dict(),
            "transactions": self.transactions,
            "qos": self.qos.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MasterSpec":
        unknown = set(data) - {"name", "pattern", "transactions", "qos"}
        if unknown:
            raise TrafficError(f"unknown MasterSpec fields {sorted(unknown)}")
        missing = {"name", "pattern", "transactions"} - set(data)
        if missing:
            raise TrafficError(f"MasterSpec needs fields {sorted(missing)}")
        return cls(
            name=data["name"],
            pattern=TrafficPattern.from_dict(data["pattern"]),
            transactions=int(data["transactions"]),
            qos=QosSetting.from_dict(data.get("qos", {})),
        )


#: Schema tag of :meth:`Workload.content_key` payloads; bump on
#: incompatible ``to_dict`` change to invalidate every cached key.
WORKLOAD_KEY_SCHEMA = register_content_schema(
    "ahbplus-workload-v1", "repro.traffic.workloads.Workload"
)


@dataclass(frozen=True)
class Workload:
    """A complete, seeded multi-master scenario.

    Synthetic masters draw their items eagerly at build time from
    :func:`~repro.traffic.generator.generate_items`, the one seeded
    generator.
    """

    name: str
    masters: Tuple[MasterSpec, ...]
    seed: int = 1
    #: ``"synthetic"`` draws from the master specs' patterns;
    #: ``"trace"`` replays the bound :class:`TraceSource` verbatim
    #: (build via :meth:`from_trace`).
    source: str = "synthetic"
    trace: Optional[TraceSource] = None
    #: Workload-wide fault model (seeded ERROR/RETRY injection on every
    #: slave); slave-scoped models ride on ``SlaveSpec.fault`` instead.
    fault: Optional[FaultSpec] = None

    def __post_init__(self) -> None:
        if not self.masters:
            raise TrafficError("workload needs at least one master")
        if self.source not in WORKLOAD_SOURCES:
            raise TrafficError(
                f"unknown workload source {self.source!r}; "
                f"choose from {WORKLOAD_SOURCES}"
            )
        if (self.source == "trace") != (self.trace is not None):
            raise TrafficError(
                "trace workloads need trace=; synthetic ones must not "
                "carry a trace source"
            )

    @property
    def num_masters(self) -> int:
        return len(self.masters)

    @property
    def total_transactions(self) -> int:
        return sum(spec.transactions for spec in self.masters)

    def qos_map(self) -> Dict[int, QosSetting]:
        """Master-index → QoS setting map for the platform config."""
        return {
            index: spec.qos
            for index, spec in enumerate(self.masters)
            if spec.qos.real_time
        }

    def build_masters(
        self, extra_faults: Sequence[FaultSpec] = ()
    ) -> List[TlmMaster]:
        """Instantiate fresh traffic agents (one run's worth).

        Synthetic items are generated eagerly, before the run starts.
        Trace workloads replay the archived records instead — every
        engine level gets the identical per-master item sequence,
        issue-order sorted, with the original issue cycles as
        ``not_before`` constraints when the source preserves them.

        ``extra_faults`` carries slave-scoped fault models the platform
        builder collected from the system spec; together with the
        workload's own :attr:`fault` they are stamped onto the items at
        build time — identically at every engine level, which is what
        keeps injected ERROR/RETRY sequences cross-engine deterministic.
        Transactions replayed from a trace keep any restored plan
        (restored plans win over fresh stamping).
        """
        specs: Tuple[FaultSpec, ...] = tuple(
            s
            for s in (self.fault, *extra_faults)
            if s is not None and s.active
        )

        def wrap(items, index: int):
            if not specs:
                return items
            return FaultInjector(items, index, specs)

        if self.source == "trace":
            assert self.trace is not None  # __post_init__ invariant
            grouped = group_by_master(self.trace.resolve())
            uncovered = sorted(
                index
                for index in grouped
                if index != WRITE_BUFFER_MASTER and index >= len(self.masters)
            )
            if uncovered:
                raise TrafficError(
                    f"workload {self.name!r} has {len(self.masters)} "
                    f"masters but its trace names masters {uncovered}; "
                    f"their streams would be dropped"
                )
            return [
                TlmMaster(
                    index,
                    spec.name,
                    wrap(
                        replay_items(
                            grouped.get(index, ()),
                            index,
                            preserve_issue_times=self.trace.preserve_issue_times,
                        ),
                        index,
                    ),
                )
                for index, spec in enumerate(self.masters)
            ]
        return [
            TlmMaster(
                index,
                spec.name,
                wrap(
                    generate_items(
                        spec.pattern, index, spec.transactions, self.seed
                    ),
                    index,
                ),
            )
            for index, spec in enumerate(self.masters)
        ]

    def scaled(self, factor: float) -> "Workload":
        """Same mix with transaction counts scaled by *factor*."""
        if self.source == "trace":
            raise TrafficError(
                "a trace-backed workload replays a fixed record set and "
                "cannot be scaled; transform the trace instead"
            )
        masters = tuple(
            replace(spec, transactions=max(1, int(spec.transactions * factor)))
            for spec in self.masters
        )
        return replace(self, masters=masters)

    def with_seed(self, seed: int) -> "Workload":
        """Same mix under a different seed."""
        return replace(self, seed=seed)

    def content_key(self) -> str:
        """Canonical content address of this scenario description.

        Stable across dict ordering, JSON round-trips and processes
        (sorted-key canonical JSON, not ``hash()``); two workloads with
        equal descriptions — including the seed — share a key.  The
        serving layer folds this into its simulation-request keys via
        :func:`repro.exec.records.point_key`.
        """
        from repro.canonical import stable_hash

        return stable_hash(self.to_dict(), WORKLOAD_KEY_SCHEMA)

    def to_dict(self) -> dict:
        """JSON-ready mapping of the full scenario description."""
        payload = {
            "name": self.name,
            "seed": self.seed,
            "source": self.source,
            "masters": [spec.to_dict() for spec in self.masters],
        }
        if self.trace is not None:
            payload["trace"] = self.trace.to_dict()
        if self.fault is not None:
            payload["fault"] = self.fault.to_dict()
        return payload

    @classmethod
    def from_dict(cls, data: dict) -> "Workload":
        """Rebuild a workload; constructors re-validate all the way down.

        ``gen_mode`` is no field but is still accepted as ``"compat"``:
        older payloads and journals carry it.
        """
        unknown = set(data) - _WORKLOAD_KEYS
        if unknown:
            raise TrafficError(f"unknown Workload fields {sorted(unknown)}")
        missing = {"name", "masters"} - set(data)
        if missing:
            raise TrafficError(f"Workload needs fields {sorted(missing)}")
        # Payloads once named their generator; only the one that is left
        # may still be named, so a request for another fails loudly
        # instead of running different traffic.
        gen_mode = data.get("gen_mode", "compat")
        if gen_mode != "compat":
            raise TrafficError(
                f"traffic generator {gen_mode!r} was removed; the one "
                f"seeded generator is 'compat'"
            )
        raw_trace = data.get("trace")
        raw_fault = data.get("fault")
        return cls(
            name=data["name"],
            masters=tuple(
                MasterSpec.from_dict(spec) for spec in data["masters"]
            ),
            seed=int(data.get("seed", 1)),
            source=str(data.get("source", "synthetic")),
            trace=(
                None if raw_trace is None else TraceSource.from_dict(raw_trace)
            ),
            fault=(
                None if raw_fault is None else FaultSpec.from_dict(raw_fault)
            ),
        )

    # -- trace binding ----------------------------------------------------------

    @classmethod
    def from_trace(
        cls,
        source: "TraceSource | str | Sequence[TraceRecord]",
        name: str = "trace_replay",
        qos: Optional[Dict[int, QosSetting]] = None,
        num_masters: Optional[int] = None,
        preserve_issue_times: Optional[bool] = None,
        master_names: Optional[Sequence[str]] = None,
    ) -> "Workload":
        """Bind an archived trace as a first-class workload.

        *source* is a :class:`~repro.traffic.trace.TraceSource`, a path
        to a JSON-lines trace file (kept path-picklable: sweep workers
        re-read it), or an in-memory record sequence (shipped inline).
        One :class:`MasterSpec` is synthesized per master index up to
        the trace's highest real master (records of the write buffer's
        pseudo-master are ignored — they are bus bookkeeping, not
        offered traffic), carrying the inert ``REPLAY`` pattern and the
        per-master record count; *qos* re-attaches QoS settings the
        trace itself does not archive.  *preserve_issue_times* defaults
        to the source's own setting (``True`` for paths/records) and
        overrides it when given explicitly — including on a prepared
        :class:`TraceSource`.
        """
        if isinstance(source, TraceSource):
            trace = source
            if preserve_issue_times is not None:
                trace = replace(
                    trace, preserve_issue_times=preserve_issue_times
                )
        else:
            anchored = (
                True if preserve_issue_times is None else preserve_issue_times
            )
            if isinstance(source, (str, os.PathLike)):
                trace = TraceSource(
                    path=os.fspath(source), preserve_issue_times=anchored
                )
            else:
                trace = TraceSource(
                    records=tuple(source), preserve_issue_times=anchored
                )
        records = trace.resolve()
        indices = trace_masters(records)
        if not indices:
            raise TrafficError(f"trace for workload {name!r} has no records")
        count = max(indices) + 1
        if num_masters is not None:
            if num_masters < count:
                raise TrafficError(
                    f"trace names master {max(indices)} but num_masters is "
                    f"{num_masters}"
                )
            count = num_masters
        if master_names is not None and len(master_names) != count:
            raise TrafficError(
                f"need {count} master names, got {len(master_names)}"
            )
        per_master: Dict[int, int] = {index: 0 for index in range(count)}
        for record in records:
            if record.master in per_master:
                per_master[record.master] += 1
        qos = qos or {}
        stray = sorted(index for index in qos if not 0 <= index < count)
        if stray:
            raise TrafficError(
                f"qos names masters {stray} outside the trace's "
                f"0..{count - 1} range"
            )
        specs = tuple(
            MasterSpec(
                name=(
                    master_names[index]
                    if master_names is not None
                    else f"m{index}"
                ),
                pattern=REPLAY,
                transactions=per_master[index],
                qos=qos.get(index, QosSetting()),
            )
            for index in range(count)
        )
        return cls(name=name, masters=specs, source="trace", trace=trace)


def _window(pattern: TrafficPattern, index: int, window: int = 1 << 20) -> TrafficPattern:
    """Give each master a disjoint address window.

    Disjoint windows keep the final memory image order-independent, so
    functional equivalence between abstraction levels is a strict check
    even when arbitration orders differ slightly.
    """
    return replace(pattern, base_addr=index * window, addr_span=window)


def table1_pattern_a(transactions: int = 250, seed: int = 11) -> Workload:
    """Burst-heavy suite: three DMA-style movers and one CPU."""
    specs = (
        MasterSpec("cpu0", _window(CPU, 0), transactions),
        MasterSpec("dma0", _window(DMA, 1), transactions),
        MasterSpec("dma1", _window(DMA, 2), transactions),
        MasterSpec("dma2", _window(DMA, 3), transactions),
    )
    return Workload("pattern_a", specs, seed)


def table1_pattern_b(transactions: int = 250, seed: int = 22) -> Workload:
    """Random-heavy suite: poor locality, short transfers."""
    specs = (
        MasterSpec("rand0", _window(RANDOM, 0), transactions),
        MasterSpec("rand1", _window(RANDOM, 1), transactions),
        MasterSpec("cpu0", _window(CPU, 2), transactions),
        MasterSpec("writer0", _window(WRITER, 3), transactions),
    )
    return Workload("pattern_b", specs, seed)


def table1_pattern_c(transactions: int = 250, seed: int = 33) -> Workload:
    """Mixed RT/NRT suite: streaming masters with QoS under interference."""
    specs = (
        MasterSpec(
            "video0",
            _window(VIDEO, 0),
            transactions,
            QosSetting(real_time=True, objective_cycles=180),
        ),
        MasterSpec(
            "audio0",
            _window(AUDIO, 1),
            transactions,
            QosSetting(real_time=True, objective_cycles=160),
        ),
        MasterSpec("cpu0", _window(CPU, 2), transactions),
        MasterSpec("writer0", _window(WRITER, 3), transactions),
    )
    return Workload("pattern_c", specs, seed)


def table1_workloads(transactions: int = 250) -> List[Workload]:
    """The three suites whose rows regenerate Table 1."""
    return [
        table1_pattern_a(transactions),
        table1_pattern_b(transactions),
        table1_pattern_c(transactions),
    ]


def single_master_workload(
    transactions: int = 500, seed: int = 7, pattern: Optional[TrafficPattern] = None
) -> Workload:
    """One CPU master — the paper's 'pure bus performance' speed case."""
    chosen = pattern if pattern is not None else CPU
    return Workload(
        "single_master",
        (MasterSpec("solo", _window(chosen, 0), transactions),),
        seed,
    )


def saturating_workload(
    transactions: int = 300, seed: int = 5, rt_objective: int = 90
) -> Workload:
    """An RT stream fighting three greedy NRT masters (QoS experiment).

    The video master sits at the *highest* master index, i.e. the lowest
    fixed priority: the plain AHB arbiter starves it behind the DMA
    engines, while the AHB+ urgency filter pre-empts on its deadline —
    exactly the paper's motivation ("AMBA2.0 ... cannot guarantee
    master's QoS").
    """
    hungry = replace(DMA, think_range=(0, 0), burst_mix=((16, 1.0),))
    video = replace(
        VIDEO, period=120, deadline_offset=rt_objective, burst_mix=((8, 1.0),)
    )
    # The NRT movers carry several times the RT stream's transaction
    # count so the bus stays saturated for the whole RT window.
    specs = (
        MasterSpec("dma0", _window(hungry, 0), transactions * 5),
        MasterSpec("dma1", _window(hungry, 1), transactions * 5),
        MasterSpec("dma2", _window(hungry, 2), transactions * 5),
        MasterSpec(
            "video0",
            _window(video, 3),
            transactions,
            QosSetting(real_time=True, objective_cycles=rt_objective),
        ),
    )
    return Workload("saturating", specs, seed)


def write_heavy_workload(transactions: int = 300, seed: int = 9) -> Workload:
    """Write-dominated mix (write-buffer experiment)."""
    specs = (
        MasterSpec("writer0", _window(WRITER, 0), transactions),
        MasterSpec("writer1", _window(WRITER, 1), transactions),
        MasterSpec("cpu0", _window(CPU, 2), transactions),
        MasterSpec("dma0", _window(DMA, 3), transactions),
    )
    return Workload("write_heavy", specs, seed)


def bank_striped_workload(
    transactions: int = 300,
    seed: int = 13,
    row_bytes: int = 1 << 12,
    num_banks: int = 4,
    rows: int = 64,
) -> Workload:
    """Masters row-striding inside private banks (interleaving experiment).

    Master *i* owns bank *i* and advances one full DDR row per access,
    so *every* access opens a new row.  Without the Bus Interface each
    row open serialises behind the previous data transfer; with the BI
    the arbiter's next-transaction info lets the DDRC overlap the
    precharge/activate with the in-flight burst — the paper's bank
    interleaving.  (Defaults match the DDR_266 geometry: 4 KiB rows,
    4 banks.)
    """
    row_group = row_bytes * num_banks  # bytes between consecutive rows of a bank

    def striped(index: int) -> TrafficPattern:
        return replace(
            DMA,
            base_addr=index * row_bytes,
            addr_span=(rows - 1) * row_group + row_bytes,
            sequential_fraction=1.0,
            stride_bytes=row_group,
            burst_mix=((16, 1.0),),
            think_range=(0, 0),
            read_fraction=1.0,
        )

    specs = tuple(
        MasterSpec(f"stream{i}", striped(i), transactions)
        for i in range(num_banks)
    )
    return Workload("bank_striped", specs, seed)
