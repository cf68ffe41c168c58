"""Named system scenarios: the paper topology and its extensions.

Every entry is a factory returning a :class:`~repro.system.SystemSpec`;
``scenario(name, **kwargs)`` looks one up by name.  The registry covers

* the paper's four-master / single-DDR platform under each Table-1
  traffic suite plus the ablation workloads (these elaborate to the
  exact systems the legacy builders hard-coded), and
* multi-slave variants — DDR main memory, an SRAM scratchpad and an
  AHB→APB bridge stub — that exercise the decoder's multi-region
  routing at every abstraction level.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, Optional, Tuple

from repro.core.config import AhbPlusConfig
from repro.errors import ConfigError
from repro.system.spec import BusSpec, SlaveSpec, SystemSpec
from repro.core.qos import QosSetting
from repro.traffic.patterns import CPU, DMA, MPEG, WRITER, TrafficPattern
from repro.traffic.workloads import (
    MasterSpec,
    Workload,
    bank_striped_workload,
    saturating_workload,
    single_master_workload,
    table1_pattern_a,
    table1_pattern_b,
    table1_pattern_c,
    write_heavy_workload,
)

# -- the paper topology ---------------------------------------------------------


def paper_topology(
    transactions: int = 250,
    workload: Optional[Workload] = None,
    config: Optional[AhbPlusConfig] = None,
) -> SystemSpec:
    """The paper's system: four masters, one DDR controller at zero.

    With no arguments this is the Table-1 pattern-A platform; pass any
    :class:`Workload` to re-target the same topology.
    """
    bound = workload if workload is not None else table1_pattern_a(transactions)
    return SystemSpec(
        name=f"paper:{bound.name}", workload=bound, bus=BusSpec(config=config)
    )


# -- bursty MPEG-like arrivals ----------------------------------------------------


def mpeg_bursty(
    transactions: int = 180,
    seed: int = 59,
    config: Optional[AhbPlusConfig] = None,
) -> SystemSpec:
    """Bursty MPEG-like arrivals on the paper topology.

    Two decoder streams issue frame-sized clumps of long bursts
    separated by inter-frame gaps (the :data:`~repro.traffic.patterns.
    MPEG` pattern's ``burst_gap``) while a CPU and a writer interfere —
    the bursty arrival process from the scenario backlog.  Both
    abstraction levels replay the identical seeded stream, so the
    scenario is runnable at TLM and RTL alike.
    """
    window = 1 << 20
    specs = (
        MasterSpec(
            "mpeg0",
            replace(MPEG, base_addr=0, addr_span=window),
            transactions,
            QosSetting(real_time=True, objective_cycles=220),
        ),
        MasterSpec(
            "mpeg1",
            replace(MPEG, base_addr=window, addr_span=window),
            transactions,
            QosSetting(real_time=True, objective_cycles=220),
        ),
        MasterSpec(
            "cpu0",
            replace(CPU, base_addr=2 * window, addr_span=window),
            transactions,
        ),
        MasterSpec(
            "writer0",
            replace(WRITER, base_addr=3 * window, addr_span=window),
            transactions,
        ),
    )
    workload = Workload("mpeg_bursty", specs, seed)
    return SystemSpec(
        name="mpeg_bursty", workload=workload, bus=BusSpec(config=config)
    )


# -- trace-driven playback -------------------------------------------------------


def trace_replay(
    transactions: Optional[int] = None,
    source: object = None,
    config: Optional[AhbPlusConfig] = None,
    capture_engine: Optional[str] = None,
    preserve_issue_times: Optional[bool] = None,
    qos: Optional[Dict[int, QosSetting]] = None,
    num_masters: Optional[int] = None,
    master_names: Optional[Tuple[str, ...]] = None,
) -> SystemSpec:
    """Table-1 playback: one captured run, replayed on any engine.

    With no *source* this captures the canonical Table-1 pattern-A run
    once — elaborate the paper topology at *capture_engine*, record
    every transaction with a :class:`~repro.traffic.trace.
    TraceRecorder` — and binds the records as a trace-backed
    :class:`~repro.traffic.Workload`.  The resulting spec is plain
    data (the records travel inline), so it JSON-round-trips and
    pickles into process-backend sweep workers like any other spec;
    elaborating it at ``tlm``, ``plain`` or ``rtl`` replays the
    *identical* per-master transaction sequence, which is the paper's
    Table-1 methodology made literal.

    *source* short-circuits the capture: a trace file path, a record
    sequence, or a prepared :class:`~repro.traffic.trace.TraceSource`.
    ``preserve_issue_times=None`` (the default) anchors replay on the
    captured issue cycles for fresh captures and defers to a prepared
    source's own setting; pass a bool to force either mode.  A trace
    does not archive the bus's QoS register programming (per-transaction
    deadlines it does), so *qos* re-attaches RT settings when replaying
    an archived real-time capture; *num_masters* / *master_names* shape
    the synthesized master specs the same way.
    """
    from repro.system.platform import PlatformBuilder
    from repro.traffic.trace import TraceRecorder
    from repro.traffic.workloads import Workload

    if source is not None and (
        transactions is not None or capture_engine is not None
    ):
        raise ConfigError(
            "transactions/capture_engine only shape a fresh capture; "
            "a source= trace already fixes the record set"
        )
    if source is None and (
        qos is not None or num_masters is not None or master_names is not None
    ):
        raise ConfigError(
            "qos/num_masters/master_names re-shape an archived source= "
            "trace; a fresh capture inherits them from the captured "
            "workload"
        )
    if source is None:
        base = paper_topology(
            transactions=60 if transactions is None else transactions,
            config=config,
        )
        platform = PlatformBuilder(base).build(capture_engine or "tlm")
        recorder = TraceRecorder()
        platform.attach(recorder)
        platform.run()
        workload = Workload.from_trace(
            recorder.records,
            name="trace_replay",
            qos=base.workload.qos_map(),
            num_masters=base.workload.num_masters,
            preserve_issue_times=preserve_issue_times,
            master_names=[spec.name for spec in base.workload.masters],
        )
    else:
        workload = Workload.from_trace(
            source,
            name="trace_replay",
            qos=qos,
            num_masters=num_masters,
            preserve_issue_times=preserve_issue_times,
            master_names=master_names,
        )
    return SystemSpec(
        name="trace_replay", workload=workload, bus=BusSpec(config=config)
    )


# -- multi-slave variants --------------------------------------------------------

#: Memory map of the multi-slave SoC scenarios.
DDR_BASE, DDR_SIZE = 0x0000_0000, 1 << 26
SRAM_BASE, SRAM_SIZE = 0x0800_0000, 1 << 20
APB_BASE, APB_SIZE = 0x0900_0000, 1 << 16

#: Peripheral-register traffic: short single-beat accesses, long think
#: time — a CPU poking control registers through the bridge.
APB_CTRL = TrafficPattern(
    name="apb-ctrl",
    read_fraction=0.5,
    burst_mix=((1, 1.0),),
    think_range=(8, 40),
    sequential_fraction=0.2,
)


def _multi_slave_workload(transactions: int, seed: int) -> Workload:
    """Four masters spread across DDR, SRAM and APB regions.

    Windows are disjoint (and region-aligned) so the final memory image
    is order-independent — the same property the Table-1 suites rely on
    for strict functional equivalence between abstraction levels.
    """
    window = 1 << 20
    specs = (
        MasterSpec(
            "cpu0",
            replace(CPU, base_addr=DDR_BASE, addr_span=window),
            transactions,
        ),
        MasterSpec(
            "dma0",
            replace(DMA, base_addr=DDR_BASE + window, addr_span=window),
            transactions,
        ),
        MasterSpec(
            "io0",
            replace(
                WRITER,
                base_addr=SRAM_BASE,
                addr_span=SRAM_SIZE // 4,
            ),
            transactions,
        ),
        MasterSpec(
            "ctrl0",
            replace(APB_CTRL, base_addr=APB_BASE, addr_span=APB_SIZE),
            transactions,
        ),
    )
    return Workload("multi_slave_soc", specs, seed)


def multi_slave_soc(
    transactions: int = 150,
    seed: int = 41,
    config: Optional[AhbPlusConfig] = None,
) -> SystemSpec:
    """DDR + SRAM scratchpad + APB bridge behind one AHB+ bus.

    The scenario the ROADMAP's multi-slave backlog asks for: three
    mapped regions, four masters whose windows cover all of them, so
    every transfer exercises the decoder's multi-region routing.
    """
    return SystemSpec(
        name="multi_slave_soc",
        workload=_multi_slave_workload(transactions, seed),
        bus=BusSpec(config=config),
        slaves=(
            SlaveSpec(name="ddr", kind="ddr", base=DDR_BASE, size=DDR_SIZE),
            SlaveSpec(
                name="sram",
                kind="sram",
                base=SRAM_BASE,
                size=SRAM_SIZE,
                wait_states=1,
                burst_wait_states=0,
            ),
            SlaveSpec(
                name="apb",
                kind="apb",
                base=APB_BASE,
                size=APB_SIZE,
                setup_cycles=4,
            ),
        ),
    )


def scratchpad_offload(
    transactions: int = 200,
    seed: int = 47,
    config: Optional[AhbPlusConfig] = None,
) -> SystemSpec:
    """DDR + SRAM only: DMA streams DDR while the CPU works scratchpad.

    A smaller multi-slave variant where the scratchpad's one-wait-state
    accesses overlap the DDRC's row management — useful for measuring
    how much bus idle time a second slave can absorb.
    """
    window = 1 << 20
    specs = (
        MasterSpec(
            "cpu0",
            replace(CPU, base_addr=SRAM_BASE, addr_span=SRAM_SIZE // 4),
            transactions,
        ),
        MasterSpec(
            "dma0",
            replace(DMA, base_addr=DDR_BASE, addr_span=window),
            transactions,
        ),
        MasterSpec(
            "dma1",
            replace(DMA, base_addr=DDR_BASE + window, addr_span=window),
            transactions,
        ),
    )
    return SystemSpec(
        name="scratchpad_offload",
        workload=Workload("scratchpad_offload", specs, seed),
        bus=BusSpec(config=config),
        slaves=(
            SlaveSpec(name="ddr", kind="ddr", base=DDR_BASE, size=DDR_SIZE),
            SlaveSpec(
                name="sram", kind="sram", base=SRAM_BASE, size=SRAM_SIZE
            ),
        ),
    )


# -- the registry ----------------------------------------------------------------

SCENARIOS: Dict[str, Callable[..., SystemSpec]] = {
    "paper": paper_topology,
    "paper-pattern-a": lambda transactions=250, **kw: paper_topology(
        workload=table1_pattern_a(transactions), **kw
    ),
    "paper-pattern-b": lambda transactions=250, **kw: paper_topology(
        workload=table1_pattern_b(transactions), **kw
    ),
    "paper-pattern-c": lambda transactions=250, **kw: paper_topology(
        workload=table1_pattern_c(transactions), **kw
    ),
    "single-master": lambda transactions=500, **kw: paper_topology(
        workload=single_master_workload(transactions), **kw
    ),
    "saturating": lambda transactions=300, **kw: paper_topology(
        workload=saturating_workload(transactions), **kw
    ),
    "write-heavy": lambda transactions=300, **kw: paper_topology(
        workload=write_heavy_workload(transactions), **kw
    ),
    "bank-striped": lambda transactions=300, **kw: paper_topology(
        workload=bank_striped_workload(transactions), **kw
    ),
    "mpeg-bursty": mpeg_bursty,
    "trace-replay": trace_replay,
    "multi-slave-soc": multi_slave_soc,
    "scratchpad-offload": scratchpad_offload,
}


def scenario_names() -> Tuple[str, ...]:
    """Registered scenario names, sorted."""
    return tuple(sorted(SCENARIOS))


def scenario(name: str, **kwargs: object) -> SystemSpec:
    """Instantiate a registered scenario by name."""
    try:
        factory = SCENARIOS[name]
    except KeyError:
        raise ConfigError(
            f"unknown scenario {name!r}; choose from {scenario_names()}"
        ) from None
    return factory(**kwargs)
