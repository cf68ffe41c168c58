"""Equivalence of the fast-forward cycle engine vs the full sweep.

The fast engine skips combinational processes whose inputs did not
change, skips idle-declared sequential processes, skips *whole cycles*
when everything is idle, and streams DDRC data beats with batched
memory traffic.  All of that must be invisible: with ``full_sweep=True``
the platform runs the reference per-cycle, per-beat model, and both
modes must produce *cycle-identical* VCD traces (every signal, every
cycle), identical drain cycle counts and identical result records.

The workload list deliberately stresses the DDRC streaming fast path:
wrapping bursts (non-monotonic beat addresses), sub-word beats (byte
store instead of the word-dict fast path) and row-boundary-crossing
bursts (BI-split multi-segment accesses).
"""

from dataclasses import replace

import pytest

from repro.system import PlatformBuilder, paper_topology, scenario
from repro.traffic import (
    single_master_workload,
    table1_pattern_a,
    table1_pattern_c,
    write_heavy_workload,
)
from repro.core.config import config_for_workload
from repro.ddr.timing import DdrTiming
from repro.traffic.patterns import CPU, DMA
from repro.traffic.workloads import MasterSpec, Workload


def _platform(workload, level="tlm", config=None, **options):
    """*workload* on the paper topology, elaborated at *level*."""
    spec = paper_topology(workload=workload, config=config)
    return PlatformBuilder(spec).build(level, **options)


def _wrapping_workload(transactions: int) -> Workload:
    """Every eligible burst is a WRAPx cache-line fill."""
    pat = replace(
        DMA,
        wrap_fraction=1.0,
        burst_mix=((4, 0.3), (8, 0.4), (16, 0.3)),
        read_fraction=0.5,
    )
    specs = tuple(
        MasterSpec(
            f"wrap{i}",
            replace(pat, base_addr=i << 20, addr_span=1 << 20),
            transactions,
        )
        for i in range(2)
    )
    return Workload("wrap_burst", specs, seed=17)


def _subword_workload(transactions: int) -> Workload:
    """Byte-sized beats: the memory model's byte-store path."""
    pat = replace(
        CPU,
        size_bytes=1,
        burst_mix=((4, 0.5), (8, 0.5)),
        read_fraction=0.5,
    )
    specs = tuple(
        MasterSpec(
            f"byte{i}",
            replace(pat, base_addr=i << 20, addr_span=1 << 16),
            transactions,
        )
        for i in range(2)
    )
    return Workload("subword", specs, seed=23)


def _row_split_workload(transactions: int):
    """Bursts that straddle row/bank boundaries → BI-split segments.

    AHB's 1 KB rule clamps incrementing bursts, so with the default
    4 KiB rows a burst can never leave its row; a narrow-column DDR
    geometry (16-word columns) makes every offset 16-beat burst cross a
    bank boundary mid-burst, exercising multi-segment streaming.
    """
    pat = replace(
        DMA,
        sequential_fraction=1.0,
        burst_mix=((16, 1.0),),
        base_addr=32,
        addr_span=1 << 16,
        think_range=(0, 2),
        read_fraction=0.5,
    )
    workload = Workload(
        "row_split", (MasterSpec("splitter", pat, transactions),), seed=29
    )
    config = replace(
        config_for_workload(workload),
        ddr_timing=DdrTiming(row_bits=8, col_bits=4),
    )
    return workload, config


WORKLOADS = [
    pytest.param(lambda: (single_master_workload(25), None), id="single_master"),
    pytest.param(lambda: (table1_pattern_a(25), None), id="pattern_a"),
    pytest.param(lambda: (table1_pattern_c(20), None), id="pattern_c_rt"),
    pytest.param(lambda: (write_heavy_workload(20), None), id="write_heavy"),
    pytest.param(lambda: (_wrapping_workload(20), None), id="wrapping"),
    pytest.param(lambda: (_subword_workload(20), None), id="subword"),
    pytest.param(lambda: _row_split_workload(20), id="row_split"),
]


@pytest.mark.parametrize("make_workload", WORKLOADS)
def test_sensitivity_engine_vcd_identical(make_workload):
    workload, config = make_workload()
    fast = _platform(workload, "rtl", config=config, trace=True)
    reference = _platform(workload, "rtl", config=config, trace=True, full_sweep=True)
    assert fast.engine._sensitivity
    assert not reference.engine._sensitivity

    fast_result = fast.run()
    ref_result = reference.run()

    assert fast_result.cycles == ref_result.cycles
    assert (
        fast.tracer.getvalue() == reference.tracer.getvalue()
    ), "VCD traces diverged between sensitivity and full-sweep engines"
    assert fast_result.transactions == ref_result.transactions
    assert fast_result.filter_stats == ref_result.filter_stats
    assert fast.memory.equal_contents(reference.memory)


@pytest.mark.parametrize("make_workload", WORKLOADS[:2])
def test_sensitivity_engine_does_less_work(make_workload):
    """The point of the fast-forward machinery: fewer evaluations.

    The fast engine elides settle passes with nothing dirty and skips
    fully idle cycle ranges outright, so its evaluate-pass count drops
    strictly below the reference sweep's (which pays at least two per
    cycle) — while both drain at the same cycle.
    """
    workload, config = make_workload()
    fast = _platform(workload, "rtl", config=config)
    reference = _platform(workload, "rtl", config=config, full_sweep=True)
    fast.run()
    reference.run()
    assert reference.engine.cycles_skipped == 0
    assert reference.engine.evaluate_passes >= 2 * reference.engine.cycle
    assert fast.engine.evaluate_passes < reference.engine.evaluate_passes
    assert fast.engine.cycle == reference.engine.cycle


def test_streaming_exercises_the_hard_burst_shapes():
    """The streaming-equality workloads really hit their target paths."""
    wrap = _platform(_wrapping_workload(15), "rtl")
    wrap.run()
    assert any(
        txn.wrapping for agent in wrap.agents for txn in agent.completed
    )
    sub = _platform(_subword_workload(15), "rtl")
    sub.run()
    assert any(
        txn.size_bytes == 1 for agent in sub.agents for txn in agent.completed
    )
    split_workload, split_config = _row_split_workload(15)
    split = _platform(split_workload, "rtl", config=split_config)
    split.run()
    assert split.ddrc.split_bursts > 0


SCENARIOS = [
    pytest.param("mpeg-bursty", {"transactions": 12}, id="mpeg_bursty"),
    pytest.param("multi-slave-soc", {"transactions": 12}, id="multi_slave_soc"),
]


@pytest.mark.parametrize("name,kwargs", SCENARIOS)
def test_fast_forward_scenarios_bit_identical(name, kwargs):
    """Skip-ahead + quiescence + streaming vs the reference sweep.

    The acceptance scenarios: a think-heavy bursty workload (long
    inter-frame gaps the engine should skip over analytically) and the
    multi-slave SoC (response mux, static slaves with their own
    quiescence).  Both modes must agree signal-for-signal and the fast
    engine must actually have skipped cycles.
    """
    spec = scenario(name, **kwargs)
    fast = PlatformBuilder(spec).build("rtl", trace=True)
    reference = PlatformBuilder(spec).build("rtl", trace=True, full_sweep=True)
    fast_result = fast.run()
    ref_result = reference.run()
    assert fast_result.cycles == ref_result.cycles
    assert fast.tracer.getvalue() == reference.tracer.getvalue()
    assert fast_result.transactions == ref_result.transactions
    assert fast_result.filter_stats == ref_result.filter_stats
    assert fast.memory.equal_contents(reference.memory)
    assert fast.engine.cycles_skipped > 0, "skip-ahead never engaged"
    assert reference.engine.cycles_skipped == 0
