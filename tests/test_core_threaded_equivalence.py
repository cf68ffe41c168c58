"""Method-based vs thread-based engine equivalence (paper §4).

The thread engine reuses the method bus's semantics and adds only its
thread scheduling; these tests keep that scheduling honest: the whole
run result, every master's transaction stream and the final memory
images must agree, on every registered scenario and across the config
switches that change arbitration, buffering and the BI.  The speed
benchmark then shows the method engine is faster for *free*, i.e.
purely from engine overhead.
"""

import dataclasses
from dataclasses import replace

import pytest

from repro.ahb.master import TlmMaster
from repro.core import AhbPlusBusTlm, ThreadedAhbPlusBus
from repro.core.config import config_for_workload
from repro.errors import ConfigError
from repro.system import PlatformBuilder
from repro.system.scenarios import paper_topology, scenario, scenario_names
from repro.traffic import (
    bank_striped_workload,
    saturating_workload,
    single_master_workload,
    table1_pattern_a,
    table1_pattern_b,
    table1_pattern_c,
    write_heavy_workload,
)

WORKLOADS = [
    single_master_workload(40),
    table1_pattern_a(40),
    table1_pattern_b(40),
    table1_pattern_c(40),
    write_heavy_workload(40),
    bank_striped_workload(40),
    saturating_workload(15),
    table1_pattern_a(40, seed=999),
]

CONFIGS = {
    "round_robin": {"tie_break": "round_robin"},
    "wb_depth_1": {"write_buffer_depth": 1},
    "wb_off": {"write_buffer_enabled": False},
    "bi_off": {"bus_interface_enabled": False},
    "no_bank_urgency": {"disabled_filters": ("bank", "urgency")},
}

CONFIG_WORKLOADS = (table1_pattern_a, table1_pattern_b, write_heavy_workload)


def _streams(platform):
    return [
        [(t.addr, t.kind.value, t.finished_at, t.resp, tuple(t.data)) for t in m.completed]
        for m in platform.masters
    ]


def assert_engines_agree(spec):
    method = PlatformBuilder(spec).build("tlm")
    thread = PlatformBuilder(spec).build("tlm-threaded")
    assert isinstance(thread.bus, ThreadedAhbPlusBus)
    method_result = method.run()
    thread_result = thread.run()
    assert dataclasses.asdict(thread_result) == dataclasses.asdict(method_result)
    assert _streams(thread) == _streams(method)
    assert method.memory.equal_contents(thread.memory)
    # On-chip (SRAM) slaves keep their own backing stores.
    for m_slave, t_slave in zip(method.slaves, thread.slaves):
        assert getattr(m_slave, "_store", None) == getattr(t_slave, "_store", None)


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: f"{w.name}-{w.seed}")
def test_thread_engine_matches_method_engine(workload):
    assert_engines_agree(paper_topology(workload=workload))


@pytest.mark.parametrize("name", scenario_names())
def test_thread_engine_matches_method_engine_on_scenarios(name):
    assert_engines_agree(scenario(name, transactions=40))


@pytest.mark.parametrize("overrides", CONFIGS.values(), ids=list(CONFIGS))
@pytest.mark.parametrize("make", CONFIG_WORKLOADS, ids=lambda f: f.__name__)
def test_thread_engine_matches_method_engine_across_configs(make, overrides):
    spec = paper_topology(workload=make(40)).with_config(**overrides)
    assert_engines_agree(spec)


@pytest.mark.parametrize("engine", [AhbPlusBusTlm, ThreadedAhbPlusBus])
def test_engine_rejects_empty_slave_list(engine):
    masters = [TlmMaster(0, "cpu", ())]
    with pytest.raises(ConfigError, match="at least one slave"):
        engine(masters, [])


def test_thread_engine_rejects_zero_lead():
    workload = table1_pattern_a(5)
    cfg = replace(config_for_workload(workload), pipeline_lead=0)
    with pytest.raises(ConfigError):
        PlatformBuilder(paper_topology(workload=workload, config=cfg)).build(
            "tlm-threaded"
        )


def test_thread_engine_without_pipelining():
    workload = table1_pattern_a(30)
    cfg = replace(config_for_workload(workload), request_pipelining=False)
    builder = PlatformBuilder(paper_topology(workload=workload, config=cfg))
    method = builder.build("tlm").run()
    thread = builder.build("tlm-threaded").run()
    assert method.cycles == thread.cycles
