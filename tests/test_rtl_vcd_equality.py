"""Event-driven RTL vs exhaustive reference sweep: VCD equality.

The quiescence/skip-ahead machinery must be invisible in the waveforms:
for every workload family the paper's experiments use — the Table-1
patterns, the MPEG-style bursty SoC, the multi-slave decode, replayed
traces and fault-injected runs — the fast engine's VCD dump is
byte-identical to the ``full_sweep=True`` reference, and both runs agree
on every observable counter.  ``full_sweep`` stays the ground truth; the
event-driven engine is only allowed to be cheaper.
"""

from dataclasses import replace

import pytest

from repro.system import PlatformBuilder, scenario
from repro.traffic.faults import FaultSpec


def _vcd_pair(spec):
    fast = PlatformBuilder(spec).build("rtl", trace=True)
    fast_result = fast.run()
    ref = PlatformBuilder(spec).build("rtl", trace=True, full_sweep=True)
    ref_result = ref.run()
    return fast, fast_result, ref, ref_result


def _assert_identical(fast, fast_result, ref, ref_result):
    # The engines must actually differ in machinery...
    assert fast.engine._quiescence
    assert not ref.engine._quiescence
    assert ref.engine.cycles_skipped == 0
    # ...and agree on everything observable, down to the waveform bytes.
    assert fast_result.cycles == ref_result.cycles
    assert fast_result.transactions == ref_result.transactions
    assert fast_result.bytes_transferred == ref_result.bytes_transferred
    assert fast_result.per_master_transactions == (
        ref_result.per_master_transactions
    )
    assert fast.memory.equal_contents(ref.memory)
    assert fast.tracer.getvalue() == ref.tracer.getvalue()


SCENARIO_CASES = [
    ("paper-pattern-a", {"transactions": 40}),
    ("paper-pattern-b", {"transactions": 40}),
    ("paper-pattern-c", {"transactions": 40}),
    ("mpeg-bursty", {"transactions": 40}),
    ("multi-slave-soc", {"transactions": 40}),
    ("trace-replay", {}),
    # Pin the NET-WAKE hwdata waivers (see LINT_WAIVERS on DdrcRtl and
    # StaticSlaveRtl): write bursts sample bus.hwdata mid-stream without
    # a wake_on entry, on the claim that the FSMs never idle between
    # accepted address phase and final beat.  Write-heavy traffic
    # through the DDRC and the scratchpad slave must stay VCD-identical
    # to the full sweep, or the waiver claim is wrong.
    ("write-heavy", {"transactions": 40}),
    ("scratchpad-offload", {"transactions": 40}),
]


@pytest.mark.parametrize(
    "name,kwargs", SCENARIO_CASES, ids=[c[0] for c in SCENARIO_CASES]
)
def test_scenario_vcd_identical(name, kwargs):
    spec = scenario(name, **kwargs)
    _assert_identical(*_vcd_pair(spec))


def test_fault_injected_vcd_identical():
    spec = scenario("paper-pattern-a", transactions=40)
    faulty = replace(
        spec,
        workload=replace(
            spec.workload,
            fault=FaultSpec(seed=5, error_rate=0.08, retry_rate=0.15),
        ),
    )
    fast, fast_result, ref, ref_result = _vcd_pair(faulty)
    _assert_identical(fast, fast_result, ref, ref_result)
    # The faults really fired — this case exercises RETRY/ERROR paths.
    assert fast_result.retry_responses + fast_result.error_responses > 0


def test_fast_engine_skips_on_sparse_traffic():
    # A think-heavy single master leaves most cycles globally idle; the
    # event-driven engine must skip them while staying VCD-identical.
    spec = scenario("single-master", transactions=15)
    fast, fast_result, ref, ref_result = _vcd_pair(spec)
    _assert_identical(fast, fast_result, ref, ref_result)
    assert fast.engine.cycles_skipped > 0
