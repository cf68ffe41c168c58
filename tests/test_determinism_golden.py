"""Determinism regression: the TLM must replay a committed golden trace.

The hot-path work (single-candidate arbitration fast path, cached
arbitration context, bucketed event queue) must be *observably
equivalence-preserving*: with a fixed seed the engine has to produce the
exact grant sequence, per-filter narrowing statistics and cycle count it
produced before the optimisations.  The golden trace in
``tests/data/golden_trace_pattern_a.json`` was captured from the seed
implementation; any silent reordering of arbitration fails here.  The
trace is replayed through the registry's paper-topology spec and
:class:`~repro.system.PlatformBuilder`, the one way to build a platform.
"""

import json
from pathlib import Path

from repro.system import PlatformBuilder, paper_topology

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_trace_pattern_a.json"


def _run_traced():
    golden = json.loads(GOLDEN_PATH.read_text())
    spec = paper_topology(transactions=golden["transactions_per_master"])
    assert spec.workload.seed == golden["seed"]
    platform = PlatformBuilder(spec).build("tlm")
    trace = []

    def observer(txn, grant, start, finish):
        trace.append(
            [
                txn.master,
                "W" if txn.is_write else "R",
                txn.addr,
                txn.beats,
                int(txn.via_write_buffer),
                grant,
                start,
                finish,
            ]
        )

    platform.attach(observer)
    result = platform.run()
    return golden, trace, result


def test_tlm_replays_golden_trace():
    golden, trace, result = _run_traced()
    assert len(trace) == len(golden["grants"])
    for index, (got, want) in enumerate(zip(trace, golden["grants"])):
        assert got == want, f"grant #{index} diverged: {got} != {want}"
    assert result.cycles == golden["cycles"]
    assert result.filter_stats == golden["filter_stats"]
    assert result.pipelined_grants == golden["pipelined_grants"]
    assert result.absorbed_writes == golden["absorbed_writes"]
    assert result.drained_writes == golden["drained_writes"]
    # A second fresh platform under the same seed replays identically.
    _golden, replay, _result = _run_traced()
    assert replay == trace
