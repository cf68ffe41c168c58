"""Trace-driven playback across engines: the Table-1 methodology, literal.

Pins the PR's acceptance criteria:

* a trace captured at TLM, bound as a trace-backed ``Workload`` inside
  a ``SystemSpec``, replays at plain-AHB and RTL with an identical
  per-transaction (master, kind, addr, beats, data) sequence,
* the spec — trace and all — survives the JSON round-trip and the
  process-backend ``SweepRunner`` (records loadable in-worker from a
  path or an inline payload), and
* the ``trace-replay`` scenario is registered and runnable at every
  level.
"""

import json

import pytest

from repro.analysis import trace_diff
from repro.errors import TrafficError
from repro.exec import SweepRunner
from repro.system import PlatformBuilder, scenario
from repro.system.spec import SystemSpec, sweep
from repro.traffic import (
    REPLAY,
    TraceRecorder,
    TraceSource,
    Workload,
    save_trace,
)

TRANSACTIONS = 15


def _capture(level="tlm", transactions=TRANSACTIONS):
    """Run pattern-A at *level* and return the recorded trace."""
    spec = scenario("paper-pattern-a", transactions=transactions)
    platform = PlatformBuilder(spec).build(level)
    recorder = TraceRecorder()
    platform.attach(recorder)
    platform.run()
    return recorder.records


def _replay(spec, level):
    platform = PlatformBuilder(spec).build(level)
    recorder = TraceRecorder()
    platform.attach(recorder)
    result = platform.run()
    return recorder.records, result


@pytest.fixture(scope="module")
def captured():
    return _capture()


@pytest.fixture(scope="module")
def replay_spec(captured):
    return scenario("trace-replay", source=tuple(captured))


class TestTraceBackedWorkload:
    def test_from_trace_synthesizes_master_specs(self, captured):
        workload = Workload.from_trace(tuple(captured))
        assert workload.source == "trace"
        assert workload.num_masters == 4
        assert all(spec.pattern is REPLAY for spec in workload.masters)
        assert [spec.transactions for spec in workload.masters] == [
            TRANSACTIONS
        ] * 4

    def test_from_trace_rejects_bad_shapes(self, captured):
        with pytest.raises(TrafficError, match="records"):
            Workload.from_trace(())
        # A trace holding only write-buffer bookkeeping has no masters.
        from dataclasses import replace

        from repro.ahb.transaction import WRITE_BUFFER_MASTER

        drains_only = (replace(captured[0], master=WRITE_BUFFER_MASTER),)
        with pytest.raises(TrafficError, match="pseudo-master 255"):
            Workload.from_trace(drains_only)
        with pytest.raises(TrafficError, match="num_masters"):
            Workload.from_trace(tuple(captured), num_masters=2)
        with pytest.raises(TrafficError, match="names"):
            Workload.from_trace(tuple(captured), master_names=["a"])

    def test_write_buffer_records_are_refused_not_dropped(self):
        """No master issued a record under the write buffer's
        pseudo-master, so replay cannot place it: loading or building a
        workload from such a trace names the record instead of running
        one transaction short."""
        from dataclasses import replace

        from repro.ahb.transaction import WRITE_BUFFER_MASTER

        clean = tuple(_capture(transactions=5))
        assert len(clean) == 20
        spoiled = list(clean)
        spoiled[7] = replace(spoiled[7], master=WRITE_BUFFER_MASTER)
        with pytest.raises(TrafficError, match="trace record 7 .*pseudo-master"):
            Workload.from_trace(tuple(spoiled))
        workload = replace(
            Workload.from_trace(clean),
            trace=TraceSource(records=tuple(spoiled)),
        )
        with pytest.raises(TrafficError, match="trace record 7"):
            workload.build_masters()

    def test_trace_workload_validation(self, captured):
        workload = Workload.from_trace(tuple(captured))
        with pytest.raises(TrafficError, match="scaled"):
            workload.scaled(0.5)
        with pytest.raises(TrafficError, match="trace"):
            Workload("bad", workload.masters, source="trace")  # no trace=

    def test_preserve_issue_times_overrides_prepared_source(self, captured):
        source = TraceSource(records=tuple(captured))  # anchored default
        workload = Workload.from_trace(source, preserve_issue_times=False)
        assert workload.trace.preserve_issue_times is False
        master = workload.build_masters()[0]
        assert master.earliest_request() == 0  # closed loop: no anchor
        kept = Workload.from_trace(source)
        assert kept.trace.preserve_issue_times is True

    def test_workload_json_round_trip(self, captured):
        workload = Workload.from_trace(tuple(captured))
        clone = Workload.from_dict(json.loads(json.dumps(workload.to_dict())))
        assert clone == workload
        items = clone.build_masters()[0]._items
        assert items is not None  # builds without touching disk

    def test_spec_json_round_trip(self, replay_spec):
        clone = SystemSpec.from_dict(
            json.loads(json.dumps(replay_spec.to_dict()))
        )
        assert clone == replay_spec


class TestCrossEngineEquivalence:
    def test_tlm_capture_replays_identically_everywhere(self, replay_spec):
        """The acceptance criterion: capture at TLM, replay at RTL and
        plain-AHB, per-transaction (master, kind, addr, beats, data)
        sequences identical."""
        reference, _ = _replay(replay_spec, "tlm")
        for level in ("plain", "rtl"):
            records, result = _replay(replay_spec, level)
            assert result.transactions == 4 * TRANSACTIONS
            diff = trace_diff(reference, records)
            assert diff.functionally_identical, (
                f"tlm vs {level}: {diff.summary()}\n"
                + "\n".join(m.describe() for m in diff.mismatches[:5])
            )

    def test_rtl_capture_replays_at_tlm(self):
        """RTL-recorded traces carry sound timestamps (the recorder
        asserts stamped-vs-observed consistency) and replay cleanly."""
        rtl_trace = _capture("rtl", transactions=8)
        spec = scenario("trace-replay", source=tuple(rtl_trace))
        replayed, _ = _replay(spec, "tlm")
        diff = trace_diff(rtl_trace, replayed)
        assert diff.functionally_identical, diff.summary()

    def test_trace_diff_flags_divergence(self, captured):
        from dataclasses import replace

        tampered = list(captured)
        tampered[3] = replace(tampered[3], addr=tampered[3].addr ^ 0x40)
        diff = trace_diff(captured, tampered)
        assert not diff.functionally_identical
        assert diff.mismatches[0].field == "addr"
        assert "DIFFERENT" in diff.summary()

    def test_preserved_issue_times_reproduce_capture_timing(
        self, captured, replay_spec
    ):
        """Replaying at the capture engine lands on the captured cycles:
        the issue anchors reconstruct the original arrival process."""
        records, _ = _replay(replay_spec, "tlm")
        diff = trace_diff(captured, records)
        assert diff.functionally_identical
        assert diff.max_finish_skew == 0


class TestTraceSweeps:
    def test_engine_axis_process_sweep_matches_serial(self, replay_spec):
        grid = sweep(replay_spec, axis="engine", values=["tlm", "plain", "rtl"])
        serial = SweepRunner(backend="serial").run(grid)
        process = SweepRunner(backend="process", workers=2).run(grid)
        assert serial == process

    def test_path_backed_spec_loads_in_worker(self, captured, tmp_path):
        path = tmp_path / "pattern_a.jsonl"
        save_trace(captured, path)
        spec = scenario("trace-replay", source=str(path))
        assert spec.workload.trace == TraceSource(path=str(path))
        grid = sweep(spec, axis="write_buffer_depth", values=[1, 4])
        serial = SweepRunner(backend="serial").run(grid)
        process = SweepRunner(backend="process", workers=2).run(grid)
        assert serial == process
        assert serial[0].cycles >= serial[1].cycles  # deeper buffer helps


class TestScenarioRegistry:
    def test_trace_replay_registered_and_self_capturing(self):
        spec = scenario("trace-replay", transactions=6)
        assert spec.workload.source == "trace"
        assert spec.workload.total_transactions == 24
        _records, result = _replay(spec, "tlm")
        assert result.transactions == 24

    def test_capture_kwargs_rejected_with_source(self, captured):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="fresh capture"):
            scenario("trace-replay", source=tuple(captured), transactions=9)
        with pytest.raises(ConfigError, match="archived"):
            scenario("trace-replay", num_masters=8)

    def test_qos_reattaches_to_archived_rt_capture(self):
        """A trace archives deadlines but not the QoS register
        programming; the scenario forwards it for archived sources."""
        from repro.core.qos import QosSetting

        rt_trace = _capture_scenario("paper-pattern-c")
        settings = {
            0: QosSetting(real_time=True, objective_cycles=180),
            1: QosSetting(real_time=True, objective_cycles=160),
        }
        spec = scenario("trace-replay", source=tuple(rt_trace), qos=settings)
        assert spec.workload.qos_map() == settings
        assert set(spec.config().qos) == {0, 1}
        bare = scenario("trace-replay", source=tuple(rt_trace))
        assert bare.workload.qos_map() == {}


def _capture_scenario(name, transactions=8):
    spec = scenario(name, transactions=transactions)
    platform = PlatformBuilder(spec).build("tlm")
    recorder = TraceRecorder()
    platform.attach(recorder)
    platform.run()
    return recorder.records
