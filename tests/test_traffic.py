"""Tests for traffic patterns, generation, workloads and traces."""

import io

import pytest
from hypothesis import given, settings, strategies as st

from repro.ahb.transaction import WRITE_BUFFER_MASTER, Transaction
from repro.ahb.types import AccessKind
from repro.core.write_buffer import WriteBuffer
from repro.system import PlatformBuilder, paper_topology
from repro.traffic import (
    CPU,
    DMA,
    NAMED_PATTERNS,
    VIDEO,
    TraceRecord,
    TraceRecorder,
    TraceSource,
    TrafficPattern,
    bank_striped_workload,
    dump_trace,
    generate_items,
    group_by_master,
    load_trace,
    remap_addresses,
    replay_items,
    saturating_workload,
    single_master_workload,
    sort_issue_order,
    table1_workloads,
    time_scale,
    trace_masters,
)
from repro.errors import TrafficError

from oracles import check_burst_legal

from dataclasses import replace


def _record(master=0, addr=0, issued_at=0, kind="read", beats=4, data=(), **kw):
    """A hand-built record with sane defaults for unit tests."""
    base = dict(
        master=master,
        kind=kind,
        addr=addr,
        beats=beats,
        size_bytes=4,
        wrapping=False,
        data=list(data),
        issued_at=issued_at,
        granted_at=issued_at + 1,
        started_at=issued_at + 2,
        finished_at=issued_at + 2 + beats,
        via_write_buffer=False,
    )
    base.update(kw)
    return TraceRecord(**base)


class TestPatterns:
    def test_validation(self):
        with pytest.raises(TrafficError):
            TrafficPattern(name="bad", read_fraction=1.5)
        with pytest.raises(TrafficError):
            TrafficPattern(name="bad", burst_mix=())
        with pytest.raises(TrafficError):
            TrafficPattern(name="bad", think_range=(5, 2))
        with pytest.raises(TrafficError):
            TrafficPattern(name="bad", stride_bytes=1)

    def test_rt_flag(self):
        assert VIDEO.is_real_time and not CPU.is_real_time


class TestGenerator:
    def test_deterministic_for_same_seed(self):
        a = generate_items(CPU, 0, 50, seed=7)
        b = generate_items(CPU, 0, 50, seed=7)
        assert [(i.txn.addr, i.txn.beats, i.think_cycles) for i in a] == [
            (i.txn.addr, i.txn.beats, i.think_cycles) for i in b
        ]

    def test_different_seeds_differ(self):
        a = generate_items(CPU, 0, 50, seed=7)
        b = generate_items(CPU, 0, 50, seed=8)
        assert [i.txn.addr for i in a] != [i.txn.addr for i in b]

    @settings(max_examples=25)
    @given(seed=st.integers(0, 10_000))
    def test_all_generated_traffic_is_protocol_legal(self, seed):
        for pattern in NAMED_PATTERNS.values():
            for item in generate_items(pattern, 0, 30, seed):
                txn = item.txn
                check_burst_legal(txn)
                assert txn.addr % txn.size_bytes == 0
                end = pattern.base_addr + pattern.addr_span
                assert pattern.base_addr <= txn.addr < end
                assert txn.addr + txn.total_bytes <= end

    def test_periodic_pattern_sets_schedule(self):
        items = generate_items(VIDEO, 0, 5, seed=1)
        assert [i.not_before for i in items] == [
            k * VIDEO.period for k in range(5)
        ]
        assert all(i.absolute_deadline is not None for i in items)

    def test_write_items_carry_data(self):
        writer = replace(CPU, read_fraction=0.0)
        for item in generate_items(writer, 0, 10, seed=3):
            assert item.txn.is_write
            assert len(item.txn.data) == item.txn.beats

    def test_stride_pattern_advances_by_stride(self):
        strided = replace(
            DMA,
            sequential_fraction=1.0,
            stride_bytes=0x1000,
            burst_mix=((4, 1.0),),
            addr_span=0x10000,
        )
        items = generate_items(strided, 0, 4, seed=1)
        addrs = [i.txn.addr for i in items]
        assert addrs == [0x0, 0x1000, 0x2000, 0x3000]

    def test_negative_count_rejected(self):
        with pytest.raises(TrafficError):
            generate_items(CPU, 0, -1, seed=0)


class TestWorkloads:
    def test_table1_suite_shapes(self):
        suites = table1_workloads(20)
        assert [w.name for w in suites] == ["pattern_a", "pattern_b", "pattern_c"]
        for workload in suites:
            assert workload.num_masters == 4
            assert workload.total_transactions == 80

    def test_qos_map_only_rt_masters(self):
        workload = table1_workloads(10)[2]
        assert set(workload.qos_map()) == {0, 1}

    def test_disjoint_windows(self):
        workload = table1_workloads(10)[0]
        windows = [
            (spec.pattern.base_addr, spec.pattern.base_addr + spec.pattern.addr_span)
            for spec in workload.masters
        ]
        for (lo1, hi1), (lo2, hi2) in zip(windows, windows[1:]):
            assert hi1 <= lo2 or hi2 <= lo1

    def test_scaled(self):
        workload = single_master_workload(100).scaled(0.5)
        assert workload.total_transactions == 50

    def test_with_seed(self):
        assert single_master_workload(10).with_seed(42).seed == 42

    def test_saturating_has_low_priority_rt(self):
        workload = saturating_workload(10)
        rt = list(workload.qos_map())
        assert rt == [workload.num_masters - 1]

    def test_bank_striped_masters_own_banks(self):
        from repro.ddr.commands import decode_address
        from repro.ddr.timing import DDR_266

        workload = bank_striped_workload(10)
        for index, spec in enumerate(workload.masters):
            items = generate_items(spec.pattern, index, 10, workload.seed)
            banks = {
                decode_address(i.txn.addr, DDR_266).bank for i in items
            }
            assert banks == {index}


class TestTrace:
    def test_record_dump_load_roundtrip(self):
        platform = PlatformBuilder(
            paper_topology(workload=single_master_workload(15))
        ).build("tlm")
        recorder = TraceRecorder()
        platform.bus.add_observer(recorder)
        platform.run()
        assert len(recorder) == 15
        buffer = io.StringIO()
        dump_trace(recorder.records, buffer)
        buffer.seek(0)
        records = load_trace(buffer)
        assert len(records) == 15
        assert records[0].master == 0

    def test_replay_items_preserve_issue_times(self):
        platform = PlatformBuilder(
            paper_topology(workload=single_master_workload(10))
        ).build("tlm")
        recorder = TraceRecorder()
        platform.bus.add_observer(recorder)
        platform.run()
        items = replay_items(recorder.records, master=0)
        assert len(items) == 10
        assert all(i.not_before is not None for i in items)

    def test_malformed_trace_rejected(self):
        with pytest.raises(TrafficError):
            load_trace(io.StringIO("not json\n"))

    def test_by_master_grouping(self):
        platform = PlatformBuilder(
            paper_topology(workload=table1_workloads(5)[0])
        ).build("tlm")
        recorder = TraceRecorder()
        platform.bus.add_observer(recorder)
        platform.run()
        grouped = group_by_master(recorder.records)
        assert sum(len(v) for v in grouped.values()) == len(recorder)

    def test_multi_master_capture_is_complete_per_master(self):
        """The recorder archives posted writes under their master.

        Even with write-buffer absorption in play, every master's record
        set is exactly the stream it issued — the property trace-backed
        workloads replay.
        """
        workload = table1_workloads(8)[0]
        platform = PlatformBuilder(paper_topology(workload=workload)).build("tlm")
        recorder = TraceRecorder()
        platform.bus.add_observer(recorder)
        result = platform.run()
        assert result.absorbed_writes > 0  # the interesting case
        grouped = group_by_master(recorder.records)
        assert set(grouped) == {0, 1, 2, 3}
        assert all(len(v) == 8 for v in grouped.values())


class TestRecorderTimestamps:
    """Regression: the recorder trusts the bus observer's cycles."""

    def test_observer_args_fill_unstamped_fields(self):
        txn = Transaction(master=0, kind=AccessKind.READ, addr=0, beats=4)
        txn.issued_at = 3
        recorder = TraceRecorder()
        recorder(txn, 5, 6, 9)
        record = recorder.records[0]
        assert (record.granted_at, record.started_at, record.finished_at) == (
            5,
            6,
            9,
        )

    def test_stale_stamped_timestamp_rejected(self):
        txn = Transaction(master=0, kind=AccessKind.READ, addr=0, beats=4)
        txn.granted_at = 3  # stale: disagrees with the bus's grant cycle
        recorder = TraceRecorder()
        with pytest.raises(TrafficError, match="stale"):
            recorder(txn, 5, 6, 9)

    def _drain(self):
        origin = Transaction(
            master=2, kind=AccessKind.WRITE, addr=64, beats=1, data=[7]
        )
        origin.issued_at = 10
        buffer = WriteBuffer(depth=4)
        drain = buffer.absorb(origin, 12)
        origin.finished_at = 12
        origin.via_write_buffer = True
        drain.granted_at = 20
        drain.started_at = 21
        drain.finished_at = 22
        return origin, drain

    def test_drain_records_origin(self):
        origin, drain = self._drain()
        recorder = TraceRecorder()
        recorder(drain, 20, 21, 22)
        record = recorder.records[0]
        assert record.master == 2
        assert record.via_write_buffer
        assert record.issued_at == 10 and record.finished_at == 12
        assert record.granted_at == -1  # the origin never owned the bus


class TestReplayOrdering:
    """Regression: replay re-sorts completion-ordered records by issue."""

    def test_out_of_completion_order_records_replay_in_issue_order(self):
        records = [
            _record(master=0, addr=0x200, issued_at=100),
            _record(master=0, addr=0x100, issued_at=50),
        ]
        items = replay_items(records, master=0)
        assert [i.txn.addr for i in items] == [0x100, 0x200]
        assert [i.not_before for i in items] == [50, 100]

    def test_issue_cycle_ties_break_on_capture_uid(self):
        """A posted write absorbed in the cycle its successor issues
        shares the issue stamp; the capture uid restores offered order."""
        records = [
            _record(master=0, addr=0x200, issued_at=50, uid=9),
            _record(master=0, addr=0x100, issued_at=50, uid=5),
        ]
        items = replay_items(records, master=0)
        assert [i.txn.addr for i in items] == [0x100, 0x200]

    def test_closed_loop_replay_drops_issue_anchors(self):
        records = [
            _record(master=0, addr=0x200, issued_at=100),
            _record(master=0, addr=0x100, issued_at=50),
        ]
        items = replay_items(records, master=0, preserve_issue_times=False)
        assert [i.txn.addr for i in items] == [0x100, 0x200]
        assert all(i.not_before is None for i in items)
        assert all(i.think_cycles == 0 for i in items)

    def test_replay_restores_deadline_and_write_data(self):
        records = [
            _record(master=1, kind="write", beats=2, data=[1, 2], deadline=500),
            _record(master=1, addr=0x40, issued_at=9, data=[3, 3, 3, 3]),
        ]
        items = replay_items(records, master=1)
        assert items[0].absolute_deadline == 500
        assert items[0].txn.data == [1, 2]
        # Read data is produced by the slave on replay, never offered.
        assert items[1].txn.data == []


class TestTraceValidation:
    """Regression: a malformed trace fails loudly at load time."""

    def _load(self, payload: str):
        return load_trace(io.StringIO(payload))

    def _line(self, **overrides):
        import json
        from dataclasses import asdict

        payload = asdict(_record())
        payload.update(overrides)
        for key in [k for k, v in payload.items() if v is ...]:
            del payload[key]
        return json.dumps(payload) + "\n"

    def test_bad_kind_string_is_traffic_error_with_line(self):
        with pytest.raises(TrafficError, match="line 2.*kind"):
            self._load(self._line() + self._line(kind="x"))

    def test_wrong_typed_fields_rejected(self):
        for overrides in (
            {"data": "0xdead"},
            {"data": [1, "2"]},
            {"addr": "64"},
            {"addr": True},
            {"wrapping": 1},
            {"beats": 0},
            {"master": -1},
            {"deadline": -5},
        ):
            with pytest.raises(TrafficError, match="line 1"):
                self._load(self._line(**overrides))

    def test_missing_and_unknown_fields_rejected(self):
        with pytest.raises(TrafficError, match="missing"):
            self._load(self._line(addr=...))
        with pytest.raises(TrafficError, match="unknown"):
            self._load(self._line(hx=1))

    def test_pre_deadline_traces_still_load(self):
        records = self._load(self._line(deadline=...))
        assert records[0].deadline is None

    def test_non_object_line_rejected(self):
        with pytest.raises(TrafficError, match="line 1"):
            self._load("[1, 2]\n")

    def test_protocol_constraints_checked_at_load(self):
        """Protocol-illegal records fail as TrafficError with the line,
        not as ProtocolError at first replay (possibly in a worker)."""
        for overrides in (
            {"size_bytes": 3},
            {"addr": 2},  # not 4-byte aligned
            {"wrapping": True, "beats": 5},
            {"kind": "write", "beats": 4, "data": [1, 2]},
        ):
            with pytest.raises(TrafficError, match="line 1"):
                self._load(self._line(**overrides))


class TestTraceTransforms:
    def test_time_scale_scales_stamps_and_skips_never_happened(self):
        record = _record(issued_at=10, deadline=100, granted_at=-1)
        (scaled,) = time_scale([record], 2.0)
        assert scaled.issued_at == 20
        assert scaled.deadline == 200
        assert scaled.granted_at == -1
        with pytest.raises(TrafficError):
            time_scale([record], 0)

    def test_remap_addresses_validates_alignment_and_boundary(self):
        (moved,) = remap_addresses([_record(addr=0x100)], 0x400)
        assert moved.addr == 0x500
        with pytest.raises(TrafficError, match="alignment"):
            remap_addresses([_record(addr=0x100)], 2)
        with pytest.raises(TrafficError, match="1 KB"):
            # 4 beats x 4B at 0x3F8 would cross the 1 KB line.
            remap_addresses([_record(addr=0x0)], 0x3F8)
        with pytest.raises(TrafficError, match="below zero"):
            remap_addresses([_record(addr=0x100)], -0x400)

    def test_trace_masters_sorted_without_write_buffer(self):
        records = [
            _record(master=3),
            _record(master=WRITE_BUFFER_MASTER),
            _record(master=1),
            _record(master=3),
        ]
        assert trace_masters(records) == (1, 3)

    def test_sort_issue_order_breaks_cycle_ties_by_uid(self):
        records = [
            _record(issued_at=5, uid=4),
            _record(issued_at=5, uid=2),
            _record(issued_at=1, uid=9),
        ]
        assert [r.uid for r in sort_issue_order(records)] == [9, 2, 4]

    def test_sort_issue_order_keeps_input_order_without_every_uid(self):
        records = [
            _record(issued_at=5, uid=4),
            _record(issued_at=5, uid=None, addr=0x40),
            _record(issued_at=1, uid=9),
        ]
        assert [(r.issued_at, r.uid) for r in sort_issue_order(records)] == [
            (1, 9),
            (5, 4),
            (5, None),
        ]


class TestTraceSource:
    def test_exactly_one_of_path_or_records(self):
        with pytest.raises(TrafficError):
            TraceSource()
        with pytest.raises(TrafficError):
            TraceSource(path="x.jsonl", records=(_record(),))

    def test_path_source_loads_and_validates(self, tmp_path):
        from repro.traffic import save_trace

        path = tmp_path / "t.jsonl"
        save_trace([_record(master=1)], path)
        source = TraceSource(path=str(path))
        assert source.masters() == (1,)
        missing = TraceSource(path=str(tmp_path / "nope.jsonl"))
        with pytest.raises(TrafficError):
            missing.resolve()

    def test_round_trip(self):
        import json

        for preserve in (True, False):
            source = TraceSource(records=(_record(master=2),), preserve_issue_times=preserve)
            clone = TraceSource.from_dict(json.loads(json.dumps(source.to_dict())))
            assert clone == source
