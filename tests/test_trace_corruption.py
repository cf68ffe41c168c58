"""Corrupted-trace handling: every malformation fails at load time.

A trace file is external input; a bad line must raise
:class:`~repro.errors.TrafficError` naming the offending line when the
trace is *loaded* — never a raw ``ValueError``/``ProtocolError`` later,
mid-replay, possibly inside a sweep worker.
"""

import io
import json

import pytest

from repro.errors import TrafficError
from repro.traffic import TraceSource, load_trace, load_trace_file
from repro.traffic.trace import record_from_payload

#: A fully valid record payload; each test corrupts one aspect.
BASE = dict(
    master=0,
    kind="read",
    addr=64,
    beats=4,
    size_bytes=4,
    wrapping=False,
    data=[],
    issued_at=0,
    granted_at=2,
    started_at=3,
    finished_at=9,
    via_write_buffer=False,
    deadline=None,
    uid=1,
    resp=0,
    fault_plan=[],
    retry_limit=4,
)


def _payload(**overrides):
    payload = dict(BASE)
    payload.update(overrides)
    return payload


def _load_lines(*lines):
    return load_trace(io.StringIO("\n".join(lines) + "\n"))


def _dumps(**overrides):
    return json.dumps(_payload(**overrides))


class TestLineLevelCorruption:
    def test_valid_lines_load(self):
        records = _load_lines(_dumps(), _dumps(uid=2, addr=128))
        assert [r.uid for r in records] == [1, 2]

    def test_truncated_line_names_line_number(self):
        good = _dumps()
        truncated = good[: len(good) // 2]
        with pytest.raises(TrafficError, match="malformed trace line 2"):
            _load_lines(good, truncated)

    def test_non_object_line_rejected(self):
        with pytest.raises(TrafficError, match="trace line 1.*expected an object"):
            _load_lines(json.dumps([1, 2, 3]))

    def test_duplicate_uid_names_both_lines(self):
        with pytest.raises(
            TrafficError, match=r"line 3: duplicate uid 1 \(first seen on line 1\)"
        ):
            _load_lines(_dumps(), _dumps(uid=2), _dumps(addr=256))

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(TrafficError, match="cannot read trace"):
            load_trace_file(tmp_path / "nope.jsonl")

    def test_blank_lines_are_skipped(self):
        records = load_trace(io.StringIO(f"\n{_dumps()}\n\n"))
        assert len(records) == 1


class TestFieldLevelCorruption:
    def test_missing_required_field(self):
        payload = _payload()
        del payload["addr"]
        with pytest.raises(TrafficError, match=r"missing fields \['addr'\]"):
            _load_lines(json.dumps(payload))

    def test_unknown_field(self):
        with pytest.raises(TrafficError, match="unknown fields"):
            _load_lines(_dumps(hsplit=True))

    def test_bad_access_kind(self):
        with pytest.raises(TrafficError, match="bad access kind"):
            _load_lines(_dumps(kind="prefetch"))

    def test_nan_address_rejected(self):
        # json.loads accepts bare NaN; the loader must not.
        line = _dumps(addr=0).replace('"addr": 0', '"addr": NaN')
        assert "NaN" in line
        with pytest.raises(TrafficError, match="'addr' must be an integer"):
            _load_lines(line)

    def test_bool_masquerading_as_int(self):
        with pytest.raises(TrafficError, match="'master' must be an integer"):
            _load_lines(_dumps(master=True))

    def test_negative_cycle_stamp_floor(self):
        # -1 means "never happened"; anything lower is corruption.
        records = _load_lines(_dumps(granted_at=-1))
        assert records[0].granted_at == -1
        with pytest.raises(TrafficError, match="'granted_at'"):
            _load_lines(_dumps(granted_at=-2))

    def test_string_data_words(self):
        with pytest.raises(TrafficError, match="'data' must be a list"):
            _load_lines(_dumps(kind="write", data=["0xff"] * 4))

    def test_resp_out_of_range(self):
        with pytest.raises(TrafficError, match="HResp"):
            _load_lines(_dumps(resp=7))
        with pytest.raises(TrafficError, match="HResp"):
            _load_lines(_dumps(resp=-1))

    def test_fault_plan_bad_codes(self):
        with pytest.raises(TrafficError, match="fault_plan"):
            _load_lines(_dumps(fault_plan=[0]))  # OKAY is not a fault
        with pytest.raises(TrafficError, match="fault_plan"):
            _load_lines(_dumps(fault_plan="12"))

    def test_retry_limit_negative(self):
        with pytest.raises(TrafficError, match="retry_limit"):
            _load_lines(_dumps(retry_limit=-3))

    def test_fault_defaults_keep_legacy_traces_loadable(self):
        payload = _payload()
        for legacy_optional in ("deadline", "uid", "resp", "fault_plan", "retry_limit"):
            del payload[legacy_optional]
        [record] = _load_lines(json.dumps(payload))
        assert record.resp == 0
        assert record.fault_plan == ()
        assert record.retry_limit == 4


class TestProtocolLevelCorruption:
    """Transaction-legality mirrors: fail with the line, not mid-replay."""

    def test_misaligned_address(self):
        with pytest.raises(TrafficError, match="not aligned"):
            _load_lines(_dumps(addr=66))

    def test_non_power_of_two_size(self):
        with pytest.raises(TrafficError, match="power of two"):
            _load_lines(_dumps(size_bytes=3, addr=63))

    def test_illegal_wrap_length(self):
        with pytest.raises(TrafficError, match="wrapping bursts"):
            _load_lines(_dumps(wrapping=True, beats=6))

    def test_kb_boundary_crossing(self):
        with pytest.raises(TrafficError, match="1 KB boundary"):
            _load_lines(_dumps(addr=1016, beats=4))

    def test_write_data_shape(self):
        with pytest.raises(TrafficError, match="beats of data"):
            _load_lines(_dumps(kind="write", data=[1, 2], beats=4))

    @pytest.mark.parametrize(
        "size,word", [(4, -5), (4, 2**40), (4, 2**32), (1, 256), (2, -1)]
    )
    def test_write_word_wider_than_its_beat(self, size, word):
        # Unchecked, such a word loads, fails mid-replay at TLM and runs
        # silently at RTL.
        with pytest.raises(TrafficError, match="trace line 1: data word 0"):
            _load_lines(_dumps(kind="write", size_bytes=size, beats=1, data=[word]))

    def test_widest_word_of_a_beat_loads(self):
        [record] = _load_lines(
            _dumps(kind="write", size_bytes=2, addr=64, beats=2, data=[0, 0xFFFF])
        )
        assert record.data == [0, 0xFFFF]

    def test_record_from_payload_prefix(self):
        with pytest.raises(TrafficError, match="^my context:"):
            record_from_payload(_payload(resp=9), "my context")


class TestTraceSourcePayload:
    def test_preserve_issue_times_must_be_a_bool(self):
        payload = {"records": [_payload()], "preserve_issue_times": "false"}
        with pytest.raises(TrafficError, match="'preserve_issue_times' must be a boolean"):
            TraceSource.from_dict(payload)
        with pytest.raises(TrafficError, match="boolean"):
            TraceSource.from_dict(dict(payload, preserve_issue_times=0))
