"""Crash-tolerant sweeps: error rows instead of dead grids.

Pins the satellite acceptance criterion: a sweep containing a point
that raises (or, on the process backend, times out) completes under
``on_error="record"`` with an error row in that point's grid slot and
real records everywhere else — and still fails fast under the default
``on_error="raise"``.
"""

import os
import time

import pytest

import repro.core  # noqa: F401  (anchor package import order)
from repro.errors import ConfigError, SimulationError
from repro.exec import ON_ERROR, RunRecord, SweepRunner
from repro.system import paper_topology, sweep
from repro.traffic import saturating_workload


def _engine_grid(transactions=12):
    spec = paper_topology(workload=saturating_workload(transactions))
    return sweep(spec, axis="engine", values=("tlm", "rtl", "plain"))


def _starve_rtl(point):
    # 3 cycles cannot drain anything: the RTL point hits its ceiling
    # and raises SimulationError; the other engines run unbounded.
    return 3 if point.value == "rtl" else None


class TestKnobValidation:
    def test_on_error_policy_names(self):
        assert ON_ERROR == ("raise", "record")
        with pytest.raises(ConfigError, match="on_error"):
            SweepRunner(on_error="explode")

    def test_timeout_needs_process_backend(self):
        with pytest.raises(ConfigError, match="process backend"):
            SweepRunner(timeout=5.0)
        # NaN would time every point out at once; infinity would
        # overflow the first wait.
        for bad in (0, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="timeout"):
                SweepRunner(backend="process", timeout=bad)

    def test_record_policy_composes_with_backends(self):
        SweepRunner(on_error="record")
        SweepRunner(backend="process", on_error="record", timeout=10.0)


class TestRecordPolicy:
    def test_crashing_point_yields_error_row_in_grid_slot(self):
        grid = _engine_grid()
        records = SweepRunner(on_error="record").run(
            grid, max_cycles=_starve_rtl
        )
        assert len(records) == len(grid)
        by_value = {record.engine: record for record in records}
        bad = by_value["rtl"]
        assert bad.failed
        assert "SimulationError" in bad.error
        assert bad.cycles == 0 and bad.transactions == 0
        for good in (by_value["tlm"], by_value["plain"]):
            assert not good.failed and good.error == ""
            assert good.transactions > 0

    def test_raise_policy_propagates(self):
        grid = _engine_grid()
        with pytest.raises(SimulationError):
            SweepRunner().run(grid, max_cycles=_starve_rtl)

    def test_error_row_round_trips(self):
        grid = _engine_grid()
        records = SweepRunner(on_error="record").run(
            grid, max_cycles=_starve_rtl
        )
        bad = next(record for record in records if record.failed)
        clone = RunRecord.from_dict(bad.to_dict())
        assert clone == bad
        assert clone.failed

    def test_process_backend_records_errors_too(self):
        grid = _engine_grid()
        serial = SweepRunner(on_error="record").run(
            grid, max_cycles=_starve_rtl
        )
        process = SweepRunner(backend="process", on_error="record").run(
            grid, max_cycles=_starve_rtl
        )
        assert process == serial


def _stall_plain(point, platform, result):
    """Module-level collector (pickled by reference) that wedges the
    plain-engine point, simulating a hung worker deterministically."""
    if point.value == "plain":
        time.sleep(60)
    return {}


def _stall_plain_slow_tlm_once(point, platform, result):
    """:func:`_stall_plain`, and the tlm point outlasts the plain
    point's deadline the first time it runs (``$SLOW_ONCE_FLAG``)."""
    flag = os.environ["SLOW_ONCE_FLAG"]
    if point.value == "tlm" and not os.path.exists(flag):
        open(flag, "w").close()
        time.sleep(4)
    return _stall_plain(point, platform, result)


class TestTimeouts:
    def test_stuck_point_becomes_timeout_row(self):
        grid = _engine_grid(8)
        records = SweepRunner(
            backend="process",
            workers=2,
            on_error="record",
            timeout=2.0,
        ).run(grid, collect=_stall_plain)
        assert len(records) == len(grid)
        by_engine = {record.engine: record for record in records}
        stuck = by_engine["plain"]
        assert stuck.failed
        assert "timeout" in stuck.error
        for engine in ("tlm", "rtl"):
            assert not by_engine[engine].failed
            assert by_engine[engine].transactions > 0

    def test_on_result_streams_timeout_rows_in_grid_order(self):
        """The deadline pool path fires ``on_result`` for every slot —
        wedged points surface as timeout rows, in grid order, so a
        streaming consumer (the sweep server) never stalls on them."""
        grid = _engine_grid(8)
        seen = []
        records = SweepRunner(
            backend="process",
            workers=2,
            on_error="record",
            timeout=2.0,
        ).run(
            grid,
            collect=_stall_plain,
            on_result=lambda i, r: seen.append((i, r)),
        )
        assert [i for i, _ in seen] == list(range(len(grid)))
        assert [r for _, r in seen] == records
        streamed_stuck = next(r for _, r in seen if r.engine == "plain")
        assert streamed_stuck.failed and "timeout" in streamed_stuck.error

    def test_points_a_timeout_loses_rerun_alone(self, monkeypatch, tmp_path):
        """Ending the stuck worker loses every point the pool held; each
        re-runs alone under the same deadline, and its attempt goes on
        (no second ``on_start``)."""
        monkeypatch.setenv("SLOW_ONCE_FLAG", str(tmp_path / "slowed"))
        spec = paper_topology(workload=saturating_workload(8))
        grid = sweep(spec, axis="engine", values=("plain", "tlm", "rtl"))
        started = []
        records = SweepRunner(
            backend="process", workers=2, on_error="record", timeout=2.0
        ).run(
            grid,
            collect=_stall_plain_slow_tlm_once,
            on_start=lambda index, _point: started.append(index),
        )
        assert (tmp_path / "slowed").exists()  # tlm was still running
        assert [record.failed for record in records] == [True, False, False]
        assert "timeout" in records[0].error
        assert started == [0, 1, 2]

    def test_timeout_raise_policy(self):
        spec = paper_topology(workload=saturating_workload(8))
        grid = sweep(spec, axis="engine", values=("plain",))
        with pytest.raises(SimulationError, match="timeout"):
            SweepRunner(backend="process", workers=1, timeout=1.0).run(
                grid, collect=_stall_plain
            )
