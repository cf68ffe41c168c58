"""The repro.exec runner layer: records, backends, determinism.

The load-bearing guarantee is the satellite requirement: the process
backend must return records *equal* to the serial backend for the QoS
and filter grids — same counters, same order — with only wall time
(excluded from equality) differing.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro.core  # noqa: F401  (anchor package import order)
from repro.analysis.accuracy import _collect_functional
from repro.analysis.experiments import (
    _collect_deadline_stats,
    filter_ablation_grid,
)
from repro.errors import ConfigError
from repro.exec import BACKENDS, RunRecord, SweepRunner, default_workers
from repro.system import paper_topology, sweep
from repro.traffic import saturating_workload, write_heavy_workload


def _qos_grid(transactions=30):
    spec = paper_topology(workload=saturating_workload(transactions))
    return sweep(
        spec,
        axis="engine",
        values=("plain", "tlm"),
        labels=("plain-ahb", "ahb+"),
    )


def _run_one_and_round_trip(collect=None):
    [point] = sweep(
        paper_topology(workload=write_heavy_workload(20)),
        axis="write_buffer_depth",
        values=(4,),
    )
    [record] = SweepRunner().run([point], collect=collect)
    assert record.axis == "write_buffer_depth"
    assert record.value == "4"
    assert record.engine == "tlm"
    assert record.system == point.spec.name
    assert record.cycles > 0 and record.transactions > 0
    assert 0.0 < record.utilization <= 1.0
    assert record.wall_seconds > 0
    rebuilt = RunRecord.from_dict(json.loads(json.dumps(record.to_dict())))
    assert rebuilt == record
    return rebuilt


class TestRunRecord:
    def test_from_run_and_round_trip(self):
        _run_one_and_round_trip()

    def test_round_trip_keeps_nested_collector_metrics(self):
        rebuilt = _run_one_and_round_trip(collect=_collect_functional)
        hash(rebuilt)  # nested collector metrics must stay hashable

    def test_equality_ignores_wall_time(self):
        grid = _qos_grid(10)
        a = SweepRunner().run(grid)
        b = SweepRunner().run(grid)
        assert a == b  # wall clocks certainly differed

    def test_metric_lookup(self):
        [record] = SweepRunner().run(
            _qos_grid(10)[1:], collect=_collect_deadline_stats
        )
        assert record.metric("rt_transactions") > 0
        assert record.metric("nope", default=7) == 7
        with pytest.raises(ConfigError):
            record.metric("nope")

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            RunRecord.from_dict({"label": "x", "bogus": 1})


class TestBackendEquivalence:
    """Satellite requirement: process records == serial records."""

    def test_qos_grid(self):
        grid = _qos_grid()
        serial = SweepRunner(backend="serial").run(
            grid, collect=_collect_deadline_stats
        )
        process = SweepRunner(backend="process").run(
            grid, collect=_collect_deadline_stats
        )
        assert serial == process
        assert [r.label for r in process] == ["plain-ahb", "ahb+"]

    def test_filter_grid(self):
        grid = filter_ablation_grid(40)
        serial = SweepRunner(backend="serial").run(grid)
        process = SweepRunner(backend="process").run(grid)
        assert serial == process
        assert [r.label for r in process] == [p.label for p in grid]

    def test_two_worker_pool_preserves_grid_order(self):
        grid = filter_ablation_grid(30)
        records = SweepRunner(backend="process", workers=2).run(grid)
        assert [r.label for r in records] == [p.label for p in grid]


class TestOnResultStreaming:
    """Satellite requirement: ``on_result`` fires per point, in grid
    order, on every backend — the hook the serving layer streams
    progress through."""

    def test_serial_backend_streams_in_grid_order(self):
        grid = filter_ablation_grid(30)
        seen = []
        records = SweepRunner(backend="serial").run(
            grid, on_result=lambda i, r: seen.append((i, r))
        )
        assert [i for i, _ in seen] == list(range(len(grid)))
        assert [r for _, r in seen] == records

    def test_process_backend_streams_in_grid_order(self):
        grid = filter_ablation_grid(30)
        seen = []
        records = SweepRunner(backend="process", workers=2).run(
            grid, on_result=lambda i, r: seen.append((i, r))
        )
        assert [i for i, _ in seen] == list(range(len(grid)))
        assert [r for _, r in seen] == records

    def test_callback_does_not_change_the_records(self):
        grid = filter_ablation_grid(30)
        plain = SweepRunner(backend="process", workers=2).run(grid)
        streamed = SweepRunner(backend="process", workers=2).run(
            grid, on_result=lambda i, r: None
        )
        assert streamed == plain

    def test_callback_must_be_callable(self):
        with pytest.raises(ConfigError, match="on_result"):
            SweepRunner().run(_qos_grid(10), on_result="notify")


class TestRunnerKnobs:
    def test_empty_grid(self):
        assert SweepRunner().run([]) == []

    def test_invalid_arguments(self):
        with pytest.raises(ConfigError):
            SweepRunner(backend="gpu")
        with pytest.raises(ConfigError):
            SweepRunner(workers=0)

    def test_default_workers_caps(self):
        assert default_workers(1) == 1
        assert default_workers() >= 1

    def test_backends_constant(self):
        assert BACKENDS == ("serial", "process")


class TestImportCost:
    def test_runner_and_serving_imports_leave_numpy_unloaded(self):
        """Importing the runner and serving layers and generating a
        scenario's traffic never loads numpy."""
        src = Path(__file__).resolve().parent.parent / "src"
        probe = (
            "import sys; sys.path.insert(0, sys.argv[1]); "
            "import repro.system, repro.exec, repro.serve; "
            "from repro.system.scenarios import scenario; "
            "scenario('mpeg-bursty', transactions=20).workload"
            ".build_masters(); "
            "print('numpy' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe, str(src)],
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert out.strip() == "False"


class TestWithoutNumpy:
    def test_mpeg_bursty_plain_pin_holds_without_numpy(self):
        """Traffic generation needs nothing beyond the standard library:
        with numpy unimportable, the ``mpeg-bursty`` plain run still
        reads its pinned row in ``test_plain_pin.py``."""
        tests = Path(__file__).resolve().parent
        probe = (
            "import sys; sys.modules['numpy'] = None; "
            "sys.path[:0] = sys.argv[1:3]; "
            "from repro.system.scenarios import scenario; "
            "from test_plain_pin import PINNED, measure; "
            "print(measure(scenario('mpeg-bursty', transactions=60))); "
            "print(PINNED['mpeg-bursty'])"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe, str(tests.parent / "src"), str(tests)],
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        row, pinned = out.splitlines()
        assert row == pinned
