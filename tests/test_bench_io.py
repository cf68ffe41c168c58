"""Tests for the persistent speed-benchmark harness (bench_io)."""

import json
from pathlib import Path

import pytest

from repro.analysis.bench_io import (
    MODELS,
    compare_reports,
    load_report,
    make_report,
    render_block,
    run_speed_suite,
    same_host,
    speedups_vs,
    write_report,
)

REPO_ROOT = Path(__file__).parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_speed.json"


def _block(tlm=100.0, single=300.0, rtl=10.0, rev="abc1234"):
    return {
        "git_rev": rev,
        "models": {
            "tlm_method": {
                "kcycles_per_sec": tlm,
                "simulated_cycles": 1000,
                "wall_seconds": 0.01,
            },
            "tlm_single_master": {
                "kcycles_per_sec": single,
                "simulated_cycles": 1000,
                "wall_seconds": 0.003,
            },
            "rtl": {
                "kcycles_per_sec": rtl,
                "simulated_cycles": 1000,
                "wall_seconds": 0.1,
            },
        },
        "tlm_over_rtl_speedup": tlm / rtl,
    }


class TestReportShapes:
    def test_suite_produces_all_models(self):
        block = run_speed_suite(repeats_tlm=1, repeats_rtl=1)
        for model in MODELS:
            sample = block["models"][model]
            assert sample["kcycles_per_sec"] > 0
            assert sample["simulated_cycles"] > 0
        assert block["tlm_over_rtl_speedup"] > 1
        assert "Kcycles/s" in render_block(block)

    def test_make_report_round_trip(self, tmp_path):
        current = _block(tlm=200.0)
        seed = _block(tlm=100.0, rev="seed000")
        report = make_report(current, seed=seed)
        path = tmp_path / "BENCH_speed.json"
        write_report(path, report)
        loaded = load_report(path)
        assert loaded == report
        assert loaded["speedup_vs_seed"]["tlm_method"] == 2.0

    def test_make_report_without_seed_uses_current(self):
        current = _block()
        report = make_report(current)
        assert report["seed"] == current
        assert report["speedup_vs_seed"]["rtl"] == 1.0


class TestRegressionCheck:
    def test_within_threshold_passes(self):
        baseline = make_report(_block(tlm=100.0))
        fresh = _block(tlm=85.0)  # 15% down: inside the 20% tolerance
        assert compare_reports(fresh, baseline) == []

    def test_regression_detected(self):
        baseline = make_report(_block(tlm=100.0))
        fresh = _block(tlm=70.0)  # 30% down
        failures = compare_reports(fresh, baseline)
        assert len(failures) == 1
        assert "tlm_method" in failures[0]

    def test_speedups_vs(self):
        ratios = speedups_vs(_block(tlm=150.0, rtl=20.0), _block(tlm=100.0, rtl=10.0))
        assert ratios["tlm_method"] == 1.5
        assert ratios["rtl"] == 2.0

    def test_cross_host_baseline_is_not_graded(self):
        """Absolute Kcycles/s from another machine must not fail the gate."""
        baseline_block = _block(tlm=1000.0)
        baseline_block["host"] = "build-farm-a"
        baseline = make_report(baseline_block)
        fresh = _block(tlm=100.0)  # 10x slower host
        fresh["host"] = "laptop-b"
        assert not same_host(fresh, baseline)
        assert compare_reports(fresh, baseline) == []
        # Same (or unrecorded) host still grades strictly.
        fresh["host"] = "build-farm-a"
        assert same_host(fresh, baseline)
        assert compare_reports(fresh, baseline)


class TestCommittedBaseline:
    """The committed BENCH_speed.json is the PR's speed evidence."""

    def test_baseline_exists_and_parses(self):
        report = json.loads(BENCH_PATH.read_text())
        assert report["schema"] == 1
        for block_name in ("seed", "current"):
            models = report[block_name]["models"]
            for model in MODELS:
                assert models[model]["kcycles_per_sec"] > 0

    def test_recorded_speedup_meets_targets(self):
        """Before/after on the recording host: >=1.5x TLM, >=1.3x RTL."""
        report = json.loads(BENCH_PATH.read_text())
        ratios = report["speedup_vs_seed"]
        assert ratios["tlm_method"] >= 1.5
        assert ratios["rtl"] >= 1.3


class TestTrafficgenSuite:
    def test_shape_and_positive_rates(self):
        from repro.analysis.bench_io import run_trafficgen_suite

        block = run_trafficgen_suite(items=2000, repeats=1)
        assert block["items"] == 2000
        for mode in ("compat", "stream"):
            sample = block["modes"][mode]
            assert sample["items_per_sec"] > 0
            assert sample["wall_seconds"] > 0
        assert block["stream_over_compat"] > 0


class TestSweepSuite:
    def test_shape_and_determinism_gate(self):
        from repro.analysis.bench_io import run_sweep_suite

        block = run_sweep_suite(transactions=30)
        assert block["points"] == 8
        assert block["workers"] >= 1
        assert block["serial_wall_seconds"] > 0
        assert block["process_wall_seconds"] > 0
        assert block["process_over_serial"] > 0


class TestServeSuite:
    def test_shape_and_hit_rate_gate(self):
        from repro.analysis.bench_io import run_serve_suite

        block = run_serve_suite(
            transactions=20, clients=2, submissions_per_client=2
        )
        assert block["clients"] == 2
        assert block["submissions_per_client"] == 2
        assert block["points"] >= 1
        assert block["cold_wall_seconds"] > 0
        assert block["burst_wall_seconds"] > 0
        assert block["submissions_per_sec"] > 0
        assert block["points_per_sec"] > 0
        # One cold pass, then an all-warm burst: 4 of 5 submissions hit.
        assert block["cache_hit_rate"] == pytest.approx(4 / 5, abs=1e-3)
        assert block["max_queue_depth"] >= 1
        # Supervision metrics ride along, recorded rather than gated:
        # nothing sheds at this size, and the recovery drill replays the
        # four warm grid points from the store while re-running its two
        # cold ones.
        assert block["shed_rate"] == 0.0
        assert block["recovery_replayed"] == 4
        assert block["recovered_rerun"] == 2
        assert block["recovery_replay_hit_rate"] == pytest.approx(4 / 6)
        assert block["recovery_wall_seconds"] > 0


class TestModelFilter:
    def test_suite_measures_only_selected_models(self):
        block = run_speed_suite(
            repeats_tlm=1,
            repeats_rtl=1,
            include_trafficgen=False,
            include_sweep=False,
            models=["rtl"],
        )
        assert list(block["models"]) == ["rtl"]
        assert "tlm_over_rtl_speedup" not in block
        # Comparison helpers grade only the models a block carries.
        baseline = make_report(_block())
        fresh = {"models": {"rtl": dict(baseline["current"]["models"]["rtl"])}}
        assert compare_reports(fresh, baseline) == []

    def test_unknown_model_rejected(self):
        import pytest

        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            run_speed_suite(models=["warp-drive"])


class TestDeltaTableAndTrajectory:
    def test_delta_table_marks_regressions(self):
        from repro.analysis.bench_io import render_delta_table

        baseline = make_report(_block(tlm=100.0, rtl=10.0))
        fresh = _block(tlm=60.0, rtl=11.0)  # tlm 40% down, rtl 10% up
        table = render_delta_table(fresh, baseline)
        lines = {
            line.split()[0]: line for line in table.splitlines()[2:]
        }
        assert lines["tlm_method"].endswith("FAIL")
        assert lines["rtl"].endswith("ok")
        assert "-40.0%" in lines["tlm_method"]

    def test_delta_table_flags_cycle_drift_cross_host(self):
        from repro.analysis.bench_io import render_delta_table

        baseline_block = _block()
        baseline_block["host"] = "farm"
        fresh = _block()
        fresh["host"] = "laptop"
        fresh["models"]["rtl"]["simulated_cycles"] = 7
        table = render_delta_table(fresh, make_report(baseline_block))
        lines = {
            line.split()[0]: line for line in table.splitlines()[2:]
        }
        assert "DRIFT" in lines["rtl"] and lines["rtl"].endswith("FAIL")
        assert lines["tlm_method"].endswith("n/a")  # cross-host speed

    def test_trajectory_rows_and_history_collapse(self):
        from repro.analysis.bench_io import (
            append_history,
            render_trajectory,
        )

        seed = _block(tlm=100.0, rev="seed000")
        mid = _block(tlm=150.0, rev="mid1111")
        current = _block(tlm=200.0, rev="cur2222")
        history = append_history(None, mid, label="PR X")
        # Same-revision tail entries collapse instead of duplicating,
        # and the established milestone label survives the re-measure.
        remeasured = _block(tlm=160.0, rev="mid1111")
        history = append_history(history, remeasured, label="rev mid1111")
        assert len(history) == 1 and history[0]["label"] == "PR X"
        assert history[0]["models"]["tlm_method"] == 160.0
        report = make_report(current, seed=seed, history=history)
        table = render_trajectory(report)
        labels = [line.split()[0] for line in table.splitlines()[2:]]
        assert labels == ["seed", "PR", "current"]  # "PR X" splits
        assert "2.00x" in table.splitlines()[-1]

    def test_committed_baseline_has_history(self):
        report = json.loads(BENCH_PATH.read_text())
        assert report["history"], "speed trajectory missing"
        assert {e["label"] for e in report["history"]} >= {"PR 1", "PR 3"}


class TestCycleDeterminismGate:
    def test_cycle_drift_fails_even_cross_host(self):
        baseline_block = _block(tlm=1000.0)
        baseline_block["host"] = "build-farm-a"
        baseline = make_report(baseline_block)
        fresh = _block(tlm=100.0)
        fresh["host"] = "laptop-b"
        fresh["models"]["tlm_method"]["simulated_cycles"] = 999  # drift!
        failures = compare_reports(fresh, baseline)
        assert len(failures) == 1
        assert "determinism drift" in failures[0]


class TestCommittedNewEntries:
    """The committed baseline carries the PR's trafficgen/sweep/serve
    evidence."""

    def test_baseline_has_trafficgen_and_sweep(self):
        report = json.loads(BENCH_PATH.read_text())
        current = report["current"]
        assert current["trafficgen"]["modes"]["stream"]["items_per_sec"] > 0
        assert current["sweep"]["points"] >= 8
        assert current["sweep"]["process_over_serial"] > 0

    def test_baseline_has_serve_block(self):
        report = json.loads(BENCH_PATH.read_text())
        serve = report["current"]["serve"]
        assert serve["submissions_per_sec"] > 0
        assert serve["points_per_sec"] > 0
        assert 0 < serve["cache_hit_rate"] < 1
        assert serve["max_queue_depth"] >= 1


class TestJsonRoundTripWithNestedMetrics:
    def test_record_survives_json_with_nested_metrics(self):
        from repro.exec import RunRecord, SweepRunner
        from repro.analysis.accuracy import _collect_functional
        from repro.system import paper_topology, sweep
        from repro.traffic import single_master_workload

        grid = sweep(
            paper_topology(workload=single_master_workload(8)),
            axis="engine",
            values=("tlm",),
        )
        [record] = SweepRunner().run(grid, collect=_collect_functional)
        wire = json.loads(json.dumps(record.to_dict()))
        rebuilt = RunRecord.from_dict(wire)
        assert rebuilt == record
        hash(rebuilt)  # nested metrics must stay hashable


class TestCliGating:
    """main() must grade cycle drift and the sweep gate on every path."""

    def _fresh_args(self, baseline):
        return [
            "--baseline",
            str(baseline),
            "--repeats-tlm",
            "1",
            "--repeats-rtl",
            "1",
        ]

    def test_same_rev_rerecord_does_not_self_milestone(self, tmp_path):
        """--write-baseline twice at one revision replaces `current`
        without archiving it as a history milestone of itself."""
        from benchmarks.bench_regression import main

        path = tmp_path / "bench.json"
        args = self._fresh_args(path) + ["--write-baseline"]
        assert main(args) == 0
        first = load_report(path)
        assert main(args) == 0
        second = load_report(path)
        assert second.get("history") == first.get("history")
        assert second["current"]["git_rev"] == first["current"]["git_rev"]

    def test_cross_host_cycle_drift_fails_cli(self, tmp_path, capsys):
        from benchmarks.bench_regression import main
        from repro.analysis.bench_io import make_report, run_speed_suite

        block = run_speed_suite(
            repeats_tlm=1,
            repeats_rtl=1,
            include_trafficgen=False,
            include_sweep=False,
        )
        block["host"] = "some-other-host"
        block["models"]["tlm_method"]["simulated_cycles"] += 1  # drift
        path = tmp_path / "bench.json"
        write_report(path, make_report(block))
        assert main(self._fresh_args(path)) == 1
        assert "determinism drift" in capsys.readouterr().err
