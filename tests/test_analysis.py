"""Tests for the analysis layer: accuracy, speed, tables, experiments."""

import pytest

from repro.analysis import (
    MasterAccuracy,
    SpeedSample,
    compare_models,
    experiment_bank_interleaving,
    experiment_filters,
    experiment_qos,
    experiment_write_buffer,
    kernel_comparison,
    render_speed,
    render_table1,
    run_table1,
    speed_comparison,
)
from repro.traffic import (
    single_master_workload,
    table1_pattern_a,
    table1_workloads,
)


class TestAccuracy:
    def test_master_accuracy_math(self):
        row = MasterAccuracy(0, "m", rtl_cycles=1000, tlm_cycles=1030)
        assert row.difference == 30
        assert row.error_pct == pytest.approx(3.0)
        assert row.accuracy_pct == pytest.approx(97.0)

    def test_compare_models_functional_and_tight(self):
        result = compare_models(table1_pattern_a(40))
        assert result.functional_match
        assert result.total_error_pct < 15.0
        assert len(result.rows) == 4

    def test_run_table1_aggregates(self):
        result = run_table1([table1_pattern_a(30), single_master_workload(30)])
        assert len(result.suites) == 2
        assert result.all_functional
        assert 0 <= result.average_error_pct <= 100
        assert result.average_accuracy_pct == pytest.approx(
            100 - result.average_error_pct
        )

    def test_render_table1(self):
        result = run_table1([single_master_workload(20)])
        text = render_table1(result)
        assert "RTL cycles" in text and "average accuracy" in text


class TestSpeed:
    def test_speed_sample_math(self):
        sample = SpeedSample("x", simulated_cycles=5000, wall_seconds=0.5)
        assert sample.kcycles_per_sec == pytest.approx(10.0)

    def test_speed_comparison_shape(self):
        report = speed_comparison(
            multi_master=table1_pattern_a(25),
            single_master=single_master_workload(50),
            include_thread=True,
        )
        # The TLM must beat the pin-accurate model by a wide margin.
        assert report.speedup > 5
        assert report.tlm_single_master is not None
        text = render_speed(report)
        assert "speedup" in text

    def test_method_faster_than_thread(self):
        from repro.analysis import measure_tlm

        workload = table1_pattern_a(200)
        method = measure_tlm(workload, engine="method", repeats=5)
        thread = measure_tlm(workload, engine="thread", repeats=5)
        # Identical results; the thread engine pays generator resumes and
        # event traffic on top, so best-of-5 must not be faster.
        assert method.simulated_cycles == thread.simulated_cycles
        assert method.wall_seconds <= thread.wall_seconds * 1.05

    @pytest.mark.parametrize(
        "engine, level", [("method", "tlm"), ("thread", "tlm-threaded")]
    )
    def test_measure_tlm_times_the_named_engine(self, monkeypatch, engine, level):
        from repro.analysis import measure_tlm, speed

        timed = []
        real = speed._measure

        def spy(label, lvl, *args):
            timed.append((label, lvl))
            return real(label, lvl, *args)

        monkeypatch.setattr(speed, "_measure", spy)
        sample = measure_tlm(single_master_workload(5), engine=engine, repeats=1)
        assert timed == [(f"tlm-{engine}", level)]
        assert sample.model == f"tlm-{engine}"
        assert sample.simulated_cycles > 0

    @pytest.mark.parametrize("engine", ["rtl", "tlm", "methd"])
    def test_measure_tlm_rejects_unknown_engine(self, engine):
        from repro.analysis import measure_tlm
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="unknown engine"):
            measure_tlm(single_master_workload(5), engine=engine, repeats=1)

    def test_kernel_comparison(self):
        native, event = kernel_comparison(single_master_workload(30), cycles=400)
        assert native.simulated_cycles == event.simulated_cycles == 400
        # Event-driven per-cycle scheduling can only add overhead.
        assert event.wall_seconds >= native.wall_seconds * 0.8


class TestExperiments:
    def test_write_buffer_ablation_shape(self):
        points = experiment_write_buffer(transactions=50, depths=(2, 4))
        off = points[0]
        assert off.label == "off" and off.absorbed == 0
        deepest = points[-1]
        assert deepest.absorbed > 0
        assert deepest.mean_write_latency < off.mean_write_latency

    def test_bank_interleaving_shape(self):
        on, off = experiment_bank_interleaving(transactions=60)
        assert on.label == "bi-on" and off.label == "bi-off"
        assert on.prepared_banks > 0 and off.prepared_banks == 0
        assert on.cycles < off.cycles
        assert on.row_hit_rate > off.row_hit_rate

    def test_qos_shape(self):
        plain, ahbp = experiment_qos(transactions=40)
        assert plain.label == "plain-ahb" and ahbp.label == "ahb+"
        assert plain.miss_rate > ahbp.miss_rate
        assert ahbp.miss_rate == 0.0
        assert ahbp.worst_latency < plain.worst_latency

    def test_filter_ablation_covers_all_filters(self):
        points = experiment_filters(transactions=40)
        assert [p.disabled for p in points] == [
            "none",
            "request",
            "hazard",
            "urgency",
            "real-time",
            "pressure",
            "bank",
            "urgency+real-time",
        ]
        baseline = points[0]
        assert all(p.cycles > 0 for p in points)
        assert baseline.rt_misses == 0
        # Removing both QoS filters must not *improve* deadline behaviour.
        qos_off = next(p for p in points if p.disabled == "urgency+real-time")
        assert qos_off.rt_misses >= baseline.rt_misses
