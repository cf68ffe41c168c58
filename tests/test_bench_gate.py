"""The speed gate over perfbench (``make bench``) and its committed ledger."""

import json
import sys
from pathlib import Path

import pytest

import benchmarks.bench_regression as driver
from benchmarks.bench_regression import BASELINE_REPEAT, SCHEMA, gate

REPO_ROOT = Path(__file__).parent.parent
BENCH = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
LEDGER = json.loads((REPO_ROOT / "BENCH_speed.json").read_text())
METRICS = {metric["name"]: metric for metric in BENCH["end_to_end"]}


def _ledger(median=100.0):
    metrics = {name: {"median": median, "q1": median, "q3": median, "unit": m["unit"]} for name, m in METRICS.items()}
    return {"schema": SCHEMA, "current": {"workloads": {"w": metrics}}}


def _result(values=None, correct=True, failed=0):
    values = {name: 100.0 for name in METRICS} | (values or {})
    return {
        "correct": correct,
        "attempted": 10,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": METRICS[name]["unit"]} for name, value in values.items()},
    }


def _failures(result):
    return [line for ok, line in gate({"w": result}, _ledger(), BENCH) if not ok]


def _past_bound(metric, factor):
    """A value *factor* times the metric's bound worse than the median."""
    step = 100.0 * metric["bound"] * factor
    return 100.0 + step if metric["better"] == "lower" else 100.0 - step


class TestGate:
    def test_within_bound_passes(self):
        values = {name: _past_bound(metric, 0.9) for name, metric in METRICS.items()}
        assert _failures(_result(values)) == []

    @pytest.mark.parametrize("name", sorted(METRICS))
    def test_past_bound_fails(self, name):
        [failure] = _failures(_result({name: _past_bound(METRICS[name], 1.2)}))
        assert f"w: {name} " in failure
        assert f"{METRICS[name]['better']} is better" in failure

    @pytest.mark.parametrize("name", sorted(METRICS))
    def test_better_than_median_passes_any_distance(self, name):
        assert _failures(_result({name: _past_bound(METRICS[name], -3.0)})) == []

    @pytest.mark.parametrize("failed", [0, 1])
    def test_incorrect_run_fails_whatever_the_speed(self, failed):
        """A digest mismatch (0 failed) or a failed operation, which
        perfbench also reports as incorrect, fails the one verdict line."""
        fast = {name: _past_bound(metric, -1.0) for name, metric in METRICS.items()}
        [failure] = _failures(_result(fast, correct=False, failed=failed))
        assert f"w: verdict INCORRECT ({failed} of 10 operations failed)" == failure

    def test_each_workload_is_gated_against_its_own_medians(self):
        ledger = _ledger()
        ledger["current"]["workloads"]["v"] = _ledger(median=200.0)["current"]["workloads"]["w"]
        at_v_medians = {name: 200.0 for name in METRICS}
        rows = gate({"w": _result(), "v": _result(at_v_medians)}, ledger, BENCH)
        assert all(ok for ok, _ in rows)
        rows = gate({"w": _result(at_v_medians), "v": _result(at_v_medians)}, ledger, BENCH)
        failed = {line.split(":")[0] for ok, line in rows if not ok}
        assert failed == {"w"}


def _summary(correct=True, scale=1.0, spread=0.04):
    """A ``--repeat`` perfbench summary with every end-to-end metric."""
    metrics = {
        name: {
            "median": 10.0 * scale,
            "q1": (10.0 - 5.0 * spread) * scale,
            "q3": (10.0 + 5.0 * spread) * scale,
            "spread": spread,
            "unit": m["unit"],
        }
        for name, m in METRICS.items()
    }
    return {"workload": "w", "runs": BASELINE_REPEAT, "correct": correct, "metrics": metrics}


@pytest.fixture
def fake_perfbench(monkeypatch, tmp_path):
    """Point the driver at a ledger under *tmp_path* and record the
    perfbench invocations instead of running them; tests set the reply."""
    monkeypatch.setattr(driver, "LEDGER", tmp_path / "BENCH_speed.json")
    monkeypatch.setattr(driver, "host", lambda: {"node": "bench-host", "python": "3.x"})
    calls = []

    class Fake:
        reply = staticmethod(lambda workload, args: _summary())

        def __call__(self, bench, workload, *args):
            calls.append((workload, args))
            return self.reply(workload, args)

    fake = Fake()
    fake.calls = calls
    monkeypatch.setattr(driver, "run_perfbench", fake)
    return fake


class TestRunPerfbench:
    def _bench(self, script):
        return dict(BENCH, command=[sys.executable, "-c", script])

    def test_returns_the_last_line_and_passes_workload_and_run_length(self, capsys):
        script = "import json, sys; print('report'); print(json.dumps(sys.argv[1:]))"
        argv = driver.run_perfbench(self._bench(script), "tlm-sweep", "--seed", "1")
        assert argv == ["--workload", "tlm-sweep", "--seconds", str(BENCH["run_seconds"]), "--seed", "1"]
        assert "report" in capsys.readouterr().out  # the report is echoed

    def test_nonzero_exit_stops_the_driver(self):
        with pytest.raises(SystemExit, match="status 3"):
            driver.run_perfbench(self._bench("raise SystemExit(3)"), "tlm-sweep")


class TestWriteBaseline:
    def test_records_median_and_quartiles_of_every_workload_and_metric(self, fake_perfbench):
        assert driver.write_baseline(BENCH) == 0
        workloads = [spec["name"] for spec in BENCH["workloads"]]
        repeat = ("--seed", "1", "--repeat", str(BASELINE_REPEAT))
        assert fake_perfbench.calls == [(name, repeat) for name in workloads]
        ledger = json.loads(driver.LEDGER.read_text())
        assert ledger["schema"] == SCHEMA and ledger["history"] == []
        current = ledger["current"]
        assert current["host"] == {"node": "bench-host", "python": "3.x"}
        assert current["runs"] == BASELINE_REPEAT
        assert list(current["workloads"]) == workloads
        for recorded in current["workloads"].values():
            assert recorded == {
                name: {"median": 10.0, "q1": 9.8, "q3": 10.2, "unit": m["unit"]} for name, m in METRICS.items()
            }

    def test_outgoing_current_block_moves_to_history(self, fake_perfbench):
        assert driver.write_baseline(BENCH) == 0
        first = json.loads(driver.LEDGER.read_text())["current"]
        fake_perfbench.reply = lambda workload, args: _summary(scale=2.0)
        assert driver.write_baseline(BENCH) == 0
        ledger = json.loads(driver.LEDGER.read_text())
        assert ledger["history"] == [first]
        assert ledger["current"]["workloads"]["tlm-sweep"]["setup_s"]["median"] == 20.0

    def test_older_schema_is_not_carried_into_history(self, fake_perfbench):
        driver.LEDGER.write_text(json.dumps({"schema": 1, "current": {"kcycles": 1}, "history": [{}]}))
        assert driver.write_baseline(BENCH) == 0
        assert json.loads(driver.LEDGER.read_text())["history"] == []

    def test_incorrect_run_leaves_the_ledger_untouched(self, fake_perfbench, capsys):
        driver.LEDGER.write_text("previous ledger\n")
        fake_perfbench.reply = lambda workload, args: _summary(correct=workload != "rtl-accuracy")
        assert driver.write_baseline(BENCH) == 1
        assert driver.LEDGER.read_text() == "previous ledger\n"
        assert "rtl-accuracy: a run was INCORRECT" in capsys.readouterr().err

    def test_a_spread_past_its_bound_leaves_the_ledger_untouched(self, fake_perfbench, capsys):
        """A noisy recording would widen every later gate; refuse it."""
        driver.LEDGER.write_text("previous ledger\n")
        rss_bound = METRICS["peak_rss_mb"]["bound"]
        fake_perfbench.reply = lambda workload, args: _summary(
            spread=rss_bound * 1.5 if workload == "serve-closed-loop" else 0.04
        )
        assert driver.write_baseline(BENCH) == 1
        assert driver.LEDGER.read_text() == "previous ledger\n"
        assert "serve-closed-loop: peak_rss_mb spread 15.0% exceeds its bound 10%" in capsys.readouterr().err


class TestMain:
    def _record_ledger(self, fake_perfbench):
        fake_perfbench.reply = lambda workload, args: _summary(scale=10.0)  # medians of 100
        assert driver.main(["--write-baseline"]) == 0
        fake_perfbench.calls.clear()

    def test_without_a_perfbench_ledger_exits_2(self, fake_perfbench, capsys):
        driver.LEDGER.write_text(json.dumps({"seed": {}, "current": {}}))  # the retired format
        assert driver.main([]) == 2
        assert fake_perfbench.calls == []
        assert "make bench-baseline" in capsys.readouterr().err

    def test_runs_each_workload_once_at_seed_1_and_passes(self, fake_perfbench, capsys):
        self._record_ledger(fake_perfbench)
        fake_perfbench.reply = lambda workload, args: _result()
        assert driver.main([]) == 0
        assert fake_perfbench.calls == [(spec["name"], ("--seed", "1")) for spec in BENCH["workloads"]]
        checks = len(BENCH["workloads"]) * (1 + len(METRICS))
        out = capsys.readouterr().out
        assert f"ok: all {checks} checks passed" in out
        assert "note:" not in out  # same host as the ledger

    def test_one_slow_metric_exits_1(self, fake_perfbench, capsys):
        self._record_ledger(fake_perfbench)
        slow = {"ops_per_s": _past_bound(METRICS["ops_per_s"], 1.2)}
        fake_perfbench.reply = lambda workload, args: _result(slow if workload == "tlm-sweep" else None)
        assert driver.main([]) == 1
        out = capsys.readouterr().out
        assert "FAIL tlm-sweep: ops_per_s" in out
        assert "1 of" in out and "checks failed" in out


    def test_a_ledger_from_another_host_is_noted_beside_the_verdict(self, fake_perfbench, monkeypatch, capsys):
        self._record_ledger(fake_perfbench)
        fake_perfbench.reply = lambda workload, args: _result()
        monkeypatch.setattr(driver, "host", lambda: {"node": "laptop", "python": "3.x"})
        assert driver.main([]) == 0  # a note, not a failure
        out = capsys.readouterr().out
        assert "note: the ledger was measured on bench-host (Python 3.x), not this host" in out


class TestCommittedLedger:
    def test_names_every_workload_and_end_to_end_metric(self):
        assert LEDGER["schema"] == SCHEMA
        workloads = LEDGER["current"]["workloads"]
        assert set(workloads) == {spec["name"] for spec in BENCH["workloads"]}
        for recorded in workloads.values():
            assert set(recorded) == set(METRICS)
            for name, stats in recorded.items():
                assert stats["unit"] == METRICS[name]["unit"]
                assert 0 < stats["q1"] <= stats["median"] <= stats["q3"]

    def test_spreads_are_within_every_bound(self):
        for recorded in LEDGER["current"]["workloads"].values():
            for name, stats in recorded.items():
                assert (stats["q3"] - stats["q1"]) / stats["median"] <= METRICS[name]["bound"]
