"""The committed paper figures (``paper_results.json``, ``make paper``).

Cycle counts are deterministic, so the figures are compared exactly: a
change to any of them fails here until ``make paper`` re-records the
file on purpose.  The paper's claims are then asserted on the committed
figures, so a re-recording can never hide a broken claim.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import Table1Result, paper_results

RESULTS = Path(__file__).resolve().parent.parent / "paper_results.json"
COMMITTED = json.loads(RESULTS.read_text()) if RESULTS.exists() else {}


def _points(figure):
    return COMMITTED[figure]["points"]


def _by_label(figure, key="label"):
    return {point[key]: point for point in _points(figure)}


def test_the_file_is_committed_with_sorted_keys():
    assert RESULTS.read_text() == json.dumps(COMMITTED, indent=2, sort_keys=True) + "\n"


def test_regenerated_figures_equal_the_committed_file():
    assert json.loads(json.dumps(paper_results())) == COMMITTED


def test_make_paper_writes_nothing_outside_the_repository_root(tmp_path, monkeypatch, capsys):
    from repro.analysis.__main__ import main

    monkeypatch.chdir(tmp_path)
    assert main() == 1
    assert list(tmp_path.iterdir()) == []
    assert "run from the repository root" in capsys.readouterr().err


class TestTable1:
    """Paper Table 1: TLM cycle counts within a few % of RTL."""

    @pytest.fixture(scope="class")
    def table1(self):
        return Table1Result.from_json(_points("table1"))

    def test_covers_the_three_suites_at_paper_scale(self, table1):
        assert COMMITTED["table1"]["transactions"] == 250
        assert [suite.workload for suite in table1.suites] == ["pattern_a", "pattern_b", "pattern_c"]
        assert all(len(suite.rows) == 4 for suite in table1.suites)

    def test_average_suite_error_is_paper_grade(self, table1):
        assert table1.average_error_pct <= 8.0  # paper: < 3 %

    def test_some_suite_is_nearly_exact(self, table1):
        assert min(suite.total_error_pct for suite in table1.suites) < 1.0

    def test_every_suite_is_within_bound(self, table1):
        assert max(suite.total_error_pct for suite in table1.suites) < 12.0

    def test_both_levels_complete_every_transaction_and_drain_every_posted_write(self, table1):
        for suite in table1.suites:
            assert suite.rtl.transactions == suite.tlm.transactions == 4 * 250
            for level in (suite.rtl, suite.tlm):
                assert level.drained_writes == level.absorbed_writes


class TestQos:
    """Paper §2: plain AMBA 2.0 cannot guarantee QoS; AHB+ can."""

    def test_plain_ahb_starves_the_rt_stream(self):
        plain = _by_label("qos")["plain-ahb"]
        assert plain["deadline_misses"] / plain["rt_transactions"] > 0.5

    def test_ahbplus_meets_every_deadline(self):
        ahbp = _by_label("qos")["ahb+"]
        assert ahbp["rt_transactions"] > 0 and ahbp["deadline_misses"] == 0

    def test_ahbplus_worst_latency_is_below_plain(self):
        points = _by_label("qos")
        assert points["ahb+"]["worst_latency"] < points["plain-ahb"]["worst_latency"]


class TestBankInterleaving:
    """Paper §2/§3.4: the BI lets the DDRC prepare the next bank."""

    def test_bi_improves_throughput(self):
        points = _by_label("bank_interleaving")
        assert points["bi-on"]["cycles"] < points["bi-off"]["cycles"]

    def test_only_bi_prepares_banks(self):
        points = _by_label("bank_interleaving")
        assert points["bi-on"]["prepared_banks"] > 0
        assert points["bi-off"]["prepared_banks"] == 0

    def test_bi_raises_the_row_hit_rate(self):
        points = _by_label("bank_interleaving")
        assert points["bi-on"]["row_hit_rate"] > points["bi-off"]["row_hit_rate"]


class TestWriteBuffer:
    """Paper §3.3/§3.7: posted writes cut master-observed write latency."""

    def test_off_absorbs_nothing(self):
        assert _by_label("write_buffer")["off"]["absorbed"] == 0

    def test_deepest_buffer_absorbs_and_cuts_write_latency(self):
        points = _by_label("write_buffer")
        assert points["depth8"]["absorbed"] > 0
        assert points["depth8"]["mean_write_latency"] < points["off"]["mean_write_latency"]

    def test_absorbed_writes_do_not_fall_as_depth_grows(self):
        points = _points("write_buffer")
        assert [point["depth"] for point in points] == [0, 1, 2, 4, 8]
        absorbed = [point["absorbed"] for point in points[1:]]
        assert absorbed == sorted(absorbed)


class TestFilters:
    """Paper §3.3/§3.7: the switchable arbitration filters."""

    def test_each_filter_is_disabled_in_turn_in_order(self):
        assert [point["disabled"] for point in _points("filters")] == [
            "none", "request", "hazard", "urgency", "real-time", "pressure", "bank", "urgency+real-time",
        ]

    def test_baseline_meets_every_deadline(self):
        assert _by_label("filters", "disabled")["none"]["rt_misses"] == 0

    @pytest.mark.parametrize("disabled", ["urgency", "urgency+real-time"])
    def test_disabling_qos_filters_never_helps_deadlines(self, disabled):
        points = _by_label("filters", "disabled")
        assert points[disabled]["rt_misses"] >= points["none"]["rt_misses"]
