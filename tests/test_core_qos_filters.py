"""Tests for the QoS register file and the seven arbitration filters."""

import pytest

from repro.ahb.transaction import Transaction
from repro.ahb.types import AccessKind
from repro.core.filters import (
    ArbitrationContext,
    BankFilter,
    Candidate,
    FILTER_NAMES,
    HazardFilter,
    PressureFilter,
    RealTimeFilter,
    RequestFilter,
    TieBreakFilter,
    UrgencyFilter,
    default_filter_chain,
)
from repro.core.qos import QosRegisterFile, QosSetting
from repro.errors import ConfigError


def txn(master=0, addr=0x0, write=False, issued=0):
    t = Transaction(
        master=master,
        kind=AccessKind.WRITE if write else AccessKind.READ,
        addr=addr,
        data=[0] if write else [],
    )
    t.issued_at = issued
    return t


def cand(master=0, addr=0x0, write=False, issued=0, rt=False, deadline=None, wb=False):
    return Candidate(
        txn=txn(master, addr, write, issued),
        from_write_buffer=wb,
        real_time=rt,
        deadline=deadline,
    )


def ctx(**kwargs):
    kwargs.setdefault("now", 100)
    return ArbitrationContext(**kwargs)


class TestQosRegisterFile:
    def test_configure_installs_setting(self):
        regs = QosRegisterFile(2)
        regs.configure(1, QosSetting(True, 55))
        assert regs.setting(1) == QosSetting(True, 55)
        assert regs.is_real_time(1)

    def test_default_is_nrt(self):
        regs = QosRegisterFile(2)
        assert not regs.is_real_time(0)
        assert regs.deadline_for(txn()) is None

    def test_deadline_from_objective(self):
        regs = QosRegisterFile(1)
        regs.configure(0, QosSetting(True, 50))
        t = txn(issued=10)
        assert regs.deadline_for(t) == 60

    def test_explicit_deadline_wins(self):
        regs = QosRegisterFile(1)
        regs.configure(0, QosSetting(True, 50))
        t = txn(issued=10)
        t.deadline = 30
        assert regs.deadline_for(t) == 30

    def test_rt_objective_required(self):
        with pytest.raises(ConfigError):
            QosSetting(real_time=True, objective_cycles=0)

    def test_out_of_range_master(self):
        regs = QosRegisterFile(2)
        with pytest.raises(ConfigError):
            regs.configure(5, QosSetting())
        with pytest.raises(ConfigError):
            regs.is_real_time(2)
        with pytest.raises(ConfigError):
            regs.is_real_time(-1)

    def test_reconfigure_to_nrt_clears_real_time(self):
        regs = QosRegisterFile(2)
        regs.configure(0, QosSetting(True, 20))
        regs.configure(0, QosSetting())
        assert not regs.is_real_time(0)
        assert regs.deadline_for(txn(master=0, issued=5)) is None

    def test_miss_tracking(self):
        regs = QosRegisterFile(1)
        regs.configure(0, QosSetting(True, 10))
        ok = txn(issued=0)
        ok.finished_at = 5
        regs.record_completion(ok, regs.deadline_for(ok))
        late = txn(issued=0)
        late.finished_at = 50
        regs.record_completion(late, regs.deadline_for(late))
        assert regs.deadline_hits == 1 and regs.deadline_misses == 1


class TestFilters:
    def test_request_filter_drops_future_requests(self):
        filt = RequestFilter()
        live = cand(0, issued=50)
        future = cand(1, issued=150)
        assert filt.apply([live, future], ctx()) == [live]

    def test_hazard_filter_forces_buffer(self):
        filt = HazardFilter()
        reader = cand(0)
        drain = cand(2, wb=True, write=True)
        out = filt.apply([reader, drain], ctx(read_hazard=True))
        assert out == [drain]
        assert filt.apply([reader, drain], ctx(read_hazard=False)) == [reader, drain]

    def test_urgency_filter_edf_among_urgent(self):
        filt = UrgencyFilter()
        lax = cand(0, rt=True, deadline=500)
        urgent_a = cand(1, rt=True, deadline=120)
        urgent_b = cand(2, rt=True, deadline=110)
        out = filt.apply([lax, urgent_a, urgent_b], ctx(urgency_margin=32))
        assert [c.master for c in out] == [2]

    def test_urgency_filter_abstains_without_urgent(self):
        filt = UrgencyFilter()
        cands = [cand(0, rt=True, deadline=900), cand(1)]
        assert filt.apply(cands, ctx(urgency_margin=32)) == cands

    def test_real_time_filter(self):
        filt = RealTimeFilter()
        rt = cand(0, rt=True)
        nrt = cand(1)
        assert filt.apply([nrt, rt], ctx()) == [rt]
        assert filt.apply([nrt], ctx()) == [nrt]  # abstains

    def test_pressure_filter_at_watermark(self):
        filt = PressureFilter()
        drain = cand(2, wb=True, write=True)
        master = cand(0)
        full = ctx(write_buffer_occupancy=3, write_buffer_depth=4)
        assert filt.apply([master, drain], full) == [drain]
        light = ctx(write_buffer_occupancy=1, write_buffer_depth=4)
        assert filt.apply([master, drain], light) == [master, drain]

    def test_bank_filter_prefers_cheapest(self):
        scores = {0x0: 2, 0x100: 0}
        filt = BankFilter()
        conflict = cand(0, addr=0x0, issued=95)
        hit = cand(1, addr=0x100, issued=95)
        out = filt.apply([conflict, hit], ctx(access_score=lambda a: scores[a]))
        assert out == [hit]

    def test_bank_filter_abstains_without_scores(self):
        filt = BankFilter()
        cands = [cand(0), cand(1)]
        assert filt.apply(cands, ctx(access_score=None)) == cands

    def test_bank_filter_aging_bypasses_cost(self):
        scores = {0x0: 2, 0x100: 0}
        filt = BankFilter()
        starved = cand(0, addr=0x0, issued=0)
        fresh = cand(1, addr=0x100, issued=99)
        out = filt.apply(
            [starved, fresh],
            ctx(now=100, access_score=lambda a: scores[a], starvation_limit=32),
        )
        assert out == [starved]

    def test_tie_break_fixed(self):
        filt = TieBreakFilter("fixed", num_masters=4)
        out = filt.apply([cand(2), cand(1), cand(3)], ctx())
        assert [c.master for c in out] == [1]

    def test_tie_break_buffer_ranks_last(self):
        filt = TieBreakFilter("fixed", num_masters=4)
        out = filt.apply([cand(3), cand(0, wb=True, write=True)], ctx())
        assert out[0].master == 3

    def test_tie_break_round_robin_rotates(self):
        filt = TieBreakFilter("round_robin", num_masters=3)
        winners = []
        for _ in range(3):
            out = filt.apply([cand(0), cand(1), cand(2)], ctx())
            winners.append(out[0].master)
        assert winners == [0, 1, 2]

    def test_disabled_filter_passes_through(self):
        filt = RealTimeFilter()
        filt.enabled = False
        cands = [cand(0), cand(1, rt=True)]
        assert filt.apply(cands, ctx()) == cands

    def test_default_chain_has_seven_filters(self):
        chain = default_filter_chain()
        assert len(chain) == 7
        assert tuple(f.name for f in chain) == FILTER_NAMES

    def test_narrowing_stats(self):
        filt = RealTimeFilter()
        filt.apply([cand(0), cand(1, rt=True)], ctx())
        assert filt.rounds_applied == 1 and filt.rounds_narrowed == 1
