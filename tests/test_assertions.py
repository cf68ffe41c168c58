"""Tests for the assertion layer (protocol + property checkers)."""

import pytest

from repro.ahb.transaction import Transaction
from repro.ahb.types import AccessKind
from repro.assertions import (
    OrderingChecker,
    QosPropertyChecker,
    RtlProtocolChecker,
    TransactionChecker,
)
from repro.ddr.bank import BankFsm
from repro.ddr.timing import DDR_TEST
from repro.errors import PropertyViolation, ProtocolError
from repro.system import PlatformBuilder, paper_topology
from repro.traffic import single_master_workload, table1_pattern_c

from oracles import BankFsmChecker


def _platform(workload, level="tlm", config=None, **options):
    """*workload* on the paper topology, elaborated at *level*."""
    spec = paper_topology(workload=workload, config=config)
    return PlatformBuilder(spec).build(level, **options)


def served(txn, issued=0, grant=1, start=1, finish=10):
    txn.issued_at = issued
    txn.granted_at = grant
    txn.finished_at = finish
    return txn, grant, start, finish


class TestTransactionChecker:
    def test_clean_run_has_no_violations(self):
        platform = _platform(table1_pattern_c(30))
        checker = TransactionChecker()
        platform.bus.add_observer(checker)
        platform.run()
        assert checker.clean
        assert checker.checks_run > 0

    def test_causality_violation_flagged(self):
        checker = TransactionChecker()
        txn = Transaction(master=0, kind=AccessKind.READ, addr=0, data=[0])
        txn.data = [0]
        checker(*served(txn, issued=50, grant=10, start=10, finish=20))
        assert not checker.clean
        assert any(v.rule == "causality" for v in checker.violations)

    def test_read_data_shape_checked(self):
        checker = TransactionChecker()
        txn = Transaction(master=0, kind=AccessKind.READ, addr=0, beats=4)
        txn.data = [1]  # wrong beat count
        checker(*served(txn))
        assert any(v.rule == "data-shape" for v in checker.violations)

    def test_strict_mode_raises(self):
        checker = TransactionChecker(strict=True)
        txn = Transaction(master=0, kind=AccessKind.READ, addr=0)
        txn.data = [0]
        with pytest.raises(ProtocolError):
            checker(*served(txn, issued=50, grant=10))

    def test_summary(self):
        checker = TransactionChecker()
        assert "clean" in checker.summary()


class TestRtlProtocolChecker:
    def test_clean_on_real_rtl_run(self):
        platform = _platform(single_master_workload(15), "rtl")
        checker = RtlProtocolChecker(
            [m.sig for m in platform.masters] + [platform.buffer_master.sig],
            platform.bus,
        )
        platform.engine.add_cycle_hook(checker.sample)
        platform.run()
        assert checker.clean

    def test_multiple_grants_flagged(self):
        platform = _platform(table1_pattern_c(5), "rtl")
        checker = RtlProtocolChecker(
            [m.sig for m in platform.masters], platform.bus
        )
        for master in platform.masters:
            master.sig.hgrant.drive(1)
        checker.sample(0)
        assert any(v.rule == "grant-unique" for v in checker.violations)


class TestQosPropertyChecker:
    def test_counts_misses(self):
        checker = QosPropertyChecker()
        ok = Transaction(master=0, kind=AccessKind.READ, addr=0, deadline=100)
        ok.issued_at, ok.finished_at = 0, 50
        checker(ok, 1, 1, 50)
        late = Transaction(master=0, kind=AccessKind.READ, addr=0, deadline=10)
        late.issued_at, late.finished_at = 0, 50
        checker(late, 1, 1, 50)
        assert checker.rt_transactions == 2
        assert checker.misses == 1

    def test_strict_raises_property_violation(self):
        checker = QosPropertyChecker(strict=True)
        late = Transaction(master=0, kind=AccessKind.READ, addr=0, deadline=10)
        late.issued_at, late.finished_at = 0, 50
        with pytest.raises(PropertyViolation):
            checker(late, 1, 1, 50)


class TestOrderingChecker:
    def test_fresh_read_is_clean(self):
        checker = OrderingChecker()
        w = Transaction(
            master=0, kind=AccessKind.WRITE, addr=0x10, data=[7]
        )
        w.issued_at = w.finished_at = 0
        checker(w, 0, 0, 0)
        r = Transaction(master=0, kind=AccessKind.READ, addr=0x10)
        r.data = [7]
        checker(r, 1, 1, 1)
        assert checker.clean

    def test_stale_read_flagged(self):
        checker = OrderingChecker()
        w = Transaction(master=0, kind=AccessKind.WRITE, addr=0x10, data=[7])
        checker(w, 0, 0, 0)
        stale = Transaction(master=0, kind=AccessKind.READ, addr=0x10)
        stale.data = [0]
        checker(stale, 1, 1, 1)
        assert any(v.rule == "stale-read" for v in checker.violations)

    def test_clean_on_real_run(self):
        platform = _platform(table1_pattern_c(30))
        checker = OrderingChecker()
        platform.bus.add_observer(checker)
        platform.run()
        assert checker.clean


class TestBankFsmChecker:
    def test_legal_sequence_clean(self):
        banks = [BankFsm(0, DDR_TEST)]
        checker = BankFsmChecker(banks)
        banks[0].activate(row=1)
        for cycle in range(DDR_TEST.t_rcd + 1):
            banks[0].tick()
            checker.sample(cycle)
        assert checker.clean

    def test_clean_on_real_rtl_run(self):
        platform = _platform(single_master_workload(10), "rtl")
        checker = BankFsmChecker(platform.ddrc.banks)
        platform.engine.add_cycle_hook(checker.sample)
        platform.run()
        assert checker.clean
