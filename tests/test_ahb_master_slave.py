"""Tests for the TlmMaster traffic agent and the SRAM slave."""

import pytest

from repro.ahb.master import TlmMaster, TrafficItem
from repro.ahb.slave import SramSlave
from repro.ahb.transaction import Transaction
from repro.ahb.types import AccessKind
from repro.errors import ConfigError, TrafficError


def read(master=0, addr=0x100, beats=1):
    return Transaction(master=master, kind=AccessKind.READ, addr=addr, beats=beats)


def write(master=0, addr=0x100, data=(5,)):
    return Transaction(
        master=master,
        kind=AccessKind.WRITE,
        addr=addr,
        beats=len(data),
        data=list(data),
    )


class TestTlmMaster:
    def test_closed_loop_think_time(self):
        items = [
            TrafficItem(read(), think_cycles=3),
            TrafficItem(read(addr=0x200), think_cycles=4),
        ]
        agent = TlmMaster(0, "m", items)
        first = agent.pending(3)
        assert first is not None and agent.pending(2) is None
        agent.complete(first, 10)
        assert agent.earliest_request() == 14

    def test_not_before_constraint(self):
        items = [TrafficItem(read(), think_cycles=0, not_before=50)]
        agent = TlmMaster(0, "m", items)
        assert agent.pending(49) is None
        assert agent.pending(50) is not None

    def test_deadline_offset_applied_at_issue(self):
        items = [TrafficItem(read(), think_cycles=5, deadline_offset=100)]
        agent = TlmMaster(0, "m", items)
        txn = agent.pending(5)
        assert txn is not None and txn.deadline == 105

    def test_absolute_deadline_wins(self):
        items = [
            TrafficItem(
                read(), think_cycles=5, deadline_offset=None, absolute_deadline=77
            )
        ]
        agent = TlmMaster(0, "m", items)
        assert agent.pending(5).deadline == 77

    def test_absorb_marks_via_buffer(self):
        items = [TrafficItem(write())]
        agent = TlmMaster(0, "m", items)
        txn = agent.pending(0)
        agent.absorb(txn, 7)
        assert txn.via_write_buffer and txn.finished_at == 7
        assert agent.done

    def test_wrong_master_rejected(self):
        items = [TrafficItem(read(master=3))]
        with pytest.raises(TrafficError):
            TlmMaster(0, "m", items)

    def test_complete_foreign_txn_rejected(self):
        agent = TlmMaster(0, "m", [TrafficItem(read())])
        with pytest.raises(TrafficError):
            agent.complete(read(), 5)

    def test_done_and_counters(self):
        agent = TlmMaster(0, "m", [TrafficItem(read(beats=4))])
        txn = agent.pending(0)
        agent.complete(txn, 9)
        assert agent.done
        assert agent.transactions_completed == 1
        assert agent.completed == [txn]


class TestSramSlave:
    def test_write_then_read_roundtrip(self):
        slave = SramSlave(wait_states=1)
        w = write(data=(0xAA, 0xBB))
        finish = slave.serve(w, 0)
        r = read(beats=2)
        slave.serve(r, finish + 1)
        assert r.data == [0xAA, 0xBB]

    def test_timing_first_access_wait_states(self):
        slave = SramSlave(wait_states=2, burst_wait_states=0)
        txn = read(beats=4)
        finish = slave.serve(txn, 10)
        # addr phase at 10; first beat lands after 2 waits (cycle 13);
        # three more back-to-back beats end at cycle 16.
        assert finish == 16

    def test_out_of_range_rejected(self):
        slave = SramSlave(size=0x100)
        with pytest.raises(ConfigError):
            slave.serve(read(addr=0x200), 0)

    def test_negative_wait_states_rejected(self):
        with pytest.raises(ConfigError):
            SramSlave(wait_states=-1)

    def test_default_bi_hooks(self):
        slave = SramSlave()
        txn = read()
        assert slave.access_permitted_at(txn, 5) == 5
