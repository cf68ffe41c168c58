"""The TLM bus's posted requests and its uncontended rounds.

A master's candidate is built once, when the master fetches its
transaction, and the round reads the posted candidates; a round with a
single candidate skips the context refresh and the hazard scan.  These
tests pin what must not change with that: the round and tie-break
counts and the round-robin rotation of an uncontended round, and a
posted candidate that always belongs to the master's current
transaction — also after a RETRY and after a failed transfer.
"""

import pytest

from repro.ahb.master import TlmMaster, TrafficItem
from repro.ahb.transaction import Transaction
from repro.ahb.types import AccessKind, HResp
from repro.core.arbiter import AhbPlusArbiter
from repro.core.bus import AhbPlusBusTlm
from repro.core.config import AhbPlusConfig
from repro.core.qos import QosSetting
from repro.core.threaded import ThreadedAhbPlusBus
from repro.ddr.controller import DdrControllerTlm
from repro.ddr.timing import DDR_TEST

RETRY, ERROR = int(HResp.RETRY), int(HResp.ERROR)


def read(master, addr, issued=0):
    txn = Transaction(master=master, kind=AccessKind.READ, addr=addr, beats=4)
    txn.issued_at = issued
    return txn


def idle_bus(tie_break, masters=3):
    """A bus whose masters replay nothing: requests are posted by hand."""
    agents = [TlmMaster(index, f"m{index}", ()) for index in range(masters)]
    config = AhbPlusConfig(num_masters=masters, tie_break=tie_break)
    return AhbPlusBusTlm(agents, [DdrControllerTlm(timing=DDR_TEST)], config)


class TestUncontendedRound:
    def test_lone_winner_rotates_round_robin(self):
        bus = idle_bus("round_robin")
        bus.post(1, read(1, 0x100))
        assert bus.arbitrate(0).txn.master == 1
        for master in range(3):
            bus.post(master, read(master, 0x1000 * master, issued=1))
        # Master 1 won last, so master 2 is next in the rotation.
        assert bus.arbitrate(1).txn.master == 2

    @pytest.mark.parametrize("tie_break", ["fixed", "round_robin"])
    def test_lone_winner_counts_like_a_full_choose(self, tie_break):
        bus = idle_bus(tie_break)
        twin = AhbPlusArbiter(tie_break=tie_break, num_masters=3)
        for cycle, master in enumerate((2, 0, 2, 1)):
            txn = read(master, 0x40 * cycle, issued=cycle)
            bus.post(master, txn)
            winner = bus.arbitrate(cycle)
            assert winner.txn is txn
            assert twin.choose([winner], bus.ctx) is winner
            bus.post(master, None)
        assert bus.arbiter.rounds == twin.rounds == 4
        assert bus.arbiter.filter_stats() == twin.filter_stats()
        assert bus.arbiter.filter_stats()["tie-break"]["applied"] == 4


def faulted(txn, plan, retry_limit=4):
    txn.fault_plan = tuple(plan)
    txn.retry_limit = retry_limit
    return txn


def agents():
    """Two masters whose transfers are retried, retried to failure and
    failed outright, between plain reads and writes."""
    m0 = [
        faulted(read(0, 0x000), [RETRY]),
        faulted(Transaction(0, AccessKind.WRITE, 0x100, 2, data=[1, 2]), [ERROR]),
        faulted(read(0, 0x200), [RETRY, RETRY], retry_limit=1),
        read(0, 0x300),
        Transaction(0, AccessKind.WRITE, 0x400, 1, data=[3]),
    ]
    m1 = [
        Transaction(1, AccessKind.WRITE, 0x800, 1, data=[4]),
        faulted(read(1, 0x900), [RETRY, RETRY]),
        faulted(Transaction(1, AccessKind.WRITE, 0xA00, 1, data=[5]), [ERROR]),
        read(1, 0xB00),
    ]
    return [
        TlmMaster(
            index,
            f"m{index}",
            [TrafficItem(txn=t, think_cycles=index, deadline_offset=60) for t in items],
        )
        for index, items in enumerate((m0, m1))
    ]


def build(engine):
    bus = engine(agents(), [DdrControllerTlm(timing=DDR_TEST)], AhbPlusConfig(num_masters=2))
    bus.qos.configure(1, QosSetting(real_time=True, objective_cycles=40))
    return bus


class TestPostedCandidates:
    def test_posted_request_is_the_masters_current_transaction(self):
        """At every cap, each posted candidate is its master's
        ``upcoming`` transaction with that transaction's deadline."""
        final = build(AhbPlusBusTlm).run()
        assert final.retry_responses == 5 and final.error_responses == 3
        for cap in range(0, final.cycles + 2):
            bus = build(AhbPlusBusTlm)
            bus.run(max_cycles=cap)
            posted = [c for c in bus.collect(10**9) if not c.from_write_buffer]
            assert [c.txn for c in posted] == [
                m.upcoming for m in bus.masters if m.upcoming is not None
            ]
            for cand in posted:
                assert cand.deadline == bus.qos.deadline_for(cand.txn)
                assert cand.real_time == bus.qos.is_real_time(cand.master)

    def test_faulted_traffic_matches_the_threaded_engine(self):
        method = build(AhbPlusBusTlm)
        threaded = build(ThreadedAhbPlusBus)
        assert method.run() == threaded.run()
        for a, b in zip(method.masters, threaded.masters):
            assert [(t.addr, t.resp, t.retries, t.finished_at) for t in a.completed] == [
                (t.addr, t.resp, t.retries, t.finished_at) for t in b.completed
            ]
