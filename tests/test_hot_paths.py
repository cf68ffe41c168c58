"""Unit tests for the hot-path machinery added by the perf overhaul.

Covers the bucketed event queue's FIFO guarantees, the allocation-free
``Event.notify`` snapshot semantics, the cycle engine's sensitivity
skipping and touch discipline, and the arbiter's single-candidate fast
path (statistics- and rotation-preserving).
"""

import pytest

from repro.ahb.transaction import Transaction
from repro.ahb.types import AccessKind
from repro.core.arbiter import AhbPlusArbiter
from repro.core.filters import ArbitrationContext, Candidate
from repro.errors import ConfigError
from repro.kernel.cycle import CycleEngine
from repro.kernel.events import Event, EventQueue
from repro.kernel.signal import Signal


def _txn(master=0, addr=0, kind=AccessKind.READ, issued=0):
    txn = Transaction(master=master, kind=kind, addr=addr)
    txn.issued_at = issued
    return txn


class TestBucketedQueue:
    def test_same_time_bucket_is_fifo_across_interleaved_pushes(self):
        queue = EventQueue()
        order = []
        queue.push(5, lambda: order.append("a5"))
        queue.push(3, lambda: order.append("a3"))
        queue.push(5, lambda: order.append("b5"))
        queue.push(3, lambda: order.append("b3"))
        queue.push(5, lambda: order.append("c5"))
        while queue:
            _, action = queue.pop()
            action()
        assert order == ["a3", "b3", "a5", "b5", "c5"]

    def test_len_counts_entries_not_buckets(self):
        queue = EventQueue()
        for _ in range(4):
            queue.push(7, lambda: None)
        assert len(queue) == 4
        queue.pop()
        assert len(queue) == 3

    def test_bucket_drained_then_reused(self):
        queue = EventQueue()
        queue.push(1, lambda: "x")
        queue.pop()
        assert not queue
        queue.push(1, lambda: "y")
        assert queue.peek_time() == 1
        assert len(queue) == 1


class TestEventNotifyFastPath:
    def test_unsubscribed_mid_notify_still_delivered_this_round(self):
        """Seed semantics: delivery uses the set present at notify()."""
        event = Event()
        seen = []

        def first():
            seen.append("first")
            if not seen.count("second"):
                event.unsubscribe(second)

        def second():
            seen.append("second")

        event.subscribe(first)
        event.subscribe(second)
        event.notify()
        assert seen == ["first", "second"]
        event.notify()
        assert seen == ["first", "second", "first"]

    def test_no_mutation_means_no_snapshot(self):
        event = Event()
        seen = []
        event.subscribe(lambda: seen.append(1))
        event.subscribe(lambda: seen.append(2))
        event.notify()
        assert seen == [1, 2]
        assert event._round is None

    def test_reentrant_notify(self):
        event = Event()
        seen = []

        def reenter():
            seen.append("outer")
            if len(seen) == 1:
                event.notify()

        event.subscribe(reenter)
        event.subscribe(lambda: seen.append("tail"))
        event.notify()
        # Outer round fires reenter + tail; the nested round does too.
        assert seen == ["outer", "outer", "tail", "tail"]


class TestSensitivityEngine:
    def test_sensitive_process_skipped_until_input_changes(self):
        engine = CycleEngine()
        src = Signal("src", width=8)
        dst = Signal("dst", width=8)
        engine.add_signal(src, dst)
        runs = []

        def comb():
            runs.append(engine.cycle)
            dst.drive(src.value + 1)

        engine.add_combinational(comb, sensitive_to=(src,))
        engine.step()  # initial evaluation (process starts dirty)
        baseline = len(runs)
        engine.run(3)  # src never changes -> no re-evaluation
        assert len(runs) == baseline
        src.drive(5)
        engine.step()
        assert len(runs) > baseline
        assert dst.value == 6

    def test_touch_forces_reevaluation(self):
        engine = CycleEngine()
        out = Signal("out", width=8)
        engine.add_signal(out)
        state = {"level": 0}
        handle = engine.add_combinational(
            lambda: out.drive(state["level"]), sensitive_to=()
        )
        engine.step()
        state["level"] = 9
        engine.run(2)
        assert out.value == 0  # engine cannot see the dict mutation
        handle.touch()
        engine.step()
        assert out.value == 9

    def test_static_process_runs_every_pass(self):
        engine = CycleEngine()
        count = Signal("count", width=16)
        engine.add_signal(count)
        runs = []
        engine.add_combinational(lambda: runs.append(True))
        engine.add_sequential(lambda: count.drive_next(count.value + 1))
        engine.run(3)
        # Two settles per cycle, at least one pass each.
        assert len(runs) >= 6


class TestSingleCandidateFastPath:
    def _ctx(self, now=0):
        return ArbitrationContext(now=now)

    def test_stats_match_filter_chain_semantics(self):
        arbiter = AhbPlusArbiter(num_masters=4)
        lone = Candidate(txn=_txn(master=2))
        winner = arbiter.choose([lone], self._ctx())
        assert winner is lone
        stats = arbiter.filter_stats()
        # Narrowing filters skip singleton sets entirely...
        for name in ("request", "hazard", "urgency", "real-time", "pressure", "bank"):
            assert stats[name]["applied"] == 0
        # ...while the mandatory tie-break still counts an application.
        assert stats["tie-break"]["applied"] == 1
        assert stats["tie-break"]["narrowed"] == 0
        assert arbiter.rounds == 1

    def test_round_robin_rotation_preserved_by_fast_path(self):
        """A lone winner still rotates priority, as the full chain did."""
        arbiter = AhbPlusArbiter(tie_break="round_robin", num_masters=4)
        lone = Candidate(txn=_txn(master=1))
        arbiter.choose([lone], self._ctx())
        # After master 1 wins, master 2 outranks master 0 on the next tie.
        pair = [Candidate(txn=_txn(master=0)), Candidate(txn=_txn(master=2))]
        winner = arbiter.choose(pair, self._ctx())
        assert winner.master == 2

    def test_multi_candidate_path_unchanged(self):
        arbiter = AhbPlusArbiter(num_masters=4)
        pair = [Candidate(txn=_txn(master=3)), Candidate(txn=_txn(master=1))]
        winner = arbiter.choose(pair, self._ctx())
        assert winner.master == 1  # fixed priority: lowest index
        assert arbiter.filter_stats()["request"]["applied"] == 1


class TestQosFastLookup:
    def test_out_of_range_master_still_raises(self):
        from repro.core.qos import QosRegisterFile

        qos = QosRegisterFile(2)
        with pytest.raises(ConfigError):
            qos.is_real_time(5)
        with pytest.raises(ConfigError):
            qos.is_real_time(-1)
