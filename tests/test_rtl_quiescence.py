"""Sequential quiescence and cycle skip-ahead correctness.

Three layers of evidence that the RTL fast-forward machinery changes
*cost*, never *behaviour*:

* a counting spy proves a drained master's ``update()`` really stops
  being called while the reference sweep keeps paying it every cycle —
  with bit-identical results;
* think-heavy traffic makes the engine skip whole cycle ranges, and
  cycle hooks still observe every cycle number exactly once; and
* kernel-level unit tests pin the :class:`~repro.kernel.cycle.SeqHandle`
  contract (idle/wake/timed wake, full-sweep opt-out, deadlock errors).
"""

from collections import Counter
from dataclasses import replace

import pytest

from repro.errors import SimulationError
from repro.kernel.cycle import CycleEngine, NULL_SEQ_HANDLE
from repro.kernel.signal import Signal
from repro.rtl.master import MasterRtl
from repro.system import PlatformBuilder, paper_topology
from repro.traffic.patterns import CPU, DMA
from repro.traffic.workloads import MasterSpec, Workload


def _uneven_workload(short: int = 3, long: int = 40) -> Workload:
    """Master 0 drains almost immediately; master 1 keeps the bus busy."""
    specs = (
        MasterSpec(
            "early", replace(CPU, base_addr=0, addr_span=1 << 20), short
        ),
        MasterSpec(
            "busy", replace(DMA, base_addr=1 << 20, addr_span=1 << 20), long
        ),
    )
    return Workload("uneven", specs, seed=31)


def _think_heavy_workload(transactions: int = 10) -> Workload:
    """Long uniform think gaps: most cycles are globally idle."""
    pat = replace(
        CPU, think_range=(80, 120), base_addr=0, addr_span=1 << 20
    )
    return Workload(
        "think_heavy", (MasterSpec("sleepy", pat, transactions),), seed=37
    )


class TestQuiescenceSpy:
    def _count_updates(self, monkeypatch, full_sweep):
        calls = Counter()
        orig = MasterRtl.update

        def counting(self):
            calls[self.index] += 1
            orig(self)

        monkeypatch.setattr(MasterRtl, "update", counting)
        platform = PlatformBuilder(
            paper_topology(workload=_uneven_workload())
        ).build("rtl", full_sweep=full_sweep)
        result = platform.run()
        return dict(calls), platform, result

    def test_drained_master_updates_are_skipped(self, monkeypatch):
        fast_calls, fast, fast_result = self._count_updates(
            monkeypatch, full_sweep=False
        )
        ref_calls, ref, ref_result = self._count_updates(
            monkeypatch, full_sweep=True
        )
        # Reference sweep: every master pays one update per cycle.
        assert ref_calls[0] == ref_result.cycles
        assert ref_calls[1] == ref_result.cycles
        # Fast engine: the early-drained master 0 sleeps for almost the
        # whole run, and even the busy master skips its wait cycles.
        assert fast_calls[0] < ref_calls[0] // 2
        assert fast_calls[1] < ref_calls[1]
        # ...while observable behaviour is bit-identical.
        assert fast_result.cycles == ref_result.cycles
        assert fast_result.transactions == ref_result.transactions
        assert fast_result.filter_stats == ref_result.filter_stats
        assert fast.memory.equal_contents(ref.memory)

    def test_full_sweep_never_idles_handles(self, monkeypatch):
        _calls, platform, _result = self._count_updates(
            monkeypatch, full_sweep=True
        )
        assert not platform.engine.quiescence_enabled
        assert platform.engine.cycles_skipped == 0


class TestSkipAhead:
    def test_think_gaps_are_skipped_with_identical_results(self):
        workload = _think_heavy_workload()
        builder = PlatformBuilder(paper_topology(workload=workload))
        fast = builder.build("rtl")
        reference = builder.build("rtl", full_sweep=True)
        fast_result = fast.run()
        ref_result = reference.run()
        assert fast_result.cycles == ref_result.cycles
        assert fast.memory.equal_contents(reference.memory)
        # The gaps dominate this workload: a large share of all cycles
        # must have been advanced analytically.
        assert fast.engine.cycles_skipped > fast_result.cycles // 3
        assert reference.engine.cycles_skipped == 0

    def test_cycle_hooks_observe_every_skipped_cycle(self):
        platform = PlatformBuilder(
            paper_topology(workload=_think_heavy_workload(5))
        ).build("rtl")
        seen = []
        platform.engine.add_cycle_hook(seen.append)
        result = platform.run()
        assert platform.engine.cycles_skipped > 0
        assert seen == list(range(1, result.cycles + 1))


class TestSeqHandleKernel:
    def _engine_with_counter(self):
        engine = CycleEngine()
        count = Signal("count", width=16)
        engine.add_signal(count)
        ticks = []

        def tick():
            ticks.append(engine.cycle)
            count.drive_next(count.value + 1)

        handle = engine.add_sequential(tick)
        return engine, handle, ticks

    def test_idle_until_self_wakes_at_the_right_cycle(self):
        engine, handle, ticks = self._engine_with_counter()
        engine.step()  # runs at cycle 0
        handle.idle(until=3)
        engine.run(5)
        # Skipped cycles 1-2, woke at 3, then ran 4 and 5... but the
        # process never re-idles, so it runs every later cycle.
        assert ticks == [0, 3, 4, 5]
        assert engine.cycle == 6
        assert engine.cycles_skipped == 2

    def test_wake_on_signal_rearms_after_the_commit_edge(self):
        engine = CycleEngine()
        trigger = Signal("trigger")
        engine.add_signal(trigger)
        ran = []
        handle = engine.add_sequential(
            lambda: ran.append(engine.cycle), wake_on=(trigger,)
        )
        engine.add_sequential(
            lambda: trigger.drive_next(1) if engine.cycle == 2 else None
        )
        engine.step()
        handle.idle()
        engine.run(4)
        # trigger commits at the end of cycle 2 -> the wake_on watcher
        # re-arms the handle for cycle 3's sequential phase.
        assert ran == [0, 3, 4]

    def test_indefinite_idle_skips_to_run_end(self):
        engine, handle, ticks = self._engine_with_counter()
        engine.step()
        handle.idle()
        engine.run(10)
        assert ticks == [0]
        assert engine.cycle == 11
        assert engine.cycles_skipped == 10

    def test_run_until_deadlock_still_raises(self):
        engine, handle, _ticks = self._engine_with_counter()
        engine.step()
        handle.idle()
        with pytest.raises(SimulationError):
            engine.run_until(lambda: False, max_cycles=50)

    def test_quiescence_disabled_ignores_idle_flags(self):
        engine = CycleEngine(sensitivity=False)
        ran = []
        handle = engine.add_sequential(lambda: ran.append(engine.cycle))
        handle.idle()
        engine.run(3)
        assert ran == [0, 1, 2]
        assert engine.cycles_skipped == 0

    def test_null_handle_is_inert(self):
        NULL_SEQ_HANDLE.idle()
        NULL_SEQ_HANDLE.idle(until=5)
        NULL_SEQ_HANDLE.wake()

