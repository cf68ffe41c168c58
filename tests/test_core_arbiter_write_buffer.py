"""Tests for the AHB+ arbiter and write buffer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ahb.burst import transaction_footprint
from repro.ahb.master import TlmMaster, TrafficItem
from repro.ahb.transaction import WRITE_BUFFER_MASTER, Transaction
from repro.ahb.types import AccessKind, HResp
from repro.core.arbiter import AhbPlusArbiter, ArbitrationRound
from repro.core.bus import AhbPlusBusTlm
from repro.core.config import AhbPlusConfig
from repro.core.filters import (
    FILTER_NAMES,
    ArbitrationContext,
    Candidate,
    TieBreakFilter,
    default_filter_chain,
)
from repro.core.qos import QosRegisterFile, QosSetting
from repro.core.write_buffer import WriteBuffer
from repro.ddr.controller import DdrControllerTlm
from repro.ddr.timing import DDR_TEST
from repro.errors import ConfigError, SimulationError
from repro.rtl.master import MasterState
from repro.system import PlatformBuilder, paper_topology


def write(master=0, addr=0x0, data=(1,), locked=False):
    return Transaction(
        master=master,
        kind=AccessKind.WRITE,
        addr=addr,
        beats=len(data),
        data=list(data),
        locked=locked,
    )


def read(master=0, addr=0x0, beats=1):
    return Transaction(master=master, kind=AccessKind.READ, addr=addr, beats=beats)


def cand(t, rt=False, deadline=None, wb=False):
    t.issued_at = max(t.issued_at, 0)
    return Candidate(txn=t, from_write_buffer=wb, real_time=rt, deadline=deadline)


class TestAhbPlusArbiter:
    def test_returns_single_winner(self):
        arb = AhbPlusArbiter(num_masters=4)
        winner = arb.choose(
            [cand(read(2)), cand(read(0)), cand(read(1))],
            ArbitrationContext(now=0),
        )
        assert winner.master == 0

    def test_urgent_rt_preempts(self):
        arb = AhbPlusArbiter(num_masters=4)
        winner = arb.choose(
            [cand(read(0)), cand(read(3), rt=True, deadline=20)],
            ArbitrationContext(now=0, urgency_margin=32),
        )
        assert winner.master == 3

    def test_no_candidates_raises(self):
        with pytest.raises(SimulationError):
            AhbPlusArbiter(num_masters=2).choose([], ArbitrationContext(now=0))

    def test_disable_filter_by_name(self):
        arb = AhbPlusArbiter(num_masters=2)
        arb.set_filter_enabled("real-time", False)
        assert not arb.filter_by_name("real-time").enabled

    def test_tie_break_cannot_be_disabled(self):
        arb = AhbPlusArbiter(num_masters=2)
        with pytest.raises(ConfigError):
            arb.set_filter_enabled("tie-break", False)

    def test_unknown_filter_rejected(self):
        with pytest.raises(ConfigError):
            AhbPlusArbiter(num_masters=2).set_filter_enabled("ouija", True)

    def test_chain_must_end_with_tie_break(self):
        with pytest.raises(ConfigError):
            AhbPlusArbiter(filters=[TieBreakFilter(), TieBreakFilter()][:1][:0])

    def test_filter_stats_exposed(self):
        arb = AhbPlusArbiter(num_masters=2)
        arb.choose([cand(read(0)), cand(read(1))], ArbitrationContext(now=0))
        stats = arb.filter_stats()
        assert stats["tie-break"]["applied"] == 1
        assert arb.rounds == 1


class TestWriteBuffer:
    def test_absorb_and_fifo_drain(self):
        buffer = WriteBuffer(depth=4)
        d1 = buffer.absorb(write(0, 0x0, (1,)), 5)
        d2 = buffer.absorb(write(1, 0x10, (2,)), 6)
        assert buffer.occupancy == 2
        assert buffer.head() is d1
        buffer.pop_head(d1)
        assert buffer.head() is d2
        assert d1.master == WRITE_BUFFER_MASTER
        assert d1.origin is not None

    def test_reject_reads_and_locked(self):
        buffer = WriteBuffer()
        assert not buffer.can_absorb(read())
        assert not buffer.can_absorb(write(locked=True))

    def test_full_rejects(self):
        buffer = WriteBuffer(depth=1)
        buffer.absorb(write(), 0)
        assert buffer.is_full
        assert not buffer.can_absorb(write())
        assert buffer.rejected_full == 1

    def test_disabled_rejects(self):
        assert not WriteBuffer(enabled=False).can_absorb(write())

    def test_absorb_unqualified_raises(self):
        with pytest.raises(SimulationError):
            WriteBuffer().absorb(read(), 0)

    def test_out_of_order_pop_raises(self):
        buffer = WriteBuffer()
        buffer.absorb(write(0), 0)
        d2 = buffer.absorb(write(1, 0x20), 0)
        with pytest.raises(SimulationError):
            buffer.pop_head(d2)

    def test_hazard_detection_overlap(self):
        buffer = WriteBuffer()
        buffer.absorb(write(0, 0x100, (1, 2, 3, 4)), 0)
        overlapping = read(1, 0x108)
        disjoint = read(1, 0x200)
        assert buffer.conflicts_with(overlapping)
        assert not buffer.conflicts_with(disjoint)
        assert buffer.hazard_hits == 1

    def test_writes_never_hazard(self):
        buffer = WriteBuffer()
        buffer.absorb(write(0, 0x100), 0)
        assert not buffer.conflicts_with(write(1, 0x100))

    def test_wrapping_read_hazards_below_its_start(self):
        """Fuzzer-found RAW bug: a wrap burst's footprint is the whole
        aligned block, so a wrapped read depends on buffered writes at
        addresses *below* its start — the linear [addr, addr+total)
        range used to miss them and serve the read stale memory."""
        buffer = WriteBuffer()
        # Posted write covering 0x280..0x28f.
        buffer.absorb(write(0, 0x280, (1, 2, 3, 4)), 0)
        # wrap8 x4B read starting at 0x290: wraps inside [0x280, 0x2a0).
        wrapped = Transaction(
            master=1, kind=AccessKind.READ, addr=0x290, beats=8, wrapping=True
        )
        assert buffer.conflicts_with(wrapped)
        # The linear range [0x290, 0x2b0) alone would be disjoint:
        linear = read(1, 0x290, beats=8)
        assert buffer.conflicts_with(linear) is False

    def test_wrapping_buffered_write_hazards_below_its_start(self):
        buffer = WriteBuffer()
        wrapped_write = Transaction(
            master=0,
            kind=AccessKind.WRITE,
            addr=0x298,
            beats=4,
            wrapping=True,
            data=[1, 2, 3, 4],
        )
        buffer.absorb(wrapped_write, 0)  # footprint [0x290, 0x2a0)
        assert buffer.conflicts_with(read(1, 0x294))
        assert not buffer.conflicts_with(read(1, 0x2A4))

    def test_stats(self):
        buffer = WriteBuffer(depth=2)
        d = buffer.absorb(write(), 0)
        buffer.absorb(write(1, 0x40), 0)
        buffer.pop_head(d)
        assert buffer.absorbed == 2
        assert buffer.drained == 1
        assert buffer.max_occupancy == 2

    def test_bad_depth(self):
        with pytest.raises(ConfigError):
            WriteBuffer(depth=0)

    @given(st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=20))
    def test_drain_order_matches_absorb_order(self, addr_words):
        buffer = WriteBuffer(depth=len(addr_words))
        drains = [
            buffer.absorb(write(0, w * 4, (w,)), cycle)
            for cycle, w in enumerate(addr_words)
        ]
        popped = []
        while not buffer.is_empty:
            head = buffer.head()
            popped.append(head)
            buffer.pop_head(head)
        assert popped == drains


# -- the arbiter against the naive all-filters loop --------------------------------

NUM_MASTERS = 4


def oracle_choose(chain, candidates, ctx):
    """Every filter of *chain*, in order, over every candidate set."""
    survivors = list(candidates)
    for filt in chain:
        survivors = filt.apply(survivors, ctx)
    assert len(survivors) == 1
    return survivors[0]


@st.composite
def arbitration_rounds(draw):
    """One round: a candidate set, a context and a filter toggle."""
    now = draw(st.integers(0, 400))
    masters = draw(
        st.lists(st.integers(0, NUM_MASTERS - 1), unique=True, max_size=NUM_MASTERS)
    )
    with_buffer = draw(st.booleans()) or not masters
    candidates = []
    for master in masters:
        txn = read(master, addr=draw(st.integers(0, 15)) * 4)
        txn.issued_at = draw(st.integers(0, now + 20))
        deadline = draw(st.none() | st.integers(now - 10, now + 100))
        candidates.append(
            Candidate(txn=txn, real_time=draw(st.booleans()), deadline=deadline)
        )
    if with_buffer:
        drain = write(WRITE_BUFFER_MASTER, addr=draw(st.integers(0, 15)) * 4)
        drain.issued_at = draw(st.integers(0, now))
        candidates.insert(
            draw(st.integers(0, len(candidates))),
            Candidate(txn=drain, from_write_buffer=True),
        )
    scores = draw(st.lists(st.integers(0, 2), min_size=16, max_size=16))
    ctx = ArbitrationContext(
        now=now,
        write_buffer_occupancy=draw(st.integers(0, 4)),
        write_buffer_depth=draw(st.integers(0, 4)),
        read_hazard=draw(st.booleans()),
        access_score=draw(st.none() | st.just(lambda addr: scores[addr // 4])),
        urgency_margin=draw(st.integers(0, 64)),
        starvation_limit=draw(st.integers(1, 128)),
    )
    toggle = draw(st.none() | st.tuples(st.sampled_from(FILTER_NAMES[:-1]), st.booleans()))
    return candidates, ctx, toggle


class TestArbiterAgainstOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        tie_break=st.sampled_from(("fixed", "round_robin")),
        rounds=st.lists(arbitration_rounds(), min_size=1, max_size=12),
    )
    def test_choose_matches_all_filters_loop(self, tie_break, rounds):
        arbiter = AhbPlusArbiter(tie_break=tie_break, num_masters=NUM_MASTERS)
        chain = default_filter_chain(tie_break, NUM_MASTERS)
        for candidates, ctx, toggle in rounds:
            if toggle is not None:
                name, enabled = toggle
                arbiter.set_filter_enabled(name, enabled)
                next(f for f in chain if f.name == name).enabled = enabled
            winner = arbiter.choose(candidates, ctx)
            assert winner is oracle_choose(chain, candidates, ctx)
            assert arbiter.filter_stats() == {
                f.name: {
                    "applied": f.rounds_applied,
                    "narrowed": f.rounds_narrowed,
                    "enabled": int(f.enabled),
                }
                for f in chain
            }
            assert arbiter.filter_by_name("tie-break")._last_winner == chain[-1]._last_winner


# -- stored footprints against recomputed ones --------------------------------------


@st.composite
def bursts(draw, kind):
    wrapping = draw(st.booleans())
    beats = draw(st.sampled_from((4, 8, 16))) if wrapping else draw(st.integers(1, 16))
    return Transaction(
        master=0 if kind is AccessKind.WRITE else 1,
        kind=kind,
        addr=draw(st.integers(0, 127)) * 4,
        beats=beats,
        wrapping=wrapping,
        data=[0] * beats if kind is AccessKind.WRITE else [],
    )


def overlaps(a, b):
    a_lo, a_hi = transaction_footprint(a)
    b_lo, b_hi = transaction_footprint(b)
    return a_lo < b_hi and b_lo < a_hi


def tlm_candidates(reads):
    """The Candidates the TLM bus builds for one pending read per master."""
    masters = [
        TlmMaster(index, f"m{index}", [TrafficItem(txn=txn)])
        for index, txn in enumerate(reads)
    ]
    bus = AhbPlusBusTlm(masters, [DdrControllerTlm(timing=DDR_TEST)])
    return bus.collect(0)


def rtl_candidates(platform, reads):
    """The Candidates the RTL arbiter builds with masters requesting *reads*."""
    for master in platform.masters:
        master.state, master._txn = MasterState.IDLE, None
    for master, txn in zip(platform.masters, reads):
        master.state, master._txn = MasterState.REQUEST, txn
    return platform.arbiter.collect(platform.engine.cycle)


@st.composite
def read_sets(draw):
    """One to four reads (some wrapping), the i-th issued by master i."""
    reads = draw(st.lists(bursts(AccessKind.READ), min_size=1, max_size=4))
    return [
        Transaction(
            master=index,
            kind=AccessKind.READ,
            addr=txn.addr,
            beats=txn.beats,
            wrapping=txn.wrapping,
        )
        for index, txn in enumerate(reads)
    ]


class TestStoredFootprints:
    @settings(max_examples=200, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("absorb"), bursts(AccessKind.WRITE)),
                st.tuples(st.just("pop"), st.none()),
                st.tuples(st.just("query"), bursts(AccessKind.READ)),
            ),
            max_size=30,
        )
    )
    def test_conflicts_agree_with_recomputed_footprints(self, ops):
        buffer = WriteBuffer(depth=4)
        held = []  # drain copies in FIFO order
        hits = 0
        for op, txn in ops:
            if op == "absorb":
                if buffer.can_absorb(txn):
                    held.append(buffer.absorb(txn, 0))
            elif op == "pop":
                if held:
                    buffer.pop_head(held.pop(0))
            else:
                expected = any(overlaps(txn, drain) for drain in held)
                assert buffer.conflicts_with(txn) is expected
                hits += expected
        assert buffer.hazard_hits == hits

    @settings(max_examples=100, deadline=None)
    @given(
        engine=st.sampled_from(("tlm", "rtl")),
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("absorb"), bursts(AccessKind.WRITE)),
                st.tuples(st.just("pop"), st.none()),
                st.tuples(st.just("query"), read_sets()),
            ),
            max_size=20,
        ),
    )
    def test_read_hazard_agrees_with_recomputed_footprints(self, engine, ops):
        """Footprints the bus engines put on Candidates drive ``read_hazard``.

        Candidates come from the arbitration round of the TLM bus or of
        the RTL arbiter, each reading its own level's requests; the
        verdict and ``hazard_hits`` must match footprints recomputed from
        the transactions.
        """
        platform = None
        if engine == "rtl":
            platform = PlatformBuilder(paper_topology(transactions=1)).build("rtl")
        buffer = WriteBuffer(depth=4)
        held = []
        hits = 0
        for op, payload in ops:
            if op == "absorb":
                if buffer.can_absorb(payload):
                    held.append(buffer.absorb(payload, 0))
            elif op == "pop":
                if held:
                    buffer.pop_head(held.pop(0))
            else:
                if platform is None:
                    candidates = tlm_candidates(payload)
                else:
                    candidates = rtl_candidates(platform, payload)
                assert [c.txn for c in candidates] == payload
                for c in candidates:
                    assert c.footprint == transaction_footprint(c.txn)
                expected = any(
                    overlaps(txn, drain) for txn in payload for drain in held
                )
                assert buffer.read_hazard(candidates) is expected
                hits += expected
        assert buffer.hazard_hits == hits

    def test_writes_and_drains_carry_no_footprint(self):
        assert Candidate(txn=write(0, 0x40)).footprint is None
        drain = write(WRITE_BUFFER_MASTER, 0x40)
        assert Candidate(txn=drain, from_write_buffer=True).footprint is None
        wrapped = Transaction(
            master=1, kind=AccessKind.READ, addr=0x2C, beats=4, wrapping=True
        )
        assert Candidate(txn=wrapped).footprint == (0x20, 0x30)


# -- the arbitration round on its own ---------------------------------------------


class Pick:
    """Stub arbiter: the candidate issued by *master* wins every round."""

    def __init__(self, master):
        self.master = master

    def choose(self, candidates, ctx):
        return next(c for c in candidates if c.txn.master == self.master)


class FakeLevel(ArbitrationRound):
    """A level whose requests are a plain list and whose ``free`` records.

    ``held[i]`` is what master *i* requests (``None`` when idle); the
    write buffer's head follows the masters.  Each freed write is logged
    with the QoS completions counted when its master was freed.
    """

    def __init__(self, held, winner, depth=4, qos=None, bank_oracle=lambda ctx: None):
        super().__init__(
            AhbPlusConfig(num_masters=len(held)),
            WriteBuffer(depth=depth),
            qos if qos is not None else QosRegisterFile(len(held)),
            bank_oracle,
        )
        self.arbiter = Pick(winner)
        self.held = list(held)
        self.freed = []

    def _requests(self, now):
        live = [*self.held, self.write_buffer.head()]
        return [txn for txn in live if txn is not None]

    def _free(self, txn, now):
        self.freed.append((txn, self.qos.deadline_hits + self.qos.deadline_misses))
        txn.finished_at = now


class TestArbitrationRound:
    @pytest.mark.parametrize("winner", [0, 2, WRITE_BUFFER_MASTER])
    def test_winner_and_drain_head_are_never_absorbed(self, winner):
        writes = [write(m, 0x100 * m) for m in range(3)]
        level = FakeLevel(writes, winner)
        head = level.write_buffer.absorb(write(0, 0x800), 0)
        assert level.arbitrate(5).txn.master == winner
        losers = [txn for txn in writes if txn.master != winner]
        assert [txn for txn, _ in level.freed] == losers
        assert level.write_buffer.head() is head
        assert level.write_buffer.occupancy == 1 + len(losers)

    def test_locked_and_faulted_writes_are_never_absorbed(self):
        locked = write(1, 0x100, locked=True)
        faulted = write(2, 0x200)
        faulted.fault_plan = (int(HResp.ERROR),)
        level = FakeLevel([read(0), locked, faulted], 0)
        level.arbitrate(0)
        assert level.freed == [] and level.write_buffer.is_empty

    def test_writes_offered_to_a_full_buffer_are_never_absorbed(self):
        level = FakeLevel([write(0, 0x0), write(1, 0x100), write(2, 0x200)], 0, depth=1)
        level.write_buffer.absorb(write(0, 0x800), 0)
        level.arbitrate(0)
        assert level.freed == []
        assert level.write_buffer.occupancy == 1
        assert level.write_buffer.rejected_full == 2

    def test_free_runs_before_the_qos_completion(self):
        qos = QosRegisterFile(2)
        qos.configure(1, QosSetting(real_time=True, objective_cycles=10))
        rt_write = write(1, 0x100)
        rt_write.issued_at = 0
        level = FakeLevel([read(0), rt_write], 0, qos=qos)
        level.arbitrate(4)
        # Nothing was recorded yet when the master was freed, and the
        # absorbed real-time write then counts as a deadline hit.
        assert level.freed == [(rt_write, 0)]
        assert (qos.deadline_hits, qos.deadline_misses) == (1, 0)

    def test_candidates_live_as_long_as_their_transaction(self):
        level = FakeLevel([read(0, 0x0), read(1, 0x100)], 0)
        level.write_buffer.absorb(write(0, 0x800), 0)
        before = level.collect(0)
        again = level.collect(3)
        assert all(a is b for a, b in zip(before, again))
        assert [c.from_write_buffer for c in before] == [False, False, True]
        level.held[0] = read(0, 0x40)
        after = level.collect(6)
        assert after[0] is not before[0] and after[0].txn is level.held[0]
        assert after[1] is before[1] and after[2] is before[2]

    def test_excluded_transfer_is_not_a_candidate(self):
        busy = read(0)
        level = FakeLevel([busy, read(1)], 1)
        assert [c.txn.master for c in level.collect(0, exclude=busy)] == [1]
        assert level.arbitrate(0, exclude=busy).txn.master == 1
        assert FakeLevel([None, None], 0).arbitrate(0) is None

    def test_one_context_refreshed_per_round(self):
        level = FakeLevel(
            [read(0, 0x0), read(1, 0x100)],
            1,
            depth=3,
            bank_oracle=lambda ctx: (lambda addr: ctx.now),
        )
        ctx = level.ctx
        assert ctx.write_buffer_depth == 3
        level.write_buffer.absorb(write(0, 0x0), 0)
        level.arbitrate(9)
        assert level.ctx is ctx
        assert (ctx.now, ctx.write_buffer_occupancy, ctx.read_hazard) == (9, 1, True)
        assert ctx.access_score(0x40) == 9
