"""Tests for the analytic bank timeline and the memory model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ddr.commands import BankAddress
from repro.ddr.memory import MemoryModel
from repro.ddr.timeline import BankTimeline
from repro.ddr.timing import DDR_TEST
from repro.errors import MemoryError_

T = DDR_TEST


class TestBankTimeline:
    def test_first_access_pays_act_plus_cas(self):
        timeline = BankTimeline(T)
        plan = timeline.schedule_access(BankAddress(0, 1, 0), False, 4, 10)
        # ACT at 10, CAS at 10+tRCD, data CL later.
        assert plan.cas_at == 10 + T.t_rcd
        assert plan.first_data == plan.cas_at + T.cas_latency
        assert plan.finish == plan.first_data + 3
        assert not plan.row_hit

    def test_row_hit_skips_row_commands(self):
        timeline = BankTimeline(T)
        first = timeline.schedule_access(BankAddress(0, 1, 0), False, 4, 10)
        second = timeline.schedule_access(
            BankAddress(0, 1, 4), False, 4, first.finish + 1
        )
        assert second.row_hit
        assert second.cas_at == first.finish + 1

    def test_row_conflict_pays_precharge(self):
        timeline = BankTimeline(T)
        first = timeline.schedule_access(BankAddress(0, 1, 0), False, 4, 0)
        second = timeline.schedule_access(
            BankAddress(0, 2, 0), False, 4, first.finish + 1
        )
        assert not second.row_hit
        # PRE cannot start before the first burst's final beat + 1.
        assert second.cas_at >= first.finish + 1 + T.t_rp + T.t_rcd

    def test_write_recovery_delays_conflict(self):
        timeline = BankTimeline(T)
        first = timeline.schedule_access(BankAddress(0, 1, 0), True, 4, 0)
        second = timeline.schedule_access(
            BankAddress(0, 2, 0), False, 1, first.finish + 1
        )
        assert second.cas_at >= first.finish + T.t_wr + T.t_rp + T.t_rcd

    def test_prepare_overlaps_activation(self):
        timeline = BankTimeline(T)
        first = timeline.schedule_access(BankAddress(0, 1, 0), False, 8, 0)
        # BI prepares bank 1 while bank 0 streams.
        assert timeline.prepare(BankAddress(1, 3, 0), cycle=first.cas_at + 1)
        second = timeline.schedule_access(
            BankAddress(1, 3, 0), False, 4, first.finish
        )
        assert second.row_hit
        # Data continues seamlessly after the previous burst.
        assert second.first_data <= first.finish + 1 + T.cas_latency

    def test_prepare_noop_when_row_open(self):
        timeline = BankTimeline(T)
        timeline.schedule_access(BankAddress(0, 1, 0), False, 1, 0)
        assert timeline.prepare(BankAddress(0, 1, 0), 50) is False

    def test_data_bus_is_exclusive(self):
        timeline = BankTimeline(T)
        a = timeline.schedule_access(BankAddress(0, 1, 0), False, 8, 0)
        b = timeline.schedule_access(BankAddress(1, 1, 0), False, 8, 0)
        assert b.first_data > a.finish

    def test_close_all_resets_rows(self):
        timeline = BankTimeline(T)
        timeline.schedule_access(BankAddress(0, 1, 0), False, 1, 0)
        ready = timeline.close_all(100)
        assert ready >= 100 + T.t_rp + T.t_rfc
        assert all(lane.open_row is None for lane in timeline.banks)

    def test_access_score(self):
        timeline = BankTimeline(T)
        timeline.schedule_access(BankAddress(0, 1, 0), False, 1, 0)
        assert timeline.access_score(BankAddress(0, 1, 0), 50) == 0
        assert timeline.access_score(BankAddress(1, 0, 0), 50) == 1
        assert timeline.access_score(BankAddress(0, 9, 0), 50) == 2

    @settings(max_examples=60)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),   # bank
                st.integers(min_value=0, max_value=7),   # row
                st.booleans(),                           # write
                st.integers(min_value=1, max_value=16),  # beats
            ),
            min_size=1,
            max_size=24,
        )
    )
    def test_data_bus_never_overlaps(self, accesses):
        timeline = BankTimeline(T)
        cycle = 0
        windows = []
        for bank, row, write, beats in accesses:
            plan = timeline.schedule_access(
                BankAddress(bank, row, 0), write, beats, cycle
            )
            assert plan.first_data >= cycle
            assert plan.finish == plan.first_data + beats - 1
            windows.append((plan.first_data, plan.finish))
            cycle = plan.finish + 1
        for (s1, f1), (s2, _f2) in zip(windows, windows[1:]):
            assert s2 > f1


class TestMemoryModel:
    def test_roundtrip(self):
        mem = MemoryModel()
        mem.write(0x100, 4, 0xDEADBEEF)
        assert mem.read(0x100, 4) == 0xDEADBEEF

    def test_unwritten_reads_zero(self):
        assert MemoryModel().read(0x40, 4) == 0

    def test_partial_overlap_little_endian(self):
        mem = MemoryModel()
        mem.write(0x10, 4, 0x11223344)
        assert mem.read(0x12, 1) == 0x22

    def test_oversized_value_rejected(self):
        with pytest.raises(MemoryError_):
            MemoryModel().write(0, 2, 0x12345)

    def test_negative_address_rejected(self):
        with pytest.raises(MemoryError_):
            MemoryModel().read(-4, 4)

    def test_equality(self):
        a, b = MemoryModel(), MemoryModel()
        a.write(0, 4, 5)
        b.write(0, 4, 5)
        assert a.equal_contents(b)
        b.write(8, 1, 9)
        assert not a.equal_contents(b)

    def test_zero_equals_unwritten(self):
        a, b = MemoryModel(), MemoryModel()
        a.write(0, 4, 0)
        assert a.equal_contents(b)

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=1000).map(lambda w: w * 4),
            st.integers(min_value=0, max_value=2**32 - 1),
            max_size=30,
        )
    )
    def test_many_writes_roundtrip(self, writes):
        mem = MemoryModel()
        for addr, value in writes.items():
            mem.write(addr, 4, value)
        for addr, value in writes.items():
            assert mem.read(addr, 4) == value


class TestWordFastPath:
    """The word-keyed store must be observably identical to byte-only."""

    def test_byte_write_into_word_entry(self):
        mem = MemoryModel()
        mem.write(0x10, 4, 0x11223344)  # word fast path
        mem.write(0x11, 1, 0xAA)  # spills the word, patches one byte
        assert mem.read(0x10, 4) == 0x1122AA44
        assert mem.read(0x11, 1) == 0xAA
        assert len(list(mem.items())) == 4

    def test_word_write_over_byte_entries(self):
        mem = MemoryModel()
        mem.write(0x20, 1, 0x55)
        mem.write(0x22, 2, 0xBEEF)
        mem.write(0x20, 4, 0xDEADBEEF)  # evicts all byte residue
        assert mem.read(0x20, 4) == 0xDEADBEEF
        assert mem.read(0x21, 1) == 0xBE
        assert len(list(mem.items())) == 4

    def test_unaligned_word_read_merges_stores(self):
        mem = MemoryModel()
        mem.write(0x0, 4, 0x44332211)
        mem.write(0x4, 4, 0x88776655)
        assert mem.read(0x2, 4) == 0x66554433

    def test_wide_access_spans_words(self):
        mem = MemoryModel()
        mem.write(0x8, 8, 0x1122334455667788)
        assert mem.read(0x8, 4) == 0x55667788
        assert mem.read(0xC, 4) == 0x11223344
        assert mem.read(0x8, 8) == 0x1122334455667788

    def test_equal_contents_across_store_shapes(self):
        word_wise, byte_wise = MemoryModel(), MemoryModel()
        word_wise.write(0x40, 4, 0xCAFEBABE)
        for i, byte in enumerate((0xBE, 0xBA, 0xFE, 0xCA)):
            byte_wise.write(0x40 + i, 1, byte)
        assert word_wise.equal_contents(byte_wise)
        assert byte_wise.equal_contents(word_wise)
        byte_wise.write(0x41, 1, 0x00)
        assert not word_wise.equal_contents(byte_wise)

    def test_items_merge_in_address_order(self):
        mem = MemoryModel()
        mem.write(0x8, 4, 0x0A0B0C0D)
        mem.write(0x3, 1, 0x99)
        assert list(mem.items()) == [
            (0x3, 0x99),
            (0x8, 0x0D),
            (0x9, 0x0C),
            (0xA, 0x0B),
            (0xB, 0x0A),
        ]

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=64),
                st.sampled_from([1, 2, 4]),
                st.integers(min_value=0, max_value=2**32 - 1),
            ),
            max_size=40,
        )
    )
    def test_matches_byte_reference(self, ops):
        """Random interleaved sizes: model vs a plain byte-dict oracle."""
        mem = MemoryModel()
        oracle = {}
        for addr, size, value in ops:
            addr -= addr % size  # keep accesses aligned like bus traffic
            value &= (1 << (8 * size)) - 1
            mem.write(addr, size, value)
            for i in range(size):
                oracle[addr + i] = (value >> (8 * i)) & 0xFF
        for addr in range(0, 72):
            assert mem.read(addr, 1) == oracle.get(addr, 0)
        assert len(list(mem.items())) == len(oracle)


class TestMemoryBulkBeats:
    def test_write_beats_matches_per_beat_writes(self):
        bulk, single = MemoryModel("bulk"), MemoryModel("single")
        addrs = [0x100, 0x104, 0x108, 0x10C]
        values = [1, 2, 3, 0xFFFF_FFFF]
        bulk.write_beats(addrs, 4, values)
        for addr, value in zip(addrs, values):
            single.write(addr, 4, value)
        assert bulk.equal_contents(single)
        assert bulk.write_ops == single.write_ops
        assert bulk.read_beats(addrs, 4) == [
            single.read(addr, 4) for addr in addrs
        ]

    def test_bulk_beats_spill_to_byte_store_like_write(self):
        bulk, single = MemoryModel("bulk"), MemoryModel("single")
        addrs = [0x10, 0x11, 0x12]
        values = [0xAA, 0xBB, 0xCC]
        bulk.write_beats(addrs, 1, values)
        for addr, value in zip(addrs, values):
            single.write(addr, 1, value)
        assert bulk.equal_contents(single)
        # Word reads over byte residue merge identically.
        assert bulk.read_beats([0x10], 4) == [single.read(0x10, 4)]

    @pytest.mark.parametrize("size", [4, 1])
    @pytest.mark.parametrize("count", [2, 6])
    def test_write_beats_rejects_value_count_mismatch(self, size, count):
        """Fewer or more values than addresses raise; nothing is written."""
        mem = MemoryModel()
        addrs = [0, 4, 8, 12] if size == 4 else [0, 1, 2, 3]
        with pytest.raises(MemoryError_, match="values for 4 beat addresses"):
            mem.write_beats(addrs, size, list(range(1, count + 1)))
        assert len(list(mem.items())) == 0 and mem.write_ops == 0


def _outcome(call):
    try:
        return "ok", call()
    except MemoryError_ as exc:
        return "error", str(exc)


def _per_beat_write(mem, addrs, size, values):
    for addr, value in zip(addrs, values):
        mem.write(addr, size, value)


@st.composite
def bulk_bursts(draw):
    """A burst as a ``range`` or a list, with values some of which may be bad."""
    size = draw(st.sampled_from((1, 2, 4, 8)))
    beats = draw(st.integers(0, 8))
    start = draw(st.integers(-2, 40)) * size + draw(st.sampled_from((0, 0, 0, 1, 2)))
    addrs = range(start, start + beats * size, size)
    if draw(st.booleans()):
        addrs = list(addrs)
    good = st.integers(0, (1 << (8 * size)) - 1)
    bad = st.sampled_from((-1, 1 << (8 * size), 1 << 32))
    value = st.one_of(good, good, good, bad)
    values = draw(st.lists(value, min_size=beats, max_size=beats))
    residue = draw(st.lists(st.integers(0, 80), max_size=3))
    return addrs, size, values, residue


class TestBulkBeatsAgainstPerBeat:
    @settings(max_examples=300, deadline=None)
    @given(burst=bulk_bursts())
    def test_bulk_calls_match_per_beat_loop(self, burst):
        """``read_beats``/``write_beats`` equal per-beat ``read``/``write``.

        Same values, ``read_ops``/``write_ops``, memory image and byte
        accounting — with or without byte residue, from an unaligned
        start, and raising the same error after the same written prefix
        for a negative address or a negative or too-wide value.
        """
        addrs, size, values, residue = burst
        bulk, single = MemoryModel(), MemoryModel()
        for mem in (bulk, single):
            mem.write_beats(range(0, 64, 4), 4, list(range(100, 116)))
            for addr in residue:
                mem.write(addr, 1, 0x5A)
        got = _outcome(lambda: bulk.write_beats(addrs, size, values))
        want = _outcome(lambda: _per_beat_write(single, addrs, size, values))
        assert got == want
        assert bulk.equal_contents(single)
        assert len(list(bulk.items())) == len(list(single.items()))
        got = _outcome(lambda: bulk.read_beats(addrs, size))
        want = _outcome(lambda: [single.read(addr, size) for addr in addrs])
        assert got == want
        assert (bulk.read_ops, bulk.write_ops) == (single.read_ops, single.write_ops)
