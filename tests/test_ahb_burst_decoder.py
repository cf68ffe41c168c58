"""Tests for burst address math and the address decoder."""

import pytest
from hypothesis import given, strategies as st

from repro.ahb.burst import (
    KB_BOUNDARY,
    beat_addresses,
    burst_footprint,
    crosses_kb_boundary,
    transaction_addresses,
)
from repro.ahb.decoder import AddressMap, single_slave_map
from repro.ahb.transaction import Transaction
from repro.ahb.types import AccessKind
from repro.errors import ConfigError, MemoryError_, ProtocolError

from oracles import check_burst_legal


class TestBeatAddresses:
    def test_incrementing(self):
        assert beat_addresses(0x20, 4, 4) == [0x20, 0x24, 0x28, 0x2C]

    def test_wrapping_wraps_at_burst_boundary(self):
        # WRAP4 of 4-byte beats starting at 0x28 wraps inside [0x20,0x30).
        assert beat_addresses(0x28, 4, 4, wrapping=True) == [
            0x28,
            0x2C,
            0x20,
            0x24,
        ]

    def test_misaligned_rejected(self):
        with pytest.raises(ProtocolError):
            beat_addresses(0x21, 4, 4)

    @given(
        addr_words=st.integers(min_value=0, max_value=10_000),
        beats=st.sampled_from([1, 4, 8, 16]),
        size=st.sampled_from([1, 2, 4, 8]),
        wrapping=st.booleans(),
    )
    def test_properties(self, addr_words, beats, size, wrapping):
        addr = addr_words * size
        addrs = beat_addresses(addr, beats, size, wrapping)
        assert len(addrs) == beats
        assert addrs[0] == addr
        assert all(a % size == 0 for a in addrs)
        if wrapping:
            span = beats * size
            base = (addr // span) * span
            assert all(base <= a < base + span for a in addrs)
            assert len(set(addrs)) == beats
        else:
            assert addrs == sorted(addrs)


class TestBurstFootprint:
    def test_incrementing_is_linear(self):
        assert burst_footprint(0x20, 4, 4) == (0x20, 0x30)

    def test_wrapping_is_the_aligned_block(self):
        # WRAP8 of 4-byte beats at 0x290 touches the whole [0x280,0x2a0)
        # block — including the bytes *below* the start address.
        assert burst_footprint(0x290, 8, 4, wrapping=True) == (0x280, 0x2A0)

    @given(
        addr_words=st.integers(min_value=0, max_value=10_000),
        beats=st.sampled_from([1, 4, 8, 16]),
        size=st.sampled_from([1, 2, 4, 8]),
        wrapping=st.booleans(),
    )
    def test_footprint_covers_exactly_the_beat_addresses(
        self, addr_words, beats, size, wrapping
    ):
        addr = addr_words * size
        lo, hi = burst_footprint(addr, beats, size, wrapping)
        touched = beat_addresses(addr, beats, size, wrapping)
        assert all(lo <= a and a + size <= hi for a in touched)
        assert hi - lo == beats * size


class TestKbBoundary:
    def test_crossing_detection(self):
        assert crosses_kb_boundary(KB_BOUNDARY - 8, 4, 4)
        assert not crosses_kb_boundary(0, 16, 4)

    def test_check_burst_legal(self):
        bad = Transaction(
            master=0, kind=AccessKind.READ, addr=KB_BOUNDARY - 8, beats=4
        )
        with pytest.raises(ProtocolError):
            check_burst_legal(bad)
        good = Transaction(master=0, kind=AccessKind.READ, addr=0, beats=16)
        check_burst_legal(good)

    def test_transaction_addresses(self):
        txn = Transaction(master=0, kind=AccessKind.READ, addr=0x40, beats=2)
        assert transaction_addresses(txn) == [0x40, 0x44]


class TestAddressMap:
    def test_decode(self):
        amap = AddressMap()
        amap.add("rom", 0x0000, 0x1000, slave_index=0)
        amap.add("ram", 0x1000, 0x1000, slave_index=1)
        assert amap.slave_for(0x0800) == 0
        assert amap.slave_for(0x1800) == 1

    def test_overlap_rejected(self):
        amap = AddressMap()
        amap.add("a", 0, 0x100, 0)
        with pytest.raises(ConfigError):
            amap.add("b", 0x80, 0x100, 1)

    def test_unmapped_raises(self):
        amap = single_slave_map(size=0x100)
        with pytest.raises(MemoryError_):
            amap.decode(0x200)

    def test_try_decode_returns_none(self):
        assert single_slave_map(size=0x100).try_decode(0x200) is None

    def test_span(self):
        amap = AddressMap()
        amap.add("a", 0, 0x100, 0)
        amap.add("b", 0x200, 0x80, 1)
        assert amap.span() == 0x180

    def test_bad_region(self):
        with pytest.raises(ConfigError):
            AddressMap().add("bad", 0, 0, 0)
