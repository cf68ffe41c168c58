"""Tests for DDR timing parameters and command/address decoding."""

import pytest
from hypothesis import given, strategies as st

from repro.ddr.commands import (
    COMMAND_PRIORITY,
    BankAddress,
    DdrCommand,
    decode_address,
    same_row,
)
from repro.ddr.timing import DDR_266, DDR_TEST, DdrTiming, preset
from repro.errors import ConfigError, MemoryError_

from oracles import encode_address


class TestTiming:
    def test_defaults_valid(self):
        timing = DdrTiming()
        assert timing.bank_bits == 2
        assert timing.col_bits == 10

    def test_presets(self):
        assert preset("ddr266") is DDR_266
        with pytest.raises(ConfigError):
            preset("ddr9000")

    def test_non_power_of_two_banks_rejected(self):
        with pytest.raises(ConfigError):
            DdrTiming(num_banks=3)

    def test_zero_timing_rejected(self):
        with pytest.raises(ConfigError):
            DdrTiming(t_rcd=0)

    def test_total_words(self):
        assert DDR_TEST.total_words == 1 << (6 + 2 + 4)


class TestAddressDecode:
    def test_layout_row_bank_col(self):
        timing = DDR_TEST  # col_bits=4, 2 bank bits
        baddr = decode_address(0, timing)
        assert baddr == BankAddress(bank=0, row=0, col=0)
        # One full row of one bank later -> next bank.
        one_bank = (1 << timing.col_bits) * 4  # bytes
        assert decode_address(one_bank, timing).bank == 1

    def test_sequential_words_fill_a_row_before_the_next_bank(self):
        timing = DDR_TEST
        row_words = 1 << timing.col_bits
        decoded = [
            decode_address(word * 4, timing)
            for word in range(row_words * (timing.num_banks + 1))
        ]
        for word, baddr in enumerate(decoded):
            bank_slot, col = divmod(word, row_words)
            row, bank = divmod(bank_slot, timing.num_banks)
            assert baddr == BankAddress(bank=bank, row=row, col=col)

    def test_beyond_capacity_rejected(self):
        with pytest.raises(MemoryError_):
            decode_address(DDR_TEST.total_words * 4, DDR_TEST)

    def test_negative_rejected(self):
        with pytest.raises(MemoryError_):
            decode_address(-4, DDR_TEST)

    @given(st.integers(min_value=0, max_value=DDR_TEST.total_words - 1))
    def test_roundtrip(self, word):
        addr = word * 4
        baddr = decode_address(addr, DDR_TEST)
        assert encode_address(baddr, DDR_TEST) == addr

    def test_same_row(self):
        a = BankAddress(1, 5, 0)
        assert same_row(a, BankAddress(1, 5, 9))
        assert not same_row(a, BankAddress(2, 5, 0))


class TestCommandPriority:
    def test_column_beats_row_beats_precharge(self):
        assert (
            COMMAND_PRIORITY[DdrCommand.READ]
            < COMMAND_PRIORITY[DdrCommand.ACTIVATE]
            < COMMAND_PRIORITY[DdrCommand.PRECHARGE]
        )
