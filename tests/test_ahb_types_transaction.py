"""Tests for AHB protocol types and the Transaction object."""

import pytest

from repro.ahb.transaction import WRITE_BUFFER_MASTER, Transaction
from repro.ahb.types import (
    AccessKind,
    HBurst,
    HResp,
    HSize,
    HTrans,
    burst_for_beats,
)
from repro.errors import ProtocolError


class TestTypes:
    def test_htrans_encodings(self):
        assert int(HTrans.IDLE) == 0 and int(HTrans.NONSEQ) == 2

    def test_burst_beats(self):
        assert HBurst.SINGLE.beats == 1
        assert HBurst.INCR8.beats == 8
        assert HBurst.WRAP16.beats == 16

    def test_wrapping_flags(self):
        assert HBurst.WRAP4.is_wrapping
        assert not HBurst.INCR4.is_wrapping

    def test_burst_for_beats(self):
        assert burst_for_beats(1) is HBurst.SINGLE
        assert burst_for_beats(8) is HBurst.INCR8
        assert burst_for_beats(3) is HBurst.INCR
        assert burst_for_beats(4, wrapping=True) is HBurst.WRAP4

    def test_burst_for_beats_errors(self):
        with pytest.raises(ProtocolError):
            burst_for_beats(0)
        with pytest.raises(ProtocolError):
            burst_for_beats(3, wrapping=True)

    def test_hsize(self):
        assert HSize.WORD.bytes == 4
        assert HSize.for_bytes(8) is HSize.DWORD
        with pytest.raises(ProtocolError):
            HSize.for_bytes(3)

    def test_hresp_values(self):
        assert int(HResp.OKAY) == 0 and int(HResp.SPLIT) == 3


class TestTransaction:
    def _txn(self, **kwargs):
        defaults = dict(master=0, kind=AccessKind.READ, addr=0x100, beats=4)
        defaults.update(kwargs)
        return Transaction(**defaults)

    def test_basic_properties(self):
        txn = self._txn()
        assert txn.burst is HBurst.INCR4
        assert txn.total_bytes == 16
        assert not txn.is_write

    def test_misaligned_address_rejected(self):
        with pytest.raises(ProtocolError):
            self._txn(addr=0x102)

    def test_zero_beats_rejected(self):
        with pytest.raises(ProtocolError):
            self._txn(beats=0)

    def test_bad_size_rejected(self):
        with pytest.raises(ProtocolError):
            self._txn(size_bytes=3, addr=0x99)

    def test_write_data_length_checked(self):
        with pytest.raises(ProtocolError):
            self._txn(kind=AccessKind.WRITE, beats=4, data=[1, 2])

    def test_wrap_length_checked(self):
        with pytest.raises(ProtocolError):
            self._txn(wrapping=True, beats=3)

    def test_timing_views_require_completion(self):
        txn = self._txn()
        with pytest.raises(ProtocolError):
            _ = txn.latency

    def test_timing_views(self):
        txn = self._txn()
        txn.issued_at, txn.granted_at, txn.finished_at = 10, 12, 30
        assert txn.latency == 20

    def test_met_deadline(self):
        txn = self._txn(deadline=25)
        txn.issued_at, txn.finished_at = 0, 20
        assert txn.met_deadline is True
        late = self._txn(deadline=15)
        late.issued_at, late.finished_at = 0, 20
        assert late.met_deadline is False
        none = self._txn()
        none.issued_at, none.finished_at = 0, 20
        assert none.met_deadline is None

    def test_unique_uids(self):
        assert self._txn().uid != self._txn().uid

    def test_write_buffer_master_constant(self):
        assert WRITE_BUFFER_MASTER == 255
