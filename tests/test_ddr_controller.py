"""Tests for the transaction-level DDR controller."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ahb.burst import transaction_addresses
from repro.ahb.transaction import Transaction
from repro.ahb.types import AccessKind
from repro.ddr.commands import decode_address, same_row
from repro.ddr.controller import DdrControllerTlm
from repro.ddr.timing import DDR_TEST
from repro.errors import MemoryError_

T = DDR_TEST


def ddrc(**kwargs):
    kwargs.setdefault("timing", T)
    return DdrControllerTlm(**kwargs)


def write(addr, data, master=0):
    return Transaction(
        master=master,
        kind=AccessKind.WRITE,
        addr=addr,
        beats=len(data),
        data=list(data),
    )


def read(addr, beats=1, master=0):
    return Transaction(master=master, kind=AccessKind.READ, addr=addr, beats=beats)


class TestDdrControllerTlm:
    def test_write_read_roundtrip(self):
        ctrl = ddrc()
        finish = ctrl.serve(write(0x40, [1, 2, 3, 4]), 0)
        r = read(0x40, beats=4)
        ctrl.serve(r, finish + 1)
        assert r.data == [1, 2, 3, 4]

    def test_cold_access_timing(self):
        ctrl = ddrc(refresh_enabled=False)
        txn = read(0x0, beats=4)
        finish = ctrl.serve(txn, 10)
        # addr phase(1) + ACT + tRCD + CL + 4 beats
        expected = 10 + 1 + T.t_rcd + T.cas_latency + 4 - 1
        assert finish == expected

    def test_row_hit_faster_than_conflict(self):
        ctrl = ddrc(refresh_enabled=False)
        f1 = ctrl.serve(read(0x0, beats=1), 0)
        hit = read(0x4, beats=1)
        f2 = ctrl.serve(hit, f1 + 1)
        row_span = T.words_per_row * 4 * T.num_banks
        conflict = read(row_span, beats=1)  # same bank, different row
        f3 = ctrl.serve(conflict, f2 + 1)
        assert (f3 - f2) > (f2 - f1)

    def test_burst_crossing_rows_splits_segments(self):
        ctrl = ddrc(refresh_enabled=False)
        row_bytes = T.words_per_row * 4
        addr = row_bytes - 8  # last two words of row 0
        txn = write(addr, [1, 2, 3, 4])
        finish = ctrl.serve(txn, 0)
        check = read(addr, beats=4)
        ctrl.serve(check, finish + 1)
        assert check.data == [1, 2, 3, 4]

    def test_notify_next_hides_activation(self):
        baseline = ddrc(refresh_enabled=False)
        f_first = baseline.serve(read(0x0, beats=8), 0)
        cold = baseline.serve(read(T.words_per_row * 4, beats=1), f_first)

        prepared = ddrc(refresh_enabled=False)
        f_first2 = prepared.serve(read(0x0, beats=8), 0)
        nxt = read(T.words_per_row * 4, beats=1)
        prepared.notify_next(nxt, f_first2 - 4)  # BI info mid-burst
        warm = prepared.serve(nxt, f_first2)
        assert warm < cold
        assert prepared.prepared_banks == 1

    def test_refresh_amortized_at_boundaries(self):
        ctrl = ddrc()  # refresh on
        # Arrive while the owed refresh is still draining, so the access
        # visibly waits behind it.
        late = T.t_refi + 2
        txn = read(0x0)
        finish_with_refresh = ctrl.serve(txn, late)

        no_refresh = ddrc(refresh_enabled=False)
        finish_without = no_refresh.serve(read(0x0), late)
        assert finish_with_refresh > finish_without
        assert ctrl.refreshes == 1

    def test_idle_until_catches_up_refreshes(self):
        ctrl = ddrc()
        ctrl.idle_until(T.t_refi * 3 + 5)
        assert ctrl.refreshes == 3

    def test_access_permitted_blocks_during_refresh(self):
        ctrl = ddrc()
        txn = read(0x0)
        permitted = ctrl.access_permitted_at(txn, T.t_refi + 1)
        assert permitted > T.t_refi + 1

    def test_idle_banks_and_scores(self):
        ctrl = ddrc(refresh_enabled=False)
        assert ctrl.idle_banks(0) == (1 << T.num_banks) - 1
        ctrl.serve(read(0x0), 0)
        assert ctrl.access_score(0x0, 100) == 0  # row open
        assert ctrl.idle_banks(100) != (1 << T.num_banks) - 1

    def test_row_hit_rate(self):
        ctrl = ddrc(refresh_enabled=False)
        f = ctrl.serve(read(0x0), 0)
        ctrl.serve(read(0x4), f + 1)
        assert 0.0 < ctrl.row_hit_rate() <= 0.5 + 1e-9

    def test_counters(self):
        ctrl = ddrc(refresh_enabled=False)
        f = ctrl.serve(write(0x0, [1]), 0)
        ctrl.serve(read(0x0), f + 1)
        assert ctrl.writes == 1 and ctrl.reads == 1 and ctrl.data_beats == 2


# -- one-segment service against the per-beat reference -------------------------


def per_beat_segments(ctrl, txn):
    """Reference split: decode every beat, cut where (bank, row) changes."""
    segments = []
    for addr in transaction_addresses(txn):
        baddr = decode_address(addr, ctrl.timing, ctrl.bus_bytes)
        if segments and same_row(segments[-1][0], baddr):
            segments[-1][1].append(addr)
        else:
            segments.append((baddr, [addr]))
    return segments


def per_beat_serve(ctrl, txn, start_cycle):
    """Reference service: one memory call per beat over the reference split."""
    ctrl._refresh_catchup(start_cycle)
    txn.started_at = start_cycle
    command_from = finish = start_cycle + 1
    data = (txn.data or [0] * txn.beats) if txn.is_write else []
    read_data = []
    beat = 0
    for baddr, addrs in per_beat_segments(ctrl, txn):
        plan = ctrl.timeline.schedule_access(
            baddr, txn.is_write, len(addrs), command_from
        )
        for addr in addrs:
            if txn.is_write:
                ctrl.memory.write(addr, txn.size_bytes, data[beat])
            else:
                read_data.append(ctrl.memory.read(addr, txn.size_bytes))
            beat += 1
        finish = plan.finish
        command_from = plan.cas_at + 1
        ctrl.data_beats += len(addrs)
    if txn.is_write:
        ctrl.writes += 1
    else:
        txn.data = read_data
        ctrl.reads += 1
    return finish


#: Device bytes of DDR_TEST behind a 4-byte bus, and one row's bytes.
CAPACITY = T.total_words * 4
ROW_BYTES = T.words_per_row * 4


@st.composite
def bursts(draw):
    """Bursts near row/bank edges and the device end, some beyond it."""
    size = draw(st.sampled_from((1, 2, 4, 8, 16)))
    wrapping = draw(st.booleans())
    beats = draw(st.sampled_from((4, 8, 16))) if wrapping else draw(st.integers(1, 16))
    anchor = draw(
        st.sampled_from((0, ROW_BYTES, 3 * ROW_BYTES, CAPACITY - ROW_BYTES, CAPACITY))
    )
    offset = draw(st.integers(-4 * size * beats, 2 * ROW_BYTES)) // size * size
    is_write = draw(st.booleans())
    data = []
    if is_write:
        top = (1 << (8 * min(size, 4))) - 1
        data = draw(st.lists(st.integers(0, top), min_size=beats, max_size=beats))
    return Transaction(
        master=0,
        kind=AccessKind.WRITE if is_write else AccessKind.READ,
        addr=anchor + offset,
        beats=beats,
        size_bytes=size,
        wrapping=wrapping,
        data=data,
    )


def twin(txn):
    """An equal but distinct copy of *txn*, for a second controller."""
    return Transaction(
        master=txn.master,
        kind=txn.kind,
        addr=txn.addr,
        beats=txn.beats,
        size_bytes=txn.size_bytes,
        wrapping=txn.wrapping,
        data=list(txn.data),
    )


def _outcome(call):
    try:
        return "ok", call()
    except MemoryError_ as exc:
        return "error", str(exc)


class TestSegmentService:
    @settings(max_examples=300, deadline=None)
    @given(txn=bursts())
    def test_segments_match_per_beat_split(self, txn):
        ctrl = ddrc(refresh_enabled=False)

        def listed():
            # Segments may hold ranges; compare their beat addresses as lists.
            return [(baddr, list(addrs)) for baddr, addrs in ctrl._segments(txn)]

        assert _outcome(listed) == _outcome(lambda: per_beat_segments(ctrl, txn))

    @settings(max_examples=150, deadline=None)
    @given(txns=st.lists(bursts(), min_size=1, max_size=8))
    def test_serve_matches_per_beat_reference(self, txns):
        fast, slow = ddrc(), ddrc()
        cycle = 0
        for txn in txns:
            copy = twin(txn)
            got = _outcome(lambda: fast.serve(txn, cycle))
            want = _outcome(lambda: per_beat_serve(slow, copy, cycle))
            assert got == want
            if got[0] == "ok":
                assert txn.data == copy.data
                cycle = got[1] + 1
        assert fast.memory.equal_contents(slow.memory)
        assert fast.memory.touched_bytes() == slow.memory.touched_bytes()
        assert (fast.memory.read_ops, fast.memory.write_ops) == (
            slow.memory.read_ops,
            slow.memory.write_ops,
        )
        assert (fast.data_beats, fast.reads, fast.writes) == (
            slow.data_beats,
            slow.reads,
            slow.writes,
        )


# -- the next-transaction hint against a controller that never reuses it -------------


@st.composite
def in_capacity_bursts(draw):
    """Incrementing or wrapping 4-byte bursts wholly inside the device."""
    wrapping = draw(st.booleans())
    beats = draw(st.sampled_from((4, 8, 16))) if wrapping else draw(st.integers(1, 16))
    addr = draw(st.integers(0, CAPACITY // 4 - 16)) * 4
    if wrapping:
        addr -= addr % (4 * beats)
    data = []
    if draw(st.booleans()):
        words = st.integers(0, 0xFFFF_FFFF)
        data = draw(st.lists(words, min_size=beats, max_size=beats))
    kind = AccessKind.WRITE if data else AccessKind.READ
    return Transaction(
        master=0, kind=kind, addr=addr, beats=beats, wrapping=wrapping, data=data
    )


@st.composite
def hinted_services(draw):
    """Earlier traffic, a hinted transaction *a* and a served one *b*."""
    history = draw(st.lists(in_capacity_bursts(), max_size=4))
    a = draw(in_capacity_bursts())
    case = draw(st.sampled_from(("same", "same-address", "elsewhere", "beyond")))
    if case == "same":
        b = a
    elif case == "same-address":
        other = draw(in_capacity_bursts())
        b = Transaction(
            master=0, kind=other.kind, addr=a.addr, beats=other.beats, data=other.data
        )
    elif case == "elsewhere":
        b = draw(in_capacity_bursts())
    else:
        b = read(CAPACITY + draw(st.integers(0, 64)) * 4, beats=draw(st.integers(1, 4)))
    gap = draw(st.integers(0, 2 * T.t_refi))
    lead = draw(st.integers(0, 12))
    return history, a, b, gap, lead


def _state(ctrl):
    return (
        ctrl.reads,
        ctrl.writes,
        ctrl.refreshes,
        ctrl.data_beats,
        ctrl.prepared_banks,
        ctrl.memory.read_ops,
        ctrl.memory.write_ops,
        ctrl.memory.touched_bytes(),
        ctrl.timeline.stats(),
        ctrl.timeline.data_busy_until,
    )


class TestNextInfoHint:
    @settings(max_examples=200, deadline=None)
    @given(services=hinted_services())
    def test_hint_never_changes_service(self, services):
        """``notify_next(a); serve(b)`` equals serving *b* with no hint.

        The reference controller gets the same row preparation from a
        copy of *a*, then serves a copy of *b* through the per-beat
        reference, which decodes every beat itself.  Whether *b* is *a*,
        another transaction at *a*'s address, one elsewhere or one
        beyond the device (which must still raise), the finish cycle,
        read data, memory image and counters agree.
        """
        history, a, b, gap, lead = services
        hinted, fresh = ddrc(), ddrc()
        cycle = 0
        for txn in history:
            finish = hinted.serve(txn, cycle)
            assert per_beat_serve(fresh, twin(txn), cycle) == finish
            cycle = finish + 1
        serve_at = cycle + gap
        notify_at = max(cycle, serve_at - lead)
        b_twin = twin(b)
        assert hinted.notify_next(a, notify_at) == fresh.notify_next(twin(a), notify_at)
        got = _outcome(lambda: hinted.serve(b, serve_at))
        want = _outcome(lambda: per_beat_serve(fresh, b_twin, serve_at))
        assert got == want
        assert b.data == b_twin.data
        assert hinted.memory.equal_contents(fresh.memory)
        assert _state(hinted) == _state(fresh)
