"""The seeded traffic generator: bit-exactness, laws and workload payloads.

The generator's contract is the strongest kind: for every
``(pattern, master, count, seed)`` it must produce the *identical*
``TrafficItem`` sequence the seed implementation produced.
``_legacy_generate`` below is a verbatim frozen copy of that seed
implementation — the golden arbitration trace pins the same property
end-to-end, this test pins it item by item.
"""

import hashlib
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.ahb.burst import KB_BOUNDARY, check_burst_legal
from repro.ahb.master import TrafficItem
from repro.ahb.transaction import Transaction
from repro.ahb.types import AccessKind
from repro.errors import TrafficError
from repro.traffic import (
    AUDIO,
    CPU,
    DMA,
    MPEG,
    RANDOM,
    VIDEO,
    WRITER,
    TrafficPattern,
    Workload,
    generate_items,
    table1_pattern_a,
)
from repro.traffic.generator import _beat_data
from repro.traffic.patterns import NAMED_PATTERNS


# -- the frozen seed implementation (the generator's reference) ------------------


def _legal_beats(addr, beats, size_bytes, span_end):
    room_kb = (KB_BOUNDARY - addr % KB_BOUNDARY) // size_bytes
    room_span = (span_end - addr) // size_bytes
    return max(1, min(beats, room_kb, room_span))


def _legacy_generate(pattern, master_index, count, seed):
    """Verbatim copy of the seed repo's ``generate_items`` loop."""
    rng = random.Random(f"{seed}/{pattern.name}/{master_index}")
    items = []
    burst_choices = [beats for beats, _w in pattern.burst_mix]
    burst_weights = [weight for _b, weight in pattern.burst_mix]
    span_end = pattern.base_addr + pattern.addr_span
    next_sequential = pattern.base_addr
    data_mask = (1 << (8 * pattern.size_bytes)) - 1
    for index in range(count):
        beats = rng.choices(burst_choices, weights=burst_weights)[0]
        if rng.random() < pattern.sequential_fraction:
            addr = next_sequential
            if addr + beats * pattern.size_bytes > span_end:
                addr = pattern.base_addr
        else:
            span_words = pattern.addr_span // pattern.size_bytes
            addr = (
                pattern.base_addr
                + rng.randrange(span_words) * pattern.size_bytes
            )
        wrapping = False
        if beats in (4, 8, 16) and pattern.wrap_fraction > 0:
            block = beats * pattern.size_bytes
            block_base = (addr // block) * block
            if (
                block_base >= pattern.base_addr
                and block_base + block <= span_end
                and rng.random() < pattern.wrap_fraction
            ):
                wrapping = True
        if not wrapping:
            beats = _legal_beats(addr, beats, pattern.size_bytes, span_end)
        advance = (
            pattern.stride_bytes
            if pattern.stride_bytes is not None
            else beats * pattern.size_bytes
        )
        next_sequential = addr + advance
        if next_sequential >= span_end:
            next_sequential = pattern.base_addr
        is_read = rng.random() < pattern.read_fraction
        txn = Transaction(
            master=master_index,
            kind=AccessKind.READ if is_read else AccessKind.WRITE,
            addr=addr,
            beats=beats,
            size_bytes=pattern.size_bytes,
            wrapping=wrapping,
            data=(
                []
                if is_read
                else [rng.getrandbits(32) & data_mask for _ in range(beats)]
            ),
        )
        think = rng.randint(*pattern.think_range)
        not_before = None
        absolute_deadline = None
        if pattern.period is not None:
            not_before = index * pattern.period
            if pattern.deadline_offset is not None:
                absolute_deadline = not_before + pattern.deadline_offset
        items.append(
            TrafficItem(
                txn=txn,
                think_cycles=think,
                not_before=not_before,
                deadline_offset=(
                    None
                    if absolute_deadline is not None
                    else pattern.deadline_offset
                ),
                absolute_deadline=absolute_deadline,
            )
        )
    return items


def _item_tuple(item):
    txn = item.txn
    return (
        txn.master,
        txn.kind,
        txn.addr,
        txn.beats,
        txn.size_bytes,
        txn.wrapping,
        tuple(txn.data),
        item.think_cycles,
        item.not_before,
        item.deadline_offset,
        item.absolute_deadline,
    )


WRAPPY = replace(CPU, wrap_fraction=0.6)
STRIDED = replace(
    DMA,
    sequential_fraction=1.0,
    stride_bytes=0x1000,
    burst_mix=((4, 1.0),),
    addr_span=0x10000,
)

PATTERNS = (CPU, DMA, VIDEO, WRITER, WRAPPY, STRIDED)


class TestCompatBitExactness:
    @pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: p.name)
    def test_matches_frozen_seed_implementation(self, pattern):
        for seed in (1, 7, 11, 33):
            want = [_item_tuple(i) for i in _legacy_generate(pattern, 2, 60, seed)]
            got = [_item_tuple(i) for i in generate_items(pattern, 2, 60, seed)]
            assert got == want

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), count=st.integers(0, 40))
    def test_matches_frozen_seed_implementation_fuzzed(self, seed, count):
        want = [_item_tuple(i) for i in _legacy_generate(WRAPPY, 0, count, seed)]
        got = [_item_tuple(i) for i in generate_items(WRAPPY, 0, count, seed)]
        assert got == want

    @pytest.mark.parametrize("size_bytes", (1, 2, 4, 8, 16))
    def test_every_beat_size_matches_frozen_seed_implementation(self, size_bytes):
        writer = replace(WRAPPY, size_bytes=size_bytes, read_fraction=0.3)
        for seed in (2, 19):
            want = [_item_tuple(i) for i in _legacy_generate(writer, 1, 60, seed)]
            got = [_item_tuple(i) for i in generate_items(writer, 1, 60, seed)]
            assert got == want

    @pytest.mark.parametrize("size_bytes", (1, 2, 4, 8, 16))
    def test_bulk_beat_data_equals_per_beat_draws(self, size_bytes):
        """One getrandbits(32 * beats) draw gives the per-beat values and
        leaves the generator where the per-beat calls leave it."""
        data_mask = (1 << (8 * size_bytes)) - 1
        for seed in range(50):
            for beats in range(1, 17):
                bulk, per_beat = random.Random(seed), random.Random(seed)
                got = _beat_data(bulk, beats, data_mask & 0xFFFFFFFF)
                want = [per_beat.getrandbits(32) & data_mask for _ in range(beats)]
                assert got == want
                assert bulk.getstate() == per_beat.getstate()


#: ``generate_items`` output digests recorded before the generator's
#: loop was last rewritten: every named pattern (``burst_gap``, periods
#: and deadlines included, which the frozen reference above does not
#: model) at 3 seeds and 2 master indices, 200 items each.
PINNED_DIGESTS = {
    "audio/1/0": "cb82542016aa099e",
    "audio/1/3": "d715e7099fb93766",
    "audio/7/0": "8d19a390c5d7c64d",
    "audio/7/3": "127287aee55f5fdf",
    "audio/42/0": "f36d468eb26791b3",
    "audio/42/3": "05221cb633d3f308",
    "cpu/1/0": "99f50bed3ef4df2b",
    "cpu/1/3": "6da6882f383b2e38",
    "cpu/7/0": "0b2215a68ff8e5de",
    "cpu/7/3": "26aa8e6a107ef164",
    "cpu/42/0": "25d05ccc0f3c6a68",
    "cpu/42/3": "2c3b61980a3a313f",
    "dma/1/0": "2b3bcf37b2982bb0",
    "dma/1/3": "56c3ebf35ad350e1",
    "dma/7/0": "458744de7f8cb213",
    "dma/7/3": "4b2f209ad8f69e00",
    "dma/42/0": "63caa93c87ad311f",
    "dma/42/3": "953ef94349826a17",
    "mpeg/1/0": "1cc081ecea1d3a15",
    "mpeg/1/3": "c6247b64b99a30f7",
    "mpeg/7/0": "0fd243d3a09397db",
    "mpeg/7/3": "63ae316d982d46c8",
    "mpeg/42/0": "0f3c47e12284e16d",
    "mpeg/42/3": "b9fa2343d3d6687d",
    "random/1/0": "a8144ca3535edafe",
    "random/1/3": "0e1e34ed694bb17a",
    "random/7/0": "8ba076cdbf12b5ba",
    "random/7/3": "f400f11a456765d3",
    "random/42/0": "5b15c949aee0bd48",
    "random/42/3": "6e74cf61e46be232",
    "video/1/0": "72cce2ce543ca7f6",
    "video/1/3": "34d23b502b5c062a",
    "video/7/0": "c08226a83141fb27",
    "video/7/3": "bc999cf6d1db1068",
    "video/42/0": "1456f5ed436db5d0",
    "video/42/3": "5f18865cf116c92c",
    "writer/1/0": "10445eefc414456e",
    "writer/1/3": "1a970d8ae75f321c",
    "writer/7/0": "cb3af1b312822f0e",
    "writer/7/3": "44b89e1c7abb2fef",
    "writer/42/0": "164d2d91db3e9ee0",
    "writer/42/3": "3e4013c0eea4e122",
}


def _generated_digest(pattern, master_index, seed):
    items = generate_items(pattern, master_index, 200, seed)
    text = repr([_item_tuple(item) for item in items])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestPinnedDigests:
    def test_pins_cover_every_named_pattern(self):
        assert {key.split("/")[0] for key in PINNED_DIGESTS} == set(NAMED_PATTERNS)

    @pytest.mark.parametrize("name", sorted(NAMED_PATTERNS))
    def test_named_pattern_output_is_pinned(self, name):
        pattern = NAMED_PATTERNS[name]
        for seed in (1, 7, 42):
            for master_index in (0, 3):
                key = f"{name}/{seed}/{master_index}"
                assert _generated_digest(pattern, master_index, seed) == PINNED_DIGESTS[key], key


class TestGeneratorLaws:
    def test_deterministic_per_seed(self):
        """Every call restarts from the seed."""
        first = [_item_tuple(i) for i in generate_items(DMA, 0, 80, 3)]
        assert first == [_item_tuple(i) for i in generate_items(DMA, 0, 80, 3)]

    def test_different_seeds_differ(self):
        a = generate_items(CPU, 0, 50, 7)
        b = generate_items(CPU, 0, 50, 8)
        assert [i.txn.addr for i in a] != [i.txn.addr for i in b]

    def test_different_masters_differ(self):
        """The master index is part of the seed: two masters on one
        pattern do not issue the same stream."""
        a = generate_items(CPU, 0, 50, 7)
        b = generate_items(CPU, 1, 50, 7)
        assert [i.txn.addr for i in a] != [i.txn.addr for i in b]

    @pytest.mark.parametrize(
        "pattern", (*PATTERNS, MPEG, AUDIO, RANDOM), ids=lambda p: p.name
    )
    def test_protocol_legal(self, pattern):
        for item in generate_items(pattern, 0, 300, 13):
            txn = item.txn
            check_burst_legal(txn)
            assert txn.addr % txn.size_bytes == 0
            end = pattern.base_addr + pattern.addr_span
            assert pattern.base_addr <= txn.addr < end
            assert txn.addr + txn.total_bytes <= end

    def test_write_items_carry_data(self):
        writer = replace(CPU, read_fraction=0.0)
        for item in generate_items(writer, 0, 30, 3):
            assert item.txn.is_write
            assert len(item.txn.data) == item.txn.beats
            assert all(0 <= w < (1 << 32) for w in item.txn.data)

    def test_periodic_pattern_sets_schedule(self):
        items = generate_items(VIDEO, 0, 5, 1)
        assert [i.not_before for i in items] == [
            k * VIDEO.period for k in range(5)
        ]
        assert all(i.absolute_deadline is not None for i in items)

    def test_spans_legal_and_sequential_chain(self):
        items = generate_items(STRIDED, 0, 4, 1)
        addrs = [i.txn.addr for i in items]
        assert addrs == [0x0, 0x1000, 0x2000, 0x3000]


class TestBurstGap:
    def test_gap_applies_at_burst_boundaries(self):
        per_burst, gap_lo, gap_hi = MPEG.burst_gap
        items = generate_items(MPEG, 0, 3 * per_burst + 1, 4)
        for index, item in enumerate(items):
            if index > 0 and index % per_burst == 0:
                assert gap_lo <= item.think_cycles <= gap_hi, index
            else:
                lo, hi = MPEG.think_range
                assert lo <= item.think_cycles <= hi, index

    def test_validation(self):
        with pytest.raises(TrafficError):
            TrafficPattern(name="bad", burst_gap=(0, 1, 2))
        with pytest.raises(TrafficError):
            TrafficPattern(name="bad", burst_gap=(4, 5, 2))

    def test_pattern_round_trip(self):
        rebuilt = TrafficPattern.from_dict(MPEG.to_dict())
        assert rebuilt == MPEG


class TestModesAndWorkloads:
    def test_unknown_mode_rejected(self):
        """Any generator name but the one left is refused, not only the
        deleted ``stream``."""
        payload = dict(
            Workload("w", table1_pattern_a(5).masters, 1).to_dict(),
            gen_mode="quantum",
        )
        with pytest.raises(TrafficError, match="'quantum'"):
            Workload.from_dict(payload)

    def test_negative_count_rejected(self):
        with pytest.raises(TrafficError):
            generate_items(CPU, 0, -1, seed=0)

    def test_removed_generator_is_rejected_from_payloads(self):
        """A payload asking for the deleted ``stream`` generator fails
        loudly, at the workload and through a wire-level system spec,
        instead of silently running the one generator's traffic."""
        from repro.system import SystemSpec, paper_topology

        workload = Workload("w", table1_pattern_a(5).masters, 1)
        for gen_mode in ("compat", None):
            payload = workload.to_dict()
            if gen_mode is not None:
                payload["gen_mode"] = gen_mode
            assert Workload.from_dict(payload) == workload
        stream = dict(workload.to_dict(), gen_mode="stream")
        with pytest.raises(TrafficError, match="'stream'"):
            Workload.from_dict(stream)
        spec = paper_topology(workload=workload).to_dict()
        spec["workload"] = stream
        with pytest.raises(TrafficError, match="'stream'"):
            SystemSpec.from_dict(spec)

    def test_workload_platforms_agree(self):
        """A workload is the same stream at every level."""
        from repro.system import PlatformBuilder, paper_topology

        workload = Workload("w", table1_pattern_a(12).masters, 3)
        builder = PlatformBuilder(paper_topology(workload=workload))
        tlm = builder.build("tlm")
        tlm_result = tlm.run()
        rtl = builder.build("rtl")
        rtl.run()
        assert rtl.memory.equal_contents(tlm.memory)
        assert tlm_result.transactions > 0
